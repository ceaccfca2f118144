"""Independent reference implementations used to freeze expected values.

Everything here is written the slow, obvious way (quadrature, explicit
Python loops, analytic series) and imports nothing from branchbox, so
tests can compare the package against genuinely independent numerics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm


def gaussian_pdf(x, mean, sigma):
    return math.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def gaussian_interval_mass(mean, variance, lo, hi):
    """Mass of N(mean, variance) on [lo, hi] by adaptive quadrature."""
    sigma = math.sqrt(variance)
    val, _ = quad(gaussian_pdf, lo, hi, args=(mean, sigma), epsabs=1e-15, limit=200)
    return val


def lattice_bin_masses(mean, variance, bin_width, n_sigma=6.0):
    """Brute-force offspring kernel.

    Bins of width h centered at k*h; every bin intersecting the
    [mean - n_sigma*s, mean + n_sigma*s] window is integrated over the
    clipped intersection and the result renormalized.  A window edge
    exactly on a bin edge contributes that bin nothing.
    """
    sigma = math.sqrt(variance)
    lo_t, hi_t = mean - n_sigma * sigma, mean + n_sigma * sigma
    h = bin_width
    centers, masses = [], []
    k = math.floor(lo_t / h + 0.5)
    while (k - 0.5) * h < hi_t:
        lo = max((k - 0.5) * h, lo_t)
        hi = min((k + 0.5) * h, hi_t)
        if hi > lo:
            m = gaussian_interval_mass(mean, variance, lo, hi)
            if m > 0:
                centers.append(k * h)
                masses.append(m)
        k += 1
    masses = np.array(masses)
    centers = np.array(centers)
    masses = masses / masses.sum()
    keep = masses > 0
    return centers[keep], masses[keep]


def largest_remainder(weights, total):
    """Independent largest-remainder rounding, ties to the lower index."""
    weights = list(weights)
    quotas = [w * total for w in weights]
    counts = [math.floor(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in order[: int(leftover)]:
        counts[i] += 1
    return counts


def reflected_density(x, mean, variance, L, n_images=40):
    """Gaussian density folded into [0, L] by the method of images."""
    sigma = math.sqrt(variance)
    total = 0.0
    for j in range(-n_images, n_images + 1):
        total += gaussian_pdf(x, mean + 2 * j * L, sigma)
        total += gaussian_pdf(x, -mean + 2 * j * L, sigma)
    return total


def reflected_bin_masses(mean, variance, L, k):
    """Histogram of a wall-folded Gaussian over k equal bins, by quadrature."""
    edges = np.linspace(0.0, L, k + 1)
    out = np.empty(k)
    for i in range(k):
        val, _ = quad(
            reflected_density, edges[i], edges[i + 1],
            args=(mean, variance, L), epsabs=1e-13, limit=200,
        )
        out[i] = val
    return out / out.sum()


def box_heat_density(x, x0, t, D, L, n_terms=400):
    """Diffusion Green's function with reflecting walls (cosine series)."""
    total = 1.0 / L
    for n in range(1, n_terms + 1):
        kn = n * math.pi / L
        total += (2.0 / L) * math.exp(-D * kn * kn * t) \
            * math.cos(kn * x) * math.cos(kn * x0)
    return total


def box_heat_bin_masses(x0, t, D, L, k, n_terms=400):
    """Bin masses of the reflecting-wall heat kernel at time t."""
    edges = np.linspace(0.0, L, k + 1)
    out = np.empty(k)
    for i in range(k):
        lo, hi = edges[i], edges[i + 1]
        total = (hi - lo) / L
        for n in range(1, n_terms + 1):
            kn = n * math.pi / L
            total += (2.0 / L) * math.exp(-D * kn * kn * t) * math.cos(kn * x0) \
                * (math.sin(kn * hi) - math.sin(kn * lo)) / kn
        out[i] = total
    return out


def folded_site_masses(site, weight, origin, pitch, L):
    """Distinct positions in [0, L] of branches on unfolded lattice sites, and
    their normalized masses, folding only the occupied sites of this row.

    Masses are summed per site, each occupied site's position origin +
    site * pitch is folded by images (period 2L, the upper half mirrored),
    and ``np.unique`` merges sites folded onto one position.  Integer
    masses summing below 2**31 are summed per site as integers, and each
    site's mass is the fraction count / total rounded once; float masses
    are normalized, then summed.
    """
    lo = site.min()
    if weight.dtype == np.int64 and (total := int(weight.sum())) < 2**31:
        counts = np.zeros(int(site.max() - lo) + 1, np.int64)
        np.add.at(counts, site - lo, weight)
        mass = np.array([float(Fraction(int(c), total)) for c in counts])
    else:
        mass = np.bincount(site - lo, weights=weight / weight.sum())
    occupied = np.flatnonzero(mass > 0)
    y = np.mod(origin + (occupied + lo) * pitch, 2.0 * L)
    y = np.where(y > L, 2.0 * L - y, y)
    x, which = np.unique(y, return_inverse=True)
    return x, np.bincount(which, weights=mass[occupied])


def walk_chain_masses(kernel_sites, kernel_masses, start_site, top_site, steps):
    """Reflected lattice walk, dict-based: site index -> probability mass.

    Sites run 0..top_site; a step adds a kernel offset and folds the
    result back by mirror reflection at 0 and top_site.
    """
    mass = {start_site: 1.0}
    period = 2 * top_site
    for _ in range(steps):
        nxt: dict[int, float] = {}
        for site, m in mass.items():
            for off, km in zip(kernel_sites, kernel_masses):
                j = (site + off) % period
                if j > top_site:
                    j = period - j
                nxt[j] = nxt.get(j, 0.0) + m * km
        mass = nxt
    return mass


def box_chain_reference(kernel_sites, kernel_masses, start_site, top_site, steps):
    """Lattice chain reflected at the walls, vectorized: masses on sites 0..top_site.

    Yields the mass vector after k = 0 .. steps steps.  Each step moves
    the mass of site i by every kernel offset, folds the target back into
    0..top_site by mirror reflection at both ends and sums what lands on
    each site.  It needs both walls on the lattice.
    """
    period = 2 * top_site
    raw = np.arange(top_site + 1)[:, None] + np.asarray(kernel_sites)[None, :]
    folded = raw % period
    folded = np.where(folded > top_site, period - folded, folded).ravel()
    mass = np.zeros(top_site + 1)
    mass[start_site] = 1.0
    yield mass
    for _ in range(steps):
        mass = np.bincount(
            folded, weights=(mass[:, None] * np.asarray(kernel_masses)[None, :]).ravel(),
            minlength=top_site + 1,
        )
        yield mass


def gaussian_channel_entropy(packet_variance, width):
    """Entropy of a pure Gaussian after position decoherence, closed form.

    The output kernel exp(-A(x^2 + x'^2) + Bxx') has a geometric
    spectrum p_n = (1 - z) z^n with z = (B/2) / (A + sqrt(A^2 - B^2/4)),
    where A = 1/(4 s2) + 1/(8 w^2) and B = 1/(4 w^2); the entropy is
    that of the geometric distribution.
    """
    a = 1.0 / (4.0 * packet_variance) + 1.0 / (8.0 * width**2)
    b = 1.0 / (4.0 * width**2)
    z = (b / 2.0) / (a + math.sqrt(a * a - b * b / 4.0))
    return -math.log(1.0 - z) - z / (1.0 - z) * math.log(z)


def gaussian_channel_entropy_grid(packet_variance, width, n=2000, half_width=12.0):
    """Same entropy by brute force: fine free-space grid, dense eigvalsh."""
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    psi = np.exp(-x**2 / (4.0 * packet_variance))
    psi = psi / math.sqrt(float(psi @ psi) * dx)
    rho = np.outer(psi, psi)
    rho *= np.exp(-np.subtract.outer(x, x) ** 2 / (8.0 * width**2))
    lam = np.linalg.eigvalsh(rho) * dx
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log(lam)).sum())


def pool_small_cells_rescan(observed, expected, min_expected=5.0):
    """Adjacent-cell pooling by a full rescan per merge, O(cells^2).

    The smallest scaled expected count (ties to the left) merges into its
    smaller neighbor (ties to the left) until the floor holds or two cells
    remain.
    """
    obs = [float(o) for o in np.asarray(observed, float)]
    exp = [float(x) for x in np.asarray(expected, float)]
    if len(obs) != len(exp) or len(obs) < 2:
        raise ValueError("need matching observed/expected with >= 2 cells")
    n_total = sum(obs)
    while len(obs) > 2:
        scaled = [p * n_total for p in exp]
        i = min(range(len(obs)), key=lambda j: (scaled[j], j))
        if scaled[i] >= min_expected:
            break
        if i == 0:
            j = 1
        elif i == len(obs) - 1:
            j = i - 1
        else:
            j = i - 1 if exp[i - 1] <= exp[i + 1] else i + 1
        obs[j] += obs[i]
        exp[j] += exp[i]
        del obs[i], exp[i]
    return np.array(obs), np.array(exp)


def unitary_step(hamiltonian, rho, dt, hbar=1.0):
    """rho -> U rho U^+ with U = exp(-i H dt / hbar) from a dense matrix
    exponential, with no use of H's eigenbasis."""
    u = expm(-1j * np.asarray(hamiltonian) * dt / hbar)
    return u @ rho @ u.conj().T


def random_mixed_state(n, L, rng, rank, n_modes=16):
    """Mixture of ``rank`` random sine-mode superpositions, summed one
    outer product at a time; draws the weights, then per component its
    real then imaginary mode coefficients.  Returns the (n, n) kernel."""
    dx = L / (n + 1)
    x = dx * np.arange(1, n + 1)
    modes = np.sin(np.outer(x, np.arange(1, n_modes + 1)) * math.pi / L)
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((n, n), complex)
    for k in range(rank):
        c = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        psi = modes @ c
        psi /= math.sqrt(float(np.vdot(psi, psi).real) * dx)
        rho += weights[k] * np.outer(psi, psi.conj())
    return 0.5 * (rho + rho.conj().T)


def density_series(rho, vectors, energies, dt, hbar, steps, x, bins, L):
    """Series rows (t, 1, 1.0, mean, var, coarse entropy, TV to uniform) of
    rho under n-step unitary evolution, one step and one row at a time:
    each step's diagonal is diag(V Re(rho_e) V^T) from a dense matmul."""
    v = np.asarray(vectors)
    edges = np.linspace(0.0, L, bins + 1)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
    rho_e = v.T @ rho @ v
    phase = np.exp(-1j * np.asarray(energies) * dt / hbar)
    rows = []
    for k in range(steps + 1):
        if k:
            rho_e = rho_e * np.outer(phase, phase.conj())
        diag = np.einsum("ij,ij->i", v @ rho_e.real, v)
        prob = np.maximum(diag, 0.0)
        prob = prob / prob.sum()
        mean = float(prob @ x)
        var = float(prob @ (x - mean) ** 2)
        hist = np.bincount(which, weights=prob, minlength=bins)
        hist = hist / hist.sum()
        pos = hist[hist > 0]
        rows.append((k * dt, 1, 1.0, mean, var, float(-(pos @ np.log(pos))),
                     float(0.5 * np.abs(hist - 1.0 / bins).sum())))
    return rows


# splitmix64's increment, the golden-ratio gamma
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_array(x):
    """One splitmix64 round on a uint64 array, one fresh temporary per
    operation, with Python-int constants.  A 0-d input is mixed as a
    1-element array, as numpy scalars warn on the wrapping multiplies."""
    x = np.asarray(x, dtype=np.uint64)
    z = x.reshape(-1) + np.uint64(SPLITMIX_GAMMA)
    z = z ^ (z >> 30)
    z = z * 0xBF58476D1CE4E5B9
    z = z ^ (z >> 27)
    z = z * 0x94D049BB133111EB
    return (z ^ (z >> 31)).reshape(x.shape)


def unit_uniform_array(key):
    """Keys to (0, 1): the top 52 bits of one splitmix64 round, offset by
    half their ulp, (m + 0.5) * 2**-52, in float arithmetic."""
    bits = splitmix64_array(key)
    return (np.asarray(bits >> 12, dtype=np.float64) + 0.5) * 2.0**-52


def cap_probe_phases(k, step_seed, key_cap):
    """Probe j's phase: unit_uniform((step_seed ^ key_cap) + j * gamma)."""
    j = np.arange(k, dtype=np.uint64)
    return unit_uniform_array((step_seed ^ key_cap) + j * np.uint64(SPLITMIX_GAMMA))


def probe_cells(mass, u):
    """First level of the cap: (cell of each probe, its fraction through the cell).

    Probe j sits at (u[j] + j) / K of the total mass.  Integer masses
    summing to K are multiplicities: cell g holds exactly probes H[g-1] ..
    H[g]-1 (H the cumsum), at fraction (j - H[g-1] + u[j]) / mass[g].  Other
    masses are searched on their float cumsum normalised to end at 1: cell g
    holds the probes in (edge[g], edge[g + 1]].
    """
    k = u.size
    j = np.arange(k)
    if mass.dtype == np.int64 and mass.sum() == k:
        cell = np.repeat(np.arange(mass.size), mass)
        start = np.cumsum(mass) - mass
        return cell, ((j - start[cell]) + u) / mass[cell]
    edge = np.concatenate(([0.0], np.cumsum(mass)))
    edge /= edge[-1]
    pos = (j + u) / k
    cell = np.searchsorted(edge[1:-1], pos, side="left")
    return cell, (pos - edge[cell]) / (edge[cell + 1] - edge[cell])


def stratified_hits(row_mass, u, group_start=None, group_mass=None):
    """Two-level stratified resampling of materialized rows: one probe per stride.

    ``row_mass`` holds every row and ``group_start`` the first row of each
    contiguous group (one group if omitted).  ``probe_cells`` gives each
    probe its group from the group masses (``group_mass``, by default the
    float sums of the groups' rows) and its fraction through the group, in
    (0, 1], which one search resolves on all groups' row CDFs, each
    normalised to end at exactly 1 and group g's shifted up by g.  The
    probes land where a flat search of all rows puts them, so row i
    collects K * mass_i / total probes in expectation, the hits total
    exactly K, and zero-mass rows or groups are never hit.  Returns
    (surviving flat indices, strictly increasing; probe hits per survivor).
    """
    start = np.zeros(1, np.int64) if group_start is None else np.asarray(group_start)
    cum = np.cumsum(row_mass)
    group = np.repeat(np.arange(start.size), np.diff(start, append=row_mass.size))
    edge = np.append(np.concatenate(([0.0], cum))[start], cum[-1])
    span = np.diff(edge)
    # (cum - edge) / span is exactly 1 on each group's last row
    row_cdf = group + (cum - edge[group]) / np.where(span > 0, span, 1.0)[group]
    cell, frac = probe_cells(span if group_mass is None else group_mass, u)
    # a fraction lost to rounding against the offset still lands past the
    # previous group's last entry and this group's zero-mass lead rows
    probe = np.maximum(cell + frac, np.nextafter(cell, np.inf))
    return np.unique(np.searchsorted(row_cdf, probe, side="left"), return_counts=True)


def lineage_hash_child(parent_hash, table, offspring_index):
    """One splitmix64 round of parent ^ T[b] for an event's table T."""
    parent = np.asarray(parent_hash, dtype=np.uint64)
    return splitmix64_array(np.bitwise_xor(parent, table[offspring_index], dtype=np.uint64))

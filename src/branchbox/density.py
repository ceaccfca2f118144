"""Exact small-grid quantum mechanics used as ground truth for the model.

The branching engine never touches a wavefunction; everything it claims
(entropy growth under localization, Liouville conservation under unitary
evolution, absence of recoherence for tagged components, diffusive
spreading) has an exact counterpart on a modest position grid.  This
module provides that counterpart: hard-wall box Hamiltonians, unitary
propagation and O(n^2) position densities in their closed-form DST-I sine
eigenbasis, the width-w Gaussian localization channel, von Neumann
entropy, interference visibility, and a classical reflected random walk.

Grid convention: n interior points x_i = i*dx, i = 1..n, with dx =
L/(n+1); hard walls sit at 0 and L.  Wavefunctions and density matrices
carry continuum normalization (sum |psi|^2 dx = 1, Tr(rho) dx = 1), so
grid objects converge to their continuum limits as dx -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import PhysicalParams, reflect_center

__all__ = [
    "GridWavefunction",
    "GridDensityMatrix",
    "grid_points",
    "build_box_hamiltonian",
    "packet_state",
    "superpose",
    "mixture_density",
    "random_mixed_state",
    "UnitaryPropagator",
    "SineDiagonal",
    "grw_localization_channel",
    "von_neumann_entropy",
    "interference_visibility",
    "fringe_content",
    "classical_random_walk_oracle",
]


def grid_points(n: int, p: PhysicalParams) -> tuple[np.ndarray, float]:
    """Interior grid x_i = i*dx (i = 1..n) with dx = L/(n+1)."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    dx = p.L / (n + 1)
    return dx * np.arange(1, n + 1, dtype=float), dx


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on the interior grid, continuum-normalized."""

    amplitudes: np.ndarray
    dx: float

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or self.amplitudes.size < 2:
            raise ValueError("amplitudes must be a 1-d vector of length >= 2")
        if not (self.dx > 0):
            raise ValueError(f"dx must be > 0, got {self.dx}")
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real) * self.dx
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"wavefunction norm must be 1 within 1e-10, got {norm!r}")

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def box_length(self) -> float:
        return self.dx * (self.n + 1)

    def positions(self) -> np.ndarray:
        return self.dx * np.arange(1, self.n + 1, dtype=float)

    def density(self) -> np.ndarray:
        """Position density |psi|^2 on the grid (integrates to 1 with dx)."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class GridDensityMatrix:
    """Hermitian position-basis kernel rho(x_i, x_j), Tr(rho) dx = 1."""

    elements: np.ndarray
    dx: float

    def __post_init__(self):
        m = self.elements
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("elements must be a square matrix of size >= 2")
        if not (self.dx > 0):
            raise ValueError(f"dx must be > 0, got {self.dx}")
        # |m - m^H| <= 1e-12 elementwise, compared squared: no square roots
        off = m.real - m.real.T
        np.square(off, out=off)
        if np.iscomplexobj(m):
            im = m.imag + m.imag.T
            off += np.square(im, out=im)
        if off.max() > 1e-24:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        trace = float(np.trace(m).real) * self.dx
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace * dx must be 1 within 1e-10, got {trace!r}")

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def box_length(self) -> float:
        return self.dx * (self.n + 1)

    def positions(self) -> np.ndarray:
        return self.dx * np.arange(1, self.n + 1, dtype=float)

    def density(self) -> np.ndarray:
        """Diagonal position density (integrates to 1 with dx)."""
        return np.maximum(self.elements.real.diagonal(), 0.0)


# ---------------------------------------------------------------------------
# states


def packet_state(
    n: int, p: PhysicalParams, center: float, variance: float,
    momentum: float = 0.0,
) -> GridWavefunction:
    """Gaussian packet with position variance ``variance`` and mean momentum."""
    if not (variance > 0):
        raise ValueError(f"variance must be > 0, got {variance}")
    x, dx = grid_points(n, p)
    psi = np.exp(-((x - center) ** 2) / (4.0 * variance) + 1j * momentum * x / p.hbar)
    norm = math.sqrt(float(np.vdot(psi, psi).real) * dx)
    if norm == 0:
        raise ValueError("packet has no support on the grid")
    return GridWavefunction(psi / norm, dx)


def superpose(states: Sequence[GridWavefunction], coefficients) -> GridWavefunction:
    """Coherent superposition sum c_k psi_k, renormalized."""
    if not states:
        raise ValueError("need at least one state")
    dx = states[0].dx
    if any(s.dx != dx or s.n != states[0].n for s in states):
        raise ValueError("states must share one grid")
    c = np.asarray(coefficients, complex)
    if c.shape != (len(states),):
        raise ValueError("one coefficient per state required")
    psi = sum(ck * s.amplitudes for ck, s in zip(c, states))
    norm = math.sqrt(float(np.vdot(psi, psi).real) * dx)
    if norm < 1e-300:
        raise ValueError("superposition cancels to zero")
    return GridWavefunction(psi / norm, dx)


def mixture_density(
    states: Sequence[GridWavefunction], weights
) -> GridDensityMatrix:
    """Incoherent mixture sum w_k |psi_k><psi_k| (tagged components never
    contribute cross terms, so a tagged ensemble maps to exactly this)."""
    if not states:
        raise ValueError("need at least one state")
    w = np.asarray(weights, float)
    if w.shape != (len(states),) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be >= 0 and sum to 1")
    dx = states[0].dx
    rho = np.zeros((states[0].n, states[0].n), complex)
    for wk, s in zip(w, states):
        if s.dx != dx or s.n != states[0].n:
            raise ValueError("states must share one grid")
        rho += wk * np.outer(s.amplitudes, s.amplitudes.conj())
    return GridDensityMatrix(rho, dx)


def random_mixed_state(
    n: int, p: PhysicalParams, rng: np.random.Generator,
    rank: int | None = None, n_modes: int = 16,
) -> GridDensityMatrix:
    """Random mixture of smooth random states (positive by construction).

    Components are random superpositions of the lowest box sine modes,
    so they respect the walls and have structure on scales the grid and
    the localization channel both resolve.
    """
    if rank is None:
        rank = int(rng.integers(1, 9))
    if rank < 1 or n_modes < 1:
        raise ValueError("rank and n_modes must be >= 1")
    x, dx = grid_points(n, p)
    modes = np.sin(np.outer(x, np.arange(1, n_modes + 1)) * math.pi / p.L)
    weights = rng.dirichlet(np.ones(rank))
    # component k draws its n_modes real parts, then its n_modes imaginary parts
    c = rng.normal(size=(rank, 2, n_modes))
    psi = modes @ (c[:, 0] + 1j * c[:, 1]).T
    psi /= np.linalg.norm(psi, axis=0) * math.sqrt(dx)
    rho = (psi * weights) @ psi.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return GridDensityMatrix(rho, dx)


# ---------------------------------------------------------------------------
# dynamics


def _box_kinetic_scale(n: int, p: PhysicalParams) -> float:
    """k = hbar^2/(2 m dx^2) of a box grid with n >= 32 and dx <= w/4."""
    if n < 32:
        raise ValueError(f"grid size must be >= 32, got {n}")
    dx = p.L / (n + 1)
    if dx > p.w / 4.0:
        raise ValueError(
            f"dx = {dx} does not resolve the localization width (need dx <= w/4 = {p.w / 4.0})"
        )
    return p.hbar**2 / (2.0 * p.m * dx * dx)


def build_box_hamiltonian(n: int, p: PhysicalParams) -> np.ndarray:
    """Kinetic operator -(hbar^2/2m) d^2/dx^2 with hard walls at 0 and L.

    Second-order central differences on the interior grid; Dirichlet
    boundaries come from simply omitting the wall points.  The matrix is
    real symmetric and positive definite.
    """
    k = _box_kinetic_scale(n, p)
    h = np.zeros((n, n))
    np.fill_diagonal(h, 2.0 * k)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = -k
    h[idx + 1, idx] = -k
    return h


def _sine_angles(rows: np.ndarray, n: int) -> np.ndarray:
    """DST-I arguments pi r j/(n+1), modes j = 1..n, with r*j reduced mod 2(n+1)."""
    return (np.outer(rows, np.arange(1, n + 1)) % (2 * (n + 1))) * (math.pi / (n + 1))


class UnitaryPropagator:
    """Exact unitary evolution under ``build_box_hamiltonian(n, p)``.

    H is k times the Dirichlet second difference, whose eigenpairs are the
    DST-I sine basis (Strang, SIAM Review 41, 1999), so no eigensolver runs:
    E_j = 2k(1 - cos(pi j/(n+1))) = 4k sin^2(pi j/(2(n+1))), ascending, and
    V_ij = sqrt(2/(n+1)) sin(pi i j/(n+1)), real, symmetric and orthogonal.
    """

    def __init__(self, n: int, p: PhysicalParams):
        k = _box_kinetic_scale(n, p)
        j = np.arange(1, n + 1)
        self.energies = 4.0 * k * np.sin(j * (math.pi / (2 * (n + 1)))) ** 2
        self.vectors = math.sqrt(2.0 / (n + 1)) * np.sin(_sine_angles(j, n))
        self.hbar = p.hbar

    def sine_diagonal(self) -> "SineDiagonal":
        """The O(n^2) reader of diag(V R V^T) for this propagator's basis V."""
        return SineDiagonal(self.vectors.shape[0])

    def propagate(self, psi: GridWavefunction, t: float) -> GridWavefunction:
        """Pure state psi -> exp(-i H t / hbar) psi, exact in the energy basis."""
        v = self.vectors
        amp = v @ (np.exp(-1j * self.energies * t / self.hbar) * (v.T @ psi.amplitudes))
        return GridWavefunction(amp, psi.dx)

    def evolve(self, rho: GridDensityMatrix, dt: float, n_steps: int) -> GridDensityMatrix:
        """n_steps unitary steps of size dt, composed in the energy basis.

        The n_steps phase factors compose into one power, applied once; the
        real basis multiplies Re and Im separately, never cast to complex.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        v, re, im = self.vectors, rho.elements.real, rho.elements.imag
        phase = np.exp(-1j * self.energies * dt / self.hbar) ** n_steps
        m = np.outer(phase, phase.conj()) * (v.T @ re @ v + 1j * (v.T @ im @ v))
        out = v @ m.real @ v.T + 1j * (v @ m.imag @ v.T)
        return GridDensityMatrix(0.5 * (out + out.conj().T), rho.dx)


class SineDiagonal:
    """diag(V R V^T) in O(n^2) for the n-point DST-I basis V and a real n x n R.

    V is ``UnitaryPropagator``'s basis, whose ``sine_diagonal`` builds this reader;
    V_ia V_ib = (cos(pi i (a - b)/(n + 1)) - cos(pi i (a + b)/(n + 1)))/(n + 1), so the
    diagonal is R's 2n - 1 diagonal and 2n - 1 anti-diagonal sums times ``table``.
    """

    def __init__(self, n: int):
        sign = np.repeat([1.0, -1.0], 2 * n - 1)[:, None] / (n + 1)
        self.table = sign * np.cos(_sine_angles(np.r_[n - 1:-n:-1, 2:2 * n + 1], n))
        # R sits in rows 1..n of a zero (n + 1, 2n) buffer; the views shift its row a right
        # by n - 1 - a, resp. by a, so column c sums a - b = n - 1 - c, resp. a + b = c (0-based)
        self._pad = np.zeros((n + 1, 2 * n))
        flat, item = self._pad.ravel(), self._pad.itemsize
        self._diag = as_strided(flat[n + 1:], (n, 2 * n - 1), ((2 * n + 1) * item, item))
        self._anti = as_strided(flat[2 * n:], (n, 2 * n - 1), ((2 * n - 1) * item, item))
        self._ones = np.ones(n)

    def sums(self, r: np.ndarray, out: np.ndarray) -> None:
        """Write R's diagonal, then anti-diagonal sums (``table``'s rows) into ``out``."""
        n = self._ones.size
        np.copyto(self._pad[1:, :n], r)
        np.matmul(self._ones, self._diag, out=out[: 2 * n - 1])
        np.matmul(self._ones, self._anti, out=out[2 * n - 1:])


# ---------------------------------------------------------------------------
# localization channel


def grw_localization_channel(
    rho: GridDensityMatrix, p: PhysicalParams, factor: np.ndarray | None = None
) -> GridDensityMatrix:
    """Width-w Gaussian localization: rho_ij -> rho_ij exp(-(x_i-x_j)^2 / 8w^2).

    The Kraus family K_z = (a/pi)^(1/4) exp(-a (x-z)^2 / 2), a = 1/(2w^2),
    integrated over all hit centers z, acts elementwise in the position
    basis with the closed-form factor above (the z-integral of the two
    Gaussians).  Using the closed form keeps the channel exactly
    trace-preserving and unital on the grid, where a z-sum truncated at
    the walls would leak trace for states near a wall.  Complete
    positivity: the factor matrix is a Gaussian kernel, hence positive
    semidefinite, and a Schur product with a PSD matrix preserves PSD.
    ``factor`` is ``_localization_factor(rho.n, rho.dx, p.w)``, built per
    call unless a run passes the one it built.
    """
    if rho.dx > p.w / 4.0:
        raise ValueError(
            f"grid pitch {rho.dx} does not resolve the localization width w = {p.w}"
        )
    if factor is None:
        factor = _localization_factor(rho.n, rho.dx, p.w)
    return GridDensityMatrix(rho.elements * factor, rho.dx)


def _localization_factor(n: int, dx: float, w: float) -> np.ndarray:
    """The channel's damping factor on the n-point grid of pitch dx."""
    x = dx * np.arange(1, n + 1, dtype=float)
    d = x[:, None] - x[None, :]
    return np.exp(-(d * d) / (8.0 * w**2))


def von_neumann_entropy(rho: GridDensityMatrix) -> float:
    """Tr(-rho ln rho) in nats, from the eigenvalues of rho * dx.

    Eigenvalues are clamped into [0, 1] within 1e-12 of tolerance; a
    value below -1e-10 means the input is not a valid state and raises.
    """
    lam = np.linalg.eigvalsh(rho.elements) * rho.dx
    if lam.min() < -1e-10:
        raise ValueError(
            f"density matrix has eigenvalue {lam.min():.3e} below -1e-10; not a valid state"
        )
    lam = np.clip(lam, 0.0, 1.0)
    pos = lam[lam > 0]
    return float(-(pos @ np.log(pos)))


# ---------------------------------------------------------------------------
# interference


def _grid_density(state) -> tuple[np.ndarray, np.ndarray, float]:
    if isinstance(state, (GridWavefunction, GridDensityMatrix)):
        return state.positions(), state.density(), state.box_length
    raise TypeError(
        f"state must be a GridWavefunction or GridDensityMatrix, got {type(state).__name__}"
    )


def interference_visibility(state, region: tuple[float, float]) -> float:
    """(max - min) / (max + min) of the position density over a region.

    Coherent superpositions of overlapping paths show near-unit
    visibility from their cross terms; an incoherent (tagged) mixture of
    the same packets has only envelope structure.  The density of a
    mixture is the weighted sum of component densities by construction,
    which is exactly the statement that tags kill cross terms.
    """
    x, dens, L = _grid_density(state)
    lo, hi = float(region[0]), float(region[1])
    if not (0.0 <= lo < hi <= L):
        raise ValueError(f"region ({lo}, {hi}) must lie inside [0, {L}]")
    sel = (x >= lo) & (x <= hi)
    if sel.sum() < 2:
        raise ValueError("region contains fewer than 2 grid points")
    d = dens[sel]
    top, bottom = float(d.max()), float(d.min())
    if top + bottom == 0.0:
        return 0.0
    return (top - bottom) / (top + bottom)


def fringe_content(density: np.ndarray, envelope: np.ndarray) -> float:
    """Peak deviation of a density from its incoherent envelope, relative.

    max |density - envelope| / max(envelope): order 1 when cross terms
    modulate the envelope, and exactly 0 for a tagged mixture whose
    density IS the envelope.
    """
    density = np.asarray(density, float)
    envelope = np.asarray(envelope, float)
    if density.shape != envelope.shape or density.ndim != 1:
        raise ValueError("density and envelope must be matching 1-d vectors")
    peak = float(envelope.max())
    if peak <= 0:
        raise ValueError("envelope carries no mass")
    return float(np.abs(density - envelope).max() / peak)


# ---------------------------------------------------------------------------
# classical reference


def classical_random_walk_oracle(
    p: PhysicalParams, n_walkers: int, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Reflected Gaussian random walk matching the model's step law.

    Walkers start at L/2 and take independent Gaussian steps of variance
    delta^2 = (tau*hbar/(m*w))^2 per period, reflecting at the walls.
    This is the classical process the branch-center marginal must
    reproduce; it knows nothing about packets, tags or weights.
    """
    if n_walkers < 1000:
        raise ValueError(
            f"need at least 1000 walkers for a meaningful reference, got {n_walkers}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    delta = math.sqrt(p.delta2())
    x = np.full(n_walkers, p.L / 2.0)
    for _ in range(steps):
        x = reflect_center(x + rng.normal(0.0, delta, n_walkers), p.L)
    return x

"""Exact small-grid quantum mechanics used as ground truth for the model.

The branching engine never touches a wavefunction; everything it claims
(entropy growth under localization, Liouville conservation under unitary
evolution, absence of recoherence for tagged components, diffusive
spreading) has an exact counterpart on a modest position grid.  This
module provides that counterpart: unitary propagation under the hard-wall
box Hamiltonian in its closed-form DST-I sine eigenbasis, the width-w
Gaussian localization channel, random mixtures drawn as a rank-r factor,
von Neumann entropy (of a matrix, or of a mixture from its factor),
interference visibility, and a classical reflected random walk.

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

from .model import PhysicalParams, reflect_center

__all__ = [
    "GridWavefunction",
    "GridDensityMatrix",
    "grid_points",
    "packet_state",
    "superpose",
    "mixture_density",
    "random_mixed_factor",
    "factor_density",
    "random_mixed_state",
    "UnitaryPropagator",
    "grw_localization_channel",
    "von_neumann_entropy",
    "factor_entropy",
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
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("wavefunction amplitudes must be finite")
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real) * self.dx
        if not (abs(norm - 1.0) <= 1e-10):
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
        # m^H - m is exactly 0 for a finite, exactly Hermitian m, as every matrix
        # this module builds is; a NaN or inf element leaves NaN or inf in it
        defect = np.conjugate(m.T, order="C")
        with np.errstate(invalid="ignore"):
            defect -= m
        if defect.any():
            if not np.isfinite(m).all():
                raise ValueError("density matrix elements must be finite")
            # |m - m^H| <= 1e-12 elementwise, compared squared: no square roots
            if not ((defect * defect.conj()).real.max() <= 1e-24):
                raise ValueError("density matrix must be Hermitian within 1e-12")
        trace = float(np.trace(m).real) * self.dx
        if not (abs(trace - 1.0) <= 1e-10):
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


def random_mixed_factor(
    n: int, p: PhysicalParams, rng: np.random.Generator,
    rank: int | None = None, n_modes: int = 16,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The draw of ``random_mixed_state``: (psi, weights, dx) of rho = sum_k w_k psi_k psi_k^H.

    psi holds ``rank`` continuum-normalized columns, random superpositions
    of the lowest box sine modes, so they respect the walls and have
    structure on scales the grid and the localization channel both
    resolve; the weights are a Dirichlet draw summing to 1.
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
    return psi, weights, dx


def factor_density(psi: np.ndarray, weights: np.ndarray, dx: float) -> GridDensityMatrix:
    """The mixture sum_k w_k psi_k psi_k^H of a factor's columns, as one product."""
    rho = (psi * weights) @ psi.conj().T
    rho += rho.conj().T
    rho *= 0.5
    return GridDensityMatrix(rho, dx)


def random_mixed_state(
    n: int, p: PhysicalParams, rng: np.random.Generator,
    rank: int | None = None, n_modes: int = 16,
) -> GridDensityMatrix:
    """Random mixture of smooth random states (positive by construction):
    ``factor_density`` of ``random_mixed_factor``'s draw.  Its entropy is
    ``factor_entropy`` of that draw, with no n x n eigensolve."""
    return factor_density(*random_mixed_factor(n, p, rng, rank, n_modes))


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


def _sine_angles(rows: np.ndarray, n: int) -> np.ndarray:
    """DST-I arguments pi r j/(n+1), modes j = 1..n, with r*j reduced mod 2(n+1)."""
    return (np.outer(rows, np.arange(1, n + 1)) % (2 * (n + 1))) * (math.pi / (n + 1))


class UnitaryPropagator:
    """Exact unitary evolution under the box grid's kinetic operator.

    H is -(hbar^2/2m) d^2/dx^2 with hard walls at 0 and L, in second-order
    central differences on the interior grid, the wall points omitted
    (Dirichlet walls): real symmetric and positive definite, k = hbar^2/(2 m
    dx^2) times the Dirichlet second difference.  Its eigenpairs are the
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
    """Tr(-rho ln rho) in nats, from a full solve for the eigenvalues of rho * dx
    (``_spectrum_entropy``); ``factor_entropy`` gives a mixture's from its factor."""
    return _spectrum_entropy(np.linalg.eigvalsh(rho.elements) * rho.dx)


def factor_entropy(psi: np.ndarray, weights: np.ndarray, dx: float) -> float:
    """``von_neumann_entropy`` of ``factor_density(psi, weights, dx)``, from its factor.

    rho * dx = A A^H with A = psi sqrt(w dx), whose nonzero eigenvalues are
    those of the rank x rank Gram matrix A^H A (``_spectrum_entropy``).
    """
    a = psi * np.sqrt(weights * dx)
    return _spectrum_entropy(np.linalg.eigvalsh(a.conj().T @ a))


def _spectrum_entropy(lam: np.ndarray) -> float:
    """-sum lam ln lam of a state's spectrum, each eigenvalue clamped into [0, 1];
    a value below -1e-10, or NaN, means the input is not a valid state and raises."""
    if not (lam.min() >= -1e-10):
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

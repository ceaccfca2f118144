"""Core objects of the box toy model.

A single particle lives in a 1D box [0, L].  Its state is carried by
Gaussian wavepackets: a packet localizes to position standard deviation
w whenever a decoherence event fires (every ``tau`` by default), spreads
ballistically in between, and is recreated at rest after each event.
The packet never carries momentum across an event; all transport comes
from the spread-then-localize cycle.

Between events the position variance follows

    Var(dt) = var0 + (dt * hbar / (m * sqrt(var0)))**2

so a fresh packet of width w gains exactly delta^2 = (tau*hbar/(m*w))**2
of variance over one period.  That single number sets the random-walk
step size and hence the diffusion constant delta^2 / (2*tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "PhysicalParams",
    "spread_variance",
    "bin_weights",
    "reflect_center",
    "DEFAULT_BIN_WIDTH_FRACTION",
    "TRUNCATION_SIGMAS",
]

# Offspring lattice pitch as a fraction of w.  Placing bin mass at bin
# centers inflates each step's variance by bin_width^2/12 (Sheppard), so
# the pitch must be well below w for the k-step variance ladder to track
# w^2 + k*delta^2 at the percent level: w/2 gives a 2.1% slope excess.
DEFAULT_BIN_WIDTH_FRACTION = 0.5

# Gaussian mass outside +-6 sigma (2e-9) is dropped and renormalized away.
TRUNCATION_SIGMAS = 6.0


@dataclass(frozen=True)
class PhysicalParams:
    """Model parameters. Units are arbitrary but mutually consistent."""

    m: float = 1.0
    w: float = 1.0
    tau: float = 1.0
    hbar: float = 1.0
    L: float = 20.0

    def __post_init__(self):
        for name in ("m", "w", "hbar", "L"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"parameter '{name}' must be finite and > 0, got {v}")
        # tau = 0 is allowed as a degenerate value (no evolution, no step);
        # runs reject it at config level where a positive period is required.
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"parameter 'tau' must be finite and >= 0, got {self.tau}")
        if self.w > self.L / 20.0:
            raise ValueError(
                f"localization width w={self.w} exceeds L/20={self.L / 20.0}; "
                "wall-tail corrections would not be negligible"
            )
        if not math.isfinite(self.delta2()):
            raise ValueError("step offset variance (tau*hbar/(m*w))^2 is not finite")

    def delta2(self) -> float:
        """Per-period variance increment delta^2 = (tau*hbar/(m*w))**2."""
        return (self.tau * self.hbar / (self.m * self.w)) ** 2

    def bin_width(self) -> float:
        """Offspring lattice pitch used by the branching engine."""
        return DEFAULT_BIN_WIDTH_FRACTION * self.w

    def diffusion_constant(self) -> float:
        """Nominal D = delta^2 / (2*tau) of the decoherence random walk."""
        if self.tau == 0:
            raise ValueError("diffusion constant undefined for tau = 0")
        return self.delta2() / (2.0 * self.tau)


def spread_variance(var0, dt: float, p: PhysicalParams):
    """Free-spreading law: variance after evolving for dt from variance var0.

    Exact convention for this model: Var(dt) = var0 + (dt*hbar/(m*sqrt(var0)))**2.
    ``var0`` may be a scalar or an array of per-branch variances.
    """
    if not np.all(np.asarray(var0) > 0):
        raise ValueError(f"var0 must be > 0, got min {np.min(var0)}")
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return var0 + (dt * p.hbar / (p.m * np.sqrt(var0))) ** 2


def reflect_center(x, L: float):
    """Fold a position into [0, L] by the method of images.

    The fold is periodic with period 2L followed by mirroring of the
    upper half; it is idempotent on [0, L] and exact for values that are
    many periods outside the box.  Accepts scalars or arrays.
    """
    if not (L > 0):
        raise ValueError(f"box length must be > 0, got {L}")
    y = np.mod(x, 2.0 * L)
    y = np.where(y > L, 2.0 * L - y, y)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(y)
    return y


def _interval_mass(lo, hi, center: float, sigma: float):
    """Gaussian mass on [lo, hi], evaluated in the tail to avoid cancellation."""
    a = (np.asarray(lo, dtype=float) - center) / sigma
    b = (np.asarray(hi, dtype=float) - center) / sigma
    # Phi(b) - Phi(a) loses precision when both arguments are large and
    # positive; compute on the negative side instead, where ndtr is accurate.
    both_pos = a >= 0
    mass = np.where(both_pos, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    return np.maximum(mass, 0.0)


def bin_weights(
    center: float,
    variance: float,
    bin_width: float,
    support: tuple[float, float] | None = None,
):
    """Gaussian probability mass per lattice bin.

    Bins have width ``bin_width`` and centers at integer multiples of
    ``bin_width`` (a fixed lattice anchored at 0, independent of
    ``center``).  Mass is integrated per bin, truncated at +-6 sigma and
    renormalized to sum exactly 1.

    Parameters
    ----------
    center, variance : float
        Mean and variance of the Gaussian being discretized.
    bin_width : float
        Lattice pitch, > 0.
    support : (lo, hi), optional
        Interval that must cover the truncated Gaussian.  Bins are
        clipped to it; an empty overlap is an error.  None means the
        whole real line.

    Returns
    -------
    bin_centers : ndarray
    weights : ndarray
        Strictly positive, summing to 1.
    """
    if not (variance > 0 and math.isfinite(variance)):
        raise ValueError(f"variance must be > 0, got {variance}")
    if not (bin_width > 0):
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    sigma = math.sqrt(variance)
    lo_t = center - TRUNCATION_SIGMAS * sigma
    hi_t = center + TRUNCATION_SIGMAS * sigma
    if support is not None:
        s_lo, s_hi = support
        if s_hi <= s_lo:
            raise ValueError("support interval is empty")
        if max(lo_t, s_lo) >= min(hi_t, s_hi):
            raise ValueError("support does not overlap the truncated Gaussian")
        lo_t = max(lo_t, s_lo)
        hi_t = max(min(hi_t, s_hi), lo_t)

    # bins whose interval [k*h - h/2, k*h + h/2] intersects [lo_t, hi_t]
    k_lo = int(math.floor(lo_t / bin_width + 0.5))
    k_hi = int(math.floor(hi_t / bin_width + 0.5))
    if hi_t == (k_hi - 0.5) * bin_width:  # exact edge touch carries no mass
        k_hi -= 1
    ks = np.arange(k_lo, k_hi + 1)
    centers = ks * bin_width
    lo_edges = np.maximum(centers - bin_width / 2.0, lo_t)
    hi_edges = np.minimum(centers + bin_width / 2.0, hi_t)
    w = _interval_mass(lo_edges, hi_edges, center, sigma)
    total = w.sum()
    if total <= 0:
        raise ValueError("no Gaussian mass inside the requested support")
    w = w / total
    keep = w > 0
    return centers[keep], w[keep]

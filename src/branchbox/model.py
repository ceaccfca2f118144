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

__all__ = [
    "PhysicalParams",
    "ndtr",
    "spread_variance",
    "bin_weights",
    "bin_weight_rows",
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
    many periods outside the box.  Accepts scalars or arrays; returns an array.
    """
    if not (L > 0):
        raise ValueError(f"box length must be > 0, got {L}")
    y = np.mod(x, 2.0 * L)
    return np.where(y > L, 2.0 * L - y, y)


# Cephes' ndtr (Moshier's form of Cody's rational approximations, the
# form scipy.special.ndtr evaluates).  With x = a/sqrt(2) and z = |x|:
# erf(x) = x T(z^2)/U(z^2) for z < 1, erfc(z) = exp(-z^2) P(z)/Q(z) for
# z < 8 and exp(-z^2) R(z)/S(z) from 8 on, and 0 once z^2 > MAXLOG.  Q, S
# and U are monic.  _RATIONALS holds the three numerators, then the three
# denominators, each padded with leading zeros to nine coefficients, so
# every element takes one Horner pass of its own region's coefficients.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_RATIONALS = np.array([(0.0,) * (9 - len(c)) + c for c in (_T, _P, _R, _U, _Q, _S)]).T.copy()
_MAXLOG = 7.09782712893383996843e2
# the least double whose square exceeds MAXLOG
_Z_ZERO = math.nextafter(math.sqrt(_MAXLOG), math.inf)


def ndtr(a):
    """Standard normal CDF of each element of ``a``, in a's shape.

    Evaluates Cephes' ``ndtr`` term for term, so it is within 4 ulps of
    ``scipy.special.ndtr`` on [-40, 40] (bit-equal at most points; the
    difference is the platform's exp).  It gives exactly 0, 1/2 and 1 where
    scipy does, 0 and 1 at -inf and inf, and NaN at NaN.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * math.sqrt(0.5)
    z = np.abs(x)
    zero_tail = z >= _Z_ZERO
    if zero_tail.any():  # exactly 0 or 1, and an exp that underflows is slow
        y = (x > 0).astype(float)
        rest = ~zero_tail
        y[rest] = ndtr(a.reshape(-1)[rest])
        return y.reshape(a.shape)[()]
    zz = z * z
    small = z < 1.0
    region = np.add(z >= 1.0, z >= 8.0, dtype=np.intp)
    arg = np.where(small, zz, z)
    arg = np.concatenate((arg, arg))
    coef = _RATIONALS.take(np.concatenate((region, region + 3)), axis=1)
    acc = coef[0] * arg + coef[1]
    for c in coef[2:]:
        acc *= arg
        acc += c
    # 0.5 erf(x) below 1, else 0.5 erfc(z)
    half = 0.5 * (np.where(small, x, np.exp(-zz)) * acc[:x.size] / acc[x.size:])
    y = np.where(small, 0.5 + half, np.where(x > 0, 1.0 - half, half))
    return y.reshape(a.shape)[()]


def _edge_masses(s):
    """Gaussian mass between consecutive standardized edges ``s``.

    Each edge takes its tail mass Phi(-|s|), accurate to the last bits in
    both tails; a bin above the center is a difference of upper tails, one
    below it of lower tails, so no mass is a difference of two numbers near 1.
    """
    tail = ndtr(-np.abs(s))
    sa, sb, ta, tb = s[:-1], s[1:], tail[:-1], tail[1:]
    mass = np.where(sa >= 0, ta - tb, np.where(sb <= 0, tb - ta, 1.0 - ta - tb))
    return np.maximum(mass, 0.0)


def bin_weight_rows(center: float, variances, bin_width: float):
    """``bin_weights`` of one center at many variances, as padded rows.

    Returns (lattice index k of each row's first bin, its bin count, the
    weights): row i holds the weights of bins first[i] .. first[i] + size[i]
    - 1 in its leading columns and zeros after them.  Every row is what
    ``bin_weights`` computes for its variance, bit for bit: a row's masses
    come from its own edges only, and each row is normalized by its sum taken
    in column order, which the zeros past its end do not change.
    """
    v = np.asarray(variances, dtype=float)
    if not np.all((v > 0) & np.isfinite(v)):
        raise ValueError(f"variance must be > 0, got {v[~((v > 0) & np.isfinite(v))][0]}")
    if not (bin_width > 0):
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    sigma = np.sqrt(v)
    lo_t = center - TRUNCATION_SIGMAS * sigma
    hi_t = center + TRUNCATION_SIGMAS * sigma

    # bins whose interval [k*h - h/2, k*h + h/2] intersects [lo_t, hi_t]
    k_lo = np.floor(lo_t / bin_width + 0.5)
    k_hi = np.floor(hi_t / bin_width + 0.5)
    k_hi -= hi_t == (k_hi - 0.5) * bin_width  # exact edge touch carries no mass
    width = (k_hi - k_lo + 1.0).astype(np.int64)
    # each row's width + 1 bin edges, cut to [lo_t, hi_t], one row after another;
    # edge j of row i starts bin j of the row when j < width[i]
    row = np.repeat(np.arange(v.size), width + 1)
    j = np.arange(row.size) - (np.cumsum(width + 1) - (width + 1))[row]
    edges = np.minimum(np.maximum((k_lo[row] + j - 0.5) * bin_width, lo_t[row]), hi_t[row])
    mass = _edge_masses((edges - center) / sigma[row])
    starts = (j < width[row])[:-1]
    w = np.zeros((v.size, width.max()))
    w[row[:-1][starts], j[:-1][starts]] = mass[starts]
    w /= np.cumsum(w, axis=1)[:, -1:]
    keep = w > 0
    size = keep.sum(axis=1)
    first = keep.argmax(axis=1)
    if first.any():  # a massless bin at a row's low end: the row starts past it
        w = np.take_along_axis(w, np.minimum(first[:, None] + np.arange(w.shape[1]),
                                             w.shape[1] - 1), axis=1)
        w[np.arange(w.shape[1]) >= size[:, None]] = 0.0
    return k_lo.astype(np.int64) + first, size, w


def bin_weights(center: float, variance: float, bin_width: float):
    """(bin centers, weights): the mass of a Gaussian (mean ``center``, variance
    > 0) per lattice bin, the one-row case of ``bin_weight_rows``.

    Bins have width ``bin_width`` > 0 and centers at integer multiples of it
    (a fixed lattice anchored at 0, independent of ``center``).  Mass is
    integrated per bin, truncated at +-6 sigma and renormalized to sum
    exactly 1; every weight is above 0.
    """
    first, size, w = bin_weight_rows(center, [variance], bin_width)
    return (first[0] + np.arange(size[0])) * bin_width, w[0, :size[0]]

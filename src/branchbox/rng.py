"""Keyed, stateless random streams for the branching engine.

Every stochastic decision in a run is derived from a 64-bit key built
out of the run seed, a purpose constant and the identity of the thing
being decided.  Step k of a run seeded s has the key ``step_keys(s, k)``
(``KEY_STEP``); in it ``KEY_CAP`` and the probe index key the cap's
probes (collapse is the cap at one probe), and ``KEY_TIMING`` the
Poisson period.  ``KEY_PRUNE`` derives collapse trajectories' run seeds
and ``KEY_ROOT`` the tags at t = 0.  So a run is reproducible bit for bit
from (config, seed), resumes at step k from its ensemble there and the
keys from k on, and the draw a branch sees does not depend on how the
ensemble is batched or ordered.  Only what is no engine state stays a
seeded PCG64 (``runner._derived_rng``): freespread's KS sample pairs and
classical walkers, and liouville_check's random density states.

The mixer is splitmix64, which is cheap, vectorizes over uint64 arrays
and has full 64-bit avalanche.  These uniforms feed selection rules and
exponential race keys; they are not used for anything that needs a
cryptographic or long-period stream.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK = (1 << 64) - 1

# splitmix64's increment, the golden-ratio gamma
GAMMA = _U64(0x9E3779B97F4A7C15)

# purpose constants, arbitrary odd values
KEY_PRUNE = _U64(0x9E3779B97F4A7C15)
KEY_CAP = _U64(0xC2B2AE3D27D4EB4F)
KEY_TIMING = _U64(0x165667B19E3779F9)
KEY_ROOT = _U64(0xD6E8FEB86659FD93)
KEY_STEP = _U64(0x85EBCA77C2B2AE63)


# splitmix64's round multipliers and shifts, and the bits of 1.0 and of
# 1 - 2**-53 for the map to (0, 1)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S12 = _U64(30), _U64(27), _U64(31), _U64(12)
_ONE_BITS = _U64(0x3FF0000000000000)
_BELOW_ONE = 1.0 - 2.0**-53


def splitmix64(x):
    """One splitmix64 mixing round; accepts a uint64 scalar or array.

    A scalar is mixed in Python integers (numpy scalar arithmetic costs
    more) and returned as uint64; an array, in place in one fresh copy.
    """
    if isinstance(x, (int, np.generic)) or np.ndim(x) == 0:
        z = (int(x) + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return _U64(z ^ (z >> 31))
    z = np.array(x, dtype=_U64)
    z += GAMMA
    return _rounds(z)


def _rounds(z: np.ndarray, last: bool = True) -> np.ndarray:
    """splitmix64's three xor-shift rounds and two multiplies, in place on a uint64
    array (0-d included) with one scratch buffer, or all but ``_last_round``."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=t)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    return _last_round(z, t) if last else z


def _last_round(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's last xor-shift, in place; it leaves the top 31 bits as they are."""
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _unit_interval(bits: np.ndarray) -> np.ndarray:
    """``unit_uniform``'s map of uint64 bits to (0, 1), in place: a float64 view.

    The top 52 bits m become 1 + m 2**-52 through the exponent of 1.0, and
    subtracting 1 - 2**-53 leaves (m + 1/2) 2**-52; both steps are exact.
    """
    bits >>= _S12
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= _BELOW_ONE
    return u


def mix(*parts):
    """Fold any number of uint64 scalars/arrays into one well-mixed key."""
    acc = _U64(0x8BADF00D5EEDC0DE)
    for p in parts:
        scalar = isinstance(p, (int, np.generic)) and isinstance(acc, np.generic)
        acc = splitmix64(int(acc) ^ int(p) if scalar else acc ^ np.asarray(p, dtype=_U64))
    return acc


def step_keys(seed, k):
    """Key of step k of the run seeded ``seed``; either may be a uint64 array."""
    return mix(seed, KEY_STEP, k)


def float_bits(t: float):
    """Bit pattern of a float as uint64, so times can enter hash keys."""
    return np.frombuffer(np.float64(t).tobytes(), dtype=_U64)[0]


def unit_uniform(key):
    """Map uint64 keys to uniforms in (0, 1); vectorized, deterministic."""
    # 52 bits offset by half their ulp: 2**-53 .. 1 - 2**-53, each exact
    return _unit_interval(splitmix64(key))


def lineage_hash_root(index: int | np.ndarray):
    """Hash for a branch that existed at t=0 (empty decoherence lineage)."""
    return mix(KEY_ROOT, np.asarray(index, dtype=_U64))


def lineage_hash_child(parent_hash, event_time: float, offspring_index):
    """Fresh lineage hash of a survivor that splits off its parent at an event.

    The engine step calls it only where a lineage splits: a parent's
    first survivor keeps the parent's hash, and each further survivor gets
    its child hash, so a hash names one live branch (born_test's single
    counted event hashes every leaf).  The triple (parent lineage,
    event time, offspring index) identifies that branch uniquely.  A
    child is one splitmix64 round, a bijection, of
    ``parent ^ T[b]`` with the event's table T[b] = mix(event time, b),
    so distinct triples collide only as 64-bit hashes do.  The children
    take the shape of ``offspring_index``, which ``parent_hash`` broadcasts
    to, and are mixed in place in the gather of T (a uint64 scalar when
    both are 0-d).
    """
    b = np.asarray(offspring_index)
    table = mix(float_bits(event_time), np.arange(int(b.max()) + 1, dtype=_U64))
    z = np.asarray(table.take(b))
    z ^= np.asarray(parent_hash, dtype=_U64)
    z += GAMMA
    _rounds(z)
    return z if z.ndim else z[()]

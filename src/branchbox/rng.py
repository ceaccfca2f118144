"""Keyed, stateless random streams for the branching engine.

Every stochastic decision in a run (cap resampling, collapse being the
cap at one probe, and Poisson event timing) is derived from a 64-bit key
built out of the run seed, a purpose constant and the identity of the
thing being decided (probe index, trajectory index); ``KEY_PRUNE`` only
derives collapse trajectories' run seeds.  Two consequences:

* a run is reproducible bit for bit from (config, seed), and
* the draw a branch sees does not depend on how the ensemble happens to
  be batched or ordered internally.

The mixer is splitmix64, which is cheap, vectorizes over uint64 arrays
and has full 64-bit avalanche.  These uniforms feed selection rules and
exponential race keys; they are not used for anything that needs a
cryptographic or long-period stream.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK = _U64(0xFFFFFFFFFFFFFFFF)

# purpose constants, arbitrary odd values
KEY_PRUNE = _U64(0x9E3779B97F4A7C15)
KEY_CAP = _U64(0xC2B2AE3D27D4EB4F)
KEY_TIMING = _U64(0x165667B19E3779F9)
KEY_ROOT = _U64(0xD6E8FEB86659FD93)


def splitmix64(x):
    """One splitmix64 mixing round; accepts a uint64 scalar or array."""
    x = np.asarray(x, dtype=_U64)
    with np.errstate(over="ignore"):
        z = (x + _U64(0x9E3779B97F4A7C15)) & _MASK
        z = ((z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)) & _MASK
        z = ((z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)) & _MASK
        return z ^ (z >> _U64(31))


def mix(*parts):
    """Fold any number of uint64 scalars/arrays into one well-mixed key."""
    acc = _U64(0x8BADF00D5EEDC0DE)
    for p in parts:
        acc = splitmix64(acc ^ np.asarray(p, dtype=_U64))
    return acc


def float_bits(t: float):
    """Bit pattern of a float as uint64, so times can enter hash keys."""
    return np.frombuffer(np.float64(t).tobytes(), dtype=_U64)[0]


def unit_uniform(key):
    """Map uint64 keys to uniforms in (0, 1); vectorized, deterministic."""
    bits = splitmix64(key)
    # 53 mantissa bits, offset by half an ulp so 0.0 is excluded
    return (np.asarray(bits >> _U64(11), dtype=np.float64) + 0.5) * 2.0**-53


def lineage_hash_root(index: int | np.ndarray):
    """Hash for a branch that existed at t=0 (empty decoherence lineage)."""
    return mix(KEY_ROOT, np.asarray(index, dtype=_U64))


def lineage_hash_child(parent_hash, event_time: float, offspring_index):
    """Extend a lineage hash by one decoherence event.

    The triple (parent lineage, event time, offspring index) identifies a
    branch uniquely, so folding all three keeps distinct lineages at
    distinct hashes up to 64-bit collisions.
    """
    return mix(
        np.asarray(parent_hash, dtype=_U64),
        float_bits(event_time),
        np.asarray(offspring_index, dtype=_U64),
    )

"""Keyed random streams: mixing quality, determinism, vectorization."""

import numpy as np
import pytest
from scipy import stats as sps

from branchbox import branching, rng
from branchbox.model import PhysicalParams
from branchbox.rng import (
    GAMMA,
    KEY_CAP,
    KEY_PRUNE,
    KEY_ROOT,
    KEY_STEP,
    KEY_TIMING,
    float_bits,
    lineage_hash_child,
    lineage_hash_root,
    mix,
    splitmix64,
    step_keys,
    unit_uniform,
)

import reference

MASK = (1 << 64) - 1

# the ends of the key range, its top bit alone and splitmix64's increment
EDGE_KEYS = [0, 1, 1 << 63, MASK, int(GAMMA)]


def splitmix64_oracle(x: int) -> int:
    """Reference mixing round in plain Python integers."""
    z = (x + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_splitmix64_matches_oracle():
    inputs = [0, 1, 2, 0xDEADBEEF, MASK, (1 << 63) + 12345] + EDGE_KEYS
    for x in inputs:
        assert int(splitmix64(np.uint64(x))) == splitmix64_oracle(x)


def test_splitmix64_vectorizes():
    xs = np.arange(1000, dtype=np.uint64)
    out = splitmix64(xs)
    assert out.dtype == np.uint64
    for i in (0, 1, 17, 999):
        assert int(out[i]) == splitmix64_oracle(i)


def test_splitmix64_arrays_match_oracle():
    xs = np.random.default_rng(11).integers(0, MASK, 100_000, dtype=np.uint64, endpoint=True)
    before = xs.copy()
    out = splitmix64(xs)
    assert out.tolist() == [splitmix64_oracle(x) for x in xs.tolist()]
    np.testing.assert_array_equal(xs, before)  # the input is not mixed in place


def test_splitmix64_avalanche():
    # flipping one input bit flips about half the output bits
    base = splitmix64(np.uint64(42))
    flips = []
    for bit in range(64):
        other = splitmix64(np.uint64(42 ^ (1 << bit)))
        flips.append(bin(int(base) ^ int(other)).count("1"))
    assert 20 < np.mean(flips) < 44


def test_mix_is_deterministic_and_order_sensitive():
    a, b = np.uint64(7), np.uint64(9)
    assert int(mix(a, b)) == int(mix(a, b))
    assert int(mix(a, b)) != int(mix(b, a))
    assert int(mix(a)) != int(mix(a, a))


def test_mix_scalar_vs_array_agree():
    seed = np.uint64(123456789)
    idx = np.array(list(range(50)) + EDGE_KEYS, dtype=np.uint64)
    vec = mix(seed, idx)
    for i, key in enumerate(idx.tolist()):
        assert int(vec[i]) == int(mix(seed, np.uint64(key)))


def test_scalar_paths_equal_array_paths():
    # scalars are mixed in Python integers, arrays in uint64 arithmetic
    keys = EDGE_KEYS + np.random.default_rng(13).integers(
        0, MASK, 1000, dtype=np.uint64, endpoint=True).tolist()
    arr = np.array(keys, dtype=np.uint64)
    mixed, uniform = splitmix64(arr), unit_uniform(arr)
    pairs, events = mix(arr, arr[::-1]), mix(np.uint64(7), arr)
    for i, key in enumerate(keys):
        for scalar in (np.uint64(key), key, np.array(key, dtype=np.uint64)):
            assert type(splitmix64(scalar)) is np.uint64 and splitmix64(scalar) == mixed[i]
            assert type(unit_uniform(scalar)) is np.float64 and unit_uniform(scalar) == uniform[i]
        assert type(mix(arr[i], arr[-1 - i])) is np.uint64
        assert mix(arr[i], arr[-1 - i]) == pairs[i]
        assert mix(np.uint64(7), key) == events[i]
    assert mixed.dtype == pairs.dtype == events.dtype == np.uint64
    assert uniform.dtype == np.float64


def test_purpose_keys_distinct():
    keys = {int(KEY_CAP), int(KEY_PRUNE), int(KEY_TIMING), int(KEY_ROOT), int(KEY_STEP)}
    assert len(keys) == 5


def test_step_keys_are_a_counter_based_stream():
    # step k's key is mix(seed, KEY_STEP, k) whether seeds or steps come as
    # scalars or arrays: a run's keys from k on are the keys of steps k ..,
    # and a batch's keys at step k are each trajectory's own
    seeds = [0, 7, MASK]
    steps = np.arange(50, dtype=np.uint64)
    for s in seeds:
        run = step_keys(s, steps)
        assert run.dtype == np.uint64 and np.unique(run).size == steps.size
        assert [int(step_keys(s, k)) for k in range(50)] == run.tolist()
        assert int(run[3]) == int(mix(np.uint64(s), KEY_STEP, np.uint64(3)))
    batch = step_keys(np.array(seeds, np.uint64), 3)
    assert batch.tolist() == [int(step_keys(s, 3)) for s in seeds]


def test_unit_uniform_range_and_determinism():
    keys = np.arange(100_000, dtype=np.uint64)
    u = unit_uniform(keys)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u, unit_uniform(keys))
    assert float(unit_uniform(np.uint64(5))) == u[5]


def test_unit_uniform_is_uniform():
    u = unit_uniform(mix(np.uint64(99), np.arange(50_000, dtype=np.uint64)))
    stat = sps.kstest(u, "uniform")
    assert stat.pvalue > 1e-4


def test_float_bits_round_trip():
    import struct

    for t in (0.0, 1.0, -2.5, 3.141592653589793, 1e300):
        expected = struct.unpack("<Q", struct.pack("<d", t))[0]
        assert int(float_bits(t)) == expected


def test_lineage_root_hashes_collision_free():
    h = lineage_hash_root(np.arange(200_000))
    assert np.unique(h).size == 200_000


def test_lineage_child_depends_on_all_inputs():
    h0 = lineage_hash_root(0)
    a = int(lineage_hash_child(h0, 1.0, 3))
    assert a == int(lineage_hash_child(h0, 1.0, 3))
    assert a != int(lineage_hash_child(h0, 1.0, 4))
    assert a != int(lineage_hash_child(h0, 2.0, 3))
    assert a != int(lineage_hash_child(lineage_hash_root(1), 1.0, 3))


def test_lineage_child_vectorizes():
    parents = lineage_hash_root(np.arange(64))
    kids = lineage_hash_child(parents, 2.5, np.arange(64, dtype=np.uint64))
    for i in (0, 5, 63):
        assert int(kids[i]) == int(lineage_hash_child(parents[i], 2.5, i))
    assert np.unique(kids).size == 64


def test_unit_uniform_extremes_stay_inside_the_unit_interval(monkeypatch):
    # the all-ones and all-zeros bit patterns map to 1 - 2**-53 and 2**-53
    monkeypatch.setattr(rng, "splitmix64", lambda key: np.asarray(key, dtype=np.uint64))
    u = unit_uniform(np.array([2**64 - 1, 0], dtype=np.uint64))
    np.testing.assert_array_equal(u, [1.0 - 2.0**-53, 2.0**-53])
    assert u[0] < 1.0


def _random_keys(seed, n=100_000):
    return np.random.default_rng(seed).integers(0, MASK, n, dtype=np.uint64, endpoint=True)


def test_splitmix64_in_place_rounds_equal_the_fresh_temporary_rounds():
    keys = _random_keys(21)
    np.testing.assert_array_equal(splitmix64(keys), reference.splitmix64_array(keys))
    # integer arrays of any dtype are cast as before
    ints = np.arange(-500, 500)
    np.testing.assert_array_equal(splitmix64(ints), reference.splitmix64_array(ints))


def test_unit_interval_maps_the_bit_extremes_inside_the_unit_interval():
    u = rng._unit_interval(np.array([0, 2**64 - 1, 1 << 12, 2**64 - 2**13], dtype=np.uint64))
    assert u.dtype == np.float64
    np.testing.assert_array_equal(
        u, [2.0**-53, 1.0 - 2.0**-53, 1.5 * 2.0**-52, 1.0 - 1.5 * 2.0**-52])


def test_unit_interval_equals_the_float_arithmetic_map():
    keys = _random_keys(22)
    u = unit_uniform(keys)
    np.testing.assert_array_equal(u, reference.unit_uniform_array(keys))
    # the Python-integer scalar path maps the same bits
    for i in (0, 1, 4_999, 99_999):
        assert unit_uniform(keys[i]) == u[i]


@pytest.mark.parametrize("k", [1, 31, 2000, 100_000])
def test_cap_probe_phases_equal_the_stream_formula(k):
    tables = branching.Tables(0.0, PhysicalParams())
    for seed in (0, 2**64 - 1, 0x1234_5678_9ABC_DEF0):
        got = branching._cap_probe_phases(tables.ladder(k), np.uint64(seed))
        assert got.shape == (k,)
        np.testing.assert_array_equal(got, reference.cap_probe_phases(k, np.uint64(seed), KEY_CAP))
    # a vector of step keys at one probe, as the collapse batch derives them
    seeds = _random_keys(23, 50)
    np.testing.assert_array_equal(
        branching._cap_probe_phases(tables.ladder(1), seeds),
        reference.cap_probe_phases(1, seeds, KEY_CAP))


@pytest.mark.parametrize("n", [0, 1, 100_000])
def test_lineage_hash_child_equals_its_formula_and_leaves_inputs(n):
    gen = np.random.default_rng(24 + n)
    shape = () if n == 0 else (n,)
    parent = np.asarray(gen.integers(0, MASK, shape, dtype=np.uint64, endpoint=True))
    b = np.asarray(gen.integers(0, 25, shape))
    parent_before, b_before = parent.copy(), b.copy()
    t = 17.5
    table = mix(float_bits(t), np.arange(int(b.max()) + 1, dtype=np.uint64))
    got = lineage_hash_child(parent, t, b)
    np.testing.assert_array_equal(got, reference.lineage_hash_child(parent, table, b))
    np.testing.assert_array_equal(parent, parent_before)
    np.testing.assert_array_equal(b, b_before)
    if n == 0:
        assert type(got) is np.uint64
        # a numpy scalar parent mixes the same way
        assert lineage_hash_child(parent[()], t, b) == got
    else:
        assert got.dtype == np.uint64 and got.shape == shape
        assert not np.shares_memory(got, parent)

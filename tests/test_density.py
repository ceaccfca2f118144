"""Grid quantum mechanics: states, unitary evolution, localization channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchbox import density, runner
from branchbox.config import LIOUVILLE_GRID, parse_config
from branchbox.density import (
    GridDensityMatrix,
    GridWavefunction,
    UnitaryPropagator,
    classical_random_walk_oracle,
    factor_density,
    factor_entropy,
    fringe_content,
    grid_points,
    grw_localization_channel,
    interference_visibility,
    mixture_density,
    packet_state,
    random_mixed_factor,
    random_mixed_state,
    superpose,
    von_neumann_entropy,
)
from branchbox.model import PhysicalParams

import reference

P = PhysicalParams()


def _pure(psi):
    """|psi><psi| as the one-component mixture."""
    return mixture_density([psi], [1.0])


def measured_moments(state):
    x, dx = grid_points(state.n, P)
    d = state.density()
    mean = float(d @ x) * dx
    var = float(d @ (x - mean) ** 2) * dx
    return mean, var


# ---------------------------------------------------------------------------
# states


def test_grid_points_layout():
    x, dx = grid_points(128, P)
    assert dx == pytest.approx(P.L / 129, rel=1e-15)
    assert x[0] == pytest.approx(dx)
    assert x[-1] == pytest.approx(P.L - dx, rel=1e-12)


def test_packet_state_moments():
    psi = packet_state(512, P, 8.0, 0.81)
    mean, var = measured_moments(psi)
    assert mean == pytest.approx(8.0, abs=1e-9)
    assert var == pytest.approx(0.81, rel=1e-6)
    assert float(psi.density().sum()) * psi.dx == pytest.approx(1.0, abs=1e-12)


def test_packet_momentum_leaves_density():
    a = packet_state(256, P, 10.0, 1.0)
    b = packet_state(256, P, 10.0, 1.0, momentum=2.0)
    np.testing.assert_allclose(a.density(), b.density(), atol=1e-12)
    assert not np.allclose(a.amplitudes, b.amplitudes)


def test_packet_state_validation():
    with pytest.raises(ValueError):
        packet_state(256, P, 10.0, 0.0)
    with pytest.raises(ValueError):
        packet_state(256, P, -500.0, 1.0)  # no support on the grid


def test_superpose_interferes():
    n = 511  # odd interior count puts a grid point exactly at L/2
    a = packet_state(n, P, 9.0, 1.0)
    b = packet_state(n, P, 11.0, 1.0)
    sup = superpose([a, b], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    norm = float(sup.density().sum()) * sup.dx
    assert norm == pytest.approx(1.0, abs=1e-12)
    # overlapping packets in phase: the midpoint density doubles before
    # renormalization by 1 + <a|b>, overlap exp(-d^2/(8 s2)) = exp(-1/2)
    x, _ = grid_points(n, P)
    i_mid = int(np.argmin(np.abs(x - 10.0)))
    incoherent = 0.5 * (a.density()[i_mid] + b.density()[i_mid])
    ratio = sup.density()[i_mid] / incoherent
    assert ratio == pytest.approx(2.0 / (1.0 + math.exp(-0.5)), rel=1e-6)


def test_superpose_validation():
    a = packet_state(256, P, 9.0, 1.0)
    b = packet_state(128, P, 9.0, 1.0)
    with pytest.raises(ValueError):
        superpose([a, b], [0.5, 0.5])
    with pytest.raises(ValueError):
        superpose([a], [0.5, 0.5])
    with pytest.raises(ValueError):
        superpose([a, a], [1.0, -1.0])  # exact cancellation


def test_mixture_density_is_weighted_sum():
    a = packet_state(256, P, 6.0, 1.0)
    b = packet_state(256, P, 14.0, 1.0)
    mix = mixture_density([a, b], [0.3, 0.7])
    expected = 0.3 * a.density() + 0.7 * b.density()
    np.testing.assert_allclose(mix.density(), expected, atol=1e-12)
    # one component of weight 1 is its outer product, bit for bit
    np.testing.assert_array_equal(_pure(a).elements, np.outer(a.amplitudes, a.amplitudes.conj()))
    with pytest.raises(ValueError):
        mixture_density([a, b], [0.5, 0.6])


def test_density_matrix_validation():
    n = 64
    dx = P.L / (n + 1)
    good = np.eye(n) / (n * dx)
    GridDensityMatrix(good, dx)
    with pytest.raises(ValueError):
        GridDensityMatrix(good * 2.0, dx)  # trace 2
    bad = good.astype(complex).copy()
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        GridDensityMatrix(bad, dx)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_states_refuse_non_finite_elements(bad):
    # NaN fails every comparison, so each bound is written to fail on it
    n = 4
    dx = P.L / (n + 1)
    rho = np.eye(n, dtype=complex) / (n * dx)
    for i, j in ((0, 0), (1, 2)):
        m = rho.copy()
        m[i, j] = m[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            GridDensityMatrix(m, dx)
    psi = np.full(n, 1.0 / math.sqrt(n * dx), dtype=complex)
    psi[2] = bad
    with pytest.raises(ValueError, match="finite"):
        GridWavefunction(psi, dx)
    with pytest.raises(ValueError, match="not a valid state"):
        density._spectrum_entropy(np.array([math.nan, 1.0]))


@pytest.mark.parametrize("unit", [1.0, 1j])
def test_density_matrix_hermiticity_tolerance(unit):
    # |rho - rho^H| is held to 1e-12 elementwise, in the real and the
    # imaginary part, on real and complex matrices
    n = 64
    dx = P.L / (n + 1)
    good = np.eye(n) / (n * dx) + (0.0 if unit == 1.0 else 0j)
    for eps, ok in ((2e-12, False), (5e-13, True)):
        m = good.copy()
        m[3, 5] += eps * unit
        if ok:
            GridDensityMatrix(m, dx)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                GridDensityMatrix(m, dx)


def test_random_mixed_state_is_valid():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(5):
        rho = random_mixed_state(128, P, rng)
        assert von_neumann_entropy(rho) >= 0.0
    fixed = random_mixed_state(128, P, rng, rank=4)
    lam = np.linalg.eigvalsh(fixed.elements) * fixed.dx
    assert (lam > 1e-10).sum() == 4


def test_random_mixed_state_is_the_per_component_sum():
    # one product of the weighted components equals the sum of their outer
    # products, and both consume the same draws in the same order; the
    # factor's draw and its product are random_mixed_state's, bit for bit
    for seed, rank in ((12, None), (13, 1), (14, 8), (15, 10)):
        a, b, c = (np.random.Generator(np.random.PCG64(seed)) for _ in range(3))
        got = random_mixed_state(128, P, a, rank=rank).elements
        want = reference.random_mixed_state(
            128, P.L, b, int(b.integers(1, 9)) if rank is None else rank)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        psi, weights, dx = random_mixed_factor(128, P, c, rank=rank)
        assert psi.shape == (128, weights.size) and dx == grid_points(128, P)[1]
        assert factor_density(psi, weights, dx).elements.tobytes() == got.tobytes()
        assert a.normal() == b.normal() == c.normal()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rank=st.none() | st.integers(1, 10))
def test_factor_entropy_equals_the_full_solve(seed, rank):
    # two implementations of one entropy: the rank x rank Gram matrix of the
    # factor, and eigvalsh of the n x n matrix the factor builds
    factor = random_mixed_factor(LIOUVILLE_GRID, P, np.random.Generator(np.random.PCG64(seed)),
                                 rank=rank)
    full = von_neumann_entropy(factor_density(*factor))
    assert factor_entropy(*factor) == pytest.approx(full, rel=0, abs=1e-12)


def test_factor_entropy_limits():
    for seed in range(20):
        factor = random_mixed_factor(128, P, np.random.Generator(np.random.PCG64(seed)), rank=1)
        assert abs(factor_entropy(*factor)) <= 1e-15
    # two orthogonal sine modes at equal weight
    x, dx = grid_points(128, P)
    psi = np.sin(np.outer(x, [1, 2]) * math.pi / P.L).astype(complex)
    psi /= np.linalg.norm(psi, axis=0) * math.sqrt(dx)
    assert factor_entropy(psi, np.array([0.5, 0.5]), dx) == pytest.approx(
        math.log(2), rel=0, abs=1e-14)


# ---------------------------------------------------------------------------
# Hamiltonian and unitary evolution


def test_hamiltonian_discrete_spectrum_exact():
    n = 512
    h = reference.build_box_hamiltonian(n, P)
    energies = np.linalg.eigvalsh(h)
    k = P.hbar**2 / (2.0 * P.m * (P.L / (n + 1)) ** 2)
    exact = 2.0 * k * (1.0 - np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    np.testing.assert_allclose(energies, exact, rtol=1e-12, atol=1e-9)


def test_hamiltonian_low_modes_reach_continuum():
    n = 512
    energies = np.linalg.eigvalsh(reference.build_box_hamiltonian(n, P))
    modes = np.arange(1, 6)
    continuum = (P.hbar * math.pi * modes / P.L) ** 2 / (2.0 * P.m)
    np.testing.assert_allclose(energies[:5], continuum, rtol=1e-4)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        UnitaryPropagator(16, P)
    with pytest.raises(ValueError):
        UnitaryPropagator(64, P)  # dx = 20/65 > w/4


def test_unitary_step_preserves_state_properties():
    n = 128
    rng = np.random.Generator(np.random.PCG64(9))
    rho = random_mixed_state(n, P, rng, rank=3)
    s0 = von_neumann_entropy(rho)
    out = UnitaryPropagator(n, P).evolve(rho, 0.7, 1)
    assert float(np.trace(out.elements).real) * out.dx == pytest.approx(1.0, abs=1e-10)
    assert abs(von_neumann_entropy(out) - s0) < 1e-10


@pytest.mark.parametrize("n, L", [(128, 20.0), (256, 40.0)])
def test_propagator_closed_form_matches_eigh(n, L):
    # the Liouville and Peres grids at their acceptance boxes
    p = PhysicalParams(L=L)
    h = reference.build_box_hamiltonian(n, p)
    u = UnitaryPropagator(n, p)
    energies, vectors = np.linalg.eigh(h)
    # eigh's own error is ~1e-16 of the spectrum's top, which near E_1 is
    # 1.3e-12 relative at n = 256: compare on that (norm-relative) scale
    np.testing.assert_allclose(u.energies, energies, rtol=0, atol=1e-12 * energies[-1])
    signs = np.sign(np.sum(vectors * u.vectors, axis=0))
    np.testing.assert_allclose(u.vectors, vectors * signs, rtol=0, atol=1e-12)
    v = u.vectors
    np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose((v * u.energies) @ v.T, h, rtol=0, atol=1e-12 * energies[-1])
    np.testing.assert_array_equal(v, v.T)


def test_propagator_energies_relative_accuracy():
    # the sin^2 form keeps full relative precision down to E_1, where
    # 2k(1 - cos) cancels about four digits; reference in extended precision
    n = 256
    p = PhysicalParams(L=40.0)
    k = np.longdouble(p.hbar**2 / (2.0 * p.m * (p.L / (n + 1)) ** 2))
    j = np.arange(1, n + 1, dtype=np.longdouble)
    exact = 4 * k * np.sin(j * np.pi / (2 * np.longdouble(n + 1))) ** 2
    got = UnitaryPropagator(n, p).energies
    assert float(np.max(np.abs(got / exact - 1))) < 1e-14


def test_propagator_refuses_unresolved_grids():
    limit = 129 / 4  # n = 128 resolves w = 1 up to dx = L/129 = w/4
    for n, L, match in ((16, 20.0, "grid size"), (31, 20.0, "grid size"),
                        (64, 20.0, "does not resolve"),
                        (128, math.nextafter(limit, math.inf), "does not resolve")):
        with pytest.raises(ValueError, match=match):
            UnitaryPropagator(n, PhysicalParams(L=L))
    UnitaryPropagator(128, PhysicalParams(L=limit))


def test_propagator_evolve_matches_repeated_step():
    n = 128
    u = UnitaryPropagator(n, P)
    h = reference.build_box_hamiltonian(n, P)
    rng = np.random.Generator(np.random.PCG64(10))
    rho = random_mixed_state(n, P, rng, rank=2)
    stepped = rho.elements
    for _ in range(5):
        stepped = reference.unitary_step(h, stepped, 0.3, P.hbar)
    fast = u.evolve(rho, 0.3, 5)
    np.testing.assert_allclose(fast.elements, stepped, atol=1e-12)


def test_propagator_evolve_is_one_phase_power():
    n = 128
    u = UnitaryPropagator(n, P)
    rho = random_mixed_state(n, P, np.random.Generator(np.random.PCG64(11)), rank=4)
    many = u.evolve(rho, P.tau, 1000)
    once = u.evolve(rho, 1000 * P.tau, 1)
    np.testing.assert_allclose(many.elements, once.elements, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.evolve(rho, P.tau, 0).elements, rho.elements,
                               rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="n_steps"):
        u.evolve(rho, P.tau, -1)


def test_propagator_evolve_is_the_complex_product():
    # evolve multiplies the real basis into Re and Im separately
    n = 128
    u = UnitaryPropagator(n, P)
    rho = random_mixed_state(n, P, np.random.Generator(np.random.PCG64(15)), rank=5)
    v = u.vectors.astype(complex)
    phase = np.exp(-1j * u.energies * P.tau / P.hbar) ** 7
    out = v @ (np.outer(phase, phase.conj()) * (v.T @ rho.elements @ v)) @ v.T
    np.testing.assert_allclose(u.evolve(rho, P.tau, 7).elements, 0.5 * (out + out.conj().T),
                               rtol=0, atol=1e-13)


def test_energy_eigenstate_is_stationary():
    n = 128
    u = UnitaryPropagator(n, P)
    psi = GridWavefunction(
        u.vectors[:, 2].astype(complex) / math.sqrt(P.L / (n + 1)), P.L / (n + 1)
    )
    rho = _pure(psi)
    out = u.evolve(rho, 1.3, 7)
    np.testing.assert_allclose(out.elements, rho.elements, atol=1e-12)


def test_packet_spreading_follows_schroedinger():
    # true QM spreading of a minimum packet: var(t) = var0 + (hbar t / (2 m sigma0))^2
    n = 512
    psi = packet_state(n, P, 10.0, 1.0)
    out = UnitaryPropagator(n, P).propagate(psi, 1.0)
    _, var = measured_moments(out)
    expected = 1.0 + (P.hbar * 1.0 / (2.0 * P.m * 1.0)) ** 2
    assert var == pytest.approx(expected, rel=1e-3)


# ---------------------------------------------------------------------------
# localization channel


def test_channel_damps_off_diagonals_exactly():
    n = 128
    psi = packet_state(n, P, 10.0, 1.0)
    rho = _pure(psi)
    out = grw_localization_channel(rho, P)
    x = rho.positions()
    damp = np.exp(-np.subtract.outer(x, x) ** 2 / (8.0 * P.w**2))
    np.testing.assert_allclose(out.elements, rho.elements * damp, atol=1e-15)
    np.testing.assert_allclose(out.density(), rho.density(), atol=1e-14)


def test_channel_factor_is_built_once_per_grid_and_width(monkeypatch):
    # the Liouville run builds its grid's factor once and hands it to every
    # channel call, as it builds its propagator once
    built, passed = [], set()
    build, channel = runner._localization_factor, runner.grw_localization_channel

    def counted_build(*args):
        built.append(args)
        return build(*args)

    def counted_channel(rho, p, factor):
        passed.add(id(factor))
        return channel(rho, p, factor)

    monkeypatch.setattr(runner, "_localization_factor", counted_build)
    monkeypatch.setattr(runner, "grw_localization_channel", counted_channel)
    c = parse_config("", {"scenario": "liouville_check", "steps": 2})
    runner._scenario_liouville(c)
    assert built == [(LIOUVILLE_GRID, grid_points(LIOUVILLE_GRID, c.params)[1], c.params.w)]
    assert len(passed) == 1
    # the factor passed in is the one the channel builds per call without it
    n = 128
    rho = _pure(packet_state(n, P, 10.0, 1.0))
    factor = density._localization_factor(n, rho.dx, P.w)
    x = rho.positions()
    d = x[:, None] - x[None, :]
    np.testing.assert_array_equal(factor, np.exp(-(d * d) / (8.0 * P.w**2)))
    np.testing.assert_array_equal(grw_localization_channel(rho, P, factor).elements,
                                  grw_localization_channel(rho, P).elements)


def test_channel_entropy_matches_closed_form():
    # continuum benchmark: a pure Gaussian of variance s2 through the
    # width-w channel acquires the entropy of a geometric spectrum
    for s2 in (0.5, 1.0, 2.0):
        psi = packet_state(512, P, 10.0, s2)
        out = grw_localization_channel(_pure(psi), P)
        expected = reference.gaussian_channel_entropy(s2, P.w)
        assert von_neumann_entropy(out) == pytest.approx(expected, abs=1e-9)


def test_channel_entropy_closed_form_cross_check():
    # the closed form itself against dense free-space diagonalization
    for s2, w in ((1.0, 1.0), (2.0, 0.7)):
        a = reference.gaussian_channel_entropy(s2, w)
        b = reference.gaussian_channel_entropy_grid(s2, w)
        assert a == pytest.approx(b, abs=1e-10)


def test_channel_on_orthogonal_mixture_adds_ln2():
    n = 512
    a = packet_state(n, P, 6.0, 1.0)
    b = packet_state(n, P, 14.0, 1.0)
    mix = mixture_density([a, b], [0.5, 0.5])
    assert von_neumann_entropy(mix) == pytest.approx(math.log(2), abs=1e-6)
    s = von_neumann_entropy(grw_localization_channel(mix, P))
    expected = reference.gaussian_channel_entropy(1.0, P.w) + math.log(2)
    assert s == pytest.approx(expected, abs=1e-4)


def test_channel_fixed_point_and_trace():
    n = 128
    dx = P.L / (n + 1)
    mixed = GridDensityMatrix(np.eye(n, dtype=complex) / (n * dx), dx)
    out = grw_localization_channel(mixed, P)
    np.testing.assert_allclose(out.elements, mixed.elements, atol=1e-15)
    rng = np.random.Generator(np.random.PCG64(11))
    rho = random_mixed_state(n, P, rng)
    out = grw_localization_channel(rho, P)
    assert float(np.trace(out.elements).real) * dx == pytest.approx(1.0, abs=1e-12)


def test_channel_requires_resolved_width():
    n = 64
    p_coarse = PhysicalParams(w=1.0, L=20.0)
    dx = p_coarse.L / (n + 1)
    rho = GridDensityMatrix(np.eye(n, dtype=complex) / (n * dx), dx)
    with pytest.raises(ValueError):
        grw_localization_channel(rho, p_coarse)


def test_entropy_pure_and_mixed_limits():
    psi = packet_state(128, P, 10.0, 1.0)
    assert von_neumann_entropy(_pure(psi)) == pytest.approx(0.0, abs=1e-10)
    n = 64
    dx = P.L / (n + 1)
    mixed = GridDensityMatrix(np.eye(n, dtype=complex) / (n * dx), dx)
    assert von_neumann_entropy(mixed) == pytest.approx(math.log(n), rel=1e-12)


def test_entropy_rejects_invalid_state():
    n = 64
    dx = P.L / (n + 1)
    v = np.full(n, 1.0 / (n * dx))
    v[0] += 0.2 / dx
    v[1] -= 0.2 / dx
    rho = GridDensityMatrix(np.diag(v).astype(complex), dx)
    with pytest.raises(ValueError):
        von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# interference diagnostics


def test_visibility_coherent_vs_mixture():
    n = 512
    a = packet_state(n, P, 9.0, 1.0)
    b = packet_state(n, P, 11.0, 1.0, momentum=8.0)
    sup = superpose([a, b], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    mix = mixture_density([a, b], [0.5, 0.5])
    region = (8.5, 11.5)
    assert interference_visibility(sup, region) > 0.5
    assert interference_visibility(mix, region) < 0.3


def test_visibility_validation():
    psi = packet_state(128, P, 10.0, 1.0)
    with pytest.raises(ValueError):
        interference_visibility(psi, (5.0, 25.0))
    with pytest.raises(ValueError):
        interference_visibility(psi, (5.0, 5.0))
    with pytest.raises(TypeError):
        interference_visibility(np.zeros(4), (0.0, 1.0))


def test_fringe_content_zero_for_envelope():
    d = np.array([0.2, 0.5, 0.3])
    assert fringe_content(d, d) == 0.0
    modulated = d * np.array([1.2, 0.8, 1.1])
    assert fringe_content(modulated, d) == pytest.approx(
        np.abs(modulated - d).max() / 0.5, rel=1e-12
    )
    with pytest.raises(ValueError):
        fringe_content(d, np.zeros(3))
    with pytest.raises(ValueError):
        fringe_content(d, d[:2])


# ---------------------------------------------------------------------------
# classical walker reference


def test_walk_oracle_moments():
    rng = np.random.Generator(np.random.PCG64(12))
    steps = 5
    x = classical_random_walk_oracle(P, 40_000, steps, rng)
    assert np.all((x >= 0) & (x <= P.L))
    assert x.mean() == pytest.approx(P.L / 2, abs=0.05)
    # pre-wall regime: variance grows by delta^2 per step
    assert x.var() == pytest.approx(steps * P.delta2(), rel=0.05)


def test_walk_oracle_validation():
    rng = np.random.Generator(np.random.PCG64(13))
    with pytest.raises(ValueError):
        classical_random_walk_oracle(P, 10, 5, rng)
    with pytest.raises(ValueError):
        classical_random_walk_oracle(P, 2000, -1, rng)

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclock.dynamics as dynamics
from qclock import (
    DimensionMismatch,
    IncompatibleSpectrum,
    InternalConsistency,
    NotADensityMatrix,
    Spectrum,
    build_time_operator,
    clock_power,
    clock_run,
    decompose_spectrum,
    exp_hermitian,
    measure_shift_sign,
    measure_weyl_sign,
    run_suite,
    shift_eigenvector,
    shift_vs_evolution_residual,
    stroboscopic_step,
    wigner_of_density,
)
from qclock.dynamics import conjugate_diagonal, conjugate_unitary
from qclock.verification import harmonic_spectrum, random_density, skewed_spectrum
from conftest import cached_basis, cached_pair

HARMONIC5 = Spectrum(5, (0, 1, 2, 3, 4))
SKEWED5 = Spectrum(5, (0, 7, 24, 51, 88))


def pure_state(pair, index):
    vec = shift_eigenvector(pair, index)
    return np.outer(vec, vec.conj())


def random_mixed(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_zero_time_is_identity():
    rng = np.random.default_rng(30)
    rho = random_mixed(rng, 5)
    h = np.diag(np.arange(5.0))
    assert np.max(np.abs(conjugate_unitary(rho, exp_hermitian(h, 0.0)) - rho)) < 1e-12


def test_purity_preserved():
    rng = np.random.default_rng(31)
    rho = random_mixed(rng, 5)
    h = np.diag(np.arange(5.0))
    out = conjugate_unitary(rho, exp_hermitian(h, 0.83))
    assert abs(np.trace(out @ out).real - np.trace(rho @ rho).real) < 1e-10


def test_one_tick_moves_down_by_one():
    pair = cached_pair(5)
    rho = pure_state(pair, 0)
    out = conjugate_unitary(rho, exp_hermitian(np.diag(np.arange(5.0)), 2 * np.pi / 5))
    assert np.max(np.abs(out - pure_state(pair, 4))) < 1e-10


def test_energy_eigenstate_is_stationary():
    rho = np.zeros((5, 5), dtype=complex)
    rho[2, 2] = 1.0
    out = conjugate_unitary(rho, exp_hermitian(np.diag(np.arange(5.0)), 1.7))
    assert np.max(np.abs(out - rho)) < 1e-12


def test_stroboscopic_step_constant_grid_unchanged():
    grid = np.full((5, 5), 0.2)
    assert np.array_equal(stroboscopic_step(grid, 2, -1), grid)


def test_stroboscopic_step_moves_delta_column():
    grid = np.zeros((5, 5))
    grid[:, 3] = 1.0
    out = stroboscopic_step(grid, 2, -1)
    expected = np.zeros((5, 5))
    expected[:, 1] = 1.0
    assert np.array_equal(out, expected)


def test_stroboscopic_step_preserves_energy_marginal():
    rng = np.random.default_rng(32)
    grid = rng.normal(size=(5, 5))
    out = stroboscopic_step(grid, 3, -1)
    assert np.allclose(out.sum(axis=1), grid.sum(axis=1))


def test_stroboscopic_full_cycle():
    rng = np.random.default_rng(33)
    grid = rng.normal(size=(7, 7))
    out = grid
    for _ in range(7):
        out = stroboscopic_step(out, 3, -1)
    assert np.array_equal(out, grid)


def test_measured_shift_sign_is_negative():
    pair = cached_pair(5)
    assert measure_shift_sign(pair, decompose_spectrum(HARMONIC5)) == -1
    assert measure_shift_sign(pair, decompose_spectrum(SKEWED5)) == -1


def test_shift_rule_matches_direct_evolution_for_delta_grid():
    # the measured sign makes the shift rule reproduce the evolved grid
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    sign = measure_shift_sign(pair, dec)
    rho = pure_state(pair, 2)
    evolved = conjugate_unitary(rho, exp_hermitian(np.diag(HARMONIC5.as_floats()), dec.delta_tau))
    direct = wigner_of_density(basis, evolved)
    shifted = stroboscopic_step(wigner_of_density(basis, rho), dec.k, sign)
    assert np.max(np.abs(direct - shifted)) < 1e-10


def test_clock_run_harmonic_sequence():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    trace = clock_run(pair, basis, dec, HARMONIC5, 0, 5)
    assert [rec.occupied_index for rec in trace.steps] == [0, 4, 3, 2, 1, 0]
    assert trace.direction_sign == -1
    assert trace.k == 1


def test_clock_run_skewed_sequence():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    trace = clock_run(pair, basis, dec, SKEWED5, 0, 5)
    assert [rec.occupied_index for rec in trace.steps] == [0, 3, 1, 4, 2, 0]


def test_clock_run_occupancy_sharp():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    trace = clock_run(pair, basis, dec, SKEWED5, 1, 10)
    for rec in trace.steps:
        assert rec.occupied_probability >= 1 - 1e-9
        assert rec.max_offsite <= 1e-9
    assert trace.steps[5].occupied_index == trace.steps[0].occupied_index


def test_clock_run_covers_every_site():
    pair, basis = cached_pair(7), cached_basis(7)
    spec = Spectrum(7, tuple(range(7)))
    dec = decompose_spectrum(spec)
    for start in range(7):
        trace = clock_run(pair, basis, dec, spec, start, 7)
        occupied = [rec.occupied_index for rec in trace.steps]
        assert sorted(occupied[:7]) == list(range(7))
        assert occupied[7] == start


def test_clock_run_times_and_metadata():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    trace = clock_run(pair, basis, dec, HARMONIC5, 0, 3)
    for j, rec in enumerate(trace.steps):
        assert rec.j == j
        assert abs(rec.time - j * dec.delta_tau) < 1e-15


def test_clock_run_rejects_mismatched_spectrum():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    with pytest.raises(IncompatibleSpectrum):
        clock_run(pair, basis, dec, SKEWED5, 0, 5)


def test_clock_run_asserts_the_measured_direction_at_every_tick(monkeypatch):
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    monkeypatch.setattr(dynamics, "measure_shift_sign", lambda p, d: -measure_shift_sign(p, d))
    with pytest.raises(InternalConsistency, match="tick 1 "):
        clock_run(pair, basis, dec, SKEWED5, 0, 1)


def test_clock_run_checks_the_wigner_marginal_at_tick_zero(monkeypatch):
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    monkeypatch.setattr(dynamics, "wigner_of_density", lambda b, rho: wigner_of_density(b, rho).T)
    with pytest.raises(InternalConsistency, match="tick 0"):
        clock_run(pair, basis, dec, SKEWED5, 0, 5)


def test_clock_run_maps_the_wigner_grid_only_at_the_ends(monkeypatch):
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    calls = []

    def counting(b, rho):
        calls.append(rho)
        return wigner_of_density(b, rho)

    monkeypatch.setattr(dynamics, "wigner_of_density", counting)
    clock_run(pair, basis, dec, SKEWED5, 0, 12)
    assert len(calls) == 2


def per_tick_wigner_reading(pair, basis, dec, start, steps):
    """Each tick's (site, population, largest off-site population) from the density's Wigner grid."""
    state = shift_eigenvector(pair, start)
    rho = np.outer(state, state.conj())
    readings = []
    for _ in range(steps + 1):
        populations = wigner_of_density(basis, rho).real.sum(axis=0) / pair.dim
        occupied = int(np.argmax(populations))
        readings.append((occupied, populations[occupied], np.max(np.delete(populations, occupied))))
        rho = conjugate_diagonal(rho, dec.tick_phases(1))
    return readings


@pytest.mark.parametrize("n", [3, 5, 7, 11, 31])
def test_clock_run_matches_a_per_tick_wigner_reading(n):
    pair, basis = cached_pair(n), cached_basis(n)
    for spec in (harmonic_spectrum(n), skewed_spectrum(n)):
        dec = decompose_spectrum(spec)
        trace = clock_run(pair, basis, dec, spec, 1, 2 * n)
        reference = per_tick_wigner_reading(pair, basis, dec, 1, 2 * n)
        for rec, (occupied, probability, offsite) in zip(trace.steps, reference, strict=True):
            assert rec.occupied_index == occupied
            assert abs(rec.occupied_probability - probability) <= 1e-15
            assert abs(rec.max_offsite - offsite) <= 1e-15


def test_shift_vs_evolution_pure_state():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    rho = pure_state(pair, 2)
    assert shift_vs_evolution_residual(pair, basis, dec, HARMONIC5, rho, 3) < 1e-9


def test_shift_vs_evolution_random_mixed():
    pair, basis = cached_pair(7), cached_basis(7)
    spec = Spectrum(7, tuple(range(7)))
    dec = decompose_spectrum(spec)
    rng = np.random.default_rng(34)
    rho = random_mixed(rng, 7)
    assert shift_vs_evolution_residual(pair, basis, dec, spec, rho, 7) < 1e-9


def test_shift_vs_evolution_maximally_mixed():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(SKEWED5)
    assert shift_vs_evolution_residual(pair, basis, dec, SKEWED5, np.eye(5) / 5, 4) < 1e-12


@pytest.mark.parametrize("spec", [HARMONIC5, SKEWED5])
def test_hypothesis_soundness_up_to_two_cycles(spec):
    pair = cached_pair(5)
    dec = decompose_spectrum(spec)
    h = np.diag(spec.as_floats())
    for n in range(1, 11):
        u = exp_hermitian(h, n * dec.delta_tau)
        assert np.max(np.abs(u - clock_power(pair, -(n * dec.k) % 5))) < 1e-10


def test_clock_periodicity_at_full_cycle():
    pair = cached_pair(5)
    dec = decompose_spectrum(SKEWED5)
    rho0 = pure_state(pair, 3)
    rho = rho0
    for _ in range(5):
        rho = conjugate_unitary(rho, exp_hermitian(np.diag(SKEWED5.as_floats()), dec.delta_tau))
    assert np.max(np.abs(rho - rho0)) < 1e-10


def test_conjugate_unitary_guards_the_state_and_the_shape(monkeypatch):
    g = exp_hermitian(np.diag(SKEWED5.as_floats()), 0.3)
    with pytest.raises(NotADensityMatrix):
        conjugate_unitary(np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0, 0.0]), g)
    with pytest.raises(DimensionMismatch):
        conjugate_unitary(np.eye(5) / 5, g[:3, :3])
    guarded = []
    original = dynamics.check_density
    monkeypatch.setattr(dynamics, "check_density", lambda rho: guarded.append(rho) or original(rho))
    conjugate_unitary(np.eye(5) / 5, g)
    assert len(guarded) == 1


def offsite_after(pair, basis, spec, t):
    rho = conjugate_unitary(pure_state(pair, 0), exp_hermitian(np.diag(spec.as_floats()), t))
    populations = wigner_of_density(basis, rho).real.sum(axis=0) / spec.dim
    populations[int(np.argmax(populations))] = -np.inf
    return float(np.max(populations))


def test_half_tick_is_not_stroboscopic():
    pair, basis = cached_pair(5), cached_basis(5)
    dec = decompose_spectrum(HARMONIC5)
    assert offsite_after(pair, basis, HARMONIC5, dec.delta_tau / 2) > 0.01


def test_incompatible_spectrum_never_confines():
    pair, basis = cached_pair(5), cached_basis(5)
    squares = Spectrum(5, (0, 1, 4, 9, 16))
    scan = [2 * np.pi * j / 40 for j in range(1, 40)]
    assert min(offsite_after(pair, basis, squares, t) for t in scan) > 0.01


_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(_ODD_PRIMES), st.data())
def test_one_shift_by_count_k_is_count_one_tick_steps(n, data):
    # shift_vs_evolution_residual shifts the initial grid once per count by count*k mod N
    k = data.draw(st.integers(0, n - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    count = data.draw(st.integers(0, 2 * n))
    grid = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(n, n))
    stepped = grid
    for _ in range(count):
        stepped = stroboscopic_step(stepped, k, sign)
    assert np.array_equal(stroboscopic_step(grid, count * k % n, sign), stepped)


def test_stroboscopic_step_gates():
    grid = np.zeros((5, 5))
    with pytest.raises(ValueError):
        stroboscopic_step(grid, 5, -1)
    with pytest.raises(ValueError):
        stroboscopic_step(grid, 1, 2)


@lru_cache(maxsize=None)
def suite_signs(n):
    return run_suite(n).signs


@st.composite
def large_clock_spectra(draw):
    """E_m = omega*(k*m + N*f(m)) with |f| up to 10**400 and omega up to 10**60 either way."""
    n = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, n - 1))
    bound = 10 ** draw(st.integers(0, 400))
    f = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    omega = Fraction(draw(st.integers(1, 10**60)), draw(st.integers(1, 10**60)))
    return Spectrum(n, tuple(omega * (k * m + n * f[m]) for m in range(n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(large_clock_spectra())
def test_clock_stays_exact_at_any_energy_scale(spec):
    n = spec.dim
    pair, basis = cached_pair(n), cached_basis(n)
    dec = decompose_spectrum(spec)
    trace = clock_run(pair, basis, dec, spec, 0, 2 * n)
    assert max(max(1.0 - rec.occupied_probability, rec.max_offsite) for rec in trace.steps) <= 1e-9
    signs = suite_signs(n)
    assert measure_shift_sign(pair, dec) == trace.direction_sign == signs["shift_direction_sign"]
    assert measure_weyl_sign(build_time_operator(pair, dec), dec) == signs["weyl_pair_sign"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.sampled_from([harmonic_spectrum, skewed_spectrum]),
    st.lists(st.integers(0, 30), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_shift_vs_evolution_counts_are_the_scalar_calls(dim, family, counts, seed):
    pair, basis = cached_pair(dim), cached_basis(dim)
    spec = family(dim)
    dec = decompose_spectrum(spec)
    rho = random_density(np.random.default_rng(seed), dim)
    got = shift_vs_evolution_residual(pair, basis, dec, spec, rho, counts)
    want = [shift_vs_evolution_residual(pair, basis, dec, spec, rho, c) for c in counts]
    assert [repr(float(r)) for r in got] == [repr(r) for r in want]
    with pytest.raises(ValueError):
        shift_vs_evolution_residual(pair, basis, dec, spec, rho, counts + [-1])


def test_shift_vs_evolution_counts_measure_and_guard_once(monkeypatch):
    pair, basis, dec = cached_pair(5), cached_basis(5), decompose_spectrum(SKEWED5)
    signs, guarded = [], []
    monkeypatch.setattr(dynamics, "measure_shift_sign", lambda *a: signs.append(a) or measure_shift_sign(*a))
    original = dynamics.check_density
    monkeypatch.setattr(dynamics, "check_density", lambda rho: guarded.append(rho) or original(rho))
    shift_vs_evolution_residual(pair, basis, dec, SKEWED5, np.eye(5) / 5, (5, 1, 2))
    assert len(signs) == 1
    assert len(guarded) == 4  # rho once, then each evolved state before its map

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclock.time_interval as time_interval
from qclock import (
    DimensionMismatch,
    IndexOutOfRange,
    Spectrum,
    build_time_operator,
    decompose_spectrum,
    exp_hermitian,
    measure_weyl_sign,
    shift_eigenvector,
    shift_power,
    time_operator_grid,
    verify_energy_shift,
    verify_weyl_pair,
)
from qclock.numerics import _circulant
from qclock.spectrum import reduce_mod_period
from qclock.time_interval import _exp_column
from qclock.verification import harmonic_spectrum, skewed_spectrum
from conftest import cached_basis, cached_pair

HARMONIC5 = Spectrum(5, (0, 1, 2, 3, 4))
SKEWED5 = Spectrum(5, (0, 7, 24, 51, 88))


def top_for(spec):
    return build_time_operator(cached_pair(spec.dim), decompose_spectrum(spec))


def quadratic_spectrum(dim):
    return Spectrum(dim, tuple(2 * m + dim * m * m for m in range(dim)))


def test_eigenvalues_harmonic_n5():
    top = top_for(HARMONIC5)
    assert np.max(np.abs(top.eigenvalues - 2 * np.pi / 5 * np.arange(5))) < 1e-15


@pytest.mark.parametrize("spec", [HARMONIC5, SKEWED5])
def test_analytic_eigensystem(spec):
    top = top_for(spec)
    vectors = top.fourier.conj().T  # column l is the shift eigenvector |s_l>
    assert np.max(np.abs((vectors * top.eigenvalues) @ vectors.conj().T - top.matrix)) < 1e-12
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(5))) < 1e-12
    assert np.array_equal(top.eigenvalues, top.delta_tau * np.arange(5))
    assert np.max(np.abs(exp_hermitian(top.matrix, 0.83)[:, 0] - _exp_column(top, 0.83))) < 1e-12


@pytest.mark.parametrize("dim", [3, 5, 7, 31, 211])
def test_exp_is_the_propagator_of_t(dim):
    top = top_for(quadratic_spectrum(dim))
    s, t = 0.37, -1.91
    # off the tick grid too, where a column that skips its conjugation is the conjugate of the true one
    for when in (t, 0.37 * top.delta_tau):
        assert np.max(np.abs(_exp_column(top, when) - exp_hermitian(top.matrix, when)[:, 0])) < 1e-12
    # the group law: column 0 of exp(-i*T*s) exp(-i*T*t) is exp(-i*T*s) times column 0 of exp(-i*T*t)
    assert np.max(np.abs(_circulant(_exp_column(top, s)) @ _exp_column(top, t) - _exp_column(top, s + t))) < 1e-12


def test_time_operator_shares_the_pair_fourier_table():
    pair = cached_pair(7)
    top = build_time_operator(pair, decompose_spectrum(quadratic_spectrum(7)))
    assert top.fourier is pair.fourier
    assert not hasattr(top, "eigensystem")


def test_trace_n3():
    top = top_for(Spectrum(3, (0, 1, 2)))
    assert abs(np.trace(top.matrix).real - 2 * np.pi) < 1e-10
    assert abs(np.trace(top.matrix).imag) < 1e-12


def test_hermitian_n7():
    top = top_for(Spectrum(7, tuple(range(7))))
    assert np.max(np.abs(top.matrix - top.matrix.conj().T)) < 1e-12


@pytest.mark.parametrize("spec", [HARMONIC5, SKEWED5])
def test_eigenvector_action(spec):
    pair = cached_pair(5)
    top = top_for(spec)
    for l in range(5):
        vec = shift_eigenvector(pair, l)
        assert np.max(np.abs(top.matrix @ vec - top.delta_tau * l * vec)) < 1e-10


def test_grid_columns_n3():
    top = top_for(Spectrum(3, (0, 1, 2)))
    grid = time_operator_grid(cached_basis(3), top)
    expected = np.broadcast_to(top.delta_tau * np.arange(3), (3, 3))
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_grid_row_independence_n5():
    top = top_for(HARMONIC5)
    grid = time_operator_grid(cached_basis(5), top)
    assert np.max(np.abs(grid - grid[0:1, :])) < 1e-10
    assert np.max(np.abs(grid.imag)) < 1e-10


def test_grid_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        time_operator_grid(cached_basis(3), top_for(HARMONIC5))


def test_energy_shift_zero_gap():
    assert verify_energy_shift(top_for(HARMONIC5), HARMONIC5, 0) < 1e-12


def test_energy_shift_explicit_skewed_gap():
    # gap E_1 - E_0 = 7 with clock power 2: exp(-7iT) is the double down-shift
    top = top_for(SKEWED5)
    pair = cached_pair(5)
    w = exp_hermitian(top.matrix, 7.0)
    assert np.max(np.abs(w - shift_power(pair, -2))) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_energy_shift_all_gaps(dim):
    for spec in (Spectrum(dim, tuple(range(dim))), quadratic_spectrum(dim)):
        top = top_for(spec)
        for s in range(dim):
            assert verify_energy_shift(top, spec, s) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
def test_energy_shift_is_the_max_over_the_dense_matrices(dim):
    pair = cached_pair(dim)
    matching = quadratic_spectrum(dim)
    top = top_for(matching)
    squares = Spectrum(dim, tuple(m * m for m in range(dim)))
    for spec in (matching, squares):
        reduced = reduce_mod_period(spec.energies, top.decomp.omega, dim)
        for s in (1, dim - 1):
            reference = shift_power(pair, -top.decomp.k * s)
            dense = max(
                float(np.abs(_circulant(_exp_column(top, reduced[m + s] - reduced[m])) - reference).max())
                for m in range(dim - s)
            )
            assert verify_energy_shift(top, spec, s) == dense


def test_energy_shift_fails_off_the_compatible_class():
    # time operator built for the harmonic ladder, measured against squares
    top = top_for(HARMONIC5)
    residual = verify_energy_shift(top, Spectrum(5, (0, 1, 4, 9, 16)), 1)
    assert residual > 0.1


def test_weyl_pair_identity_at_zero_ticks():
    dec = decompose_spectrum(SKEWED5)
    assert abs(verify_weyl_pair(top_for(SKEWED5), dec, 0, 1) - 1.0) < 1e-10


def test_weyl_pair_single_tick_phase():
    # measured sign is -1: c = exp(-2*pi*i*k^2/5) with k = 2
    dec = decompose_spectrum(SKEWED5)
    top = top_for(SKEWED5)
    sigma = measure_weyl_sign(top, dec)
    assert sigma == -1
    c = verify_weyl_pair(top, dec, 1, 1)
    assert abs(c - np.exp(-2j * np.pi * 4 / 5)) < 1e-10


def test_weyl_pair_multiplicative_in_ticks():
    dec = decompose_spectrum(SKEWED5)
    top = top_for(SKEWED5)
    c1 = verify_weyl_pair(top, dec, 1, 1)
    c2 = verify_weyl_pair(top, dec, 2, 1)
    c3 = verify_weyl_pair(top, dec, 3, 1)
    assert abs(c1 * c2 - c3) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_weyl_pair_full_table_single_sign(dim):
    for spec in (Spectrum(dim, tuple(range(dim))), quadratic_spectrum(dim)):
        dec = decompose_spectrum(spec)
        top = build_time_operator(cached_pair(dim), dec)
        sigma = measure_weyl_sign(top, dec)
        for n in range(dim):
            for j in range(dim):
                c = verify_weyl_pair(top, dec, n, j)
                target = np.exp(sigma * 2j * np.pi * ((n * j * dec.k * dec.k) % dim) / dim)
                assert abs(c - target) < 1e-10


def test_weyl_phase_depends_only_on_gap():
    dec = decompose_spectrum(SKEWED5)
    top = top_for(SKEWED5)
    energies = [float(e) for e in SKEWED5.energies]
    prop = exp_hermitian(np.diag(energies), top.delta_tau)
    reference = verify_weyl_pair(top, dec, 1, 1)
    for m in range(4):
        w = exp_hermitian(top.matrix, energies[m + 1] - energies[m])
        lhs, rhs = prop @ w, w @ prop
        idx = int(np.argmax(np.abs(rhs)))
        assert abs(lhs.flat[idx] / rhs.flat[idx] - reference) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_mutually_unbiased_bases(dim):
    pair = cached_pair(dim)
    assert np.max(np.abs(np.abs(pair.fourier) ** 2 - 1.0 / dim)) < 1e-12


def test_build_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_time_operator(cached_pair(3), decompose_spectrum(HARMONIC5))


def test_weyl_pair_index_gates():
    dec = decompose_spectrum(HARMONIC5)
    top = top_for(HARMONIC5)
    from qclock import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        verify_weyl_pair(top, dec, 1, 5)
    with pytest.raises(ValueError):
        verify_weyl_pair(top, dec, -1, 1)


@pytest.mark.parametrize("dim", [3, 5, 7, 31, 211])
def test_closed_form_matches_the_fourier_diagonalization(dim):
    pair = cached_pair(dim)
    top = build_time_operator(pair, decompose_spectrum(Spectrum(dim, tuple(range(dim)))))
    by_fourier = (pair.fourier.conj().T * (top.delta_tau * np.arange(dim))) @ pair.fourier
    assert np.max(np.abs(top.matrix - by_fourier)) <= 1e-12
    # circulant: every entry repeats exactly one step down the diagonal
    assert np.array_equal(top.matrix, np.roll(top.matrix, (1, 1), axis=(0, 1)))


@pytest.mark.parametrize("dim", [3, 5, 7, 31, 211])
@pytest.mark.parametrize("spec_of", [lambda n: Spectrum(n, tuple(range(n))), quadratic_spectrum])
def test_matrix_is_the_dense_closed_form_bit_for_bit(dim, spec_of):
    # T held by its column: the derived matrix is the entrywise closed form, built densely
    pair = cached_pair(dim)
    top = build_time_operator(pair, decompose_spectrum(spec_of(dim)))
    lag = (np.arange(dim)[:, None] - np.arange(dim)) % dim
    with np.errstate(divide="ignore", invalid="ignore"):
        dense = top.delta_tau / (pair.clock_phases[lag] - 1.0)
    dense[lag == 0] = top.delta_tau * (dim - 1) / 2
    assert top.matrix.dtype == np.complex128 and top.matrix.tobytes() == dense.tobytes()
    assert top.column.shape == (dim,) and not top.column.flags.writeable
    assert top.matrix is not top.matrix  # formed on each read, not stored


def test_build_time_operator_forms_no_dense_matrix():
    pair = cached_pair(1009)
    dec = decompose_spectrum(Spectrum(1009, tuple(range(1009))))
    tracemalloc.start()
    try:
        build_time_operator(pair, dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a dense T at N = 1009 is 16 MB


def test_energy_shift_over_all_gaps_forms_one_gap_at_a_time():
    spec = skewed_spectrum(101)
    top = top_for(spec)
    tracemalloc.start()
    try:
        verify_energy_shift(top, spec, range(101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # all 5151 columns of the 101 gaps at once take 16 MiB


_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_ODD_PRIMES), st.sampled_from([harmonic_spectrum, skewed_spectrum]), st.data())
def test_weyl_pair_arrays_are_the_scalar_calls(dim, family, data):
    dec = decompose_spectrum(family(dim))
    top = build_time_operator(cached_pair(dim), dec)
    size = data.draw(st.integers(1, 6))
    ticks = np.array(data.draw(st.lists(st.integers(0, 3 * dim), min_size=size, max_size=size)))
    ladder = np.array(data.draw(st.lists(st.integers(0, dim - 1), min_size=size, max_size=size)))
    got = verify_weyl_pair(top, dec, ticks, ladder)
    assert [c.tobytes() for c in got] == [
        np.complex128(verify_weyl_pair(top, dec, int(a), int(b))).tobytes() for a, b in zip(ticks, ladder)
    ]
    table = verify_weyl_pair(top, dec, ticks[:, None], ladder)  # broadcast to (size, size)
    assert table.shape == (size, size)
    assert table[np.arange(size), np.arange(size)].tobytes() == got.tobytes()
    empty = np.array([], int)
    assert verify_weyl_pair(top, dec, empty, empty).shape == (0,)
    assert verify_weyl_pair(top, dec, ticks[:, None], empty).shape == (size, 0)
    # a bad entry anywhere raises what the scalar call raises for it
    bad = data.draw(st.integers(0, size - 1))
    with pytest.raises(IndexOutOfRange):
        verify_weyl_pair(top, dec, ticks, np.where(np.arange(size) == bad, dim, ladder))
    with pytest.raises(ValueError):
        verify_weyl_pair(top, dec, np.where(np.arange(size) == bad, -1, ticks), ladder)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_ODD_PRIMES), st.sampled_from([harmonic_spectrum, skewed_spectrum]), st.data())
def test_energy_shift_gaps_are_the_scalar_calls(dim, family, data):
    spec = family(dim)
    top = top_for(spec)
    gaps = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim + 2))
    got = verify_energy_shift(top, spec, gaps)
    assert [repr(float(r)) for r in got] == [repr(verify_energy_shift(top, spec, s)) for s in gaps]
    with pytest.raises(ValueError):
        verify_energy_shift(top, spec, gaps + [data.draw(st.sampled_from([-1, dim]))])


def test_energy_shift_gap_sequence_reduces_the_energies_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return reduce_mod_period(*args)

    monkeypatch.setattr(time_interval, "reduce_mod_period", counting)
    verify_energy_shift(top_for(SKEWED5), SKEWED5, range(5))
    assert len(calls) == 1

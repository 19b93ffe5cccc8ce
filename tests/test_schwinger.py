import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (
    DimensionNotOddPrime,
    IndexOutOfRange,
    build_pair,
    clock_diagonal,
    clock_power,
    commutation_phase,
    is_odd_prime,
    measure_commutation_sign,
    shift_eigenvector,
    shift_power,
)
from conftest import cached_pair


def test_shift_matrix_structure():
    pair = build_pair(3)
    expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.array_equal(shift_power(pair, 1), expected)


def test_clock_matrix_structure():
    pair = build_pair(3)
    expected = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    assert np.max(np.abs(clock_power(pair, 1) - expected)) < 1e-15


def test_pair_order_n():
    pair = build_pair(3)
    assert np.max(np.abs(np.linalg.matrix_power(clock_power(pair, 1), 3) - np.eye(3))) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(shift_power(pair, 1), 3) - np.eye(3))) < 1e-12


def test_pair_holds_the_clock_as_one_read_only_row():
    pair = build_pair(5)
    assert pair.clock_phases.shape == (5,) and not pair.clock_phases.flags.writeable
    assert np.array_equal(clock_power(pair, 1).diagonal(), pair.clock_phases)
    assert not hasattr(pair, "clock") and not hasattr(pair, "shift")


@pytest.mark.parametrize("bad", [1, 2, 4, 6, 9, 15])
def test_dimension_gate(bad):
    with pytest.raises(DimensionNotOddPrime):
        build_pair(bad)


def test_shift_eigenvector_uniform():
    vec = shift_eigenvector(cached_pair(3), 0)
    assert np.max(np.abs(vec - np.full(3, 1 / np.sqrt(3)))) < 1e-15


def test_shift_eigenvector_eigen_residual():
    pair = cached_pair(3)
    vec = shift_eigenvector(pair, 1)
    assert np.max(np.abs(shift_power(pair, 1) @ vec - np.exp(2j * np.pi / 3) * vec)) < 1e-12


def test_clock_raises_shift_eigenvector_index():
    pair = cached_pair(5)
    lifted = clock_power(pair, 1) @ shift_eigenvector(pair, 2)
    assert np.max(np.abs(lifted - shift_eigenvector(pair, 3))) < 1e-12


def test_shift_eigenvector_index_gate():
    pair = cached_pair(5)
    with pytest.raises(IndexOutOfRange):
        shift_eigenvector(pair, 5)
    with pytest.raises(IndexOutOfRange):
        shift_eigenvector(pair, -1)


def test_commutation_zero_power_commutes():
    assert abs(commutation_phase(cached_pair(3), 0, 5) - 1.0) < 1e-12


def test_commutation_unit_powers():
    # direct 3x3 product oracle: the measured phase carries a minus sign
    pair = cached_pair(3)
    assert abs(commutation_phase(pair, 1, 1) - np.exp(-2j * np.pi / 3)) < 1e-12


def test_commutation_mixed_powers():
    # 2*3 = 6 = 5 + 1, so the phase winds once around
    pair = cached_pair(5)
    assert abs(commutation_phase(pair, 2, 3) - np.exp(-2j * np.pi / 5)) < 1e-12


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_commutation_full_table(dim):
    pair = cached_pair(dim)
    for j in range(dim):
        for l in range(dim):
            target = np.exp(-2j * np.pi * ((j * l) % dim) / dim)
            assert abs(commutation_phase(pair, j, l) - target) < 1e-12


def test_measured_commutation_sign():
    assert measure_commutation_sign(cached_pair(5)) == -1


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_shift_powers_permute_exactly(dim):
    pair = cached_pair(dim)
    eye = np.eye(dim)
    for s in range(dim):
        vs = shift_power(pair, s)
        for m in range(dim):
            assert np.array_equal(vs @ eye[:, m], eye[:, (m - s) % dim].astype(complex))


def test_clock_negative_power_is_inverse():
    pair = cached_pair(7)
    for k in range(1, 7):
        inv = np.linalg.inv(clock_power(pair, k))
        assert np.max(np.abs(clock_power(pair, 7 - k) - inv)) < 1e-12


def closed_form_clock_power(dim, exponent):
    """clock**exponent from the reduced phase angles, the formula build_pair uses."""
    labels = np.arange(dim)
    return np.diag(np.exp(2j * np.pi * ((exponent % dim * labels) % dim) / dim))


def closed_form_shift_power(dim, exponent):
    """shift**exponent as the identity rolled up by the reduced exponent."""
    return np.roll(np.eye(dim, dtype=np.complex128), -(exponent % dim), axis=0)


@pytest.mark.parametrize("dim", [3, 5, 7, 11, 13, 31])
def test_powers_equal_the_closed_forms_bit_for_bit(dim):
    pair = cached_pair(dim)
    for exponent in range(-2 * dim, 2 * dim + 1):
        assert np.array_equal(clock_power(pair, exponent), closed_form_clock_power(dim, exponent))
        assert np.array_equal(shift_power(pair, exponent), closed_form_shift_power(dim, exponent))


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
def test_clock_diagonal_is_the_diagonal_of_clock_power(dim):
    pair = cached_pair(dim)
    exponents = np.arange(-2 * dim, 2 * dim + 1)
    stacked = clock_diagonal(pair, exponents[:, None])  # one row per exponent
    assert stacked.shape == (exponents.size, dim)
    for exponent, row in zip(exponents.tolist(), stacked):
        diagonal = clock_diagonal(pair, exponent)
        assert diagonal.shape == (dim,)
        assert diagonal.tobytes() == clock_power(pair, exponent).diagonal().tobytes()
        assert row.tobytes() == diagonal.tobytes()


def test_fourier_matches_overlap_formula():
    pair = cached_pair(5)
    k, m = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    expected = np.exp(-2j * np.pi * k * m / 5) / np.sqrt(5)
    assert np.max(np.abs(pair.fourier - expected)) < 1e-12


def test_fourier_unitary():
    pair = cached_pair(7)
    gram = pair.fourier @ pair.fourier.conj().T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


_ARRAY_DIMS = [n for n in range(3, 32) if is_odd_prime(n)] + [101, 211]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_commutation_phase_arrays_are_the_scalar_calls(data):
    dim = data.draw(st.sampled_from(_ARRAY_DIMS))
    pair = cached_pair(dim)
    exponents = st.integers(-3 * dim, 3 * dim)
    shapes = [((4,), ()), ((), (3,)), ((3, 1), (1, 4)), ((5,), (5,)), ((0,), ()), ((2, 1), (0,))]
    shape_j, shape_l = data.draw(st.sampled_from(shapes))
    j = np.array(data.draw(st.lists(exponents, min_size=int(np.prod(shape_j)), max_size=int(np.prod(shape_j)))), int)
    l = np.array(data.draw(st.lists(exponents, min_size=int(np.prod(shape_l)), max_size=int(np.prod(shape_l)))), int)
    j, l = j.reshape(shape_j), l.reshape(shape_l)
    got = commutation_phase(pair, j, l)
    jb, lb = np.broadcast_arrays(j, l)
    assert got.shape == jb.shape
    for index in np.ndindex(got.shape):
        want = commutation_phase(pair, int(jb[index]), int(lb[index]))
        assert got[index].tobytes() == np.complex128(want).tobytes()


def test_commutation_phase_takes_exponents_past_int64():
    pair = cached_pair(7)
    for j, l in ((10**30, 3), (2**64, -(10**30)), (-(2**63) - 5, 2**63)):
        assert commutation_phase(pair, j, l) == commutation_phase(pair, j % 7, l % 7)


def test_commutation_table_by_shift_power_at_n211_is_the_scalar_table():
    pair = cached_pair(211)
    labels = np.arange(211)
    for l in (0, 1, 105, 210):
        got = commutation_phase(pair, labels, l)
        want = [np.complex128(commutation_phase(pair, j, l)).tobytes() for j in range(211)]
        assert [c.tobytes() for c in got] == want

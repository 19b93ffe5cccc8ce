import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (
    DimensionMismatch,
    NoConvergence,
    NoRationalWithinTolerance,
    NotHermitian,
    NotScalarMultiple,
    exchange_phase,
    exp_hermitian,
    hermitian_eig,
    rationalize,
)
from qclock.numerics import _circulant
from qclock.schwinger import build_pair, clock_power, commutation_phase, shift_power
from conftest import count_fraction_constructions
from reference import AllZero, rational_gcd


def reconstruction_residual(a, es):
    return np.max(np.abs((es.vectors * es.values) @ es.vectors.conj().T - a))


def degenerate_matrices():
    """Hermitian matrices with repeated eigenvalues, in generic eigenbases."""
    rng = np.random.default_rng(12)
    out = [np.eye(4, dtype=complex) - np.full((4, 4), 0.25)]
    for values in ([1, 1, 1, 2, 2, 3], [-2, 0, 0, 0, 0, 5, 5], [4, 4, 4, 4, 4]):
        z = rng.normal(size=(len(values),) * 2) + 1j * rng.normal(size=(len(values),) * 2)
        q, _ = np.linalg.qr(z)
        a = (q * np.array(values, dtype=float)) @ q.conj().T
        out.append(0.5 * (a + a.conj().T))
    return out


def test_pauli_x_spectrum():
    es = hermitian_eig([[0, 1], [1, 0]])
    assert np.allclose(es.values, [-1.0, 1.0], atol=1e-12)


def test_complex_two_level_spectrum():
    # characteristic polynomial (1 - t)^2 - 1 has roots 0 and 2
    es = hermitian_eig([[1, 1j], [-1j, 1]])
    assert np.allclose(es.values, [0.0, 2.0], atol=1e-12)


def test_seeded_random_hermitian_reconstruction():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    a = a + a.conj().T
    es = hermitian_eig(a)
    assert reconstruction_residual(a, es) < 1e-10
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(7))) < 1e-12
    assert np.all(np.diff(es.values) >= -1e-12)


def test_degenerate_spectrum_is_deterministic():
    # rank-one projector complement: eigenvalue 1 with multiplicity 3
    a = np.eye(4, dtype=complex) - np.full((4, 4), 0.25)
    first = hermitian_eig(a)
    second = hermitian_eig(a)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    assert reconstruction_residual(a, first) < 1e-10


@pytest.mark.parametrize("case", range(4))
def test_degenerate_matrices_reconstruct_orthonormally(case):
    a = degenerate_matrices()[case]
    es = hermitian_eig(a)
    assert np.any(np.diff(es.values) <= 1e-10)
    assert reconstruction_residual(a, es) < 1e-10
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(len(a)))) < 1e-12


def reference_hermitian_eig(a, vectors=True):
    """eigh of the symmetrized matrix, which is a itself when a is exactly Hermitian."""
    arr = np.asarray(a, dtype=np.complex128)
    work = 0.5 * (arr + arr.conj().T)
    if not vectors:
        return np.linalg.eigvalsh(work), None
    return np.linalg.eigh(work)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


@st.composite
def eigen_inputs(draw):
    """Random, exactly degenerate, nearly degenerate and slightly non-Hermitian matrices."""
    kind = draw(st.sampled_from(["random", "identity", "blocks", "gap", "defect"]))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "identity":
        return draw(st.sampled_from([1.0, -2.5, 1e3])) * np.eye(n, dtype=complex)
    if kind == "blocks":  # one Hermitian block repeated down the diagonal
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return np.kron(np.eye(draw(st.integers(2, 3))), z + z.conj().T)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = draw(st.sampled_from([1.0, 1e-3, 1e3])) * (a + a.conj().T)
    if kind == "defect":  # non-Hermitian by less than the 1e-12 the wrapper admits
        return a + draw(st.sampled_from([1e-15, 1e-13, 3e-13])) * rng.uniform(-1.0, 1.0, size=(n, n))
    if kind == "gap":  # nearly degenerate: two levels a fixed fraction of max |a| apart
        levels = np.append(np.sort(rng.normal(size=n)), draw(st.sampled_from([0.5, 2.0, 700.0])))
        relative = draw(st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8]))
        q = random_unitary(rng, n + 2) if draw(st.booleans()) else np.eye(n + 2)

        def with_gap(gap):
            return (q * np.append(levels, levels[-1] + gap)) @ q.conj().T

        return with_gap(relative * max(1.0, np.abs(with_gap(0.0)).max()))
    return a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eigen_inputs())
def test_hermitian_eig_equals_the_reference_bit_for_bit(a):
    es = hermitian_eig(a)
    values, vecs = reference_hermitian_eig(a)
    assert es.values.tobytes() == values.tobytes()
    assert es.vectors.tobytes() == vecs.tobytes()
    assert es.vectors.strides == vecs.strides
    assert es.vectors.flags.f_contiguous == vecs.flags.f_contiguous
    assert es.vectors.flags.c_contiguous == vecs.flags.c_contiguous
    only = hermitian_eig(a, vectors=False)
    assert only.values.tobytes() == reference_hermitian_eig(a, vectors=False)[0].tobytes()


def test_lapack_failure_is_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        hermitian_eig(np.diag([1.0, 2.0]))


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(1, 12))
    part = st.floats(-700.0, 700.0)  # |re + i im| stays below 1e3
    re = np.array(draw(st.lists(part, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(part, min_size=n * n, max_size=n * n))).reshape(n, n)
    upper = np.triu(re + 1j * im, 1)
    return upper + upper.conj().T + np.diag(np.diag(re))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hermitian_matrices())
def test_hermitian_eig_property(a):
    es = hermitian_eig(a)
    n = a.shape[0]
    assert reconstruction_residual(a, es) < 1e-10
    assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(n))) < 1e-12
    assert np.all(np.diff(es.values) >= 0.0)


def test_values_only_match_the_full_decomposition():
    a = np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.5], [0.0, 0.5, -1.0]])
    values_only = hermitian_eig(a, vectors=False)
    assert values_only.vectors is None
    assert np.max(np.abs(values_only.values - hermitian_eig(a).values)) < 1e-14
    with pytest.raises(NotHermitian):
        hermitian_eig(np.triu(np.ones((3, 3))), vectors=False)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_eig([[0, 1], [0, 0]])


def test_exp_at_zero_is_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a + a.conj().T
    assert np.max(np.abs(exp_hermitian(a, 0.0) - np.eye(4))) < 1e-12


def test_exp_integer_spectrum_period():
    assert np.max(np.abs(exp_hermitian(np.diag([0.0, 1.0, 2.0]), 2 * np.pi) - np.eye(3))) < 1e-12


def test_exp_harmonic_tick_matches_clock_inverse():
    pair = build_pair(5)
    u = exp_hermitian(np.diag(np.arange(5.0)), 2 * np.pi / 5)
    assert np.max(np.abs(u - clock_power(pair, -1))) < 1e-12


def test_exp_group_law():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = a + a.conj().T
    left = exp_hermitian(a, 0.7) @ exp_hermitian(a, -2.3)
    assert np.max(np.abs(left - exp_hermitian(a, -1.6))) < 1e-10


def test_exp_unitary():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a + a.conj().T
    u = exp_hermitian(a, 1.234)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-10


def test_trace_cyclicity_seeded():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_rationalize_quarter():
    assert rationalize(0.25, 1e-9, 10**6) == Fraction(1, 4)


def test_rationalize_repeating_third():
    # continued fraction of 0.333333333 is [0; 3, ...]; 1/3 is the first
    # convergent within 1e-6 (|1/3 - 0.333333333| = 3.3e-10)
    assert rationalize(0.333333333, 1e-6, 10**6) == Fraction(1, 3)


def test_rationalize_rejects_sqrt2():
    # best convergent with q <= 1000 is 1393/985, off by ~4e-7
    with pytest.raises(NoRationalWithinTolerance):
        rationalize(np.sqrt(2.0), 1e-12, 10**3)


def test_rationalize_negative():
    assert rationalize(-0.25, 1e-9, 10**6) == Fraction(-1, 4)


def test_rationalize_roundtrip_exhaustive_small():
    for q in range(1, 21):
        for p in range(-40, 41):
            want = Fraction(p, q)
            assert rationalize(float(want), 1e-9, 10**6) == want


def test_rationalize_roundtrip_seeded():
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = int(rng.integers(1, 1001))
        p = int(rng.integers(-1000 * q, 1000 * q + 1))
        want = Fraction(p, q)
        assert rationalize(float(want), 1e-9, 10**6) == want


def reference_rationalize(x, tolerance, max_denominator):
    """The convergent walk in Fraction arithmetic: exact partial quotients, exact distances."""
    target = Fraction(x)
    tol = Fraction(tolerance)
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    rest = target
    while True:
        a0 = math.floor(rest)
        p_cur = a0 * p_prev + p_prev2
        q_cur = a0 * q_prev + q_prev2
        if q_cur > max_denominator:
            return None
        candidate = Fraction(p_cur, q_cur)
        if abs(candidate - target) <= tol:
            return candidate
        p_prev, p_prev2 = p_cur, p_prev
        q_prev, q_prev2 = q_cur, q_prev
        rest = 1 / (rest - a0)  # rest == a0 would have returned: candidate == target


def rationalize_or_none(x, tolerance, max_denominator):
    try:
        return rationalize(x, tolerance, max_denominator)
    except NoRationalWithinTolerance:
        return None


def test_rationalize_matches_fraction_reference():
    outcomes = set()
    near_fractions = st.builds(
        lambda f, noise: float(f) + noise,
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
        st.sampled_from([0.0, 1e-12, -3e-10, 1e-7, 2.0**-40]),
    )
    xs = st.one_of(
        near_fractions,
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**80), max_value=2**80),
    )
    tolerances = st.one_of(
        st.sampled_from([5e-324, 1e-15, 1e-9, 1e-6, 0.5, 1.0]),
        st.floats(min_value=5e-324, max_value=10.0),
    )

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(xs, tolerances, st.integers(min_value=1, max_value=10**12))
    def agrees(x, tolerance, max_denominator):
        got = rationalize_or_none(x, tolerance, max_denominator)
        assert got == reference_rationalize(x, tolerance, max_denominator)
        if got is not None:
            assert type(got) is Fraction and got.denominator <= max_denominator
        outcomes.add(got is None)

    agrees()
    assert outcomes == {True, False}  # both the value and the rejection were compared


def test_rationalize_negative_values():
    assert rationalize(-2.6, 0.5, 1) == -3
    assert rationalize(-0.3333333333, 1e-6, 100) == Fraction(-1, 3)
    assert rationalize(-1e-300, 1e-9, 10) == 0


def test_rationalize_int_beyond_float_precision_is_exact():
    # float(2**53 + 1) == 2**53, but the quotients come from the int itself
    x = 2**53 + 1
    assert rationalize(x, 1.0, 10) == x
    assert rationalize(x, 5e-324, 1) == x


@pytest.mark.parametrize("x", [10**400, -(10**400), Fraction(10**400, 3)])
def test_rationalize_exact_value_beyond_float64_is_exact(x):
    assert rationalize(x, 1e-9, 10) == x


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_rationalize_non_finite_float_is_a_value_error(x):
    with pytest.raises(ValueError, match="finite"):
        rationalize(x, 1e-9, 10)


def test_rationalize_tiny_negative_takes_the_exact_convergent():
    # the float quotient of 1/(1 - 1.7e-8) lost digits and gave -1/58427951
    assert rationalize(-1.711509623217893e-08, 2.9e-9, 10**12) == Fraction(-1, 58427950)
    with pytest.raises(NoRationalWithinTolerance):
        rationalize(-3e-10, 1e-12, 3333333058)  # the convergent is -1/3333333333


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.floats(min_value=-8.0, max_value=4.0).map(lambda e: 10.0**e),
    st.sampled_from([1, -1]),
    st.floats(min_value=-15.0, max_value=-3.0).map(lambda e: 10.0**e),
    st.integers(min_value=3, max_value=12).map(lambda e: 10**e),
)
def test_rationalize_is_the_first_exact_convergent(magnitude, sign, tolerance, max_denominator):
    x = sign * magnitude
    assert rationalize_or_none(x, tolerance, max_denominator) == reference_rationalize(
        x, tolerance, max_denominator
    )


def test_rationalize_smallest_subnormal_tolerance():
    assert rationalize(0.25, 5e-324, 10) == Fraction(1, 4)
    assert rationalize(-7.0, 5e-324, 1) == -7
    with pytest.raises(NoRationalWithinTolerance):
        rationalize(0.1, 5e-324, 10**6)  # 0.1 is 3602879701896397 / 2**55


def test_rationalize_max_denominator_one():
    assert rationalize(2.4, 0.5, 1) == 2
    assert rationalize(2.6, 0.5, 1) == 3  # the second convergent, 3/1
    with pytest.raises(NoRationalWithinTolerance):
        rationalize(2.5, 0.25, 1)


def test_rationalize_accepts_a_distance_equal_to_the_tolerance():
    # 1/1 is exactly 0.25 from 0.75: within tolerance, so a strict comparison would raise
    assert rationalize(0.75, 0.25, 1) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    st.sampled_from([5e-324, 1e-12, 1e-9, 1e-3, 0.5]),
    st.integers(min_value=1, max_value=10**9),
)
def test_rationalize_is_the_same_for_every_numeric_type(x, tolerance, max_denominator):
    forms = [float(x), np.float64(x), Fraction(x)]
    if float(x).is_integer():
        forms.append(int(x))
    answers = {repr(rationalize_or_none(form, tolerance, max_denominator)) for form in forms}
    assert len(answers) == 1


# rational_gcd is the tests' reference for the gate's gcd (tests/reference.py); these pin it
def test_rational_gcd_builds_only_its_result(monkeypatch):
    values = [Fraction(6 * m * m + 4, 2 * m + 3) for m in range(30)] + [0, 8, Fraction(0)]
    want = Fraction(
        math.gcd(*(v.numerator for v in values)), math.lcm(*(v.denominator for v in values))
    )
    built = count_fraction_constructions(monkeypatch)
    assert rational_gcd(values) == want
    assert len(built) <= 1


def test_rational_gcd_integers():
    assert rational_gcd([0, 7, 24, 51, 88]) == 1


def test_rational_gcd_halves():
    assert rational_gcd([0, Fraction(1, 2), 1]) == Fraction(1, 2)


def test_rational_gcd_equal():
    assert rational_gcd([3, 3, 3]) == 3


def test_rational_gcd_all_zero():
    with pytest.raises(AllZero):
        rational_gcd([0, Fraction(0), 0])


def test_rational_gcd_divides_and_is_maximal():
    rng = np.random.default_rng(6)
    for _ in range(50):
        values = [
            Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))
            for _ in range(5)
        ]
        if all(v == 0 for v in values):
            continue
        g = rational_gcd(values)
        ratios = [v / g for v in values]
        assert all(r.denominator == 1 for r in ratios)
        # maximal iff the integer ratios share no further factor
        assert rational_gcd([r for r in ratios if r != 0]) == 1


def test_exchange_phase_of_clock_and_shift_powers():
    pair = build_pair(5)
    for j in range(5):
        for l in range(5):
            c = exchange_phase(clock_power(pair, j).diagonal(), shift_power(pair, l)[:, 0], 1e-12)
            assert abs(c - np.exp(-2j * np.pi * j * l / 5)) < 1e-12


def test_exchange_phase_rejects_a_non_scalar_pair():
    with pytest.raises(NotScalarMultiple):
        exchange_phase(np.array([1.0, 2.0, 3.0]), shift_power(build_pair(3), 1)[:, 0], 1e-10)


def dense_exchange_reading(d, b, tol):
    """The phase read from the dense products diag(d) @ b and b @ diag(d), entry by entry.

    The oracle of exchange_phase on b = _circulant(w): c at the first largest
    entry of b @ diag(d) in row-major order, every entry checked to tol.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        lhs, rhs = np.multiply(d[:, None], b, dtype=complex), np.multiply(b, d, dtype=complex)
        idx = int(np.abs(rhs).argmax())
        pivot = rhs.flat[idx]
        if pivot == 0 or not np.isfinite(pivot):
            raise NotScalarMultiple(f"no finite nonzero entry to read a phase at (largest {pivot})")
        c = complex(lhs.flat[idx] / pivot)
        rhs *= c
        lhs -= rhs
        defect = float(np.abs(lhs).max())
    if not defect <= tol:
        raise NotScalarMultiple(f"defect {defect:.3e}")
    return c


def test_exchange_phase_matches_the_dense_products():
    rng = np.random.default_rng(13)
    pair = build_pair(7)
    for j in range(7):
        for l in range(7):
            d = clock_power(pair, j).diagonal()
            # a scaled shift^l is a Weyl partner of every clock power
            w = shift_power(pair, l)[:, 0] * complex(*rng.normal(size=2))
            assert exchange_phase(d, w, 1e-12) == dense_exchange_reading(d, _circulant(w), 1e-12)


_EDGES = [0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]


@st.composite
def diagonals_and_columns(draw):
    """(d, w): a clock power against one scaled lag, unit entries that tie in size, or any entries.

    Columns hold exact-zero lags, and the last kind NaN, inf and 1e308 too.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["clock", "ties", "any"]))
    entry = st.one_of(st.just(0j), st.sampled_from(_EDGES), st.complex_numbers())
    if kind == "clock":
        d = np.exp(2j * np.pi * draw(st.integers(0, n - 1)) * np.arange(n) / n)
        w = np.zeros(n, dtype=complex)
        w[draw(st.integers(0, n - 1))] = draw(entry)
        return d, w
    if kind == "ties":  # the reading then depends on which of the tied entries is read
        d_entry, w_entry = st.sampled_from([1, -1, 1j, -1j]), st.sampled_from([0, 0, 1, 1j])
    else:
        d_entry = w_entry = entry
    d = np.array(draw(st.lists(d_entry, min_size=n, max_size=n)), dtype=complex)
    return d, np.array(draw(st.lists(w_entry, min_size=n, max_size=n)), dtype=complex)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(diagonals_and_columns(), st.sampled_from([1e-12, 1e300]))
def test_exchange_phase_is_the_dense_reading_bit_for_bit(operands, tol):
    d, w = operands
    try:
        want = dense_exchange_reading(d, _circulant(w), tol)
    except NotScalarMultiple:
        want = NotScalarMultiple
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is NotScalarMultiple:
            with pytest.raises(NotScalarMultiple):
                exchange_phase(d, w, tol)
        else:
            assert np.complex128(exchange_phase(d, w, tol)).tobytes() == np.complex128(want).tobytes()


def test_exchange_phase_takes_the_diagonal_operand_as_its_diagonal():
    """Each operand's last axis is one diagonal or one column: a matrix is a stack of them."""
    pair = build_pair(5)
    column = shift_power(pair, 1)[:, 0]
    for d, w in (
        (np.array(1.0), column),  # 0-d
        (np.ones(5), np.array(1.0)),
        (np.ones(3), column),  # N differs
        (np.ones((2, 5)), np.ones((3, 5))),  # stacks that do not broadcast
    ):
        with pytest.raises(DimensionMismatch):
            exchange_phase(d, w, 1e-12)
    diagonals = np.array([clock_power(pair, j).diagonal() for j in range(5)])
    readings = exchange_phase(diagonals, column, 1e-12)
    assert readings.shape == (5,)
    one_by_one = [np.complex128(exchange_phase(d, column, 1e-12)).tobytes() for d in diagonals]
    assert [c.tobytes() for c in readings] == one_by_one
    assert type(exchange_phase(diagonals[1], column, 1e-12)) is complex


def test_commutation_phase_forms_no_dense_shift():
    pair = build_pair(1009)
    commutation_phase(pair, 1, 1)
    tracemalloc.start()
    try:
        commutation_phase(pair, 3, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a dense shift alone takes 16 MB


@pytest.mark.parametrize(
    "d, w",
    [
        (np.exp(2j * np.pi * np.arange(5) / 5), np.zeros(5, dtype=complex)),
        (np.zeros(5), np.eye(5, dtype=complex)[4]),
        (np.array([1.0, np.nan, 1.0, 1.0, 1.0]), np.eye(5, dtype=complex)[4]),
        (np.exp(2j * np.pi * np.arange(5) / 5), np.array([np.nan, 0, 0, 0, 0], dtype=complex)),
    ],
    ids=["zero-b", "zero-d", "nan-in-d", "nan-in-b"],
)
def test_exchange_phase_without_a_finite_reading_raises(d, w):
    # the scalar would be nan + 0j; a NaN defect must not pass the tolerance test
    with pytest.raises(NotScalarMultiple):
        exchange_phase(d, w, 1e-12)


@pytest.mark.parametrize(
    "d, w",
    [
        (np.array([1.0, np.inf, 1.0]), np.eye(3, dtype=complex)[2]),
        (np.ones(3), np.array([np.inf, 0, 1], dtype=complex)),
        (np.full(3, 1e200), np.full(3, 1e200, dtype=complex)),
        (np.array([1e200, 1.0]), np.array([1.0, 1e200], dtype=complex)),
    ],
    ids=["inf-in-d", "inf-in-b", "overflow", "overflow-in-d-at-b"],
)
def test_exchange_phase_raises_without_a_warning_on_inf_or_overflow(d, w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotScalarMultiple):
            exchange_phase(d, w, 1e-12)


def test_large_scale_matrix_converges():
    # a matrix with entries around 1e3 must still decompose and reconstruct
    # to an absolute 1e-10
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = 1e3 * (a + a.conj().T)
    es = hermitian_eig(a)
    assert reconstruction_residual(a, es) < 1e-10


@st.composite
def stacked_operands(draw):
    """(d, w) of shape (B, N), each row one kind: a clock power against a scaled lag,
    unit entries that tie in size, any entries (NaN, inf and 1e308 too), a zero
    column, or a pair that is no scalar multiple."""
    n = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 11, 13, 31]))
    rows = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0j), st.sampled_from(_EDGES), st.complex_numbers())
    ds, ws = [], []
    for _ in range(rows):
        kind = draw(st.sampled_from(["clock", "clock", "ties", "ties", "any", "zero", "not-scalar"]))
        if kind in ("clock", "zero", "not-scalar"):
            d = np.exp(2j * np.pi * draw(st.integers(0, n - 1)) * np.arange(n) / n)
            w = np.zeros(n, dtype=complex)
            if kind == "clock":
                w[draw(st.integers(0, n - 1))] = draw(entry)
            elif kind == "not-scalar":
                d = np.arange(1.0, n + 1.0) + 0j
                w[draw(st.integers(1, n - 1)) if n > 1 else 0] = 1
        else:
            if kind == "ties":
                d_entry, w_entry = st.sampled_from([1, -1, 1j, -1j]), st.sampled_from([0, 0, 1, 1j])
            else:
                d_entry = w_entry = entry
            d = np.array(draw(st.lists(d_entry, min_size=n, max_size=n)), dtype=complex)
            w = np.array(draw(st.lists(w_entry, min_size=n, max_size=n)), dtype=complex)
        ds.append(d)
        ws.append(w)
    return np.array(ds), np.array(ws)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(stacked_operands(), st.sampled_from([1e-12, 1e300]))
def test_stacked_exchange_phases_are_the_one_pair_readings(operands, tol):
    d, w = operands
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = []
        for row_d, row_w in zip(d, w):
            try:
                want.append(np.complex128(exchange_phase(row_d, row_w, tol)).tobytes())
            except NotScalarMultiple:
                want = NotScalarMultiple
                break
        if want is NotScalarMultiple:  # one row that raises makes the stack raise
            with pytest.raises(NotScalarMultiple):
                exchange_phase(d, w, tol)
        else:
            got = exchange_phase(d, w, tol)
            assert got.shape == (len(d),)
            assert [c.tobytes() for c in got] == want

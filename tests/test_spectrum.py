import dataclasses
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qclock import (
    DEGENERATE,
    DimensionNotOddPrime,
    IncompatibilityCertificate,
    IncompatibleSpectrum,
    NOT_COMMENSURABLE,
    RESIDUES_NOT_LINEAR,
    Spectrum,
    SpectrumDecomposition,
    analyze_float_spectrum,
    clock_power,
    decompose_spectrum,
    exp_hermitian,
    rationalize,
    rationalize_energies,
)
from qclock.spectrum import reduce_mod_period
from qclock.verification import harmonic_spectrum, skewed_spectrum
from conftest import REPO_ROOT, cached_pair, count_fraction_constructions
from reference import decomposition_energies, random_compatible_spectrum, rational_gcd


def brute_force_clock_power(spec):
    """Independent oracle: try every k over the integer residues directly."""
    n = spec.dim
    gcd = rational_gcd([e for e in spec.energies if e != 0])
    residues = [int(e / gcd) % n for e in spec.energies]
    fits = [
        k
        for k in range(1, n)
        if all(residues[m] == (k * m) % n for m in range(n))
    ]
    return fits[0] if fits else None


def test_harmonic_ladder():
    dec = decompose_spectrum(Spectrum(5, (0, 1, 2, 3, 4)))
    assert isinstance(dec, SpectrumDecomposition)
    assert dec.omega == 1 and dec.k == 1 and dec.f == (0, 0, 0, 0, 0)
    assert abs(dec.delta_tau - 2 * np.pi / 5) < 1e-15


def test_skewed_ladder_with_quadratic_offsets():
    spec = Spectrum(5, (0, 7, 24, 51, 88))
    dec = decompose_spectrum(spec)
    assert isinstance(dec, SpectrumDecomposition)
    assert dec.omega == 1 and dec.k == 2
    assert dec.f == (0, 1, 4, 9, 16)
    assert brute_force_clock_power(spec) == 2
    assert dec.matches(spec)


def test_perfect_squares_certificate():
    spec = Spectrum(5, (0, 1, 4, 9, 16))
    cert = decompose_spectrum(spec)
    assert isinstance(cert, IncompatibilityCertificate)
    assert cert.reason == RESIDUES_NOT_LINEAR
    assert cert.residues == (0, 1, 4, 4, 1)
    assert cert.first_bad_index == 2
    assert brute_force_clock_power(spec) is None


def test_half_integer_ladder():
    dec = decompose_spectrum(Spectrum(3, (0, Fraction(1, 2), 1)))
    assert isinstance(dec, SpectrumDecomposition)
    assert dec.omega == Fraction(1, 2) and dec.k == 1 and dec.f == (0, 0, 0)
    assert abs(dec.delta_tau - 4 * np.pi / 3) < 1e-15


def test_nonzero_ground_residue_fails_at_index_zero():
    cert = decompose_spectrum(Spectrum(3, (1, 2, 3)))
    assert isinstance(cert, IncompatibilityCertificate)
    assert cert.first_bad_index == 0


def test_zero_gap_at_index_one_fails():
    # E_1/gcd is a multiple of N, so the only fitting power would be zero
    cert = decompose_spectrum(Spectrum(3, (0, 3, 1)))
    assert isinstance(cert, IncompatibilityCertificate)
    assert cert.first_bad_index == 1


def test_degenerate_spectrum_returns_a_certificate():
    for energies in ((3, 3, 3), (0, 0, 0)):
        cert = decompose_spectrum(Spectrum(3, energies))
        assert cert == IncompatibilityCertificate(
            DEGENERATE, detail="all energies equal; no nonzero clock power fits"
        )
        assert cert.residues is None and cert.first_bad_index is None


@pytest.mark.parametrize(
    "fields, needle",
    [
        (dict(reason=RESIDUES_NOT_LINEAR), "needs residues"),
        (dict(reason=RESIDUES_NOT_LINEAR, residues=(0, 1, 1)), "needs first_bad_index"),
        (dict(reason=NOT_COMMENSURABLE, residues=(0, 1, 1), first_bad_index=0), "has no residues"),
        (dict(reason=DEGENERATE, first_bad_index=2), "has no first_bad_index"),
        (dict(reason="Unknown"), "unknown reason"),
    ],
)
def test_certificate_fields_are_checked_by_raising(fields, needle):
    with pytest.raises(ValueError, match=needle):
        IncompatibilityCertificate(**fields)


def test_certificate_fields_are_checked_under_optimization():
    # python -O strips assert statements; the field checks must still raise
    code = (
        "from qclock import RESIDUES_NOT_LINEAR, IncompatibilityCertificate\n"
        "try:\n    IncompatibilityCertificate(reason=RESIDUES_NOT_LINEAR)\n"
        "except ValueError:\n    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert subprocess.run([sys.executable, "-O", "-c", code], cwd=REPO_ROOT).returncode == 0


def test_float_front_end_degenerate_certificate():
    cert = analyze_float_spectrum([0.5] * 5, 5, 1e-9, 10**6)
    assert cert == decompose_spectrum(Spectrum(5, (Fraction(1, 2),) * 5))
    assert cert.reason == DEGENERATE
    assert cert.residues is None and cert.first_bad_index is None


@pytest.mark.parametrize("dim", [3, 5, 7, 11])
def test_constructed_spectra_match_brute_force(dim):
    rng = np.random.default_rng(20 + dim)
    for _ in range(50):
        spec, _, _, _ = random_compatible_spectrum(rng, dim)
        dec = decompose_spectrum(spec)
        assert isinstance(dec, SpectrumDecomposition)
        assert dec.matches(spec)
        assert brute_force_clock_power(spec) == dec.k


def test_soundness_propagator_equals_clock_power():
    rng = np.random.default_rng(21)
    pair = cached_pair(7)
    for _ in range(20):
        spec, _, _, _ = random_compatible_spectrum(rng, 7)
        dec = decompose_spectrum(spec)
        h = np.diag(spec.as_floats())
        gap = np.max(np.abs(exp_hermitian(h, dec.delta_tau) - clock_power(pair, -dec.k)))
        assert gap < 1e-10


def test_lambda_is_maximal():
    rng = np.random.default_rng(22)
    for _ in range(30):
        spec, _, _, _ = random_compatible_spectrum(rng, 5)
        dec = decompose_spectrum(spec)
        ratios = [int(e / dec.omega) for e in spec.energies]
        assert rational_gcd([r for r in ratios if r != 0]) == 1


def test_analyze_float_harmonic():
    dec = analyze_float_spectrum([0.0, 1.0, 2.0, 3.0, 4.0], 5, 1e-9, 10**6)
    assert isinstance(dec, SpectrumDecomposition)
    assert dec.k == 1 and abs(dec.delta_tau - 2 * np.pi / 5) < 1e-15


def test_analyze_float_half_steps():
    dec = analyze_float_spectrum([0.0, 0.5, 1.0], 3, 1e-9, 10**6)
    assert isinstance(dec, SpectrumDecomposition)
    assert dec.omega == Fraction(1, 2)


def test_analyze_float_irrational_member():
    cert = analyze_float_spectrum([0.0, 1.0, np.sqrt(2.0)], 3, 1e-12, 10**3)
    assert isinstance(cert, IncompatibilityCertificate)
    assert cert.reason == NOT_COMMENSURABLE
    assert cert.first_bad_index == 2


@pytest.mark.parametrize(
    "energies",
    [
        [m + 5 * 10**400 * (m % 2) for m in range(5)],  # overflows float()
        [f"{m + 5 * 10**20 * (m % 2)}/3" for m in range(5)],  # loses digits in float()
        [0, Fraction(1, 3), "2/3", 1.0, 5 * 2**60 + 3],  # omega 1/3; only 1.0 is rationalized
    ],
    ids=["n5-1e400-ints", "p/q-strings", "mixed"],
)
def test_float_front_end_decides_exact_entries_exactly(energies):
    want = decompose_spectrum(Spectrum(5, tuple(energies)))
    assert isinstance(want, SpectrumDecomposition)
    assert analyze_float_spectrum(energies, 5, 1e-9, 10**6) == want


def test_perturbation_flips_verdict_for_bundled_n5_cases():
    # the canonical n=5 spectra reject an irrational offset at every index
    for base in ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 7.0, 24.0, 51.0, 88.0]):
        for i in range(5):
            floats = list(base)
            floats[i] += np.sqrt(2.0) * 1e-3
            res = analyze_float_spectrum(floats, 5, 1e-9, 10**6)
            assert isinstance(res, IncompatibilityCertificate)


def test_spectrum_validates_shape():
    with pytest.raises(ValueError):
        Spectrum(5, (0, 1, 2))
    from qclock import DimensionNotOddPrime

    with pytest.raises(DimensionNotOddPrime):
        Spectrum(4, (0, 1, 2, 3))


def test_spectrum_converts_only_non_fractions():
    half = Fraction(1, 2)
    spec = Spectrum(3, (0, half, "3/4"))
    assert spec.energies == (0, Fraction(1, 2), Fraction(3, 4))
    assert all(type(e) is Fraction for e in spec.energies)
    assert spec.energies[1] is half
    # the integer pairs are read once, take no part in equality, and follow a replace
    assert spec.pairs == ((0, 1), (1, 2), (3, 4))
    assert spec == Spectrum(3, (Fraction(0), half, Fraction(3, 4)))
    assert dataclasses.replace(spec, energies=(1, "-2/6", 3)).pairs == ((1, 1), (-1, 3), (3, 1))


# --- Hypothesis properties of the exact gate ------------------------------

DIMS = st.sampled_from([3, 5, 7, 11])
RATIONALS = st.fractions(min_value=-60, max_value=60, max_denominator=12)
OMEGAS = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)


@st.composite
def rational_spectra(draw):
    """Arbitrary rational energies (zeros and negatives included), not all equal."""
    n = draw(DIMS)
    energies = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    assume(len(set(energies)) > 1)
    return Spectrum(n, tuple(energies))


@st.composite
def clock_spectra(draw):
    """E_m = omega*(k*m + N*f(m)) with random omega, k and integer offsets."""
    n = draw(DIMS)
    k = draw(st.integers(1, n - 1))
    omega = draw(OMEGAS)
    f = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return Spectrum(n, tuple(omega * (k * m + n * f[m]) for m in range(n)))


@st.composite
def broken_clock_spectra(draw):
    """A clock spectrum with one energy moved by a multiple of omega off the lattice."""
    spec = draw(clock_spectra())
    n = spec.dim
    i = draw(st.integers(0, n - 1))
    step = draw(st.integers(1, n - 1)) + n * draw(st.integers(-3, 3))
    omega = rational_gcd(spec.energies)
    energies = list(spec.energies)
    energies[i] += step * omega
    return Spectrum(n, tuple(energies))


SPECTRA = st.one_of(clock_spectra(), rational_spectra(), broken_clock_spectra())
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def reference_decompose(spec):
    """The gate with Fraction division: omega = gcd(p)/lcm(q), ratios E_m/omega."""
    n = spec.dim
    nonzero = [abs(e) for e in spec.energies if e != 0]
    omega = Fraction(
        math.gcd(*(e.numerator for e in nonzero)), math.lcm(*(e.denominator for e in nonzero))
    )
    ratios = [e / omega for e in spec.energies]
    assert all(r.denominator == 1 for r in ratios)
    residues = tuple(int(r) % n for r in ratios)
    first_bad = brute_force_first_bad_index(residues, n)
    if first_bad is not None:
        return IncompatibilityCertificate(
            reason=RESIDUES_NOT_LINEAR,
            residues=residues,
            first_bad_index=first_bad,
            detail=f"residues {list(residues)} are not k*m (mod {n}) for any k; "
            f"first obstruction at m={first_bad}",
        )
    k = residues[1]
    return SpectrumDecomposition(
        dim=n, omega=omega, k=k, f=tuple((int(ratios[m]) - k * m) // n for m in range(n))
    )


def brute_force_first_bad_index(residues, n):
    """First m after which no k in 1..N-1 fits residues[0..m] as k*m mod N."""
    for m in range(n):
        fits = [
            k for k in range(1, n) if all(residues[j] == (k * j) % n for j in range(m + 1))
        ]
        if not fits:
            return m
    return None


@PROPERTY_SETTINGS
@given(clock_spectra())
def test_gate_round_trips_energies(spec):
    dec = decompose_spectrum(spec)
    assert isinstance(dec, SpectrumDecomposition)
    assert decomposition_energies(dec) == spec.energies


@PROPERTY_SETTINGS
@given(SPECTRA, st.integers(2, 40))
def test_gate_verdict_invariant_under_integer_rescaling(spec, t):
    scaled = Spectrum(spec.dim, tuple(t * e for e in spec.energies))
    before, after = decompose_spectrum(spec), decompose_spectrum(scaled)
    assert type(before) is type(after)
    if isinstance(before, SpectrumDecomposition):
        assert (after.k, after.f, after.omega) == (before.k, before.f, t * before.omega)
    else:
        assert after.residues == before.residues
        assert after.first_bad_index == before.first_bad_index


@PROPERTY_SETTINGS
@given(st.one_of(broken_clock_spectra(), rational_spectra()))
def test_certificate_index_is_first_failing_m(spec):
    result = decompose_spectrum(spec)
    omega = rational_gcd(spec.energies)
    residues = tuple(int(e / omega) % spec.dim for e in spec.energies)
    first_bad = brute_force_first_bad_index(residues, spec.dim)
    if first_bad is None:
        assert isinstance(result, SpectrumDecomposition)
    else:
        assert isinstance(result, IncompatibilityCertificate)
        assert result.reason == RESIDUES_NOT_LINEAR
        assert result.residues == residues
        assert result.first_bad_index == first_bad


@PROPERTY_SETTINGS
@given(SPECTRA)
def test_gate_matches_fraction_division_reference(spec):
    assert decompose_spectrum(spec) == reference_decompose(spec)


@st.composite
def decompositions_and_spectra(draw):
    """A gate decomposition and its own spectrum, or that spectrum with one numerator off by one."""
    spec = draw(clock_spectra())
    dec = decompose_spectrum(spec)
    energies = list(spec.energies)
    if draw(st.booleans()):
        i = draw(st.integers(0, spec.dim - 1))
        e = energies[i]
        energies[i] = Fraction(e.numerator + draw(st.sampled_from([-1, 1])), e.denominator)
    return dec, Spectrum(spec.dim, tuple(energies))


@PROPERTY_SETTINGS
@given(
    st.one_of(
        decompositions_and_spectra(),
        st.tuples(clock_spectra().map(decompose_spectrum), SPECTRA),
    )
)
def test_matches_is_exact_equality_of_the_energies(pair):
    dec, spec = pair
    assert dec.matches(spec) == (dec.dim == spec.dim and decomposition_energies(dec) == spec.energies)


@pytest.mark.parametrize("dim", [3, 5, 31])
def test_gate_builds_only_omega(monkeypatch, dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        spec, _, _, _ = random_compatible_spectrum(rng, dim)
        energies = list(spec.energies)
        energies[1] += Fraction(1, 7)
        for one in (spec, Spectrum(dim, tuple(energies))):
            built = count_fraction_constructions(monkeypatch)
            result = decompose_spectrum(one)
            assert len(built) <= 1
            monkeypatch.undo()
            assert result == reference_decompose(one)


@st.composite
def large_decompositions(draw):
    """(omega, k, f) at primes up to 211, |f| up to 10**400, omega up to 10**60 either way."""
    n = draw(st.sampled_from([3, 5, 7, 11, 31, 101, 211]))
    k = draw(st.integers(1, n - 1))
    bound = 10 ** draw(st.integers(0, 400))
    f = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    omega = Fraction(draw(st.integers(1, 10**60)), draw(st.integers(1, 10**60)))
    return SpectrumDecomposition(dim=n, omega=omega, k=k, f=tuple(f))


@PROPERTY_SETTINGS
@given(st.one_of(clock_spectra().map(decompose_spectrum), large_decompositions()))
def test_tick_energies_are_the_energies_reduced_mod_the_period(dec):
    want = reduce_mod_period(decomposition_energies(dec), dec.omega, dec.dim)
    first = dec.tick_energies
    assert first.tobytes() == want.tobytes()
    # computed once and kept: a second read is the same read-only array
    assert dec.tick_energies is first
    assert not first.flags.writeable


# --- the float front end and the float reads --------------------------------


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def fraction_path(energies, dim, tolerance, max_denominator):
    """The front end spelled out: rationalize, build a Spectrum, run the gate."""
    fracs = rationalize_energies(energies, tolerance, max_denominator)
    if isinstance(fracs, IncompatibilityCertificate):
        return fracs
    return decompose_spectrum(Spectrum(dim, fracs))


def assert_same_outcome(got, want):
    """Same type and every field equal: a certificate's reason, residues, first_bad_index
    and detail, a decomposition's dim, omega (a Fraction on both sides), k and f, or
    the raised exception's type and message."""
    assert type(got) is type(want)
    assert got == want
    if isinstance(want, SpectrumDecomposition):
        assert type(got.omega) is type(want.omega) is Fraction


FRONT_END_ENTRIES = st.one_of(
    st.integers(-10**6, 10**6),
    RATIONALS,
    RATIONALS.map(lambda r: f"{r.numerator}/{r.denominator}"),
    RATIONALS.map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([math.pi, math.sqrt(2.0), 0.1, 1e-300, 2.0**60 + 2.0**8]),
)
FRONT_END_DIMS = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 15])


@st.composite
def front_end_inputs(draw):
    """Mixed entries at prime and non-prime dims, right and wrong lengths, some degenerate."""
    dim = draw(FRONT_END_DIMS)
    length = draw(st.sampled_from([dim, dim, dim - 1, dim + 1, 0]))
    if draw(st.booleans()):
        energies = [draw(FRONT_END_ENTRIES)] * max(length, 0)
    else:
        energies = draw(st.lists(FRONT_END_ENTRIES, min_size=max(length, 0), max_size=max(length, 0)))
    tolerance = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 0.5]))
    max_denominator = draw(st.sampled_from([1, 12, 1000, 10**6]))
    return energies, dim, tolerance, max_denominator


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(front_end_inputs())
@example(([0.0, 3.141592653589793, 1.0], 9, 1e-12, 1000))  # not commensurable, dim 9, length 3
@example(([0.0, 3.141592653589793], 5, 1e-12, 1000))  # not commensurable, length 2
@example(([0, 1, 2], 9, 1e-9, 10**6))  # dim 9 and length 3
@example(([0, 1], 5, 1e-9, 10**6))  # length only
@example(([0.5] * 5, 5, 1e-9, 10**6))  # degenerate
@example(([0, "1/3", 0.6666666666666666, Fraction(1), 1.3333333333333333], 5, 1e-9, 10**6))
def test_front_end_equals_the_fraction_path(case):
    assert_same_outcome(outcome(analyze_float_spectrum, *case), outcome(fraction_path, *case))


def test_front_end_reports_non_commensurable_before_the_shape():
    cert = analyze_float_spectrum([0.0, 3.141592653589793, 1.0], 9, 1e-12, 1000)
    assert isinstance(cert, IncompatibilityCertificate)
    assert cert.reason == NOT_COMMENSURABLE and cert.first_bad_index == 1
    with pytest.raises(DimensionNotOddPrime):
        analyze_float_spectrum([0.0, 1.0, 2.0], 9, 1e-12, 1000)
    with pytest.raises(ValueError, match="expected 5 energies, got 3"):
        analyze_float_spectrum([0.0, 1.0, 2.0], 5, 1e-12, 1000)


@pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan, 0.0, -0.0])
def test_a_tolerance_not_positive_and_finite_is_a_value_error_at_every_entry_point(tolerance):
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        rationalize(0.3, tolerance, 10)
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        rationalize_energies([0, 0.3], tolerance, 10)
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        analyze_float_spectrum([0, 0.3, 0.6], 3, tolerance, 10)
    # exact entries need no rationalizing, but the arguments are checked all the same
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        rationalize_energies([0, 1], tolerance, 10)
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        analyze_float_spectrum([0, 1, 2], 3, tolerance, 10)
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        rationalize_energies([0, 1], math.nan, 0)
    with pytest.raises(ValueError, match="^tolerance must be positive and finite, got"):
        analyze_float_spectrum([0, 1, 2], 3, -1.0, 0)
    with pytest.raises(ValueError, match="^max_denominator must be >= 1"):
        rationalize_energies([0, Fraction(1, 3)], 1e-9, 0)


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
def test_tick_phases_take_the_tick_count_mod_n(dim):
    dec = decompose_spectrum(Spectrum(dim, tuple(2 * m + dim * m * m for m in range(dim))))
    for j in (0, 1, 2, dim - 1):
        reference = dec.tick_phases(j)
        for large in (j + dim, j - dim, j + 10**17 * dim, j - 7 * dim):
            assert dec.tick_phases(large).tobytes() == reference.tobytes()


def test_numpy_integers_are_exact_in_the_gate():
    cert = decompose_spectrum(Spectrum(3, (Fraction(0), Fraction(1, 3), np.int64(2**62))))
    assert cert.reason == RESIDUES_NOT_LINEAR and cert.residues == (0, 1, 0)
    dec = decompose_spectrum(Spectrum(5, np.arange(5) * 7))
    assert type(dec.k) is int and all(type(v) is int for v in dec.f)
    assert rationalize_energies([np.int64(2**62 + 1)], 1e-9, 10**6) == (2**62 + 1,)
    energies = [np.int64(0), np.int64(2**60 + 1), np.int64(2**61 + 2)]
    assert analyze_float_spectrum(energies, 3, 1e-9, 10**6).omega == 2**60 + 1


@st.composite
def numpy_integer_spectra(draw):
    """(dim, entries, twins): energies v_m/D as numpy integers, Fractions of numpy
    integers and plain Fractions, mixed, beside their Python-int twins; the v_m
    reach far beyond 2**63/N, and half the spectra have the clock form."""
    n = draw(DIMS)
    bound = 2**62 // n
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        values = [k * m + n * draw(st.integers(-bound, bound)) for m in range(n)]
    else:
        values = draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))
    den = draw(st.sampled_from([1, 1, 3, 12, 2**31 - 1, 2**62]))
    entries = []
    for v in values:
        form = draw(st.sampled_from(["numpy", "fraction of numpy", "fraction"]))
        if form == "numpy" and den == 1:
            entries.append(np.uint64(v) if v >= 0 and draw(st.booleans()) else np.int64(v))
        elif form == "fraction":
            entries.append(Fraction(v, den))
        else:
            entries.append(Fraction(np.int64(v), np.int64(den)))
    return n, entries, tuple(Fraction(v, den) for v in values)


@PROPERTY_SETTINGS
@given(numpy_integer_spectra())
def test_numpy_integers_decide_like_their_python_twins(case):
    n, entries, twins = case
    want = decompose_spectrum(Spectrum(n, twins))
    spec = Spectrum(n, tuple(entries))
    assert spec.energies == twins
    assert all(type(e.numerator) is int and type(e.denominator) is int for e in spec.energies)
    assert spec.pairs == tuple(e.as_integer_ratio() for e in twins)
    assert all(type(p) is int and type(q) is int for p, q in spec.pairs)
    for got in (decompose_spectrum(spec), analyze_float_spectrum(entries, n, 1e-9, 10**6)):
        assert_same_outcome(got, want)
        if isinstance(got, SpectrumDecomposition):
            assert type(got.k) is int and all(type(v) is int for v in got.f)
        else:
            assert got.residues is None or all(type(r) is int for r in got.residues)


EXACT_ENERGIES = st.one_of(
    st.integers(-(2**80), 2**80),
    st.fractions(),
    st.builds(
        lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**30),
        st.integers(-340, 270),
    ),
)


@PROPERTY_SETTINGS
@given(st.lists(EXACT_ENERGIES, min_size=5, max_size=5))
def test_as_floats_is_float_of_each_energy(energies):
    spec = Spectrum(5, tuple(energies))
    want = np.array([float(e) for e in spec.energies])
    assert spec.as_floats().tobytes() == want.tobytes()


def test_as_floats_names_the_energy_beyond_float64():
    with pytest.raises(OverflowError, match="^energy 2 is beyond the float64 range$"):
        Spectrum(3, (0, 1, 10**400)).as_floats()
    with pytest.raises(OverflowError, match="^energy 0 is beyond the float64 range$"):
        Spectrum(3, (Fraction(-(10**400), 3), 1, 2)).as_floats()


def reference_delta_tau(dec):
    """2*pi/(N*float(omega)), or None where delta_tau must raise."""
    try:
        dtau = 2.0 * math.pi / (dec.dim * float(dec.omega))
    except (OverflowError, ZeroDivisionError):
        return None
    return dtau if 0.0 < dtau < math.inf else None


@PROPERTY_SETTINGS
@given(
    st.sampled_from([3, 5, 31]),
    st.integers(1, 10**30),
    st.integers(1, 10**30),
    st.integers(-420, 420),
)
def test_delta_tau_is_two_pi_over_n_float_omega(n, p, q, e):
    dec = SpectrumDecomposition(dim=n, omega=Fraction(p, q) * Fraction(10) ** e, k=1, f=(0,) * n)
    assert outcome(lambda: dec.delta_tau) == (
        reference_delta_tau(dec)
        or (IncompatibleSpectrum, "the tick 2*pi/(N*omega) is not a finite positive float64")
    )


def count_spectra(monkeypatch):
    """A list that gets one entry per Spectrum built from now on."""
    built = []
    original = Spectrum.__post_init__

    def counting(self):
        built.append(self.dim)
        original(self)

    monkeypatch.setattr(Spectrum, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    "floats, verdict",
    [
        ([0.0, 7.0, 24.0, 51.0, 88.0 + np.sqrt(2.0) * 1e-3], IncompatibilityCertificate),
        ([0.5, 0.5, 0.5, 0.5, 0.5], IncompatibilityCertificate),
        ([0.0, 0.5, 1.0, 1.5, 2.0], SpectrumDecomposition),
    ],
    ids=["perturbed", "degenerate", "compatible"],
)
def test_front_end_builds_no_fraction_per_float_and_no_spectrum(monkeypatch, floats, verdict):
    fractions = count_fraction_constructions(monkeypatch)
    spectra = count_spectra(monkeypatch)
    result = analyze_float_spectrum(floats, 5, 1e-9, 10**6)
    monkeypatch.undo()
    assert isinstance(result, verdict)
    assert spectra == []
    # the convergents reach the gate as integer pairs: omega only, and only on success
    assert len(fractions) == (verdict is SpectrumDecomposition)


def test_gate_builds_omega_only_on_success(monkeypatch):
    compatible, broken = Spectrum(5, (0, 7, 24, 51, 88)), Spectrum(5, (0, 7, 24, 51, 89))
    built = count_fraction_constructions(monkeypatch)
    assert isinstance(decompose_spectrum(compatible), SpectrumDecomposition)
    assert len(built) == 1
    assert isinstance(decompose_spectrum(broken), IncompatibilityCertificate)
    assert len(built) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    st.sampled_from([harmonic_spectrum, skewed_spectrum]),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
)
def test_tick_phases_rows_are_the_scalar_calls(dim, family, ticks):
    spec = family(dim)
    dec = decompose_spectrum(spec)
    rows = dec.tick_phases(np.array(ticks))
    assert rows.shape == (len(ticks), dim)
    for row, j in zip(rows, ticks):
        assert row.tobytes() == dec.tick_phases(j).tobytes()
    # and the spectrum's own phases at float times, row by row
    times = [j * 0.37 for j in ticks]
    assert [row.tobytes() for row in spec.phases(np.array(times))] == [spec.phases(t).tobytes() for t in times]

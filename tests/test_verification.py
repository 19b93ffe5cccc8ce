import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclock.verification as verification
from qclock import (
    InternalConsistency,
    Spectrum,
    SpectrumDecomposition,
    analyze_float_spectrum,
    build_pair,
    build_time_operator,
    clock_diagonal,
    decompose_spectrum,
    exp_hermitian,
    is_odd_prime,
    shift_eigenvector,
)
from qclock.spectrum import DEFAULT_MAX_DENOMINATOR, DEFAULT_TOLERANCE
from qclock.verification import harmonic_spectrum, measure_signs, run_suite, skewed_spectrum
from reference import random_compatible_spectrum, rational_gcd


def squares_spectrum(dim):
    return Spectrum(dim=dim, energies=tuple(m * m for m in range(dim)))


@pytest.mark.parametrize("dim", [3, 5, 7, 11])
@pytest.mark.parametrize("family", [harmonic_spectrum, skewed_spectrum, squares_spectrum])
def test_propagator_matches_eigensolver(family, dim):
    spec = family(dim)
    h = np.diag(spec.as_floats())
    times = [0.0, 0.37, -1.91, 2 * np.pi / dim, 2 * np.pi / 40 * 17]
    dec = decompose_spectrum(spec)
    if isinstance(dec, SpectrumDecomposition):
        times += [t * dec.delta_tau for t in range(1, 2 * dim + 1)]
    for t in times:
        assert np.max(np.abs(np.diag(spec.phases(t)) - exp_hermitian(h, t))) < 1e-14


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_measure_signs_needs_a_spectrum_for_two_signs(dim):
    pair = build_pair(dim)
    assert measure_signs(pair) == {
        "commutation_sign": -1,
        "shift_direction_sign": None,
        "weyl_pair_sign": None,
    }
    assert measure_signs(pair, decompose_spectrum(skewed_spectrum(dim))) == run_suite(dim).signs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from([n for n in range(3, 212) if is_odd_prime(n)]),
    st.sampled_from([harmonic_spectrum, skewed_spectrum]),
)
def test_tio_column_readings_are_the_dense_readings(dim, family):
    pair = build_pair(dim)
    top = build_time_operator(pair, decompose_spectrum(family(dim)))
    hermiticity, eigen_action, trace_defect = verification._tio_column_readings(top)
    t, dtau = top.matrix, top.delta_tau
    assert repr(hermiticity) == repr(verification._max_abs(t - t.conj().T))
    # the column reads the eigenvalue error, the dense check its action on a unit vector
    vectors = [shift_eigenvector(pair, l) for l in range(dim)]
    dense_action = np.sqrt(dim) * max(verification._max_abs(t @ v - dtau * l * v) for l, v in enumerate(vectors))
    assert abs(eigen_action - dense_action) <= 1e-13
    # above N ~ 150 one ulp of the trace exceeds 1e-13, and the dense sum may be off by one
    expected = dtau * dim * (dim - 1) / 2.0
    assert abs(trace_defect - abs(np.trace(t).real - expected)) <= max(1e-13, 2 * np.spacing(expected))


def test_suite_exponentiates_six_times(monkeypatch):
    calls = []

    def counting(a, t):
        calls.append(t)
        return exp_hermitian(a, t)

    # verification is the only module that binds exp_hermitian, so every call the suite makes goes through it
    monkeypatch.setattr(verification, "exp_hermitian", counting)
    report = run_suite(5)
    # exp-additivity: exp(-iAs), exp(-iAt), exp(-iA(s+t)); clock-periodicity: one propagator per
    # spectrum; tio-propagator-off-tick: the dense T's propagator
    assert len(calls) == 3 + 2 + 1
    assert {chk.name for chk in report.checks if not chk.passed} == {"spectrum-perturbation-reject"}


def test_suite_raises_when_a_canonical_spectrum_fails_the_gate(monkeypatch):
    degenerate = decompose_spectrum(Spectrum(5, (1,) * 5))
    monkeypatch.setattr(verification, "decompose_spectrum", lambda spec: degenerate)
    with pytest.raises(InternalConsistency, match="canonical harmonic spectrum"):
        run_suite(5)


SUITE_CHECKS_N5 = [
    "basis-hermiticity", "basis-linearity", "basis-marginals", "basis-orthogonality",
    "basis-roundtrip", "basis-sum-identity", "basis-trace", "basis-transform",
    "clock-coverage-harmonic", "clock-coverage-skewed",
    "clock-occupancy-harmonic", "clock-occupancy-skewed",
    "clock-periodicity-harmonic", "clock-periodicity-harmonic-one-tick",
    "clock-periodicity-skewed", "clock-periodicity-skewed-one-tick",
    "control-density-negative-eigenvalue", "control-half-tick-offsite", "control-incompatible-scan",
    "control-rationalize-tolerance-edge",
    "dynamics-hypothesis-harmonic", "dynamics-hypothesis-skewed",
    "dynamics-shift-cyclic", "dynamics-shift-delta",
    "dynamics-shift-vs-evolution-harmonic", "dynamics-shift-vs-evolution-harmonic-one-tick",
    "dynamics-shift-vs-evolution-harmonic-two-ticks",
    "dynamics-shift-vs-evolution-skewed", "dynamics-shift-vs-evolution-skewed-one-tick",
    "dynamics-shift-vs-evolution-skewed-two-ticks",
    "eig-orthonormality", "eig-reconstruction", "exp-additivity", "mub-overlap",
    "rationalize-roundtrip",
    "schwinger-commutation-table", "schwinger-cyclic-inverse", "schwinger-fourier-eigen",
    "schwinger-fourier-unitary", "schwinger-shift-action",
    "spectrum-completeness", "spectrum-lambda-maximality", "spectrum-perturbation-reject",
    "spectrum-soundness",
    "tio-eigen-action-harmonic", "tio-eigen-action-skewed",
    "tio-energy-shift-harmonic", "tio-energy-shift-skewed",
    "tio-grid-harmonic", "tio-grid-skewed",
    "tio-hermiticity-harmonic", "tio-hermiticity-skewed", "tio-propagator-off-tick",
    "tio-trace-harmonic", "tio-trace-skewed",
    "tio-weyl-gap-only", "tio-weyl-phase-harmonic", "tio-weyl-phase-skewed",
    "trace-cyclicity",
]


def test_suite_runs_exactly_the_pinned_checks():
    # a dropped or renamed check fails here, not only lowers a count
    assert [chk.name for chk in run_suite(5).checks] == SUITE_CHECKS_N5


def test_perturbation_check_fails_for_most_but_not_all_dimensions():
    assert run_suite(23).passed
    assert {chk.name for chk in run_suite(7).checks if not chk.passed} == {"spectrum-perturbation-reject"}


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
@pytest.mark.parametrize("seed", [0, 42, 1093])
def test_gate_trials_draw_the_stream_of_sequential_spectra(dim, seed):
    # a numpy change to how bounded integers take bits from the generator fails here
    batched = np.random.default_rng(seed)
    sequential = np.random.default_rng(seed)
    trials = verification._gate_trials(batched, dim, 100)
    assert len(trials) == 100
    for spec, index in trials:
        expected, _, _, _ = random_compatible_spectrum(sequential, dim)
        assert spec == expected
        assert index == int(sequential.integers(0, dim))
    # a small range reads the generator's buffered 32-bit half, a normal whole words
    assert batched.integers(0, 1000, size=3).tolist() == sequential.integers(0, 1000, size=3).tolist()
    assert batched.normal() == sequential.normal()


def _gate_residuals_one_trial_at_a_time(pair, trials) -> dict:
    """The four gate residuals as a loop reads them: each trial's gcd as a Fraction, its floats
    through numpy and its own one-tick propagator."""
    dim = pair.dim
    soundness, id_failures, gcd_failures, perturb_failures = 0.0, 0, 0, 0
    for spec, index in trials:
        dec = decompose_spectrum(spec)
        if not isinstance(dec, SpectrumDecomposition) or not dec.matches(spec):
            id_failures += 1
            continue
        p, q = dec.omega.as_integer_ratio()
        ratios = [a * q // (b * p) for a, b in spec.pairs]
        if rational_gcd([r for r in ratios if r != 0]) != 1:
            gcd_failures += 1
        soundness = max(soundness, float(np.abs(dec.tick_phases(1) - clock_diagonal(pair, -dec.k)).max()))
        floats = spec.as_floats().tolist()
        floats[index] += verification._PERTURBATION
        outcome = analyze_float_spectrum(floats, dim, DEFAULT_TOLERANCE, DEFAULT_MAX_DENOMINATOR)
        if isinstance(outcome, SpectrumDecomposition):
            perturb_failures += 1
    return {
        "spectrum-soundness": soundness,
        "spectrum-completeness": float(id_failures),
        "spectrum-lambda-maximality": float(gcd_failures),
        "spectrum-perturbation-reject": float(perturb_failures),
    }


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
@pytest.mark.parametrize("seed", [0, 42, 1093])
def test_soundness_is_the_largest_per_trial_gap(monkeypatch, dim, seed):
    # with the other three gate residuals: the suite reads every trial's gap in one stacked
    # exponential, and the gcd and floats from the integer pairs; the loop over trials is the reference
    drawn = []

    def recording(*args):
        trials = original(*args)
        drawn.extend(trials)
        return trials

    original = verification._gate_trials
    monkeypatch.setattr(verification, "_gate_trials", recording)
    report = run_suite(dim, seed)
    assert len(drawn) == 100
    expected = _gate_residuals_one_trial_at_a_time(build_pair(dim), drawn)
    residuals = {chk.name: chk.residual for chk in report.checks if chk.name in expected}
    assert {name: repr(r) for name, r in residuals.items()} == {name: repr(r) for name, r in expected.items()}

import numpy as np
import pytest

import qclock.verification as verification
from qclock import Spectrum, SpectrumDecomposition, build_pair, decompose_spectrum, exp_hermitian
from qclock.verification import harmonic_spectrum, measure_signs, run_suite, skewed_spectrum


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


def test_suite_exponentiates_only_the_random_hamiltonian(monkeypatch):
    calls = []

    def counting(a, t):
        calls.append(t)
        return exp_hermitian(a, t)

    monkeypatch.setattr(verification, "exp_hermitian", counting)
    report = run_suite(5)
    assert len(calls) <= 3  # exp-additivity: exp(-iAs), exp(-iAt), exp(-iA(s+t))
    assert {chk.name for chk in report.checks if not chk.passed} == {"spectrum-perturbation-reject"}

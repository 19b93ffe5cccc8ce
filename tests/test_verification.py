import numpy as np
import pytest

import qclock.verification as verification
from qclock import Spectrum, SpectrumDecomposition, decompose_spectrum, exp_hermitian
from qclock.verification import _propagator, harmonic_spectrum, run_suite, skewed_spectrum


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
        assert np.max(np.abs(_propagator(spec, t) - exp_hermitian(h, t))) < 1e-14


def test_suite_exponentiates_only_the_random_hamiltonian(monkeypatch):
    calls = []

    def counting(a, t):
        calls.append(t)
        return exp_hermitian(a, t)

    monkeypatch.setattr(verification, "exp_hermitian", counting)
    report = run_suite(5)
    assert len(calls) <= 3  # exp-additivity: exp(-iAs), exp(-iAt), exp(-iA(s+t))
    assert {chk.name for chk in report.checks if not chk.passed} == {"spectrum-perturbation-reject"}

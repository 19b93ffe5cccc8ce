"""Each one-line fault in the dynamics, the spectrum gate or a reported sign must make the suite fail a named check.

A mutant replaces one library function in every module that calls it; the
suite then runs in-process.  After exactly N ticks every time direction and
every shift rule give the identity, so these faults are seen only by the
one- and two-tick checks.  A density guard whose eigenvalue floor is -1
passes every density the suite draws, so only its negative control sees it,
and so does a rationalize that rejects a convergent exactly at the tolerance.
A gate that halves omega still reproduces every energy exactly, so of the gate
checks only maximality sees it; a trial tick stretched by one part in a
million is seen by soundness.  A commutation sign reported as +1 leaves every
exchange phase as it is, and only the commutation table, whose targets follow
the reported sign, sees it.  T's propagator column without its conjugation is
the true column on the tick grid, where exp(-i*T*t) is a real shift power, so
only the check that reads it between ticks sees it.  A clock run's marginal
cross-check that drops the conjugate from |psi><psi| maps a non-Hermitian matrix
only for a complex state, so only the skewed run, which starts at the complex
|s_1>, sees it, as the density guard's rejection.
"""

import inspect
import textwrap

import numpy as np
import pytest

import qclock.dynamics as dynamics
import qclock.numerics as numerics
import qclock.phase_space as phase_space
import qclock.spectrum as spectrum
import qclock.time_interval as time_interval
import qclock.verification as verification
from qclock import NotADensityMatrix, SpectrumDecomposition
from qclock.verification import run_suite

_conjugate_unitary = dynamics.conjugate_unitary
_stroboscopic_step = dynamics.stroboscopic_step


def reversed_conjugate_diagonal(rho, phases):
    return rho * np.outer(np.conj(phases), phases)


def reversed_conjugate_unitary(rho, g):
    return _conjugate_unitary(rho, g.conj().T)


def unsigned_stroboscopic_step(grid, k, sign):
    return _stroboscopic_step(grid, k, 1)


def overshooting_stroboscopic_step(grid, k, sign):
    return np.roll(np.asarray(grid), sign * (k + 1), axis=1)


@pytest.mark.parametrize(
    "name, mutant, caught_by",
    [
        ("conjugate_diagonal", reversed_conjugate_diagonal, "clock-periodicity-skewed-one-tick"),
        ("conjugate_unitary", reversed_conjugate_unitary, "clock-periodicity-harmonic-one-tick"),
        ("stroboscopic_step", unsigned_stroboscopic_step, "dynamics-shift-vs-evolution-skewed-one-tick"),
        ("stroboscopic_step", overshooting_stroboscopic_step, "dynamics-shift-vs-evolution-harmonic-two-ticks"),
    ],
)
def test_suite_fails_a_named_check_for_each_dynamics_mutant(monkeypatch, name, mutant, caught_by):
    for module in (dynamics, verification):
        monkeypatch.setattr(module, name, mutant)
    failing = {chk.name for chk in run_suite(5).checks if not chk.passed}
    assert caught_by in failing


def unconjugated_marginal_clock_run():
    """dynamics.clock_run with np.outer(state, state) in place of np.outer(state, state.conj())."""
    source, marginal = inspect.getsource(dynamics.clock_run), "np.outer(state, state.conj())"
    assert source.count(marginal) == 1
    namespace = dict(vars(dynamics))
    exec(textwrap.dedent(source.replace(marginal, "np.outer(state, state)")), namespace)
    return namespace["clock_run"]


def test_suite_rejects_the_clock_marginal_of_an_unconjugated_state(monkeypatch):
    mutant = unconjugated_marginal_clock_run()
    for module in (dynamics, verification):
        monkeypatch.setattr(module, "clock_run", mutant)
    with pytest.raises(NotADensityMatrix):
        run_suite(5)


def test_suite_fails_the_commutation_table_when_the_reported_sign_is_wrong(monkeypatch):
    monkeypatch.setattr(verification, "measure_commutation_sign", lambda pair: 1)
    report = run_suite(5)
    assert report.signs["commutation_sign"] == 1
    assert {chk.name for chk in report.checks if not chk.passed} == {
        "schwinger-commutation-table",
        "spectrum-perturbation-reject",
    }


_exp_column = time_interval._exp_column


def unconjugated_exp_column(top, t):
    return np.conj(_exp_column(top, t))


def test_suite_fails_the_off_tick_propagator_check_when_the_column_is_not_conjugated(monkeypatch):
    for module in (time_interval, verification):
        monkeypatch.setattr(module, "_exp_column", unconjugated_exp_column)
    failing = {chk.name for chk in run_suite(5).checks if not chk.passed}
    assert failing == {"tio-propagator-off-tick", "spectrum-perturbation-reject"}


def test_suite_fails_the_density_control_when_the_eigenvalue_floor_is_minus_one(monkeypatch):
    monkeypatch.setattr(phase_space, "DENSITY_EIG_FLOOR", -1.0)
    failing = {chk.name for chk in run_suite(5).checks if not chk.passed}
    assert failing == {"control-density-negative-eigenvalue", "spectrum-perturbation-reject"}


def strict_convergent(x, tolerance, max_denominator):
    """numerics._convergent with `<` in place of `<=` in its distance test."""
    a, b = x.as_integer_ratio()
    c, d = tolerance
    cb = c * b
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    num, den = a, b
    while True:
        a0, rem = divmod(num, den)
        p, p_prev = a0 * p + p_prev, p
        q, q_prev = a0 * q + q_prev, q
        if q > max_denominator:
            return None
        if rem * d < cb * q:
            return p, q
        num, den = den, rem


@pytest.mark.parametrize("dim, seed", [(3, 42), (5, 42), (5, 1093), (7, 2)])
def test_suite_fails_the_tolerance_edge_control_when_rationalize_is_strict(monkeypatch, dim, seed):
    for module in (numerics, spectrum):  # every module that imports _convergent
        monkeypatch.setattr(module, "_convergent", strict_convergent)
    failing = {chk.name for chk in run_suite(dim, seed).checks if not chk.passed}
    assert "control-rationalize-tolerance-edge" in failing


_decompose = spectrum._decompose
_gate_trials = verification._gate_trials
_decompose_spectrum = verification.decompose_spectrum


def halving_decompose(n, nums, dens):
    """omega/2 with k' = 2k mod N and f' = 2f + c*m (2k = k' + c*N): every energy still exact."""
    result = _decompose(n, nums, dens)
    if not isinstance(result, SpectrumDecomposition):
        return result
    k, carry = (2 * result.k) % n, (2 * result.k) // n
    f = tuple(2 * f_m + carry * m for m, f_m in enumerate(result.f))
    return SpectrumDecomposition(dim=n, omega=result.omega / 2, k=k, f=f)


class StretchedTick(SpectrumDecomposition):
    @property
    def delta_tau(self) -> float:
        return super().delta_tau * (1 + 1e-6)


def test_suite_fails_maximality_when_the_gate_halves_omega(monkeypatch):
    monkeypatch.setattr(spectrum, "_decompose", halving_decompose)
    failing = {chk.name for chk in run_suite(5).checks if not chk.passed}
    assert "spectrum-lambda-maximality" in failing


def test_suite_fails_soundness_when_each_trial_tick_is_stretched(monkeypatch):
    # only the gate trials' decompositions: with the canonical spectra's tick stretched
    # too, the suite stops at its first exchange phase instead of failing a check
    trials = set()

    def recording(*args):
        drawn = _gate_trials(*args)
        trials.update(id(spec) for spec, _ in drawn)
        return drawn

    def stretching(spec):
        result = _decompose_spectrum(spec)
        if id(spec) in trials and isinstance(result, SpectrumDecomposition):
            return StretchedTick(result.dim, result.omega, result.k, result.f)
        return result

    monkeypatch.setattr(verification, "_gate_trials", recording)
    monkeypatch.setattr(verification, "decompose_spectrum", stretching)
    failing = {chk.name for chk in run_suite(5).checks if not chk.passed}
    assert failing == {"spectrum-soundness", "spectrum-perturbation-reject"}

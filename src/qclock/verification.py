"""Library-wide invariant suite backing the ``verify`` CLI command.

Every check is a named residual with an explicit threshold; "upper" checks
pass when the residual is at most the threshold, "lower" checks (negative
controls) when it is at least the threshold.  The suite is deterministic
for a given (dim, seed) and also reports the three measured sign
conventions: the clock/shift exchange sign, the per-tick site-shift
direction, and the propagator/time-operator exchange sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import (
    clock_run,
    conjugate_diagonal,
    conjugate_unitary,
    measure_shift_sign,
    shift_vs_evolution_residual,
    stroboscopic_step,
)
from .errors import InternalConsistency, NotADensityMatrix, NoRationalWithinTolerance
from .numerics import exchange_phase, exp_hermitian, hermitian_eig, rationalize
from .phase_space import build_basis, check_density, map_operator, unmap_grid, wigner_of_density
from .schwinger import (
    build_pair,
    clock_diagonal,
    commutation_phase,
    measure_commutation_sign,
    shift_eigenvector,
    shift_power,
)
from .spectrum import (
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_TOLERANCE,
    Spectrum,
    SpectrumDecomposition,
    analyze_float_spectrum,
    decompose_spectrum,
)
from .time_interval import (
    _exp_column,
    build_time_operator,
    measure_weyl_sign,
    time_operator_grid,
    verify_energy_shift,
    verify_weyl_pair,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    mode: str  # "upper": pass iff residual <= threshold; "lower": iff >=
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    dim: int
    seed: int
    passed: bool
    signs: dict
    checks: tuple


def _upper(name: str, residual: float, threshold: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, threshold, "upper", residual <= threshold)


def _lower(name: str, residual: float, threshold: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, threshold, "lower", residual >= threshold)


def _max_abs(a) -> float:
    return float(np.abs(a).max())


def _largest_gap(values, targets) -> float:
    """max |value - target| over entries, 0.0 for none, each gap by Python's abs.

    numpy's array abs rounds some entries apart from the scalar abs (C hypot) that
    a loop over one reading at a time takes, so the entries are read as Python complex.
    """
    return max(map(abs, (values - targets).ravel().tolist()), default=0.0)


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_density(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# the suite's perturbation of one float energy; a float, as rationalize takes
# floats faster than numpy scalars
_PERTURBATION = math.sqrt(2.0) * 1e-3


def _compatible_spectrum(dim: int, k: int, f, num: int, den: int) -> Spectrum:
    """The spectrum omega*(k*m + dim*f[m]) with omega = num/den, each energy one Fraction."""
    return Spectrum(dim=dim, energies=tuple([Fraction(num * (k * m + dim * f[m]), den) for m in range(dim)]))


def _gate_trials(rng, dim: int, trials: int) -> list:
    """(spectrum, index to perturb) per trial, all drawn in one call.

    The stream is that of `trials` rounds of k = rng.integers(1, dim), the dim
    offsets f = rng.integers(-20, 21, size=dim), omega's numerator and denominator
    each from rng.integers(1, 13), then rng.integers(0, dim): bounded integer draws
    take the same bits from the generator whether they come one per call or many.
    """
    width = dim + 4
    lo = [1] + [-20] * dim + [1, 1, 0]
    hi = [dim] + [21] * dim + [13, 13, dim]
    draws = rng.integers(lo * trials, hi * trials).tolist()
    out = []
    for t in range(0, trials * width, width):
        k, *f, num, den, index = draws[t : t + width]
        out.append((_compatible_spectrum(dim, k, f, num, den), index))
    return out


def harmonic_spectrum(dim: int) -> Spectrum:
    """Equally spaced ladder 0..N-1 (clock power 1)."""
    return Spectrum(dim=dim, energies=tuple(range(dim)))


def skewed_spectrum(dim: int) -> Spectrum:
    """Clock power 2 with a small integer offset pattern (safe at any dim)."""
    return Spectrum(dim=dim, energies=tuple(2 * m + dim * ((m % 3) - 1) for m in range(dim)))


def _offsite_after(pair, spec: Spectrum, times) -> float:
    """Least over the times of the max population outside the dominant Fourier site, from |s_0>."""
    states = spec.phases(np.array(times)) * shift_eigenvector(pair, 0)
    # each row's second largest is its offsite maximum, also when it ties the dominant site
    return float(np.sort(np.abs(states @ pair.fourier.T) ** 2, axis=1)[:, -2].min())


def _tio_column_readings(top) -> tuple:
    """T's Hermiticity defect, eigen-action and trace residuals, each read from its column w."""
    w, n = top.column, top.dim
    # (T - T^dag)[r, s] is w[d] - conj(w[-d mod N]) at d = r - s
    hermiticity = _max_abs(w - np.conj(np.roll(w[::-1], 1)))
    # T |s_l> = sqrt(N) * (F w)[l] |s_l>: the eigenvalues are the scaled DFT of the column
    eigen_action = _max_abs(math.sqrt(n) * (top.fourier @ w) - top.delta_tau * np.arange(n))
    return hermiticity, eigen_action, abs(n * w[0].real - top.delta_tau * n * (n - 1) / 2.0)


def measure_signs(pair, decomp: SpectrumDecomposition | None = None) -> dict:
    """The three measured sign conventions; without decomp the two needing a spectrum are None."""
    top = None if decomp is None else build_time_operator(pair, decomp)
    return {
        "commutation_sign": measure_commutation_sign(pair),
        "shift_direction_sign": None if decomp is None else measure_shift_sign(pair, decomp),
        "weyl_pair_sign": None if decomp is None else measure_weyl_sign(top, decomp),
    }


def run_suite(dim: int, seed: int = 42) -> SuiteReport:
    """Run every invariant check at the given odd prime dimension."""
    rng = np.random.default_rng(seed)
    pair = build_pair(dim)
    basis = build_basis(pair)
    n = dim

    harmonic = harmonic_spectrum(n)
    skewed = skewed_spectrum(n)
    d_harm = decompose_spectrum(harmonic)
    d_skew = decompose_spectrum(skewed)
    for label, dec in (("harmonic", d_harm), ("skewed", d_skew)):
        if not isinstance(dec, SpectrumDecomposition):
            raise InternalConsistency(f"the canonical {label} spectrum fails the gate: {dec.detail}")
    top_harm = build_time_operator(pair, d_harm)
    top_skew = build_time_operator(pair, d_skew)

    signs = measure_signs(pair, d_skew)

    checks = []

    # numerics
    a = random_hermitian(rng, n)
    es = hermitian_eig(a)
    recon = (es.vectors * es.values) @ es.vectors.conj().T
    checks.append(_upper("eig-reconstruction", _max_abs(recon - a), 1e-10))
    orthonormality = _max_abs(es.vectors.conj().T @ es.vectors - np.eye(n))
    checks.append(_upper("eig-orthonormality", orthonormality, 1e-12))
    s_t, t_t = 0.37, -1.91
    prod = exp_hermitian(a, s_t) @ exp_hermitian(a, t_t)
    checks.append(_upper("exp-additivity", _max_abs(prod - exp_hermitian(a, s_t + t_t)), 1e-10))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    checks.append(_upper("trace-cyclicity", abs(np.trace(b @ c) - np.trace(c @ b)), 1e-12))

    failures = 0
    for _ in range(150):
        q = int(rng.integers(1, 1001))
        p = int(rng.integers(-1000 * q, 1000 * q + 1))
        r = rationalize(p / q, DEFAULT_TOLERANCE, DEFAULT_MAX_DENOMINATOR)
        g = math.gcd(p, q)  # p/q in lowest terms: p//g, q//g
        if r.as_integer_ratio() != (p // g, q // g):
            failures += 1
    checks.append(_upper("rationalize-roundtrip", failures, 0.0))

    # clock/shift pair: the commutation table one shift power at a time, O(N^2) memory
    labels = np.arange(n)
    # each target is the scalar exp(s*2*pi*i*(j*l mod N)/N) of its residue, s the measured sign
    roots = np.array([np.exp(signs["commutation_sign"] * 2j * np.pi * x / n) for x in range(n)])
    worst = max(_largest_gap(commutation_phase(pair, labels, l), roots[labels * l % n]) for l in range(n))
    checks.append(_upper("schwinger-commutation-table", worst, 1e-12))
    powers = labels[1:, None]
    worst = _max_abs(clock_diagonal(pair, n - powers) - 1 / clock_diagonal(pair, powers))
    checks.append(_upper("schwinger-cyclic-inverse", worst, 1e-12))
    eye = np.eye(n)
    # column m of shift^s, i.e. shift^s @ e_m, is e_{m-s}; one power at a time, O(N^2) memory
    worst = max(_max_abs(shift_power(pair, s) - eye[:, (labels - s) % n]) for s in range(n))
    checks.append(_upper("schwinger-shift-action", worst, 0.0))
    unitarity = _max_abs(pair.fourier @ pair.fourier.conj().T - eye)
    checks.append(_upper("schwinger-fourier-unitary", unitarity, 1e-12))
    # row k of the stack is |s_k>; shift @ v permutes v exactly, so one product serves all k
    shift_vecs = np.array([shift_eigenvector(pair, k) for k in range(n)])
    eigenvalues = np.array([np.exp(2j * np.pi * k / n) for k in range(n)])
    worst = _max_abs(shift_vecs @ shift_power(pair, 1).T - eigenvalues[:, None] * shift_vecs)
    checks.append(_upper("schwinger-fourier-eigen", worst, 1e-12))
    checks.append(_upper("mub-overlap", _max_abs(np.abs(pair.fourier) ** 2 - 1.0 / n), 1e-12))

    # operator basis
    g = basis.elements
    flat = g.reshape(n * n, n * n)
    checks.append(_upper("basis-orthogonality", _max_abs(flat.conj() @ flat.T - n * np.eye(n * n)), 1e-10))
    checks.append(_upper("basis-hermiticity", _max_abs(g - np.conj(np.transpose(g, (0, 1, 3, 2)))), 1e-10))
    checks.append(_upper("basis-trace", _max_abs(np.einsum("mnrr->mn", g) - 1.0), 1e-12))
    checks.append(_upper("basis-sum-identity", _max_abs(g.sum(axis=(0, 1)) - n * eye), 1e-10))
    draws = rng.normal(size=(50, 2, n, n))  # 50 operators, each a real and an imaginary part
    ops = draws[:, 0] + 1j * draws[:, 1]
    checks.append(_upper("basis-roundtrip", _max_abs(unmap_grid(basis, map_operator(basis, ops)) - ops), 1e-10))
    op_a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op_b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ca, cb = complex(0.7, -0.3), complex(-1.1, 0.4)
    lin = map_operator(basis, ca * op_a + cb * op_b) - (
        ca * map_operator(basis, op_a) + cb * map_operator(basis, op_b)
    )
    checks.append(_upper("basis-linearity", _max_abs(lin), 1e-12))
    rho = random_density(rng, n)
    grid = wigner_of_density(basis, rho)
    row_defect = _max_abs(grid.sum(axis=1) - n * np.diag(rho))
    fourier_pops = np.einsum("kn,nm,km->k", pair.fourier, rho, pair.fourier.conj())
    col_defect = _max_abs(grid.sum(axis=0) - n * fourier_pops)
    checks.append(_upper("basis-marginals", max(row_defect, col_defect), 1e-10))
    # the fast maps against the contraction with the elements checked above
    worst = 0.0
    for op in (op_a, op_b, rho):
        by_elements = np.einsum("mnrs,rs->mn", g.conj(), op)
        worst = max(worst, _max_abs(map_operator(basis, op) - by_elements))
        by_elements = np.einsum("mn,mnrs->rs", op, g) / n
        worst = max(worst, _max_abs(unmap_grid(basis, op) - by_elements))
    checks.append(_upper("basis-transform", worst, 1e-10))

    # spectrum gate
    tick_energies, dtaus, powers = [], [], []  # each decomposed trial's reduced energies, tick and -k
    id_failures = 0
    gcd_failures = 0
    perturb_failures = 0
    for spec, index in _gate_trials(rng, n, 100):
        result = decompose_spectrum(spec)
        if not isinstance(result, SpectrumDecomposition) or not result.matches(spec):
            id_failures += 1
            continue
        # E_m/omega in integers, from the energies alone (not from k and f); zeros are
        # transparent to gcd, and k != 0 leaves some ratio nonzero
        p, q = result.omega.as_integer_ratio()
        if math.gcd(*[a * q // (b * p) for a, b in spec.pairs]) != 1:
            gcd_failures += 1
        tick_energies.append(result.tick_energies)
        dtaus.append(result.delta_tau)
        powers.append(-result.k)
        floats = [a / b for a, b in spec.pairs]  # the bits of spec.as_floats()
        floats[index] += _PERTURBATION
        outcome = analyze_float_spectrum(floats, n, DEFAULT_TOLERANCE, DEFAULT_MAX_DENOMINATOR)
        if isinstance(outcome, SpectrumDecomposition):
            perturb_failures += 1
    # every trial's gap in one comparison: row t is trial t's tick_phases(1), bit for bit
    soundness = 0.0
    if powers:
        ticks = np.exp(np.array(tick_energies) * (np.array(dtaus) * -1j)[:, None])
        soundness = _max_abs(ticks - clock_diagonal(pair, np.array(powers)[:, None]))
    checks.append(_upper("spectrum-soundness", soundness, 1e-10))
    checks.append(_upper("spectrum-completeness", id_failures, 0.0))
    checks.append(_upper("spectrum-lambda-maximality", gcd_failures, 0.0))
    checks.append(_upper("spectrum-perturbation-reject", perturb_failures, 0.0))

    # time-interval operator (both canonical spectra)
    for label, spec, dec, top in (
        ("harmonic", harmonic, d_harm, top_harm),
        ("skewed", skewed, d_skew, top_skew),
    ):
        hermiticity, eigen_action, trace_defect = _tio_column_readings(top)
        checks.append(_upper(f"tio-hermiticity-{label}", hermiticity, 1e-12))
        checks.append(_upper(f"tio-eigen-action-{label}", eigen_action, 1e-10))
        checks.append(_upper(f"tio-trace-{label}", trace_defect, 1e-10))
        tgrid = time_operator_grid(basis, top)
        expected = np.broadcast_to(top.delta_tau * np.arange(n), (n, n))
        checks.append(_upper(f"tio-grid-{label}", _max_abs(tgrid - expected), 1e-10))
        worst = verify_energy_shift(top, spec, labels).max()
        checks.append(_upper(f"tio-energy-shift-{label}", worst, 1e-10))

        sigma = signs["weyl_pair_sign"]
        if n <= 7:
            table = [(a, b) for a in range(n) for b in range(n)]
        else:
            table = [(a, b) for a in range(3) for b in range(3)]
            table += [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(6)]
        ticks, ladder = np.array(table).T
        # each target is the scalar exp(sigma*2*pi*i*(a*b*k^2 mod N)/N) of its residue
        roots = np.array([np.exp(sigma * 2j * np.pi * x / n) for x in range(n)])
        targets = roots[ticks * ladder * dec.k * dec.k % n]
        worst = _largest_gap(verify_weyl_pair(top, dec, ticks, ladder), targets)
        checks.append(_upper(f"tio-weyl-phase-{label}", worst, 1e-10))

    # the exchange phase only sees the ladder gap, not which rung it starts on
    energies = skewed.as_floats()
    prop = d_skew.tick_phases(1)
    worst = 0.0
    for j, reference in zip((1, 2), verify_weyl_pair(top_skew, d_skew, 1, np.array([1, 2]))):
        columns = _exp_column(top_skew, energies[j:] - energies[:-j])  # rung m against rung m + j
        phases = exchange_phase(prop, columns, 1e-10)
        worst = max(worst, _largest_gap(phases, reference))
    checks.append(_upper("tio-weyl-gap-only", worst, 1e-10))
    # T's propagator between ticks, where a conjugated column is not the true one: on the tick
    # grid exp(-i*T*t) is a real shift power, and every other tio check reads it there
    t = 0.37 * top_skew.delta_tau
    off_tick = _max_abs(_exp_column(top_skew, t) - exp_hermitian(top_skew.matrix, t)[:, 0])
    checks.append(_upper("tio-propagator-off-tick", off_tick, 1e-10))

    # dynamics
    for label, spec, dec in (("harmonic", harmonic, d_harm), ("skewed", skewed, d_skew)):
        ticks = np.arange(1, 2 * n + 1)
        worst = _max_abs(dec.tick_phases(ticks) - clock_diagonal(pair, (-(ticks * dec.k) % n)[:, None]))
        checks.append(_upper(f"dynamics-hypothesis-{label}", worst, 1e-10))

        trace = clock_run(pair, basis, dec, spec, initial_index=0, steps=n)
        occupied = [rec.occupied_index for rec in trace.steps]
        missing = len(set(range(n)) - set(occupied[:n]))
        checks.append(_upper(f"clock-coverage-{label}", missing, 0.0))
        worst = max(max(1.0 - rec.occupied_probability, rec.max_offsite) for rec in trace.steps)
        checks.append(_upper(f"clock-occupancy-{label}", worst, 1e-9))
        state = shift_eigenvector(pair, 0)
        rho0 = np.outer(state, state.conj())
        h = np.diag(spec.as_floats().astype(np.complex128))
        propagator = exp_hermitian(h, dec.delta_tau)  # formed once for the N ticks
        rho_1 = rho_n = conjugate_unitary(rho0, propagator)
        for _ in range(n - 1):
            rho_n = conjugate_unitary(rho_n, propagator)
        checks.append(_upper(f"clock-periodicity-{label}", _max_abs(rho_n - rho0), 1e-10))
        # one tick sees the time direction, which N ticks (the identity) cannot: the dense
        # eigensolve's tick against the diagonal phases
        one_tick = _max_abs(rho_1 - conjugate_diagonal(rho0, dec.tick_phases(1)))
        checks.append(_upper(f"clock-periodicity-{label}-one-tick", one_tick, 1e-10))

        rho = random_density(rng, n)
        residuals = shift_vs_evolution_residual(pair, basis, dec, spec, rho, (n, 1, 2))
        for suffix, residual in zip(("", "-one-tick", "-two-ticks"), residuals):
            checks.append(_upper(f"dynamics-shift-vs-evolution-{label}{suffix}", residual, 1e-9))

    grid0 = wigner_of_density(basis, random_density(rng, n))
    rolled = grid0
    for _ in range(n):
        rolled = stroboscopic_step(rolled, d_skew.k, -1)
    checks.append(_upper("dynamics-shift-cyclic", _max_abs(rolled - grid0), 0.0))
    column = np.zeros((n, n))
    column[:, 2 % n] = 1.0
    sign = signs["shift_direction_sign"]
    target = np.zeros((n, n))
    target[:, (2 + sign * d_skew.k) % n] = 1.0
    delta_defect = _max_abs(stroboscopic_step(column, d_skew.k, sign) - target)
    checks.append(_upper("dynamics-shift-delta", delta_defect, 0.0))

    # negative controls: between ticks and for an incommensurate ladder the
    # state is never confined to one site
    half_tick = _offsite_after(pair, harmonic, [d_harm.delta_tau / 2.0])
    checks.append(_lower("control-half-tick-offsite", half_tick, 0.01))
    squares = Spectrum(dim=n, energies=tuple(m * m for m in range(n)))
    scan = [2.0 * np.pi * j / 40.0 for j in range(1, 40)]
    scanned = _offsite_after(pair, squares, scan)
    checks.append(_lower("control-incompatible-scan", scanned, 0.01))
    # and the density guard rejects a unit-trace Hermitian matrix with a negative eigenvalue
    rejected = 0.0
    try:
        check_density(np.diag([1.0 + 1e-6, -1e-6] + [0.0] * (n - 2)))
    except NotADensityMatrix:
        rejected = 1.0
    checks.append(_lower("control-density-negative-eigenvalue", rejected, 1.0))
    # and rationalize accepts a convergent exactly at the tolerance: 1/2 lies 2**-30 from 0.5 + 2**-30
    at_edge = 0.0
    try:
        at_edge = float(rationalize(0.5 + 2.0**-30, 2.0**-30, DEFAULT_MAX_DENOMINATOR) == Fraction(1, 2))
    except NoRationalWithinTolerance:
        pass
    checks.append(_lower("control-rationalize-tolerance-edge", at_edge, 1.0))

    checks.sort(key=lambda chk: chk.name)
    return SuiteReport(
        dim=dim,
        seed=seed,
        passed=all(chk.passed for chk in checks),
        signs=signs,
        checks=tuple(checks),
    )

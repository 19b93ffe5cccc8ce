"""Continuous and stroboscopic evolution of density matrices.

The clock protocol: start in a shift eigenvector, evolve by the interval
dtau tick by tick.  Each tick moves the occupied Fourier-sector site by k
places in a fixed direction, so the site index counts ticks; after N ticks
the state is back where it started.  The simulator always computes the true
unitary evolution -- the rigid lattice shift is only ever a cross-check,
and the shift direction is measured from the evolution, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IncompatibleSpectrum, IndexOutOfRange, InternalConsistency
from .phase_space import OperatorBasis, check_density, map_operator, wigner_of_density
from .schwinger import SchwingerPair, shift_eigenvector
from .spectrum import Spectrum, SpectrumDecomposition


@dataclass(frozen=True)
class ClockStep:
    """Occupancy record at tick j (time j * dtau)."""

    j: int
    time: float
    occupied_index: int
    occupied_probability: float
    max_offsite: float


@dataclass(frozen=True)
class ClockTrace:
    """Tick-by-tick record of a clock run plus the measured direction."""

    dim: int
    k: int
    direction_sign: int
    delta_tau: float
    steps: tuple


def conjugate_unitary(rho, g) -> np.ndarray:
    """g rho g^dagger: rho evolved by a propagator g the caller formed, such as exp_hermitian(H, t).

    rho is checked as a density matrix; repeated ticks of one H share one propagator.
    """
    rho = check_density(rho)
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != rho.shape:
        raise DimensionMismatch(f"propagator shape {g.shape} != state shape {rho.shape}")
    return g @ rho @ g.conj().T


def stroboscopic_step(grid, k: int, sign: int) -> np.ndarray:
    """Rigid one-tick shift rule: permute grid columns by sign*k (mod N).

    A pure column permutation, so the row (energy) marginal is untouched.
    """
    grid = np.asarray(grid)
    n = grid.shape[1]
    if not 0 <= k < n:
        raise ValueError(f"shift power k={k} outside 0..{n - 1}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return grid[:, (np.arange(n) - sign * k) % n]


def conjugate_diagonal(rho, phases) -> np.ndarray:
    """exp(-i*H*t) rho exp(i*H*t) for H = diag(E), given phases p = exp(-i*E*t).

    The propagator is diagonal in the clock basis, so the conjugation is the
    entrywise product rho[m, n] p_m p_n^*; no eigensolve.
    """
    return rho * np.outer(phases, np.conj(phases))


def measure_shift_sign(pair: SchwingerPair, decomp: SpectrumDecomposition) -> int:
    """Direction of the per-tick site shift, measured by one direct evolution.

    Evolves |s_0> by dtau and checks whether the occupied site moved to +k
    or -k (mod N); those differ for every k in 1..N-1 at odd prime N.
    """
    n = pair.dim
    moved = decomp.tick_phases(1) * shift_eigenvector(pair, 0)
    populations = np.abs(pair.fourier @ moved) ** 2
    occupied = int(populations.argmax())
    if occupied == decomp.k % n:
        return 1
    if occupied == (-decomp.k) % n:
        return -1
    raise InternalConsistency(
        f"one tick moved the occupied site to {occupied}, expected +-{decomp.k} (mod {n})"
    )


def _require_consistent(
    pair: SchwingerPair, basis: OperatorBasis, decomp: SpectrumDecomposition, spec: Spectrum
) -> None:
    n = pair.dim
    if basis.dim != n or decomp.dim != n or spec.dim != n:
        raise DimensionMismatch("pair, basis, decomposition, and spectrum dims differ")
    if not decomp.matches(spec):
        raise IncompatibleSpectrum("decomposition does not reproduce the spectrum exactly")


def clock_run(
    pair: SchwingerPair,
    basis: OperatorBasis,
    decomp: SpectrumDecomposition,
    spec: Spectrum,
    initial_index: int,
    steps: int,
) -> ClockTrace:
    """Run the clock protocol for the given number of ticks.

    The state vector starts as shift eigenvector |s_i> and each tick applies
    the true unitary evolution (never the shift rule).  Occupancy is the
    Fourier population |F psi|^2, so max_offsite is >= 0 (about 1e-32); ties
    break to the smallest index.  At the first and last tick the Wigner grid
    column sums / N must match it to 1e-10.  One record per tick j = 0..steps;
    each must occupy the site the measured direction sign predicts.
    """
    _require_consistent(pair, basis, decomp, spec)
    n = pair.dim
    if not 0 <= initial_index < n:
        raise IndexOutOfRange(f"initial index {initial_index} outside 0..{n - 1}")
    if steps < 1:
        raise ValueError("steps must be >= 1")

    sign = measure_shift_sign(pair, decomp)
    dtau = decomp.delta_tau
    tick = decomp.tick_phases(1)
    state = shift_eigenvector(pair, initial_index)

    records = []
    for j in range(steps + 1):
        populations = np.abs(pair.fourier @ state) ** 2
        if j in (0, steps):
            sums = wigner_of_density(basis, np.outer(state, state.conj())).sum(axis=0) / n
            gap = float(np.abs(sums - populations).max())
            if gap > 1e-10:
                raise InternalConsistency(f"tick {j}: Wigner column sums miss |F psi|^2 by {gap:.3e}")
        occupied = int(populations.argmax())
        expected = (initial_index + sign * j * decomp.k) % n
        if occupied != expected:
            raise InternalConsistency(f"tick {j} occupies site {occupied}, expected {expected}")
        offsite = populations.copy()
        offsite[occupied] = -np.inf
        records.append(
            ClockStep(
                j=j,
                time=j * dtau,
                occupied_index=occupied,
                occupied_probability=float(populations[occupied]),
                max_offsite=float(offsite.max()),
            )
        )
        state = tick * state

    return ClockTrace(
        dim=n, k=decomp.k, direction_sign=sign, delta_tau=dtau, steps=tuple(records)
    )


def shift_vs_evolution_residual(
    pair: SchwingerPair,
    basis: OperatorBasis,
    decomp: SpectrumDecomposition,
    spec: Spectrum,
    rho,
    n_steps: int,
) -> float:
    """Largest entrywise gap between direct evolution and the shift rule.

    Path A evolves rho tick by tick and maps the final state to its Wigner
    grid; path B shifts the initial grid's columns by count*k (mod N) with
    the measured sign, which is the one-tick rule applied count times, exactly.
    Works for any valid density matrix, mixed states included.

    A sequence of tick counts gives one residual per count, each the one-count
    call's: rho is checked and the sign measured once, rho is evolved once up to
    the largest count, and every grid comes from one stacked map.
    """
    _require_consistent(pair, basis, decomp, spec)
    n = pair.dim
    counts = np.asarray(n_steps).reshape(-1).tolist()
    if any(count < 0 for count in counts):
        raise ValueError("n_steps must be >= 0")

    rho = check_density(rho)
    sign = measure_shift_sign(pair, decomp)
    tick = decomp.tick_phases(1)

    # the states at the counts asked for, kept as the ticks pass them
    wanted, last = set(counts), max(counts, default=0)
    evolved, state = {0: rho}, rho
    for step in range(1, last + 1):
        state = conjugate_diagonal(state, tick)
        if step in wanted:
            evolved[step] = state
    # rho is checked above; each evolved state is checked again before its map
    direct = [check_density(evolved[count]) if count else rho for count in counts]
    *direct_grids, grid = map_operator(basis, np.stack(direct + [rho]))

    residuals = [
        float(np.abs(direct_grid - stroboscopic_step(grid, count * decomp.k % n, sign)).max())
        for direct_grid, count in zip(direct_grids, counts)
    ]
    return residuals[0] if np.ndim(n_steps) == 0 else np.array(residuals)

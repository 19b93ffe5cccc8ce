"""The time-interval operator of a clock-compatible spectrum.

For a spectrum E_m = omega*(k*m + N*f(m)) the Hermitian operator

    T = dtau * sum_l l |s_l><s_l|,   dtau = 2*pi/(N*omega),

built on the shift eigenvectors |s_l>, generates cyclic shifts in the
energy ladder: exp(-i*T*(E_{m+s} - E_m)) equals shift^(-k*s) because the
integer f-part only contributes full turns of phase.  Its exponentials and
the propagator exchange with a scalar phase exp(sigma*2*pi*i*n*j*k^2/N)
whose sign sigma is measured from T's circulant columns, never assumed.

T is diagonal in the Fourier-dual basis while the Hamiltonian is diagonal
in the clock basis, so the two eigenbases are mutually unbiased, and T is
circulant in the clock basis: it is held by its closed-form column, O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InternalConsistency
from .numerics import _circulant, exchange_phase
from .phase_space import OperatorBasis, map_operator
from .schwinger import SchwingerPair
from .spectrum import Spectrum, SpectrumDecomposition, reduce_mod_period

_SCALAR_TOL = 1e-10


@dataclass(frozen=True)
class TimeIntervalOperator:
    """T in the clock basis by its circulant column, with its analytic eigensystem.

    eigenvalues are dtau * l (ascending); the eigenvector of eigenvalue l is
    the shift eigenvector |s_l>, the conjugate of row l of fourier.  fourier
    is the pair's own table, shared and not copied.  T and each exp(-i*T*t)
    are diagonal in the Fourier basis, hence circulant in the clock basis:
    entry (r, s) depends on (r - s) mod N only, so one column fixes each.
    T[r, s] = column[(r - s) mod N], and matrix forms the N x N T on each read.
    """

    dim: int
    delta_tau: float
    column: np.ndarray
    eigenvalues: np.ndarray
    fourier: np.ndarray
    decomp: SpectrumDecomposition

    @property
    def matrix(self) -> np.ndarray:
        return _circulant(self.column)


def _exp_column(top: TimeIntervalOperator, t: float) -> np.ndarray:
    """Column 0 of exp(-i*T*t): entry d is (1/N) sum_l exp(-i*dtau*l*t) z^(l*d), z = exp(2*pi*i/N).

    An array of times gives one column per time as rows, each the one-time column
    bit for bit: numpy multiplies a stack of (1, N) rows by F one vector-matrix
    product at a time, where one (K, N) matrix product would round apart.
    """
    conj_phases = np.exp(np.multiply.outer(np.asarray(t, dtype=float) * 1j, top.eigenvalues))
    column = (conj_phases[..., None, :] @ top.fourier)[..., 0, :]
    del conj_phases  # then conjugate and scale in place: a stack of K times holds two (K, N) arrays at most
    np.conj(column, out=column)
    column /= math.sqrt(top.dim)
    return column


def build_time_operator(pair: SchwingerPair, decomp: SpectrumDecomposition) -> TimeIntervalOperator:
    """T = dtau * sum_l l |s_l><s_l| in the clock basis, by its closed-form column (O(N) memory)."""
    if pair.dim != decomp.dim:
        raise DimensionMismatch(f"pair dim {pair.dim} != decomposition dim {decomp.dim}")
    n = pair.dim
    dtau = decomp.delta_tau
    eigvals = dtau * np.arange(n)
    # column d = (dtau/N) sum_l l z^(l*d) = dtau/(z^d - 1), or dtau*(N-1)/2 at d = 0
    column = np.concatenate(([dtau * (n - 1) / 2], dtau / (pair.clock_phases[1:] - 1.0)))
    for arr in (eigvals, column):
        arr.setflags(write=False)
    return TimeIntervalOperator(
        dim=n, delta_tau=dtau, column=column, eigenvalues=eigvals, fourier=pair.fourier, decomp=decomp
    )


def time_operator_grid(basis: OperatorBasis, top: TimeIntervalOperator) -> np.ndarray:
    """Lattice representative of T; equals dtau * n on every row (computed, not asserted)."""
    if basis.dim != top.dim:
        raise DimensionMismatch(f"basis dim {basis.dim} != operator dim {top.dim}")
    return map_operator(basis, top.matrix)


def verify_energy_shift(top: TimeIntervalOperator, spec: Spectrum, s: int) -> float:
    """Residual of the ladder-shift identity at gap s.

    Returns max over m in 0..N-1-s of
        || exp(-i*T*(E_{m+s} - E_m)) - shift^(-k*s) ||_max.
    Energy indices are a plain list (no wrap-around), since wrapping would
    change the difference by something other than a full phase turn.  The
    energies are reduced mod N*omega first, which changes no exponential of
    T.  For a spectrum matching the decomposition T was built from this is
    roundoff; for anything else it is O(1) -- the function measures, it does
    not gate.

    A sequence of gaps gives one residual per gap, each the one-gap call's: the
    energies are reduced once, and each gap's N - s columns are formed on their
    own, so memory stays O(N^2) however many gaps are asked for.
    """
    n = top.dim
    if spec.dim != n:
        raise DimensionMismatch(f"spectrum dim {spec.dim} != operator dim {n}")
    gaps = np.asarray(s).reshape(-1)
    outside = gaps[(gaps < 0) | (gaps >= n)]
    if outside.size:
        raise ValueError(f"gap s={outside[0]} outside 0..{n - 1}")
    reduced = reduce_mod_period(spec.energies, top.decomp.omega, n)
    residuals = np.empty(gaps.size)
    for i, gap in enumerate(gaps.tolist()):
        columns = _exp_column(top, reduced[gap:] - reduced[: n - gap])  # rung m against rung m + gap
        # exp(-i*T*t) and shift^(-k*s) are circulant: their largest gap is the largest over one
        # column, and column 0 of shift^(-k*s) is the unit vector at k*s mod N
        columns[:, top.decomp.k * gap % n] -= 1
        residuals[i] = np.abs(columns).max()
    return float(residuals[0]) if np.ndim(s) == 0 else residuals


def verify_weyl_pair(
    top: TimeIntervalOperator, decomp: SpectrumDecomposition, n: int, j: int
) -> complex:
    """Measured exchange phase of the propagator with exp(-i*T*(E_j - E_0)).

    Returns the scalar c with G*W = c*W*G, where G propagates by n ticks and
    W = exp(-i*T*(E_j - E_0)); read at the largest entry of W*G, validated
    entrywise to 1e-10 (failure raises NotScalarMultiple and indicates a bug).
    |c| = 1 and c^N = 1.

    Integer arrays n and j that broadcast together give an array of that
    shape, each entry the scalar call's bit for bit, read in one pass; a bad
    entry anywhere raises what the scalar call raises for it.
    """
    if top.dim != decomp.dim:
        raise DimensionMismatch(f"operator dim {top.dim} != decomposition dim {decomp.dim}")
    ticks, ladder = np.asarray(n), np.asarray(j)
    if (ticks < 0).any():
        raise ValueError("tick count must be >= 0")
    outside = ladder[(ladder < 0) | (ladder >= top.dim)]
    if outside.size:
        raise IndexOutOfRange(f"ladder index {outside[0]} outside 0..{top.dim - 1}")

    reduced = decomp.tick_energies  # T's eigenvalues are multiples of the tick
    columns = _exp_column(top, reduced[ladder] - reduced[0])
    return exchange_phase(decomp.tick_phases(ticks), columns, _SCALAR_TOL)


def measure_weyl_sign(top: TimeIntervalOperator, decomp: SpectrumDecomposition) -> int:
    """Sign sigma in c(n, j) = exp(sigma*2*pi*i*n*j*k^2/N), measured at (1, 1)."""
    c = verify_weyl_pair(top, decomp, 1, 1)
    n = top.dim
    angle = 2.0 * np.pi * ((decomp.k * decomp.k) % n) / n
    if abs(c - np.exp(-1j * angle)) < 1e-8:
        return -1
    if abs(c - np.exp(1j * angle)) < 1e-8:
        return 1
    raise InternalConsistency(f"exchange phase {c!r} matches neither sign convention")

"""Schwinger clock-and-shift unitary pair on an odd-prime dimensional space.

Labels run over 0..N-1 with mod-N arithmetic; the diagonal (clock) basis is
the computational basis, so every matrix in the package is expressed in it.
The two eigenbases are linked by the discrete Fourier transform and the pair
obeys a scalar-phase exchange rule whose sign is *measured*, never assumed:
each shift power is circulant, and the phase is read from its column in O(N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionNotOddPrime, IndexOutOfRange, NotScalarMultiple
from .numerics import _circulant, exchange_phase, is_odd_prime

_SCALAR_TOL = 1e-12


@dataclass(frozen=True)
class SchwingerPair:
    """The unitary pair by its structure, plus the Fourier overlap table.

    clock_phases -- the clock's diagonal as a 1-D row: entry k is exp(2*pi*i*k/N)
    fourier      -- row k holds the overlaps of shift-eigenvector k with the
                    clock basis: fourier[k, n] = exp(-2*pi*i*k*n/N)/sqrt(N)

    The shift, the cyclic permutation e_n -> e_{n-1 (mod N)}, is fixed by dim.
    Dense powers of either unitary come from clock_power and shift_power.
    """

    dim: int
    clock_phases: np.ndarray
    fourier: np.ndarray


def build_pair(dim: int) -> SchwingerPair:
    """Construct the clock/shift pair at an odd prime dimension.

    Raises DimensionNotOddPrime otherwise (primality by trial division).
    """
    if not is_odd_prime(dim):
        raise DimensionNotOddPrime(f"dimension must be an odd prime, got {dim}")
    labels = np.arange(dim)
    clock_phases = np.exp(2j * np.pi * labels / dim)
    fourier = np.exp(-2j * np.pi * (np.outer(labels, labels) % dim) / dim) / np.sqrt(dim)
    for arr in (clock_phases, fourier):
        arr.setflags(write=False)
    return SchwingerPair(dim=dim, clock_phases=clock_phases, fourier=fourier)


def clock_diagonal(pair: SchwingerPair, exponent: int) -> np.ndarray:
    """The diagonal of clock**exponent, any integer exponent, reduced mod N.

    Entry l is the pair's own clock phase at (exponent*l) mod N, read from its
    table, so negative powers are as accurate as positive ones.  An integer
    array of exponents of shape (..., 1) gives one diagonal per exponent.
    """
    index = exponent % pair.dim * np.arange(pair.dim)
    index %= pair.dim
    return pair.clock_phases[index]


def clock_power(pair: SchwingerPair, exponent: int) -> np.ndarray:
    """clock**exponent as a dense diagonal matrix (see clock_diagonal)."""
    return np.diag(clock_diagonal(pair, exponent))


def _shift_column(dim: int, exponent: int) -> np.ndarray:
    """Column 0 of shift**exponent, which is circulant: e_{-exponent mod N}, exact 0/1.

    An integer array of exponents of shape (..., 1) gives one column per exponent.
    """
    return (np.arange(dim) == -exponent % dim).astype(np.complex128)


def shift_power(pair: SchwingerPair, exponent: int) -> np.ndarray:
    """shift**exponent, any integer exponent, reduced mod N (exact 0/1 matrix): row r is e_{r+exponent}."""
    return _circulant(_shift_column(pair.dim, exponent))


def shift_eigenvector(pair: SchwingerPair, k: int) -> np.ndarray:
    """k-th eigenvector of the shift operator, in the clock basis.

    Components are exp(+2*pi*i*k*n/N)/sqrt(N); the eigenvalue is
    exp(2*pi*i*k/N).  Raises IndexOutOfRange unless 0 <= k < N.
    """
    if not 0 <= k < pair.dim:
        raise IndexOutOfRange(f"label {k} outside 0..{pair.dim - 1}")
    return pair.fourier[k].conj().copy()


def commutation_phase(pair: SchwingerPair, j: int, l: int) -> complex:
    """The scalar c with clock^j shift^l = c * shift^l clock^j.

    c is read off at the largest entry of shift^l clock^j and then validated
    entrywise to 1e-12; a validation failure raises NotScalarMultiple (which
    would indicate a bug, not a physical condition).  |c| = 1 always.

    Integer arrays j and l that broadcast together give an array of that shape,
    each entry the scalar call's bit for bit, read in one pass.  The entries
    share the lags of all their shift powers, so memory grows as entries * N *
    (distinct powers): one power per call keeps N entries at O(N^2).
    """
    # reduced first, so that a Python int past int64 stays an integer index
    diagonals = clock_diagonal(pair, np.asarray(j % pair.dim)[..., None])
    return exchange_phase(diagonals, _shift_column(pair.dim, np.asarray(l % pair.dim)[..., None]), _SCALAR_TOL)


def measure_commutation_sign(pair: SchwingerPair) -> int:
    """Sign s in commutation_phase(j, l) = exp(s * 2*pi*i*j*l/N), measured at (1, 1)."""
    c = commutation_phase(pair, 1, 1)
    root = np.exp(2j * np.pi / pair.dim)
    if abs(c - root.conjugate()) < 1e-10:
        return -1
    if abs(c - root) < 1e-10:
        return 1
    raise NotScalarMultiple(f"commutation phase {c!r} is not a primitive root")

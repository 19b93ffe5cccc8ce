"""Complex linear algebra and exact rational helpers.

All functions are pure and never mutate their inputs, so concurrent use is
safe.  Matrices are plain ``numpy`` arrays of ``complex128``, and a circulant
operand is its column 0; exact rational values are ``fractions.Fraction``
(arbitrary precision, always in lowest terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NoRationalWithinTolerance,
    NotHermitian,
    NotScalarMultiple,
)

HERMITICITY_TOL = 1e-12


def is_odd_prime(n: int) -> bool:
    """Trial-division primality, restricted to odd primes (3, 5, 7, ...)."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _as_square_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return arr


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of a matrix from its adjoint."""
    arr = _as_square_complex(a)
    return float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns (or None)."""

    values: np.ndarray
    vectors: np.ndarray | None


def hermitian_eig(a, vectors: bool = True) -> EigenSystem:
    """Eigendecomposition of a complex Hermitian matrix (LAPACK ``eigh``).

    Returns ``eigh``'s output as it comes, in read-only arrays: eigenvalues
    ascending, and orthonormal eigenvector columns whose phases, and whose order
    inside a degenerate eigenvalue, are LAPACK's.  With vectors=False only the
    eigenvalues are computed (``eigvalsh``) and ``vectors`` is None.

    Raises NotHermitian when max|a - a^dag| exceeds 1e-12, NoConvergence when
    LAPACK reports that the decomposition did not converge.
    """
    defect = hermiticity_defect(a)  # also checks the shape and finiteness
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"max |A - A^dag| = {defect:.3e} exceeds {HERMITICITY_TOL}")

    work = np.asarray(a, dtype=np.complex128)
    if defect:  # exact Hermitian symmetrization, skipped when a is exactly Hermitian
        work = 0.5 * (work + work.conj().T)
    try:
        if not vectors:
            values = np.linalg.eigvalsh(work)
            values.setflags(write=False)
            return EigenSystem(values=values, vectors=None)
        values, vecs = np.linalg.eigh(work)  # values ascending
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK did not converge: {exc}") from exc

    values.setflags(write=False)
    vecs.setflags(write=False)
    return EigenSystem(values=values, vectors=vecs)


def exp_hermitian(a, t: float) -> np.ndarray:
    """exp(-i*a*t) for Hermitian a, via eigendecomposition (hbar = 1).

    The result is unitary to working precision and satisfies the group law
    exp(-i*a*s) exp(-i*a*t) = exp(-i*a*(s+t)).
    """
    es = hermitian_eig(a)
    phases = np.exp(es.values * (-1j * float(t)))
    return (es.vectors * phases) @ es.vectors.conj().T


def _is_array(x) -> bool:
    """Whether x takes a function's array form: a numpy array of at least one dimension.

    A cheap test, as the scalar forms run in loops; 0-d arrays and numpy scalars stay scalars.
    """
    return isinstance(x, np.ndarray) and x.ndim > 0


def _circulant(column: np.ndarray) -> np.ndarray:
    """The N x N matrix with entry (r, s) = column[(r - s) mod N]."""
    n = column.size
    doubled = np.concatenate((column, column))
    step = doubled.itemsize
    # entry (r, s) is doubled[n + r - s]: a view that steps +1 down a column and -1
    # along a row, which numpy checks against the buffer; copied to own its memory
    return np.ndarray((n, n), doubled.dtype, doubled, n * step, (step, -step)).copy()


def exchange_phase(d, w, tol: float) -> complex:
    """The scalar c with D @ C = c * (C @ D) for D = diag(d) and C[r, s] = w[(r - s) mod N].

    Read at the largest entry of C @ D and checked at every entry: one off by more
    than tol, a NaN anywhere, or a C @ D that vanishes raises NotScalarMultiple (a
    bug).  Only the lags where w is nonzero are formed, O(N) each; both products
    are exactly zero at the rest, so reading and check are those of the dense ones.

    One pair of shape (N,) gives a complex.  Stacks d[..., :] and w[..., :] of shape
    (..., N) that broadcast give c of their shape less N, each entry its pair's
    reading bit for bit, and raise NotScalarMultiple if any pair would.  The pairs
    share the union of their nonzero lags: a lag where w[b] is zero gives pair b
    exact zeros, which never win its reading and never add to its defect (0 * inf is
    NaN, but an inf in d[b] already makes pair b raise).  Operands that are 0-d, that
    differ in N or that do not broadcast raise DimensionMismatch.
    """
    d, w = np.asarray(d), np.asarray(w)
    if not d.ndim or not w.ndim or d.shape[-1] != w.shape[-1]:
        raise DimensionMismatch(f"diagonal of shape {d.shape} does not fit circulant column of shape {w.shape}")
    if d.shape != w.shape:
        try:
            d, w = np.broadcast_arrays(d, w)
        except ValueError:
            raise DimensionMismatch(f"stacks of shapes {d.shape} and {w.shape} do not broadcast") from None
    n, shape = d.shape[-1], d.shape[:-1]
    pairs = math.prod(shape)
    d, w = d.reshape(pairs, n), w.reshape(pairs, n)
    if not pairs:
        return np.empty(shape, dtype=complex)
    lags = w.any(axis=0).nonzero()[0]
    if not lags.size:
        raise NotScalarMultiple("the circulant operand is zero: no entry to read a phase at")
    width, block = lags.size, n * lags.size
    cols = np.arange(n)[:, None] - lags  # row r holds (r, r - lag_i); gathering d at cols wraps it mod N
    # inf * 0, x / 0 and overflow make NaN and inf silently; the defect check rejects them all
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # np.take gathers from a stack faster than an index with a slice does
        wl, gathered = np.take(w, lags, axis=1)[:, None, :], np.take(d, cols, axis=1)
        # rhs first and in the gather's memory if it is complex, so that the gather is gone before lhs is made
        rhs = np.multiply(wl, gathered, dtype=complex, out=gathered if gathered.dtype == complex else None)
        del gathered
        lhs = np.multiply(d[..., None], wl, dtype=complex)
        size = np.abs(rhs)  # a NaN or inf anywhere in d[b] or among its lags lands in rhs and wins
        # each pair's first largest entry, as dense; on a tie in its row dense reads the least s (a NaN ties nothing)
        at = size.reshape(-1, block).argmax(axis=1) + np.arange(0, pairs * block, block)
        if width > 1:
            rows, entries = at // width, size.reshape(-1)
            ties = entries.reshape(-1, width)[rows] == entries[at, None]
            if np.count_nonzero(ties) > at.size:
                at = rows * width + np.where(ties, (rows[:, None] - lags) % n, n).argmin(axis=1)
        c = lhs.reshape(-1)[at] / rhs.reshape(-1)[at]
        rhs *= c[:, None, None]
        # in place: one call holds lhs, rhs, cols and one float array; a zero or
        # non-finite pivot makes c, and with it the defect, non-finite
        lhs -= rhs
        defect = float(np.abs(lhs, out=size).max())  # NaN if any pair's is
    if not defect <= tol:
        if not np.isfinite(c).all():
            raise NotScalarMultiple("C @ diag(d) has no finite nonzero entry to read a phase at")
        raise NotScalarMultiple(f"diag(d) @ C is not a scalar multiple of C @ diag(d) (defect {defect:.3e})")
    return c.reshape(shape) if shape else complex(c[0])


def rationalize(x: float, tolerance: float, max_denominator: int) -> Fraction:
    """Smallest-denominator continued-fraction convergent of x within tolerance.

    Walks the convergents p/q of x in order of increasing q and returns the
    first with |x - p/q| <= tolerance and q <= max_denominator.  The distance
    check is exact (x is converted to its binary rational value), so a float
    that was produced from a modest fraction is recovered verbatim.

    Raises NoRationalWithinTolerance when no admissible convergent exists,
    ValueError for a tolerance that is not positive and finite.
    """
    found = _convergent(x, _tolerance_ratio(tolerance, max_denominator), max_denominator)
    if found is None:
        raise NoRationalWithinTolerance(f"no p/q with q <= {max_denominator} lies within {tolerance} of {x!r}")
    return Fraction(*found)


def _tolerance_ratio(tolerance: float, max_denominator: int) -> tuple:
    """The tolerance as the integer pair (c, d) with c/d == tolerance, both arguments checked."""
    if not 0.0 < tolerance < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    return tolerance.as_integer_ratio()


def _convergent(x: float, tolerance: tuple, max_denominator: int) -> tuple | None:
    """rationalize's convergent as the integer pair (p, q), coprime with q > 0, or None.

    tolerance is the pair (c, d) from _tolerance_ratio, checked once for every x.
    """
    # exact values need no finiteness check; floats are tested first, as the
    # Fraction test is an ABC check
    if (isinstance(x, float) or not isinstance(x, (int, Fraction))) and not math.isfinite(x):
        raise ValueError("x must be finite")

    # |p/q - a/b| <= c/d  <=>  |p*b - a*q| * d <= c * b * q, as all of q, b, d > 0,
    # and |p*b - a*q| is exactly the remainder of the Euclid step that gives p/q
    a, b = x.as_integer_ratio()
    c, d = tolerance
    cb = c * b
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    num, den = a, b  # Euclid on a/b: the partial quotients are exact
    while True:
        a0, rem = divmod(num, den)
        p, p_prev = a0 * p + p_prev, p  # the next convergent p/q
        q, q_prev = a0 * q + q_prev, q
        if q > max_denominator:
            return None
        # rem == 0 makes p/q == a/b, which passes: the loop ends
        if rem * d <= cb * q:
            return p, q  # consecutive convergents: coprime, q >= 1
        num, den = den, rem

"""Hermitian operator basis on the N x N phase-space lattice.

The basis element at lattice point (m, n) is a double Fourier sum of
clock/shift products over the symmetric exponent range -(N-1)/2..(N-1)/2,

    B(m, n) = (1/N) * sum_{j,l} clock^j shift^l
              * exp(i*pi*j*l/N) * exp(-2*pi*i*(m*j + n*l)/N),

where m indexes the diagonal (energy) sector and n the Fourier-dual sector.
The N^2 elements are Hermitian, have unit trace, and are trace-orthogonal
with norm N.

The maps between operators and lattice grids never form the elements.
clock^j shift^l is nonzero only on the cyclic diagonal (r, r + l mod N), so
Tr[(clock^j shift^l)^dag op] is a DFT over r of that diagonal of op; the
grid is those N^2 values times a phase, transformed over (j, l) by a 2-D
DFT.  Every DFT is the pair's own Fourier table: the maps index j and l by
0..N-1, and only the phase, which is not periodic mod N, reads their
symmetric representatives.  Each map is one gather and three N x N matrix
products: O(N^3) time and O(N^2) memory, where the elements take 16*N^4
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotADensityMatrix
from .numerics import HERMITICITY_TOL, hermitian_eig, hermiticity_defect
from .schwinger import SchwingerPair, clock_diagonal, shift_power

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class OperatorBasis:
    """The N x N tables behind map_operator and unmap_grid.

    With j the clock exponent and l the shift exponent, both 0..N-1, and
    sym(j) their representative in -(N-1)/2..(N-1)/2:

    fourier[j, r]     = exp(-2*pi*i*j*r/N)/sqrt(N), the pair's own table,
                        shared and not copied
    half_phase[j, l]  = exp(-i*pi*sym(j)*sym(l)/N)
    rows[r, 0] = r, cols[r, l] = r + l (mod N): op[rows, cols] holds the
    cyclic diagonal l of op in column l.
    clock_phases[l]   = exp(2*pi*i*l/N), the pair's own clock row, shared and
                        not copied

    ``elements`` (shape (N, N, N, N); elements[m, n] is B(m, n)) is summed
    from the definition on first read, from the pair's own rows, and then
    cached.  It takes 16*N^4 bytes and serves only as the reference the basis
    checks examine.
    """

    dim: int
    fourier: np.ndarray
    half_phase: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    clock_phases: np.ndarray

    @cached_property
    def elements(self) -> np.ndarray:
        return _basis_tensor(SchwingerPair(dim=self.dim, clock_phases=self.clock_phases, fourier=self.fourier))


def build_basis(pair: SchwingerPair) -> OperatorBasis:
    """The transform tables for the given pair (O(N^2) memory, one new complex table).

    The basis holds the pair's Fourier table and clock row by reference.
    """
    n = pair.dim
    half = (n - 1) // 2
    labels = np.arange(n)
    sym = (labels + half) % n - half
    tables = dict(
        half_phase=np.exp(-1j * np.pi * (np.outer(sym, sym) % (2 * n)) / n),
        rows=labels[:, None],
        cols=(labels[:, None] + labels) % n,
    )
    for arr in tables.values():
        arr.setflags(write=False)
    return OperatorBasis(dim=n, fourier=pair.fourier, clock_phases=pair.clock_phases, **tables)


def _basis_tensor(pair: SchwingerPair) -> np.ndarray:
    """All N^2 basis matrices, summed term by term from the definition."""
    n = pair.dim
    half = (n - 1) // 2
    sym = np.arange(-half, half + 1)

    # term (j, l) is clock^j shift^l = diag(clock^j) shift^l, times its half phase
    shifts = np.array([shift_power(pair, l) for l in sym])
    half_phase = np.exp(1j * np.pi * (np.outer(sym, sym) % (2 * n)) / n)
    weighted = clock_diagonal(pair, sym[:, None])[:, None, :, None] * shifts
    weighted *= half_phase[:, :, None, None]

    # fourier[m, a] = exp(-2*pi*i*m*sym[a]/N); contract j then l
    fourier = np.exp(-2j * np.pi * (np.outer(np.arange(n), sym) % n) / n)
    partial = np.tensordot(fourier, weighted, axes=(1, 0))  # (m, b, r, s)
    elements = np.einsum("nb,mbrs->mnrs", fourier, partial) / n
    elements.setflags(write=False)
    return elements


def _require_dim(basis: OperatorBasis, arr: np.ndarray, what: str) -> np.ndarray:
    """arr as complex128 of shape (..., N, N)."""
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.shape[-2:] != (basis.dim, basis.dim):
        raise DimensionMismatch(
            f"{what} has shape {arr.shape}, expected (..., {basis.dim}, {basis.dim})"
        )
    return arr


def map_operator(basis: OperatorBasis, op) -> np.ndarray:
    """Lattice representative of an operator: grid[m, n] = Tr[B(m, n)^dag op].

    A stack of shape (..., N, N) maps matrix by matrix, bit for bit as one
    matrix at a time.
    """
    op = _require_dim(basis, op, "operator")
    f = basis.fourier
    # F @ diagonals is Tr[(clock^j shift^l)^dag op] / sqrt(N) at [j, l]; the 2-D DFT
    # is by conj(F), and conj(F) @ x @ conj(F) = conj(F @ conj(x) @ F) needs no copy of it
    weighted = basis.half_phase * (f @ op[..., basis.rows, basis.cols])
    return np.conj(f @ np.conj(weighted) @ f) * math.sqrt(basis.dim)


def unmap_grid(basis: OperatorBasis, grid) -> np.ndarray:
    """Operator with the given lattice representative: (1/N) sum grid[m, n] B(m, n).

    Takes (..., N, N) stacks as map_operator does.
    """
    grid = _require_dim(basis, grid, "grid")
    f = basis.fourier
    # the inverse of each step of map_operator, with conj(F) @ x = conj(F @ conj(x))
    weighted = basis.half_phase * np.conj(f @ grid @ f)
    op = np.empty_like(grid)
    op[..., basis.rows, basis.cols] = np.conj(f @ weighted) / math.sqrt(basis.dim)
    return op


def check_density(rho) -> np.ndarray:
    """Validate a density matrix, naming the violated sub-check on failure.

    Requires Hermiticity within 1e-10, unit trace within 1e-10, and all
    eigenvalues >= -1e-10.  The eigenvalues are those of (rho + rho^dag)/2.
    hermitian_eig forms that itself below its 1e-12 gate, and needs none for an
    exactly Hermitian rho, so rho is symmetrized here only above the gate.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    defect = hermiticity_defect(rho)
    if defect > DENSITY_HERM_TOL:
        raise NotADensityMatrix(f"not Hermitian: max |rho - rho^dag| = {defect:.3e}")
    trace_defect = abs(complex(rho.trace()) - 1.0)
    if trace_defect > DENSITY_TRACE_TOL:
        raise NotADensityMatrix(f"trace differs from 1 by {trace_defect:.3e}")
    work = rho if defect <= HERMITICITY_TOL else 0.5 * (rho + rho.conj().T)
    smallest = float(hermitian_eig(work, vectors=False).values[0])
    if smallest < DENSITY_EIG_FLOOR:
        raise NotADensityMatrix(f"negative eigenvalue {smallest:.3e}")
    return rho


def wigner_of_density(basis: OperatorBasis, rho) -> np.ndarray:
    """Discrete Wigner function of a density matrix.

    The grid is real (within roundoff) because every basis element is
    Hermitian, and averages to 1: (1/N) * sum grid = Tr rho = 1.  Column
    sums give N times the Fourier-sector populations, row sums N times the
    energy-sector populations.
    """
    rho = check_density(rho)
    rho = _require_dim(basis, rho, "density matrix")
    return map_operator(basis, rho)

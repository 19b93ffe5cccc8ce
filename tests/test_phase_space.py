import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclock.phase_space
from qclock import (
    DimensionMismatch,
    NoConvergence,
    NotADensityMatrix,
    Spectrum,
    build_basis,
    check_density,
    clock_power,
    clock_run,
    decompose_spectrum,
    map_operator,
    shift_eigenvector,
    unmap_grid,
    wigner_of_density,
)
from conftest import cached_basis, cached_pair


def all_elements(basis):
    n = basis.dim
    return [basis.elements[m, nn] for m in range(n) for nn in range(n)]


def test_unit_traces_n3():
    for g in all_elements(cached_basis(3)):
        assert abs(np.trace(g) - 1.0) < 1e-12


def test_hermiticity_n3():
    for g in all_elements(cached_basis(3)):
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_orthogonality_spot_n5():
    basis = cached_basis(5)
    inner = np.vdot(basis.elements[0, 0], basis.elements[1, 2])
    assert abs(inner) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_orthogonality_full_gram(dim):
    basis = cached_basis(dim)
    flat = basis.elements.reshape(dim * dim, dim * dim)
    gram = flat.conj() @ flat.T
    assert np.max(np.abs(gram - dim * np.eye(dim * dim))) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_sum_of_elements_is_scaled_identity(dim):
    basis = cached_basis(dim)
    total = basis.elements.sum(axis=(0, 1))
    assert np.max(np.abs(total - dim * np.eye(dim))) < 1e-10


def test_identity_maps_to_constant_grid(basis5):
    grid = map_operator(basis5, np.eye(5))
    assert np.max(np.abs(grid - 1.0)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_clock_inverse_power_grid(basis5, pair5, k):
    grid = map_operator(basis5, clock_power(pair5, -k))
    expected = np.exp(-2j * np.pi * k * np.arange(5) / 5)[:, None] * np.ones((1, 5))
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_propagator_grid_is_diagonal_phases(basis5):
    energies = np.array([0.3, 1.7, -2.2, 0.9, 4.1])
    dt = 0.37
    op = np.diag(np.exp(-1j * energies * dt))
    grid = map_operator(basis5, op)
    expected = np.exp(-1j * energies * dt)[:, None] * np.ones((1, 5))
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_unmap_constant_grid_gives_identity(basis5):
    op = unmap_grid(basis5, np.ones((5, 5)))
    assert np.max(np.abs(op - np.eye(5))) < 1e-10


def test_unmap_phase_grid_gives_clock_power(basis5, pair5):
    grid = np.exp(-2j * np.pi * 2 * np.arange(5) / 5)[:, None] * np.ones((1, 5))
    op = unmap_grid(basis5, grid)
    assert np.max(np.abs(op - clock_power(pair5, -2))) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_roundtrip_seeded_operators(dim):
    basis = cached_basis(dim)
    rng = np.random.default_rng(100 + dim)
    for _ in range(50):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        back = unmap_grid(basis, map_operator(basis, op))
        assert np.max(np.abs(back - op)) < 1e-10


def test_map_linearity(basis5):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ca, cb = 0.7 - 0.3j, -1.1 + 0.4j
    combined = map_operator(basis5, ca * a + cb * b)
    split = ca * map_operator(basis5, a) + cb * map_operator(basis5, b)
    assert np.max(np.abs(combined - split)) < 1e-12


def test_dimension_mismatch(basis5):
    with pytest.raises(DimensionMismatch):
        map_operator(basis5, np.eye(3))
    with pytest.raises(DimensionMismatch):
        unmap_grid(basis5, np.ones((3, 3)))


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
@pytest.mark.parametrize("stack", [(6,), (2, 3)])
def test_stacked_maps_equal_the_per_matrix_maps_bit_for_bit(dim, stack):
    basis = cached_basis(dim)
    rng = np.random.default_rng(dim + len(stack))
    ops = rng.normal(size=stack + (dim, dim)) + 1j * rng.normal(size=stack + (dim, dim))
    for fn in (map_operator, unmap_grid):
        stacked = fn(basis, ops)
        assert stacked.shape == ops.shape
        one_by_one = np.array([fn(basis, op) for op in ops.reshape(-1, dim, dim)])
        assert stacked.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("dim", [3, 5, 7, 31])
def test_stacked_maps_reject_wrong_trailing_shapes(dim):
    basis = cached_basis(dim)
    for shape in ((dim,), (dim, dim + 1), (2, dim, dim + 1)):
        for fn in (map_operator, unmap_grid):
            with pytest.raises(DimensionMismatch):
                fn(basis, np.ones(shape, dtype=complex))


def test_wigner_of_density_stays_two_dimensional(basis5):
    with pytest.raises(DimensionMismatch):
        wigner_of_density(basis5, np.broadcast_to(np.eye(5) / 5, (2, 5, 5)))


def test_wigner_of_shift_eigenstate_is_one_column(basis5, pair5):
    vec = shift_eigenvector(pair5, 1)
    grid = wigner_of_density(basis5, np.outer(vec, vec.conj()))
    expected = np.zeros((5, 5))
    expected[:, 1] = 1.0
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_wigner_of_energy_eigenstate_is_one_row(basis5):
    rho = np.zeros((5, 5), dtype=complex)
    rho[3, 3] = 1.0
    grid = wigner_of_density(basis5, rho)
    expected = np.zeros((5, 5))
    expected[3, :] = 1.0
    assert np.max(np.abs(grid - expected)) < 1e-10


def test_wigner_of_maximally_mixed_is_flat(basis5):
    grid = wigner_of_density(basis5, np.eye(5) / 5)
    assert np.max(np.abs(grid - 0.2)) < 1e-10


def test_wigner_reality_and_normalization(basis5):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    grid = wigner_of_density(basis5, rho)
    assert np.max(np.abs(grid.imag)) < 1e-10
    assert abs(grid.real.sum() / 5 - 1.0) < 1e-10


def test_wigner_marginals(basis5, pair5):
    rng = np.random.default_rng(10)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    grid = wigner_of_density(basis5, rho).real
    energy_marginal = grid.sum(axis=1)
    assert np.max(np.abs(energy_marginal - 5 * np.diag(rho).real)) < 1e-10
    fourier_pops = np.array(
        [np.vdot(shift_eigenvector(pair5, k), rho @ shift_eigenvector(pair5, k)).real for k in range(5)]
    )
    assert np.max(np.abs(grid.sum(axis=0) - 5 * fourier_pops)) < 1e-10


def test_density_checks_name_the_failure(basis5):
    with pytest.raises(NotADensityMatrix, match="Hermitian"):
        wigner_of_density(basis5, np.triu(np.ones((5, 5))) / 5)
    with pytest.raises(NotADensityMatrix, match="trace"):
        wigner_of_density(basis5, np.eye(5))
    bad = np.diag([1.5, -0.5, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotADensityMatrix, match="negative eigenvalue"):
        wigner_of_density(basis5, bad)


def test_check_density_accepts_pure_state():
    vec = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    check_density(np.outer(vec, vec.conj()))


def test_check_density_eigenvalue_floor():
    check_density(np.diag([1.0 + 5e-11, -5e-11, 0.0]))
    with pytest.raises(NotADensityMatrix, match="negative eigenvalue"):
        check_density(np.diag([1.0 + 2e-10, -2e-10, 0.0]))


def test_check_density_lapack_failure_is_no_convergence(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergence, match="did not converge"):
        check_density(np.eye(3) / 3)


def map_by_elements(basis, op):
    return np.einsum("mnrs,rs->mn", basis.elements.conj(), op)


def unmap_by_elements(basis, grid):
    return np.einsum("mn,mnrs->rs", grid, basis.elements) / basis.dim


@pytest.mark.parametrize("dim", [3, 5, 7, 11, 13])
def test_maps_agree_with_elements(dim):
    basis = cached_basis(dim)
    rng = np.random.default_rng(200 + dim)
    for _ in range(5):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.max(np.abs(map_operator(basis, op) - map_by_elements(basis, op))) < 1e-12
        assert np.max(np.abs(unmap_grid(basis, op) - unmap_by_elements(basis, op))) < 1e-12


@st.composite
def operators(draw):
    dim = draw(st.sampled_from([3, 5, 7, 11, 13]))
    part = st.floats(-100.0, 100.0)
    re = np.array(draw(st.lists(part, min_size=dim * dim, max_size=dim * dim)))
    im = np.array(draw(st.lists(part, min_size=dim * dim, max_size=dim * dim)))
    return (re + 1j * im).reshape(dim, dim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operators())
def test_maps_property(op):
    basis = cached_basis(op.shape[0])
    scale = max(1.0, float(np.max(np.abs(op))))
    grid = map_operator(basis, op)
    assert np.max(np.abs(grid - map_by_elements(basis, op))) < 1e-12 * scale
    assert np.max(np.abs(unmap_grid(basis, op) - unmap_by_elements(basis, op))) < 1e-12 * scale
    assert np.max(np.abs(unmap_grid(basis, grid) - op)) < 1e-12 * scale


def test_elements_cached_and_read_only():
    basis = build_basis(cached_pair(3))
    assert basis.elements is basis.elements
    assert not basis.elements.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.elements = np.zeros((3, 3, 3, 3))


@pytest.mark.parametrize("dim", [3, 31])
def test_basis_shares_the_pair_fourier_table(dim):
    pair = cached_pair(dim)
    basis = build_basis(pair)
    assert basis.fourier is pair.fourier
    tables = [
        value
        for value in vars(basis).values()
        if isinstance(value, np.ndarray) and value.dtype.kind == "c" and value.shape == (dim, dim)
    ]
    assert len(tables) == 2  # the shared Fourier table and the basis's own half_phase
    assert sum(table is not pair.fourier for table in tables) == 1


def test_n31_paths_never_build_elements(monkeypatch):
    def refuse(pair):
        raise AssertionError("the N^4 element tensor was built")

    monkeypatch.setattr(qclock.phase_space, "_basis_tensor", refuse)
    n = 31
    pair = cached_pair(n)
    basis = build_basis(pair)
    spec = Spectrum(n, tuple(range(n)))
    vec = shift_eigenvector(pair, 3)
    map_operator(basis, np.eye(n))
    wigner_of_density(basis, np.outer(vec, vec.conj()))
    clock_run(pair, basis, decompose_spectrum(spec), spec, 0, 2 * n)
    assert "elements" not in vars(basis)

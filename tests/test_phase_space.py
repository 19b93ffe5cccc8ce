import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclock.phase_space
from qclock import (
    DimensionMismatch,
    NoConvergence,
    NotADensityMatrix,
    NotHermitian,
    Spectrum,
    build_basis,
    check_density,
    clock_power,
    clock_run,
    decompose_spectrum,
    hermitian_eig,
    map_operator,
    measure_shift_sign,
    shift_eigenvector,
    shift_power,
    shift_vs_evolution_residual,
    unmap_grid,
    wigner_of_density,
)
from qclock.dynamics import conjugate_diagonal
from qclock.phase_space import _basis_tensor
from conftest import cached_basis, cached_pair


def all_elements(dim):
    elements = _basis_tensor(cached_pair(dim))
    return [elements[m, nn] for m in range(dim) for nn in range(dim)]


def test_unit_traces_n3():
    for g in all_elements(3):
        assert abs(np.trace(g) - 1.0) < 1e-12


def test_hermiticity_n3():
    for g in all_elements(3):
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_orthogonality_spot_n5():
    elements = _basis_tensor(cached_pair(5))
    inner = np.vdot(elements[0, 0], elements[1, 2])
    assert abs(inner) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_orthogonality_full_gram(dim):
    flat = _basis_tensor(cached_pair(dim)).reshape(dim * dim, dim * dim)
    gram = flat.conj() @ flat.T
    assert np.max(np.abs(gram - dim * np.eye(dim * dim))) < 1e-10


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_sum_of_elements_is_scaled_identity(dim):
    total = _basis_tensor(cached_pair(dim)).sum(axis=(0, 1))
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


def test_check_density_names_the_eigenvalue_of_a_huge_finite_matrix():
    # exactly Hermitian, so it is not symmetrized: rho + rho^dag would overflow to inf
    rho = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotADensityMatrix, match="negative eigenvalue"):
            check_density(rho)


def test_check_density_lapack_failure_is_no_convergence(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergence, match="did not converge"):
        check_density(np.eye(3) / 3)


# one defect per band: exactly Hermitian, within hermitian_eig's 1e-12 gate, above it
@pytest.mark.parametrize("defect", [0.0, 1e-13, 1e-11])
@pytest.mark.parametrize("smallest", [-9.8e-11, -1.02e-10])
def test_check_density_reads_the_eigenvalues_of_the_symmetrized_density(defect, smallest):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    levels = np.array([smallest, 0.1, 0.2, 0.3, 0.4 - smallest])
    rho = (q * levels) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    # an anti-Hermitian part with a zero diagonal leaves the trace real
    skew = rng.uniform(-1.0, 1.0, size=(5, 5))
    skew = np.triu(skew, 1) + np.triu(skew, 1).T
    rho = rho + 0.5j * defect * skew / np.abs(skew).max()
    measured = float(np.abs(rho - rho.conj().T).max())
    assert (0.5 * defect < measured < 2 * defect) if defect else measured == 0.0

    reference = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if reference >= -1e-10:
        assert smallest > -1e-10
        check_density(rho)
    else:
        assert smallest < -1e-10
        with pytest.raises(NotADensityMatrix, match=f"^negative eigenvalue {reference:.3e}$"):
            check_density(rho)


# --- the density and eigen guards against reference copies ---------------------
#
# The references take every step: check_density symmetrizes each matrix before
# its eigenvalues, and the shift-vs-evolution residual checks rho again before
# its map and rolls the grid.  On every input the guards must give the
# same verdict, the same message and the same bits.


def reference_hermitian_eig(a, vectors=True):
    arr = np.asarray(a, dtype=np.complex128)
    defect = float(np.abs(arr - arr.conj().T).max())
    if defect > 1e-12:
        raise NotHermitian(f"max |A - A^dag| = {defect:.3e} exceeds 1e-12")
    work = 0.5 * (arr + arr.conj().T)
    if not vectors:
        return np.linalg.eigvalsh(work), None
    return np.linalg.eigh(work)


def reference_check_density(rho):
    rho = np.asarray(rho, dtype=np.complex128)
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > 1e-10:
        raise NotADensityMatrix(f"not Hermitian: max |rho - rho^dag| = {defect:.3e}")
    trace_defect = abs(complex(rho.trace()) - 1.0)
    if trace_defect > 1e-10:
        raise NotADensityMatrix(f"trace differs from 1 by {trace_defect:.3e}")
    smallest = float(reference_hermitian_eig(0.5 * (rho + rho.conj().T), vectors=False)[0][0])
    if smallest < -1e-10:
        raise NotADensityMatrix(f"negative eigenvalue {smallest:.3e}")
    return rho


def reference_shift_vs_evolution_residual(pair, basis, decomp, rho, n_steps):
    rho = reference_check_density(rho)
    sign = measure_shift_sign(pair, decomp)
    evolved = rho
    for _ in range(n_steps):
        evolved = conjugate_diagonal(evolved, decomp.tick_phases(1))
    direct_grid = map_operator(basis, reference_check_density(evolved))
    shifted_grid = map_operator(basis, reference_check_density(rho))
    for _ in range(n_steps):
        shifted_grid = np.roll(shifted_grid, sign * decomp.k, axis=1)
    return float(np.max(np.abs(direct_grid - shifted_grid)))


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome compared
        return type(exc), str(exc)


def same_outcome(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        return got == want
    if isinstance(want, tuple):  # eigen pairs: (values, vectors or None)
        return all(same_outcome(g, w) for g, w in zip(got, want))
    if want is None or isinstance(want, float):
        return got == want or repr(got) == repr(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def near_densities(draw):
    """Densities with the smallest eigenvalue near -1e-10, made non-Hermitian by 0 to about 2e-10."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smallest = draw(st.sampled_from([0.0, 1e-3, -5e-11, -9.9e-11, -1e-10, -1.01e-10, -2e-10, -1e-6]))
    levels = rng.uniform(0.0, 1.0, size=n)
    levels[0] = smallest
    if n > 1:
        levels[1:] *= (1.0 - smallest) / levels[1:].sum()
    basis_kind = draw(st.sampled_from(["unitary", "diagonal", "real"]))
    if basis_kind == "unitary":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    elif basis_kind == "real":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    else:
        q = np.eye(n)
    rho = (q * levels) @ q.conj().T
    hermiticity = draw(st.sampled_from(["exact", "as-built", 1e-13, 1e-12, 6e-13, 1e-11, 5e-11, 1e-10, 2e-10]))
    if hermiticity == "exact":
        rho = 0.5 * (rho + rho.conj().T)
    elif hermiticity != "as-built":
        noise = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
        rho = rho + 0.5 * hermiticity * noise
    return rho + np.eye(n) * draw(st.sampled_from([0.0, 0.0, 0.0, 3e-11, 2e-10])) / n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_densities())
def test_density_and_eigen_guards_equal_their_reference_code(rho):
    assert same_outcome(outcome(check_density, rho), outcome(reference_check_density, rho))
    for vectors in (True, False):
        want = outcome(reference_hermitian_eig, rho, vectors=vectors)
        got = outcome(hermitian_eig, rho, vectors=vectors)
        if not isinstance(got, tuple):
            got = (got.values, got.vectors)
        assert same_outcome(got, want)
    n = rho.shape[0]
    if n in (3, 5):
        pair, basis = cached_pair(n), cached_basis(n)
        spec = Spectrum(n, tuple(2 * m + n * ((m % 3) - 1) for m in range(n)))
        decomp = decompose_spectrum(spec)
        for n_steps in (0, 1, n):
            want = outcome(reference_shift_vs_evolution_residual, pair, basis, decomp, rho, n_steps)
            got = outcome(shift_vs_evolution_residual, pair, basis, decomp, spec, rho, n_steps)
            assert same_outcome(got, want)


def map_by_elements(elements, op):
    return np.einsum("mnrs,rs->mn", elements.conj(), op)


def unmap_by_elements(elements, grid):
    return np.einsum("mn,mnrs->rs", grid, elements) / grid.shape[-1]


@pytest.mark.parametrize("dim", [3, 5, 7, 11, 13])
def test_maps_agree_with_elements(dim):
    basis = cached_basis(dim)
    elements = _basis_tensor(cached_pair(dim))
    rng = np.random.default_rng(200 + dim)
    for _ in range(5):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.max(np.abs(map_operator(basis, op) - map_by_elements(elements, op))) < 1e-12
        assert np.max(np.abs(unmap_grid(basis, op) - unmap_by_elements(elements, op))) < 1e-12


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
    elements = _basis_tensor(cached_pair(op.shape[0]))
    scale = max(1.0, float(np.max(np.abs(op))))
    grid = map_operator(basis, op)
    assert np.max(np.abs(grid - map_by_elements(elements, op))) < 1e-12 * scale
    assert np.max(np.abs(unmap_grid(basis, op) - unmap_by_elements(elements, op))) < 1e-12 * scale
    assert np.max(np.abs(unmap_grid(basis, grid) - op)) < 1e-12 * scale


def looped_basis_tensor(pair):
    """The basis tensor with one dense clock^j @ shift^l product per term, as a reference."""
    n = pair.dim
    half = (n - 1) // 2
    sym = np.arange(-half, half + 1)
    weighted = np.empty((n, n, n, n), dtype=np.complex128)
    for a, j in enumerate(sym):
        for b, l in enumerate(sym):
            half_phase = np.exp(1j * np.pi * ((j * l) % (2 * n)) / n)
            weighted[a, b] = (clock_power(pair, j) @ shift_power(pair, l)) * half_phase
    fourier = np.exp(-2j * np.pi * (np.outer(np.arange(n), sym) % n) / n)
    partial = np.tensordot(fourier, weighted, axes=(1, 0))
    return np.einsum("nb,mbrs->mnrs", fourier, partial) / n


@pytest.mark.parametrize("dim", [3, 5, 7, 11, 13, 31])
def test_basis_tensor_is_the_looped_sum_bit_for_bit(dim):
    pair = cached_pair(dim)
    elements = _basis_tensor(pair)
    assert not elements.flags.writeable
    assert elements.tobytes() == looped_basis_tensor(pair).tobytes()


@pytest.mark.parametrize("dim", [3, 31])
def test_basis_shares_the_pair_fourier_table(dim):
    pair = cached_pair(dim)
    basis = build_basis(pair)
    assert [field.name for field in dataclasses.fields(basis)] == ["dim", "fourier", "half_phase", "rows", "cols"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.half_phase = np.zeros((dim, dim))
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

"""Sector solvers: assembly structure, manufactured convergence, coercivity."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from planeangle.core import GridFunction, IncompatibleGrid, SectorGrid, make_geometry
from planeangle.difference_ops import (
    apply_on_grid,
    column_shift_operator,
    two_sector_operator,
)
from planeangle.manufactured import dd_problem, error_norm, nonlocal_problem
from planeangle import sector_solver
from planeangle.pencil import PoissonPencilProblem, eigenvalues_closed_form
from planeangle.sector_solver import (
    DDProblem,
    NonlocalPoissonProblem,
    SingularSystem,
    SolverFailure,
    _angular_basis,
    _coercivity_bracket,
    _interior,
    _kronecker_factors,
    _radial_solve,
    angular_matrix,
    assemble_dd_system,
    boundary_lifting,
    discrete_coercivity,
    laplacian_matrix,
    lifting_cutoff,
    nonlocal_boundary_residual,
    shift_matrix_on_grid,
    solve_dd,
    solve_nonlocal_poisson,
)

B1 = np.pi / 6
GEO = make_geometry([B1, B1 + 0.5 * np.pi, B1 + np.pi])
R_MIN, R_MAX = 0.5, 3.0


def test_assembly_reduces_to_laplacian_when_uncoupled():
    # with alpha = beta = 0 both the system of v = M w and the composite
    # system of w, built by the reference builders, are the stencil on the
    # interior columns
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    p = DDProblem(0.0, 0.0, GEO, zero, R_MIN, R_MAX)
    A = laplacian_matrix(grid)[:, _interior(grid)]
    for S in (assemble_dd_system(p, grid)[0], _composite_system(p, grid)):
        assert abs(S - A).max() < 1e-14


def _shift_on_interior_lines(p, grid):
    """I x M_int: the column shift on the interior columns of each interior line."""
    M_int = column_shift_operator(p.operator(), grid)[1:-1, 1:-1]
    return sp.kron(sp.identity(grid.n_r - 1), M_int, format="csr")


def test_interior_row_stencil_width():
    # the system of v = M w is the five-point stencil with the ray columns
    # folded onto the middle column: at most 5 entries a row, 4 on the
    # first and last lines, which lack the line below or above.  In the
    # composite S = S_v (I x M_int) each shift target away from the middle
    # ray contributes once, so a row touches at most 10 columns (5-point
    # stencil x 2 shifts); rows whose stencil reaches the middle column see
    # both shifts land inside the angle there and can touch up to 13
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    p = DDProblem(0.7, -0.3, GEO, zero, R_MIN, R_MAX)
    S_v, _ = assemble_dd_system(p, grid)
    n_cols = grid.n_phi - 1  # interior unknowns per radial line, j = 1..n_phi-1
    counts = np.diff(S_v.indptr).reshape(grid.n_r - 1, n_cols)
    assert np.all(counts[[0, -1]] == 4) and np.all(counts[1:-1] == 5)
    counts = np.diff((S_v @ _shift_on_interior_lines(p, grid)).indptr)
    s = grid.shift_columns
    assert counts.max() <= 13
    for row in range(counts.size):
        j = row % n_cols + 1
        if abs(j - s) > 1:
            assert counts[row] <= 10


def test_laplacian_matrix_exact_on_quadratic():
    # central differences are exact on u = r^2 + phi^2, where
    # -(u_rr + u_r/r + u_phiphi/r^2) + u = -(4 + 2/r^2) + u
    grid = SectorGrid(GEO, R_MIN, R_MAX, 12, 16)
    r, phi = grid.meshgrid()
    u = r**2 + phi**2
    A = laplacian_matrix(grid)
    # one row per interior node, one column per node
    assert A.shape == (11 * 15, 13 * 17)
    got = A @ u.ravel()
    want = (-(4.0 + 2.0 / r**2) + u)[1:-1, 1:-1].ravel()
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _laplacian_by_columns(grid):
    """The stencil as first assembled: coefficients repeated over every
    interior node and stacked by np.column_stack, int64 column indices that
    the CSR constructor casts down."""
    width = grid.n_phi + 1
    rows = _interior(grid)
    r = np.repeat(grid.r_nodes[1:-1], grid.n_phi - 1)
    radial, up, down = sector_solver._radial_stencil(r, grid.dr)
    cp = 1.0 / (r**2 * grid.dphi**2)
    cols = rows[:, None] + np.array([-width, -1, 0, 1, width])
    vals = np.column_stack([down, -cp, radial + 2.0 * cp, -cp, up])
    return sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, 5)),
        shape=(rows.size, width * (grid.n_r + 1)),
    )


def _composite_system(p, grid):
    """S = A M[:, interior], the system of w, from the reference builders."""
    return _laplacian_by_columns(grid) @ shift_matrix_on_grid(p.operator(), grid)[:, _interior(grid)]


def _direct_solve(S, b):
    """The oracle: S x = b by scipy's sparse LU of S, for real or complex b."""
    return sector_solver._on_parts(spla.splu(S.tocsc()).solve, b)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    assert got.indptr.dtype == got.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


CSR_GRIDS = pytest.mark.parametrize("n_r, n_phi", [(3, 4), (12, 4), (6, 10), (20, 12), (256, 256)])
# a zero coupling leaves a diagonal out of C, and (1.5, 1.0) at s = 2 sums
# colliding products to exact zeros, which a sparse product drops
CSR_COUPLINGS = ((0.3, -0.8), (0.0, 0.0), (1.5, 1.0), (0.0, -0.8), (0.7, 0.0))


@CSR_GRIDS
def test_direct_csr_assembly_is_bit_identical(n_r, n_phi):
    # laplacian_matrix writes its CSR arrays directly; they must equal the
    # column_stack construction array for array
    grid = SectorGrid(GEO, R_MIN, R_MAX, n_r, n_phi)
    _assert_same_csr(laplacian_matrix(grid), _laplacian_by_columns(grid))


def _sorted(S):
    S = S.copy()
    S.sort_indices()
    return S


@CSR_GRIDS
def test_folded_stencil_is_the_system_of_v(n_r, n_phi):
    # assemble_dd_system returns S_v = D_r x I + diag(1/r^2) x T, T the
    # folded angular matrix that the separable path diagonalizes, and
    # S_v (I x M_int) is the reference A M[:, interior] bit for bit once
    # both are sorted.  n_phi = 4 (s = 2) folds a ray column onto a stencil
    # neighbour in rows j = 1 and j = 3
    grid = SectorGrid(GEO, R_MIN, R_MAX, n_r, n_phi)
    r = grid.r_nodes[1:-1]
    main, up, down = sector_solver._radial_stencil(r, grid.dr)
    D_r = sp.diags([down[1:], main, up[:-1]], [-1, 0, 1])
    identity = sp.identity(n_phi - 1)
    zero = GridFunction(grid, np.zeros((n_r + 1, n_phi + 1)))
    for alpha, beta in CSR_COUPLINGS:
        p = DDProblem(alpha, beta, GEO, zero, R_MIN, R_MAX)
        S_v, _ = assemble_dd_system(p, grid)
        want = sp.kron(D_r, identity) + sp.kron(sp.diags(1.0 / r**2), angular_matrix(alpha, beta, grid))
        assert abs(S_v - want).max() <= 1e-14 * abs(want).max()
        assert np.diff(S_v.indptr).max() <= 5
        assert _sorted(S_v).has_canonical_format  # one entry per column
        _assert_same_csr(_sorted(S_v @ _shift_on_interior_lines(p, grid)), _sorted(_composite_system(p, grid)))


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.7, -0.3), (-1.2, 0.5)])
def test_shift_matrix_matches_apply_on_grid(alpha, beta):
    grid = SectorGrid(GEO, R_MIN, R_MAX, 6, 10)
    op = two_sector_operator(alpha, beta, GEO)
    rng = np.random.default_rng(5)
    u = GridFunction(grid, rng.standard_normal((7, 11)) + 1j * rng.standard_normal((7, 11)))
    got = shift_matrix_on_grid(op, grid) @ u.values.ravel()
    assert np.allclose(got, apply_on_grid(op, u).values.ravel(), rtol=0.0, atol=1e-14)


def test_system_nonsingular_inside_regime():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    for alpha, beta in ((0.9, 0.9), (-0.9, -0.9), (0.3, -0.8), (1.2, 0.5)):
        p = DDProblem(alpha, beta, GEO, zero, R_MIN, R_MAX)
        lu = np.linalg.slogdet(_composite_system(p, grid).toarray())
        assert np.isfinite(lu[1]) and lu[0] != 0.0


def test_solve_dd_zero_rhs():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    res = solve_dd(DDProblem(0.9, 0.9, GEO, zero, R_MIN, R_MAX), grid)
    assert np.all(res.solution.values == 0.0)
    assert res.equation_residual == 0.0


def test_solve_dd_residual_certified():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 24, 24)
    p, _ = dd_problem(0.9, 0.9, grid)
    res = solve_dd(p, grid)
    b_norm = np.linalg.norm(p.rhs.values)
    assert res.equation_residual <= 1e-10 * max(b_norm, 1.0)
    assert np.all(res.solution.values[:, 0] == 0.0)
    assert np.all(res.solution.values[:, -1] == 0.0)


SEPARABLE_COUPLINGS = [
    (0.3, -0.8),
    (1.5, 0.3),
    (-1.5, -0.3),
    (0.999, 0.999),
    (0.0, 0.0),
    (-0.9, 0.95),
]


@pytest.mark.parametrize("alpha,beta", SEPARABLE_COUPLINGS)
@pytest.mark.parametrize("n", [32, 64])
def test_separable_solve_matches_sparse_lu(alpha, beta, n):
    # the sparse LU of the composite system from the reference builders is
    # the oracle; (0.999, 0.999) has the worst-conditioned eigenvector
    # matrix inside the regime (44.7)
    grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
    rng = np.random.default_rng(n)
    shape = (n + 1, n + 1)
    f = GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    p = DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX)
    res = solve_dd(p, grid)
    assert res.info["method"] == "separable"
    assert res.info["cond_V"] <= 50.0
    want = _direct_solve(_composite_system(p, grid), assemble_dd_system(p, grid)[1])
    got = res.solution.values[1:-1, 1:-1].ravel()
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_dd_falls_back_to_the_radial_solve():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    f = GridFunction(grid, np.random.default_rng(1).standard_normal((17, 17)))
    # |alpha+beta| > 2: the folded angular matrix has no real eigenbasis
    res = solve_dd(DDProblem(1.5, 1.0, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "radial"
    assert 0.0 < res.equation_residual <= 1e-8 * res.info["rhs_norm"]
    # alpha = beta = 1: defective angular matrix and a singular system
    with pytest.raises(SingularSystem):
        solve_dd(DDProblem(1.0, 1.0, GEO, f, R_MIN, R_MAX), grid)


@pytest.mark.parametrize("alpha, beta", [(1.5, 1.0), (-1.5, -1.0)])
def test_radial_fallback_factors_the_angular_blocks_in_natural_order(alpha, beta, monkeypatch):
    # outside the regime one factor is made, in natural order, of the
    # block-diagonal matrix whose block i is T + lam_i I, T the folded
    # angular matrix and lam the radial eigenvalues; the residual gate
    # still holds with room to spare
    seen = []
    splu = spla.splu

    def spy(M, *args, **kwargs):
        seen.append((M.copy(), kwargs))
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 128, 128)
    p, _ = dd_problem(alpha, beta, grid)
    res = solve_dd(p, grid)
    assert res.info["method"] == "radial"
    assert [kwargs for _, kwargs in seen] == [{"permc_spec": "NATURAL", "relax": 1, "panel_size": 1}]
    T = angular_matrix(alpha, beta, grid)
    blocks = sp.block_diag([T + lam * np.eye(T.shape[0]) for lam in _kronecker_factors(p, grid)[1]])
    assert abs(seen[0][0] - blocks).max() == 0.0
    assert 0.0 < res.equation_residual <= 1e-11 * res.info["rhs_norm"]
    # alpha = beta = 1: 1 - alpha*beta = 0 makes the column shift singular,
    # refused before any factor
    with pytest.raises(SingularSystem):
        solve_dd(dd_problem(1.0, 1.0, grid)[0], grid)
    assert len(seen) == 1


# both sides of |alpha+beta| = 2, and inside the regime the worst
# conditioned angular basis (0.999, 0.999), where the separable path answers
RADIAL_COUPLINGS = [(1.5, 1.0), (-1.5, -1.0), (2.5, 1.5), (-3.0, 0.5), (0.3, -0.8), (0.999, 0.999)]


@pytest.mark.parametrize("alpha,beta", RADIAL_COUPLINGS)
@pytest.mark.parametrize("n", [16, 32, 64])
def test_radial_solve_matches_sparse_lu(alpha, beta, n):
    # the sparse LU of the composite system from the reference builders is
    # the oracle; real data give a real w and complex data a complex one
    grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
    p = DDProblem(alpha, beta, GEO, None, R_MIN, R_MAX)
    S = _composite_system(p, grid)
    rng = np.random.default_rng(n)
    real = rng.standard_normal(S.shape[0])
    for b in (real, real + 1j * rng.standard_normal(S.shape[0])):
        want = _direct_solve(S, b)
        got = _radial_solve(p, grid, b)
        assert got.dtype == b.dtype
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha,beta", [(1.5, 1.0), (-1.5, -1.0)])
def test_radial_solve_second_order_convergence(alpha, beta):
    # outside the regime the radial solve alone answers
    errs = []
    for n in (64, 128, 256):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        p, exact = nonlocal_problem(alpha, beta, grid)
        res = solve_nonlocal_poisson(p, grid)
        assert res.info["method"] == "radial"
        errs.append(error_norm(res.solution, exact))
    for i in range(2):
        assert 1.7 <= np.log2(errs[i] / errs[i + 1]) <= 2.3


# the first coupling alpha = beta = sigma/2 at which S_v is singular on the
# 32 x 32 test grid: an angular eigenvalue mu_k meets -lam_0
SIGMA_0 = -30.8188552558


def test_solve_near_the_first_singular_coupling():
    # the solution grows like 1/|sigma - SIGMA_0|, and with it the residual
    # rounding leaves, so the gate refuses at SIGMA_0 and 1e-6 away and
    # passes 1e-3 away
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(1).standard_normal((33, 33)))
    p = DDProblem(SIGMA_0 / 2, SIGMA_0 / 2, GEO, f, R_MIN, R_MAX)
    mu = np.linalg.eigvals(angular_matrix(p.alpha, p.beta, grid))
    assert np.min(np.abs(mu + _kronecker_factors(p, grid)[1][0])) <= 1e-10 * np.max(np.abs(mu))
    for sigma in (SIGMA_0, SIGMA_0 + 1e-6):
        with pytest.raises(SolverFailure, match="radial solve residual"):
            solve_dd(dataclasses.replace(p, alpha=sigma / 2, beta=sigma / 2), grid)
    res = solve_dd(dataclasses.replace(p, alpha=(SIGMA_0 - 1e-3) / 2, beta=(SIGMA_0 - 1e-3) / 2), grid)
    assert res.info["method"] == "radial"
    assert res.equation_residual <= 1e-8 * res.info["rhs_norm"]


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5), (-1.0, -1.0)])
def test_singular_shift_is_refused_before_any_factor(alpha, beta, monkeypatch):
    # 1 - alpha*beta = 0 makes the 2x2 blocks of the column shift singular;
    # an ordered LU of S took 5-9 s to find that at n = 128, minutes at 256
    calls = []
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: calls.append(args))
    grid = SectorGrid(GEO, R_MIN, R_MAX, 256, 256)
    for build, solve in ((dd_problem, solve_dd), (nonlocal_problem, solve_nonlocal_poisson)):
        with pytest.raises(SingularSystem, match="1 - alpha\\*beta = 0"):
            solve(build(alpha, beta, grid)[0], grid)
    assert calls == []


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("alpha, beta", [(0.3, -0.8), (1.5, 1.0)])
def test_non_finite_rhs_is_a_solver_failure(alpha, beta, bad):
    # on both paths, the separable one and the radial one: with ||b|| = inf
    # or nan, the residual gate 1e-8*||b|| cannot reject a solution
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    values = np.zeros((9, 9))
    values[4, 4] = bad
    f = GridFunction(grid, values)
    with pytest.raises(SolverFailure, match="right-hand side is not finite"):
        solve_dd(DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX), grid)


@pytest.mark.parametrize("beta", [0.5 - 1e-8, 0.5 - 1e-10])
def test_solve_dd_near_the_regime_edge_falls_back(beta):
    # alpha + beta just below 2 with alpha*beta far from 1: S is well
    # conditioned, but cond(V) is about 2e8 and 2e10, so the separable
    # solution fails the residual gate and the radial solve answers
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(1).standard_normal((33, 33)))
    res = solve_dd(DDProblem(1.5, beta, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "radial"
    assert res.info["cond_V"] > 1e8
    assert 0.0 < res.equation_residual <= 1e-8 * res.info["rhs_norm"]


@pytest.mark.parametrize("alpha,beta", SEPARABLE_COUPLINGS)
@pytest.mark.parametrize("n_phi", [16, 64, 256])
def test_angular_basis_matches_eig(alpha, beta, n_phi):
    # np.linalg.eig of the dense angular matrix is the oracle
    grid = SectorGrid(GEO, R_MIN, R_MAX, 4, n_phi)
    T = angular_matrix(alpha, beta, grid)
    mu, V, W = _angular_basis(alpha, beta, grid)
    assert mu.shape == (n_phi - 1,) and V.shape == W.shape == (n_phi - 1, n_phi - 1)
    assert np.linalg.norm(T @ V - V * mu) <= 1e-13 * np.linalg.norm(T)
    # W is the closed-form inverse: its rows are left eigenvectors of T
    assert np.linalg.norm(W @ V - np.eye(n_phi - 1)) <= 1e-10
    assert np.linalg.norm(T.T @ W.T - W.T * mu) <= 1e-13 * np.linalg.norm(T) * np.linalg.norm(W)
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0.0, atol=1e-14)
    mu_eig, V_eig = np.linalg.eig(T)
    assert np.isrealobj(mu_eig)
    assert np.max(np.abs(np.sort(mu) - np.sort(mu_eig))) <= 1e-12 * np.max(mu_eig)
    cond = np.linalg.cond(V)
    if cond <= 50.0:
        assert abs(cond - np.linalg.cond(V_eig)) <= 1e-6 * cond


@pytest.mark.parametrize("alpha,beta", [(1.5, 1.0), (1.0, 1.0), (-1.5, -0.6)])
def test_angular_basis_none_outside_the_regime(alpha, beta):
    # |alpha+beta| >= 2: the second family has no real angle
    assert _angular_basis(alpha, beta, SectorGrid(GEO, R_MIN, R_MAX, 4, 16)) is None


def test_solve_dd_makes_no_dense_eigendecomposition(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(3).standard_normal((33, 33)))
    res = solve_dd(DDProblem(0.3, -0.8, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "separable"
    res = solve_dd(DDProblem(1.5, 1.0, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "radial"
    assert res.info["cond_V"] == np.inf


def test_solve_dd_makes_no_dense_factorization(monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("dense factorization called")

    for name in ("solve", "inv", "svd", "cond"):
        monkeypatch.setattr(np.linalg, name, no_factor)
    monkeypatch.setattr(sla, "lu_factor", no_factor)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(3).standard_normal((33, 33)))
    res = solve_dd(DDProblem(0.3, -0.8, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "separable"


@pytest.mark.parametrize("alpha,beta", SEPARABLE_COUPLINGS)
@pytest.mark.parametrize("n", [32, 64])
def test_cond_V_estimates_the_2_norm_condition_number(alpha, beta, n):
    # power steps bound each norm from below, so the estimate never exceeds
    # cond(V); 10 steps came within 0.988 of it over n = 16 ... 512
    grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
    f = GridFunction(grid, np.random.default_rng(n).standard_normal((n + 1, n + 1)))
    res = solve_dd(DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX), grid)
    cond = np.linalg.cond(_angular_basis(alpha, beta, grid)[1])
    assert 0.95 * cond <= res.info["cond_V"] <= cond * (1.0 + 1e-12)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "real", "zero_imag", "imag", "zero"])
def test_on_parts_matches_stacked_parts(layout):
    # complex data, whatever their parts: the float view hands the real map
    # the same (N, 2) array, bit for bit, as stacking the real and imaginary
    # parts did, and the result is complex; real data go as their one
    # column and give a real result.  The dtype decides, not the values:
    # real fields are float64 (GridFunction)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    x = {
        "contiguous": z[:, 0].copy(),
        "strided": z[:, 1],
        "real": z[:, 2].real.copy(),
        "zero_imag": z[:, 2].real + 0j,
        "imag": 1j * z[:, 2].imag,
        "zero": np.zeros(40, complex),
    }[layout]
    M = sp.random(30, 40, density=0.2, random_state=1, format="csr")
    seen = []

    def real_map(parts):
        seen.append(parts.copy())
        return M @ parts

    got = sector_solver._on_parts(real_map, x)
    assert len(seen) == 1 and got.shape == (30,)
    if layout == "real":
        assert got.dtype == np.float64 and seen[0].shape == (40, 1)
        assert seen[0].tobytes() == x.tobytes()
        assert got.tobytes() == (M @ x).tobytes()
    else:
        stacked = np.column_stack([x.real, x.imag])
        want = M @ stacked
        assert got.dtype == complex
        assert seen[0].tobytes() == stacked.tobytes() and seen[0].shape == stacked.shape
        assert got.tobytes() == (want[:, 0] + 1j * want[:, 1]).tobytes()


LINEARITY_COUPLINGS = [(0.3, -0.8), (0.999, 0.999), (-0.9, 0.95), (1.5, 1.0)]


@pytest.mark.parametrize("alpha,beta", LINEARITY_COUPLINGS)
@pytest.mark.parametrize("n", [32, 64])
def test_solve_is_linear_over_the_field(alpha, beta, n):
    # the solve is a real linear map applied to the real and imaginary parts
    # of the data: f1 + i f2 solves to solve(f1) + i solve(f2), and real data
    # give an imaginary part that is exactly 0, on the separable path and on
    # the radial fallback (1.5, 1.0) alike
    grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
    rng = np.random.default_rng(n)
    f1, f2 = rng.standard_normal((2, n + 1, n + 1))

    def solve(f):
        return solve_dd(DDProblem(alpha, beta, GEO, GridFunction(grid, f), R_MIN, R_MAX), grid)

    u1, u2, u = (solve(f) for f in (f1, f2, f1 + 1j * f2))
    assert u.info["method"] == u1.info["method"] == u2.info["method"]
    assert u.info["method"] == ("radial" if alpha + beta >= 2.0 else "separable")
    for part in (u1, u2):
        assert not np.any(part.solution.values.imag)
    want = u1.solution.values + 1j * u2.solution.values
    assert np.linalg.norm(u.solution.values - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("alpha,beta", [(0.3, -0.8), (1.5, 1.0)])
def test_real_data_solve_to_float64_fields(alpha, beta):
    # real data are real arrays from the rhs to the solution, on the
    # separable path and on the radial fallback (1.5, 1.0) alike
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    dd = solve_dd(dd_problem(alpha, beta, grid)[0], grid)
    nonlocal_ = solve_nonlocal_poisson(nonlocal_problem(alpha, beta, grid)[0], grid)
    assert dd.info["method"] == nonlocal_.info["method"]
    assert dd.info["method"] == ("radial" if alpha + beta >= 2.0 else "separable")
    fields = [dd.solution, nonlocal_.solution, nonlocal_.info["w"], nonlocal_.info["lifting"]]
    assert [u.values.dtype for u in fields] == [np.float64] * 4


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (0.3, -0.8), (-1.2, 0.5)])
@pytest.mark.parametrize("n_phi", [32, 128])
def test_angular_spectrum_is_the_discrete_pencil_spectrum(alpha, beta, n_phi):
    # exact on every grid: the eigenvalues of the folded angular matrix are
    # 4 sin^2(eta h/2)/h^2 over the pencil eigenvalues i*eta, 0 < eta < pi/h
    b1, _, b3 = GEO.angles
    grid = SectorGrid(GEO, R_MIN, R_MAX, 4, n_phi)
    h = grid.dphi
    pencil = PoissonPencilProblem(alpha, beta, b1, b3)
    eta = eigenvalues_closed_form(pencil, (0.0, np.pi / h)).values.imag
    eta = np.sort(eta[(eta > 0.0) & (eta < np.pi / h)])
    want = 4.0 * np.sin(eta * h / 2.0) ** 2 / h**2
    mu = np.linalg.eigvals(angular_matrix(alpha, beta, grid))
    assert np.isrealobj(mu) and mu.size == want.size
    assert np.max(np.abs(np.sort(mu) - want) / want) <= 1e-10


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (0.3, -0.8), (-1.2, 0.5)])
def test_angular_spectrum_converges_to_pencil_eigenvalues(alpha, beta):
    # sqrt of the six smallest eigenvalues of the folded angular matrix
    # against the six smallest positive Im lambda of the nonlocal pencil
    b1, _, b3 = GEO.angles
    pencil = PoissonPencilProblem(alpha, beta, b1, b3)
    im = eigenvalues_closed_form(pencil, (0.0, 20.0)).values.imag
    want = np.sort(im[im > 0.0])[:6]
    errs = []
    for n_phi in (32, 64, 128):
        grid = SectorGrid(GEO, R_MIN, R_MAX, 4, n_phi)
        mu = np.linalg.eigvals(angular_matrix(alpha, beta, grid))
        assert np.all(mu.imag == 0.0)
        errs.append(np.max(np.abs(np.sqrt(np.sort(mu.real)[:6]) - want)))
    assert errs[-1] <= 0.01
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.9, 0.9), (0.3, -0.8)])
def test_solve_dd_second_order_convergence(alpha, beta):
    errs = []
    for n in (16, 32, 64):
        p, exact = dd_problem(alpha, beta, SectorGrid(GEO, R_MIN, R_MAX, n, n))
        errs.append(error_norm(solve_dd(p, exact.grid).solution, exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3


def test_nonlocal_zero_data():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    z = lambda r: np.zeros_like(r)
    p = NonlocalPoissonProblem(0.9, 0.9, GEO, zero, z, z, R_MIN, R_MAX)
    res = solve_nonlocal_poisson(p, grid)
    assert np.all(res.solution.values == 0.0)
    assert res.boundary_residual == 0.0


@pytest.mark.parametrize("alpha,beta", [(0.9, 0.9), (0.3, -0.8)])
def test_nonlocal_second_order_convergence(alpha, beta):
    errs, bres = [], []
    for n in (16, 32, 64):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        p, exact = nonlocal_problem(alpha, beta, grid)
        res = solve_nonlocal_poisson(p, grid)
        errs.append(error_norm(res.solution, exact))
        bres.append(res.boundary_residual)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3
    # the ray conditions are satisfied to solver accuracy at every resolution
    assert max(bres) <= 1e-10


def test_nonlocal_n512_second_order():
    # the finest level of the convergence study, on the separable path
    errs = []
    for n in (256, 512):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        p, exact = nonlocal_problem(0.3, -0.8, grid)
        res = solve_nonlocal_poisson(p, grid)
        assert res.info["method"] == "separable"
        assert res.boundary_residual <= 1e-10
        errs.append(error_norm(res.solution, exact))
    assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3


def test_nonlocal_equation_residual_at_roundoff():
    # the boundary values of w are known zeros, not unknowns, so nothing
    # after the factorization moves the interior residual off roundoff
    grid = SectorGrid(GEO, R_MIN, R_MAX, 128, 128)
    p, _ = nonlocal_problem(0.3, -0.8, grid)
    res = solve_nonlocal_poisson(p, grid)
    assert res.equation_residual <= 1e-11 * np.linalg.norm(p.rhs.values[1:-1, 1:-1])


def test_nonlocal_boundary_conditions_discretely_exact():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    p, _ = nonlocal_problem(0.6, 0.4, grid)
    res = solve_nonlocal_poisson(p, grid)
    assert nonlocal_boundary_residual(p, grid, res.solution) <= 1e-11


def test_substitution_consistency_homogeneous_data():
    # with g1 = g3 = 0 the lifting vanishes and u = R_K w exactly
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    z = lambda r: np.zeros_like(r)
    p = dataclasses.replace(nonlocal_problem(0.5, -0.5, grid)[0], g1=z, g3=z)
    res = solve_nonlocal_poisson(p, grid)
    op = two_sector_operator(0.5, -0.5, GEO)
    w = res.info["w"]
    reconstructed = apply_on_grid(op, w).values
    scale = max(np.max(np.abs(res.solution.values)), 1.0)
    assert np.max(np.abs(res.solution.values - reconstructed)) <= 1e-13 * scale


def test_recovered_w_trace_identities():
    # w vanishes on both rays; its middle-ray trace matches the inverse
    # shift-matrix combination of the homogeneous-part traces
    alpha, beta = 0.6, 0.4
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    p, _ = nonlocal_problem(alpha, beta, grid)
    res = solve_nonlocal_poisson(p, grid)
    w = res.info["w"].values
    s = grid.shift_columns
    assert np.all(w[:, 0] == 0.0)
    assert np.all(w[:, -1] == 0.0)
    # u_tilde = R_K w is the homogeneous part of the solution
    op = two_sector_operator(alpha, beta, GEO)
    ut = apply_on_grid(op, res.info["w"]).values
    factor = 1.0 / (1.0 - alpha * beta)
    lhs = w[:, s]
    rhs_1 = factor * (ut[:, s] + alpha * ut[:, -1])
    rhs_2 = factor * (beta * ut[:, 0] + ut[:, s])
    scale = max(np.max(np.abs(w)), 1.0)
    assert np.max(np.abs(lhs - rhs_1)) <= 1e-13 * scale
    assert np.max(np.abs(lhs - rhs_2)) <= 1e-13 * scale


def test_regime_flag_reported():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    z = lambda r: np.zeros_like(r)
    p = NonlocalPoissonProblem(1.5, 1.0, GEO, zero, z, z, R_MIN, R_MAX)
    assert not p.guaranteed_solvable
    res = solve_nonlocal_poisson(p, grid)
    assert res.info["method"] == "radial"


def test_both_solvers_report_one_info_schema():
    # the nonlocal solve reports its w problem's info and adds w and u_g
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    dd = solve_dd(dd_problem(0.6, 0.4, grid)[0], grid)
    nonlocal_ = solve_nonlocal_poisson(nonlocal_problem(0.6, 0.4, grid)[0], grid)
    assert set(nonlocal_.info) == set(dd.info) | {"w", "lifting"}
    assert nonlocal_.info["method"] == dd.info["method"] == "separable"


def test_lifting_cutoff_shape():
    assert lifting_cutoff(np.array([0.0]))[0] == 1.0
    assert np.all(lifting_cutoff(np.linspace(1.0, 3.0, 5)) == 0.0)
    t = np.linspace(0.0, 1.0, 11)
    vals = lifting_cutoff(t)
    assert np.all(np.diff(vals) <= 1e-15)


def test_lifting_vanishes_near_middle_ray():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    g = lambda r: np.ones_like(r)
    p = NonlocalPoissonProblem(0.2, 0.1, GEO, zero, g, g, R_MIN, R_MAX)
    u_g = boundary_lifting(p, grid)
    s = grid.shift_columns
    assert np.all(u_g.values[:, s // 2 + 1 : s + s // 2] == 0.0)
    assert np.allclose(u_g.values[:, 0], 1.0)
    assert np.allclose(u_g.values[:, -1], 1.0)


@pytest.mark.parametrize(
    "alpha,beta,positive",
    [
        (0.0, 0.0, True),
        (0.9, 0.9, True),
        (-0.9, -0.9, True),
        (0.5, -0.5, True),
        (1.25, 1.25, False),
        (-1.9, -1.9, False),
    ],
)
def test_discrete_coercivity_sign(alpha, beta, positive):
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    p = DDProblem(alpha, beta, GEO, zero, R_MIN, R_MAX)
    lam = discrete_coercivity(p, grid)
    assert discrete_coercivity(p, grid) == lam
    # oracle: eigvalsh of the dense weighted symmetric part of the
    # composite system from the reference builders
    S = _composite_system(p, grid).toarray()
    r = np.repeat(grid.r_nodes, 17)[_interior(grid)]
    Sw = (r * grid.dr * grid.dphi)[:, None] * S
    want = np.linalg.eigvalsh(0.5 * (Sw + Sw.T))[0]
    # a certified bound on the side of lambda_min that carries its sign
    if positive:
        assert 0.0 < lam <= want
    else:
        assert want <= lam < 0.0


def _coercivity_case(alpha, beta, n, geo=GEO, r_min=R_MIN, r_max=R_MAX):
    grid = SectorGrid(geo, r_min, r_max, n, n)
    zero = GridFunction(grid, np.zeros((n + 1, n + 1)))
    return DDProblem(alpha, beta, geo, zero, r_min, r_max), grid


def _weighted_symmetric_part(p, grid):
    S = _composite_system(p, grid)
    r = np.repeat(grid.r_nodes, grid.n_phi + 1)[_interior(grid)]
    Sw = sp.diags(r * grid.dr * grid.dphi) @ S
    return 0.5 * (Sw + Sw.T)


def _dense_lambda_min(p, grid):
    H = _weighted_symmetric_part(p, grid).toarray()
    return sla.eigh(H, eigvals_only=True, overwrite_a=True, subset_by_index=[0, 0])[0]


def _definite_below(p, grid, value):
    """Whether value < lambda_min(H): a dense Cholesky of H - value*I
    succeeds exactly when that matrix is positive definite."""
    H = _weighted_symmetric_part(p, grid).toarray()
    H[np.diag_indices_from(H)] -= value
    try:
        sla.cholesky(H, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("alpha,beta", [(0.999, 0.999), (-0.999, -0.999)])
def test_discrete_coercivity_near_the_regime_edge(alpha, beta):
    # |alpha+beta| = 1.998: lambda_min is about 1.3e-5, tiny against the
    # spread of the spectrum, and the floor, about 5.7e-6, still proves H
    # definite; the oracle is a Cholesky of H - floor*I, not an eigensolve
    p, grid = _coercivity_case(alpha, beta, 64)
    lam = discrete_coercivity(p, grid)
    assert 0.0 < lam
    assert _definite_below(p, grid, lam)


def _h_norm(p, grid):
    return spla.norm(_weighted_symmetric_part(p, grid), np.inf)


def _bracket(p, grid):
    return _coercivity_bracket(grid, sector_solver._kronecker_factors(p, grid))


GEO_NARROW = make_geometry([B1, B1 + np.pi / 6, B1 + np.pi / 3])
GEO_WIDE = make_geometry([0.1, 0.1 + 0.9 * np.pi, 0.1 + 1.8 * np.pi])
COUPLINGS = [
    (0.0, 0.0), (0.6, 0.4), (0.999, 0.999), (-0.999, -0.999), (1.8, -1.7),
    (1.0, 1.0), (-1.0, -1.0), (3.0, -1.0),
    (1.001, 1.0), (1.25, 1.25), (-1.9, -1.9), (2.5, 1.5), (-3.0, 0.5), (5.0, -8.0),
]


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.0, 1.0), (-1.0, -1.0), (1.25, 1.25)])
def test_weighted_symmetric_part_is_a_kronecker_sum(alpha, beta):
    # H = dr*dphi*(K x A1 + R^-1 x A2): K = R D_r the symmetric radial matrix,
    # A1 = sym(M_int), A2 = sym(T M_int), the structure _coercivity_bracket uses
    p, grid = _coercivity_case(alpha, beta, 16)
    r = grid.r_nodes[1:-1]
    main, up, down = sector_solver._radial_stencil(r, grid.dr)
    D_r = np.diag(main) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    K = r[:, None] * D_r
    assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()
    M_int = column_shift_operator(p.operator(), grid)[1:-1, 1:-1].toarray()
    TM = angular_matrix(alpha, beta, grid) @ M_int
    A1, A2 = 0.5 * (M_int + M_int.T), 0.5 * (TM + TM.T)
    want = grid.dr * grid.dphi * (np.kron(K, A1) + np.kron(np.diag(1.0 / r), A2))
    H = _weighted_symmetric_part(p, grid).toarray()
    assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("r_min,r_max", [(0.5, 3.0), (0.1, 10.0)])
@pytest.mark.parametrize("geo", [GEO_NARROW, GEO_WIDE], ids=["narrow", "wide"])
def test_coercivity_bracket_holds_lambda_min(geo, r_min, r_max):
    for alpha, beta in COUPLINGS:
        p, grid = _coercivity_case(alpha, beta, 16, geo, r_min, r_max)
        floor, theta = _bracket(p, grid)
        want = _dense_lambda_min(p, grid)
        tol = 1e-12 * _h_norm(p, grid)
        assert floor - tol <= want <= theta + tol
        # inside the regime the floor proves H definite
        assert (floor > tol) == (abs(alpha + beta) < 2.0)
        # both bounds are the least end-block eigenvalue over a positive
        # number, so the bracket never straddles 0
        assert np.sign(floor) == np.sign(theta) or max(abs(floor), abs(theta)) <= tol


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.25, 1.25)], ids=["definite", "indefinite"])
def test_discrete_coercivity_builds_the_kronecker_factors_once(alpha, beta, monkeypatch):
    # the bracket and the margin share one build per call, and the value is
    # the one of a call that builds them for the bracket again
    p, grid = _coercivity_case(alpha, beta, 16)
    built = []
    kronecker_factors = sector_solver._kronecker_factors

    def spy(p, grid):
        built.append(p)
        return kronecker_factors(p, grid)

    monkeypatch.setattr(sector_solver, "_kronecker_factors", spy)
    lam = discrete_coercivity(p, grid)
    assert built == [p]
    bracket = sector_solver._coercivity_bracket
    monkeypatch.setattr(
        sector_solver, "_coercivity_bracket", lambda grid, factors: bracket(grid, kronecker_factors(p, grid))
    )
    assert discrete_coercivity(p, grid) == lam


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.25, 1.25)], ids=["definite", "indefinite"])
def test_discrete_coercivity_needs_neither_s_nor_the_rhs(alpha, beta, monkeypatch):
    # H comes from its Kronecker factors: an rhs that cannot be sampled does
    # not matter, neither S nor the stencil is assembled, and one
    # eigh_tridiagonal gives all of C's eigenpairs
    def not_called(*args, **kwargs):
        raise AssertionError("S assembled for the coercivity probe")

    def no_rhs(r, phi):
        raise AssertionError("rhs sampled for the coercivity probe")

    p, grid = _coercivity_case(alpha, beta, 16)
    lam = discrete_coercivity(p, grid)
    p = dataclasses.replace(p, rhs=no_rhs)
    assert discrete_coercivity(p, grid) == lam
    tridiagonal, eigh_tridiagonal = [], sla.eigh_tridiagonal

    def spy(*args, **kwargs):
        tridiagonal.append(kwargs)
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", spy)
    for name in ("assemble_dd_system", "laplacian_matrix"):
        monkeypatch.setattr(sector_solver, name, not_called)
    assert discrete_coercivity(p, grid) == lam
    assert tridiagonal == [{}]


def test_discrete_coercivity_just_outside_the_regime():
    # |alpha+beta| = 2.001: H is indefinite and its lowest eigenvalues
    # cluster (-0.0074980, -0.0074939, -0.0074872); H - theta*I is not
    # positive definite, so its Cholesky fails
    p, grid = _coercivity_case(1.001, 1.0, 64)
    lam = discrete_coercivity(p, grid)
    assert lam < 0.0
    assert not _definite_below(p, grid, lam)


@pytest.mark.parametrize("alpha,beta", [(1.416, 1.132), (-1.057, -1.358), (-1.164, -1.065)])
def test_discrete_coercivity_outside_the_regime(alpha, beta):
    # |alpha+beta| in [2.2, 2.8]: theta, the Rayleigh quotient of an
    # explicit vector, proves H indefinite
    p, grid = _coercivity_case(alpha, beta, 32)
    lam = discrete_coercivity(p, grid)
    assert discrete_coercivity(p, grid) == lam
    assert _dense_lambda_min(p, grid) <= lam < 0.0


@pytest.mark.parametrize("alpha,beta", [(3.0, -1.0), (1.0, 1.0), (-1.0, -1.0)])
def test_discrete_coercivity_on_the_regime_boundary(alpha, beta):
    # |alpha+beta| = 2: lambda_min is 0 up to rounding on the scale of H and
    # has no sign to certify
    p, grid = _coercivity_case(alpha, beta, 32)
    assert discrete_coercivity(p, grid) == 0.0
    assert abs(_dense_lambda_min(p, grid)) <= 1e-10 * _h_norm(p, grid)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.25, 1.25), (1.0, 1.0)], ids=["definite", "indefinite", "boundary"])
def test_discrete_coercivity_runs_no_eigensolver_factor_or_kronecker_product(alpha, beta, monkeypatch):
    # the bracket is the certificate: no ARPACK run, no sparse factor of H
    # or of a shifted H, and H itself is never assembled
    def not_called(*args, **kwargs):
        raise AssertionError("eigsh, splu or kron called by the coercivity probe")

    for module, name in ((spla, "eigsh"), (spla, "splu"), (sp, "kron")):
        monkeypatch.setattr(module, name, not_called)
    p, grid = _coercivity_case(alpha, beta, 16)
    lam = discrete_coercivity(p, grid)
    assert (lam > 0.0, lam < 0.0) == (alpha + beta < 2.0, alpha + beta > 2.0)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.25, 1.25), (1.0, 1.0)], ids=["definite", "indefinite", "boundary"])
def test_discrete_coercivity_makes_no_dense_copy(alpha, beta, monkeypatch):
    # no sparse matrix is densified (a dense H would be 126 MB at n = 64):
    # every sparse toarray/todense raises during the call
    def no_dense(self, *args, **kwargs):
        raise AssertionError("dense copy of a sparse matrix")

    for name in dir(sp):
        cls = getattr(sp, name)
        if isinstance(cls, type) and issubclass(cls, (sp.spmatrix, sp.sparray)):
            for base in cls.__mro__:
                for attr in ("toarray", "todense"):
                    if attr in vars(base):
                        monkeypatch.setattr(base, attr, no_dense)
    p, grid = _coercivity_case(alpha, beta, 16)
    lam = discrete_coercivity(p, grid)
    assert (lam > 0.0) == (alpha + beta < 2.0)


@pytest.mark.parametrize(
    "geo,r_min,r_max",
    [
        (make_geometry([0.3, 0.3 + 0.5 * np.pi, 0.3 + np.pi]), R_MIN, R_MAX),
        # the problem lives on [0.5, 3], the grid covers [1, 2]
        (GEO, 1.0, 2.0),
    ],
    ids=["geometry", "radii"],
)
def test_problem_grid_mismatch_raises(geo, r_min, r_max, monkeypatch):
    def no_lifting(*args):
        raise AssertionError("lifting built before the problem was checked")

    monkeypatch.setattr(sector_solver, "boundary_lifting", no_lifting)
    grid = SectorGrid(geo, r_min, r_max, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    z = lambda r: np.zeros_like(r)
    dd = DDProblem(0.6, 0.4, GEO, zero, R_MIN, R_MAX)
    nonlocal_ = NonlocalPoissonProblem(0.6, 0.4, GEO, zero, z, z, R_MIN, R_MAX)
    for solve, p in ((solve_dd, dd), (discrete_coercivity, dd), (solve_nonlocal_poisson, nonlocal_)):
        with pytest.raises(IncompatibleGrid, match="geometry or radii"):
            solve(p, grid)


def _wave(r, phi):
    return r * np.sin(2.0 * phi) + 1j * np.cos(r)


SOLVERS = pytest.mark.parametrize(
    "build,solve",
    [(dd_problem, solve_dd), (nonlocal_problem, solve_nonlocal_poisson)],
    ids=["dd", "nonlocal"],
)


@SOLVERS
def test_rhs_callable_and_grid_function_agree(build, solve):
    # the two accepted rhs formats give bit-identical solves
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    p, _ = build(0.3, -0.8, grid)
    by_call = solve(dataclasses.replace(p, rhs=_wave), grid)
    sampled = dataclasses.replace(p, rhs=GridFunction.from_callable(grid, _wave))
    by_grid = solve(sampled, grid)
    assert by_call.solution.values.tobytes() == by_grid.solution.values.tobytes()
    assert by_call.equation_residual == by_grid.equation_residual
    assert by_call.boundary_residual == by_grid.boundary_residual
    coarse = GridFunction.from_callable(SectorGrid(GEO, R_MIN, R_MAX, 8, 8), _wave)
    with pytest.raises(IncompatibleGrid, match="rhs grid differs"):
        solve(dataclasses.replace(p, rhs=coarse), grid)


@pytest.mark.parametrize(
    "alpha,beta,factored",
    [
        (0.3, -0.8, ["radial"]),
        # separable solution fails the residual gate (cond(V) about 2e8)
        (1.5, 0.5 - 1e-8, ["radial", "angular"]),
        # no real angular basis: the radial solve is the only path
        (1.5, 1.0, ["angular"]),
    ],
)
@SOLVERS
def test_factorizations(alpha, beta, factored, build, solve, monkeypatch):
    # the separable path factors only its tridiagonal radial blocks, one
    # per angular mode; the radial fallback factors only its angular blocks
    # T + lam_i I, one per radial mode.  No path factors S_v
    seen = []
    splu = spla.splu

    def spy(M, *args, **kwargs):
        seen.append(M.copy())
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    p, _ = build(alpha, beta, grid)
    p = dataclasses.replace(p, rhs=_wave)
    solve(p, grid)
    S_v = assemble_dd_system(p, grid)[0]
    T = angular_matrix(alpha, beta, grid)
    angular = sp.block_diag([T + lam * np.eye(T.shape[0]) for lam in _kronecker_factors(p, grid)[1]])
    kinds = []
    for M in seen:
        assert M.shape == S_v.shape
        if abs(M - angular).max() == 0.0:
            kinds.append("angular")
        elif sp.triu(M, 2).nnz == 0 and sp.tril(M, -2).nnz == 0:
            kinds.append("radial")
        else:
            kinds.append("other")
    assert kinds == factored


@SOLVERS
def test_solve_makes_no_sparse_matrix_product(build, solve, monkeypatch):
    # S_v is written straight into CSR arrays and no path multiplies two
    # sparse matrices: not the separable one, and not the radial fallback
    # outside the regime or at the regime edge, where the separable
    # solution fails the gate.  The fallback's w agrees with the sparse LU
    # of the reference composite system, the system of w
    calls, systems = [], []
    matmat = sp._compressed.csr_matmat
    radial = sector_solver._radial_solve

    def spy(*args):
        calls.append(args[:2])
        return matmat(*args)

    def spy_radial(p, grid, b):
        systems.append(b)
        return radial(p, grid, b)

    monkeypatch.setattr(sp._compressed, "csr_matmat", spy)
    monkeypatch.setattr(sector_solver, "_radial_solve", spy_radial)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    res = solve(build(0.3, -0.8, grid)[0], grid)
    assert res.info["method"] == "separable"
    assert calls == [] and systems == []
    for alpha, beta in ((1.5, 1.0), (1.5, 0.5 - 1e-8)):
        p = dataclasses.replace(build(alpha, beta, grid)[0], rhs=_wave)
        res = solve(p, grid)
        assert res.info["method"] == "radial"
        assert calls == [] and len(systems) == 1
        b = systems.pop()
        S = _composite_system(p, grid)
        want = _direct_solve(S, b)
        got = res.info.get("w", res.solution).values[1:-1, 1:-1].ravel()
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(S @ got - b) <= 1e-8 * np.linalg.norm(b)
        calls.clear()


# a 7 x 7 grid of couplings on [-3, 3]^2, and three with |1 - alpha*beta|
# between 5e-7 and 2e-6, where the shift inverse is nearly singular
GATE_SWEEP = [(a, b) for a in np.linspace(-3.0, 3.0, 7) for b in np.linspace(-3.0, 3.0, 7)]
GATE_SWEEP += [(a, 1.0 / a + 1e-6) for a in (0.5, 2.0, -1.5)]


def test_solve_dd_returns_wherever_the_composite_lu_passes_the_gate():
    # the sparse LU of the reference composite system is the oracle: where
    # its solution passes the residual gate 1e-8*||b||, solving S_v and
    # recovering w by the 2x2 inverse must pass it too.  Where that LU
    # fails, here only at 1 - alpha*beta = 0, the coupling is skipped
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(3).standard_normal((33, 33)))
    b = f.values[1:-1, 1:-1].ravel()
    solved = 0
    for alpha, beta in GATE_SWEEP:
        p = DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX)
        S = _composite_system(p, grid)
        try:
            x = spla.splu(S.tocsc()).solve(b)
        except RuntimeError:  # exactly singular
            continue
        if not np.linalg.norm(S @ x - b) <= 1e-8 * np.linalg.norm(b):
            continue
        res = solve_dd(p, grid)
        assert res.equation_residual <= 1e-8 * res.info["rhs_norm"]
        solved += 1
    assert solved >= len(GATE_SWEEP) - 2


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (0.3, -0.8), (1.5, 1.0)])
def test_manufactured_builders_follow_the_grid(alpha, beta):
    grid = SectorGrid(GEO, 0.7, 2.5, 12, 16)
    p, exact = nonlocal_problem(alpha, beta, grid)
    # the exact solution meets the nonlocal ray conditions at the nodes
    assert nonlocal_boundary_residual(p, grid, exact) <= 1e-13
    for p, exact in (nonlocal_problem(alpha, beta, grid), dd_problem(alpha, beta, grid)):
        assert (p.alpha, p.beta, p.geometry) == (alpha, beta, grid.geometry)
        assert (p.r_min, p.r_max) == (grid.r_min, grid.r_max)
        assert p.rhs.grid == grid and exact.grid == grid
    assert error_norm(exact, exact) == 0.0

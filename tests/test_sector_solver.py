"""Sector solvers: assembly structure, manufactured convergence, coercivity."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.difference_ops import apply_on_grid, to_matrix, two_sector_operator
from planeangle.manufactured import manufactured_dd, manufactured_nonlocal
from planeangle.pencil import PoissonPencilProblem, eigenvalues_closed_form
from planeangle.sector_solver import (
    DDProblem,
    NonlocalPoissonProblem,
    SingularSystem,
    SolverFailure,
    _direct_solve,
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


def weighted_l2(grid, diff):
    r, _ = grid.meshgrid()
    return float(np.sqrt(np.sum(r * grid.dr * grid.dphi * np.abs(diff) ** 2)))


def test_assembly_reduces_to_laplacian_when_uncoupled():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    p = DDProblem(0.0, 0.0, GEO, zero, R_MIN, R_MAX)
    S, _ = assemble_dd_system(p, grid)
    from planeangle.sector_solver import _interior

    keep = _interior(grid)
    A = laplacian_matrix(grid)[keep][:, keep]
    assert abs(S - A).max() < 1e-14


def test_interior_row_stencil_width():
    # away from the middle ray each shift target contributes once, so a row
    # touches at most 10 columns (5-point stencil x 2 shifts); rows whose
    # stencil reaches the middle column see both shifts land inside the
    # angle there and can touch up to 13
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    p = DDProblem(0.7, -0.3, GEO, zero, R_MIN, R_MAX)
    S, _ = assemble_dd_system(p, grid)
    csr = S.tocsr()
    counts = np.diff(csr.indptr)
    s = grid.shift_columns
    n_cols = grid.n_phi - 1  # interior unknowns per radial line, j = 1..n_phi-1
    assert counts.max() <= 13
    for row in range(csr.shape[0]):
        j = row % n_cols + 1
        if abs(j - s) > 1:
            assert counts[row] <= 10


def test_laplacian_matrix_exact_on_quadratic():
    # central differences are exact on u = r^2 + phi^2, where
    # -(u_rr + u_r/r + u_phiphi/r^2) + u = -(4 + 2/r^2) + u
    grid = SectorGrid(GEO, R_MIN, R_MAX, 12, 16)
    r, phi = grid.meshgrid()
    u = r**2 + phi**2
    got = (laplacian_matrix(grid) @ u.ravel()).reshape(u.shape)[1:-1, 1:-1]
    want = (-(4.0 + 2.0 / r**2) + u)[1:-1, 1:-1]
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


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
        S, _ = assemble_dd_system(p, grid)
        lu = np.linalg.slogdet(S.toarray())
        assert np.isfinite(lu[1]) and lu[0] != 0.0


def test_solve_dd_zero_rhs():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 8, 8)
    zero = GridFunction(grid, np.zeros((9, 9)))
    res = solve_dd(DDProblem(0.9, 0.9, GEO, zero, R_MIN, R_MAX), grid)
    assert np.all(res.solution.values == 0.0)
    assert res.equation_residual == 0.0


def test_solve_dd_residual_certified():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 24, 24)
    w_exact, pde = manufactured_dd(GEO, R_MIN, R_MAX)
    op = two_sector_operator(0.9, 0.9, GEO)
    f = apply_on_grid(op, GridFunction.from_callable(grid, pde))
    res = solve_dd(DDProblem(0.9, 0.9, GEO, f, R_MIN, R_MAX), grid)
    b_norm = np.linalg.norm(f.values)
    assert res.equation_residual <= 1e-10 * max(b_norm, 1.0)
    assert np.all(res.solution.values[:, 0] == 0.0)
    assert np.all(res.solution.values[:, -1] == 0.0)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.3, -0.8), (1.5, 0.3), (-1.5, -0.3), (0.999, 0.999), (0.0, 0.0), (-0.9, 0.95)],
)
@pytest.mark.parametrize("n", [32, 64])
def test_separable_solve_matches_sparse_lu(alpha, beta, n):
    # the sparse LU of the assembled system is the oracle; (0.999, 0.999)
    # has the worst-conditioned eigenvector matrix inside the regime (44.7)
    grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
    rng = np.random.default_rng(n)
    shape = (n + 1, n + 1)
    f = GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    p = DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX)
    res = solve_dd(p, grid)
    assert res.info["method"] == "separable"
    assert res.info["cond_V"] <= 50.0
    want = _direct_solve(*assemble_dd_system(p, grid))
    got = res.solution.values[1:-1, 1:-1].ravel()
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_dd_falls_back_to_sparse_lu():
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    f = GridFunction(grid, np.random.default_rng(1).standard_normal((17, 17)))
    # |alpha+beta| > 2: the folded angular matrix has a complex spectrum
    res = solve_dd(DDProblem(1.5, 1.0, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "sparse_lu"
    assert 0.0 < res.equation_residual <= 1e-8 * res.info["rhs_norm"]
    # alpha = beta = 1: defective angular matrix and a singular system
    with pytest.raises(SingularSystem):
        solve_dd(DDProblem(1.0, 1.0, GEO, f, R_MIN, R_MAX), grid)


@pytest.mark.parametrize("beta", [0.5 - 1e-8, 0.5 - 1e-10])
def test_solve_dd_near_the_regime_edge_falls_back(beta):
    # alpha + beta just below 2 with alpha*beta far from 1: S is well
    # conditioned, but cond(V) is about 2e8 or more, so the separable
    # solution fails the residual gate (or eig returns a complex spectrum)
    # and the sparse LU answers
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction(grid, np.random.default_rng(1).standard_normal((33, 33)))
    res = solve_dd(DDProblem(1.5, beta, GEO, f, R_MIN, R_MAX), grid)
    assert res.info["method"] == "sparse_lu"
    assert res.info["cond_V"] > 1e8
    assert 0.0 < res.equation_residual <= 1e-8 * res.info["rhs_norm"]


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
    w_exact, pde = manufactured_dd(GEO, R_MIN, R_MAX)
    op = two_sector_operator(alpha, beta, GEO)
    errs = []
    for n in (16, 32, 64):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        f = apply_on_grid(op, GridFunction.from_callable(grid, pde))
        res = solve_dd(DDProblem(alpha, beta, GEO, f, R_MIN, R_MAX), grid)
        exact = GridFunction.from_callable(grid, w_exact)
        errs.append(weighted_l2(grid, res.solution.values - exact.values))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3


def nonlocal_manufactured(alpha, beta):
    u_exact, f_rhs = manufactured_nonlocal(GEO, R_MIN, R_MAX)
    b1, b2, b3 = GEO.angles
    g1 = lambda r: u_exact(r, b1) + alpha * u_exact(r, b2)
    g3 = lambda r: u_exact(r, b3) + beta * u_exact(r, b2)
    return u_exact, f_rhs, g1, g3


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
    u_exact, f_rhs, g1, g3 = nonlocal_manufactured(alpha, beta)
    errs, bres = [], []
    for n in (16, 32, 64):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        f = GridFunction.from_callable(grid, f_rhs)
        p = NonlocalPoissonProblem(alpha, beta, GEO, f, g1, g3, R_MIN, R_MAX)
        res = solve_nonlocal_poisson(p, grid)
        exact = GridFunction.from_callable(grid, u_exact)
        errs.append(weighted_l2(grid, res.solution.values - exact.values))
        bres.append(res.boundary_residual)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3
    # the ray conditions are satisfied to solver accuracy at every resolution
    assert max(bres) <= 1e-10


def test_nonlocal_n512_second_order():
    # the finest level of the convergence study, on the separable path
    u_exact, f_rhs, g1, g3 = nonlocal_manufactured(0.3, -0.8)
    p = NonlocalPoissonProblem(0.3, -0.8, GEO, f_rhs, g1, g3, R_MIN, R_MAX)
    errs = []
    for n in (256, 512):
        grid = SectorGrid(GEO, R_MIN, R_MAX, n, n)
        res = solve_nonlocal_poisson(p, grid)
        assert res.info["dd_method"] == "separable"
        assert res.boundary_residual <= 1e-10
        exact = GridFunction.from_callable(grid, u_exact)
        errs.append(weighted_l2(grid, res.solution.values - exact.values))
    assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3


def test_nonlocal_equation_residual_at_roundoff():
    # the boundary values of w are known zeros, not unknowns, so nothing
    # after the factorization moves the interior residual off roundoff
    u_exact, f_rhs, g1, g3 = nonlocal_manufactured(0.3, -0.8)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 128, 128)
    f = GridFunction.from_callable(grid, f_rhs)
    p = NonlocalPoissonProblem(0.3, -0.8, GEO, f, g1, g3, R_MIN, R_MAX)
    res = solve_nonlocal_poisson(p, grid)
    assert res.equation_residual <= 1e-11 * np.linalg.norm(f.values[1:-1, 1:-1])


def test_nonlocal_boundary_conditions_discretely_exact():
    u_exact, f_rhs, g1, g3 = nonlocal_manufactured(0.6, 0.4)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    f = GridFunction.from_callable(grid, f_rhs)
    p = NonlocalPoissonProblem(0.6, 0.4, GEO, f, g1, g3, R_MIN, R_MAX)
    res = solve_nonlocal_poisson(p, grid)
    assert nonlocal_boundary_residual(p, grid, res.solution) <= 1e-11


def test_substitution_consistency_homogeneous_data():
    # with g1 = g3 = 0 the lifting vanishes and u = R_K w exactly
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    _, f_rhs, _, _ = nonlocal_manufactured(0.0, 0.0)
    f = GridFunction.from_callable(grid, f_rhs)
    z = lambda r: np.zeros_like(r)
    p = NonlocalPoissonProblem(0.5, -0.5, GEO, f, z, z, R_MIN, R_MAX)
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
    u_exact, f_rhs, g1, g3 = nonlocal_manufactured(alpha, beta)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 32, 32)
    f = GridFunction.from_callable(grid, f_rhs)
    p = NonlocalPoissonProblem(alpha, beta, GEO, f, g1, g3, R_MIN, R_MAX)
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
    assert res.info["regime_flag"] == "unsupported"
    assert res.info["dd_method"] == "sparse_lu"


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
    ],
)
def test_discrete_coercivity_sign(alpha, beta, positive):
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    p = DDProblem(alpha, beta, GEO, zero, R_MIN, R_MAX)
    lam = discrete_coercivity(p, grid)
    # dense_limit=0 takes the sparse eigsh branch
    assert abs(discrete_coercivity(p, grid, dense_limit=0) - lam) <= 1e-10 * abs(lam)
    if positive:
        assert lam > 0.0
    else:
        assert lam < 0.0


def test_discrete_coercivity_arpack_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    grid = SectorGrid(GEO, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    p = DDProblem(0.6, 0.4, GEO, zero, R_MIN, R_MAX)
    with pytest.raises(SolverFailure, match="extreme eigenvalue estimation failed"):
        discrete_coercivity(p, grid, dense_limit=0)

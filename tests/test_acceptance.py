"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single pass/fail
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines as
they are produced; without -s they appear in the captured output.
"""

import functools
import time

import numpy as np

from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.difference_ops import (
    DifferenceOperator,
    adjoint,
    apply_on_grid,
    column_shift_operator,
    inverse_matrix,
    spectrum,
    to_matrix,
    two_sector_operator,
)
from planeangle.green_check import (
    GreenConfig,
    bump_trig_pair,
    green_residual_dirichlet,
    green_residual_neumann,
    term_magnitudes,
)
from planeangle.manufactured import dd_problem, error_norm, exp_bump, nonlocal_problem
from planeangle.pencil import (
    PoissonPencilProblem,
    adjoint_eigenvalues_numeric,
    characteristic_value,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    line_is_eigenvalue_free,
    solvability_report,
)
from planeangle.sector_solver import (
    DDProblem,
    discrete_coercivity,
    solve_dd,
    solve_nonlocal_poisson,
)
from planeangle.weighted_norms import WeightParams, e_norm, h_norm, trace_ratio

GEO_NARROW = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])
GEO_WIDE = make_geometry([0.3, 0.3 + 0.9 * np.pi, 0.3 + 1.8 * np.pi])
GEOMETRIES = (GEO_NARROW, GEO_WIDE)

GEO_SOLVE = make_geometry([np.pi / 6, np.pi / 6 + 0.5 * np.pi, np.pi / 6 + np.pi])
R_MIN, R_MAX = 0.5, 3.0


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d: FAIL - %s" % (number, title))
                raise
            print("criterion %2d: PASS - %s" % (number, title))

        return wrapper

    return deco


def coupling_samples(count, seed=42):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b = rng.uniform(-1.5, 1.5, 2)
        if abs(a + b) <= 1.8:
            out.append((float(a), float(b)))
    return out


def pencil_problems(samples):
    for alpha, beta in samples:
        for geo in GEOMETRIES:
            yield PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])


@criterion(1, "numeric eigenvalues match the closed forms on random couplings")
def test_criterion_01_eigenvalues_numeric_vs_closed():
    t0 = time.monotonic()
    for p in pencil_problems(coupling_samples(20)):
        closed = eigenvalues_closed_form(p, (-4.0, 4.0)).values
        numeric = eigenvalues_numeric(p, (-0.5, 0.5, -4.0, 4.0)).values
        assert len(numeric) == len(closed)
        for z in closed:
            assert np.min(np.abs(numeric - z)) <= 1e-8
        for z in numeric:
            assert np.min(np.abs(closed - z)) <= 1e-8
    assert time.monotonic() - t0 <= 30.0


@criterion(2, "characteristic determinant equals its hyperbolic product form")
def test_criterion_02_determinant_product_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    lams = rng.uniform(-1.0, 1.0, 500) + 1j * rng.uniform(-4.0, 4.0, 500)
    for alpha, beta in ((0.0, 0.0), (0.6, 0.4), (-1.1, 0.8)):
        for geo in GEOMETRIES:
            p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
            d = geo.d
            s = alpha + beta
            for lam in lams:
                # the determinant is damped by exp(-|Re lambda|*b3), and so
                # is the relative bound
                damp = np.exp(-abs(lam.real) * p.b3)
                exact = -2.0 * np.sinh(2.0 * lam * d) - 2.0 * s * np.sinh(lam * d)
                got = characteristic_value(p, lam)
                mag = 2.0 * abs(np.sinh(2.0 * lam * d)) + 2.0 * abs(s) * abs(
                    np.sinh(lam * d)
                ) + 1.0
                assert abs(got - exact * damp) <= 1e-10 * mag * damp
    assert time.monotonic() - t0 <= 1.0


@criterion(3, "the real-axis line is eigenvalue free and a = 1 + l is solvable")
def test_criterion_03_solvability_on_the_free_line():
    pairs = [(0.0, 0.0), (0.9, 0.9), (-0.9, -0.9), (0.6, 0.4),
             (0.3, -0.8), (1.2, 0.5), (-1.5, 0.3)]
    for alpha, beta in pairs:
        for geo in GEOMETRIES:
            p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
            assert line_is_eigenvalue_free(p, 0.0).free
            for l in (0, 1, 2):
                report = solvability_report(p, 1.0 + l, l)
                assert report.line == 0.0
                assert report.solvable


@criterion(4, "adjoint transmission zeros mirror the pencil eigenvalues")
def test_criterion_04_adjoint_zeros_mirror_primal():
    t0 = time.monotonic()
    window = (-0.5, 0.5, -4.0, 4.0)
    for p in pencil_problems(coupling_samples(20)):
        primal = eigenvalues_numeric(p, window).values
        adjoint = adjoint_eigenvalues_numeric(p, window).values
        assert len(adjoint) == len(primal)
        for z in primal:
            assert np.min(np.abs(adjoint - np.conj(z))) <= 1e-8
    assert time.monotonic() - t0 <= 60.0


@criterion(5, "shift-matrix lemmas: adjoint, block spectrum, closed-form inverse")
def test_criterion_05_shift_matrix_lemmas():
    rng = np.random.default_rng(11)
    geo = GEO_SOLVE
    for _ in range(10):
        c = rng.standard_normal(3)
        op = DifferenceOperator({-1: c[0], 0: c[1], 1: c[2]}, geo)
        assert np.array_equal(to_matrix(adjoint(op)), to_matrix(op).T)
    for alpha, beta in ((0.6, 0.4), (0.9, 0.9), (0.3, -0.8), (-1.2, 0.7)):
        op = two_sector_operator(alpha, beta, geo)
        factor = 1.0 / (1.0 - alpha * beta)
        expected = factor * np.array([[1.0, alpha], [beta, 1.0]])
        assert np.max(np.abs(inverse_matrix(op) - expected)) <= 1e-14
        matrix_eigs = np.sort_complex(spectrum(op))
        for n_phi in (8, 16):
            grid = SectorGrid(geo, R_MIN, R_MAX, 8, n_phi)
            s = grid.shift_columns
            m = column_shift_operator(op, grid).toarray()
            for j0 in range(1, s):
                block = m[np.ix_([j0, j0 + s], [j0, j0 + s])]
                block_eigs = np.sort_complex(np.linalg.eigvals(block))
                assert np.max(np.abs(block_eigs - matrix_eigs)) <= 1e-10


@criterion(6, "discrete coercivity is positive inside the regime, lost outside")
def test_criterion_06_discrete_coercivity_sign():
    t0 = time.monotonic()
    grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, 16, 16)
    zero = GridFunction(grid, np.zeros((17, 17)))
    for alpha, beta in coupling_samples(6, seed=5):
        p = DDProblem(alpha, beta, GEO_SOLVE, zero, R_MIN, R_MAX)
        assert discrete_coercivity(p, grid) > 0.0
    for alpha, beta in ((1.25, 1.25), (-1.3, -1.2)):
        p = DDProblem(alpha, beta, GEO_SOLVE, zero, R_MIN, R_MAX)
        assert discrete_coercivity(p, grid) < 0.0
    assert time.monotonic() - t0 <= 30.0


@criterion(7, "both solvers converge at second order under grid doubling")
def test_criterion_07_solver_convergence_orders():
    t0 = time.monotonic()

    errs = []
    for n in (16, 32, 64):
        grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
        p, exact = dd_problem(0.9, 0.9, grid)
        errs.append(error_norm(solve_dd(p, grid).solution, exact))
    for i in range(2):
        assert 1.7 <= np.log2(errs[i] / errs[i + 1]) <= 2.3

    errs, bres = [], []
    for n in (16, 32, 64):
        grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
        p, exact = nonlocal_problem(0.3, -0.8, grid)
        res = solve_nonlocal_poisson(p, grid)
        errs.append(error_norm(res.solution, exact))
        bres.append(res.boundary_residual)
    for i in range(2):
        assert 1.7 <= np.log2(errs[i] / errs[i + 1]) <= 2.3
    assert max(bres) <= 1e-10

    assert time.monotonic() - t0 <= 120.0


@criterion(8, "recovered auxiliary field has exact ray traces and matching trace")
def test_criterion_08_recovered_field_traces():
    alpha, beta = 0.6, 0.4
    op = two_sector_operator(alpha, beta, GEO_SOLVE)
    factor = 1.0 / (1.0 - alpha * beta)
    mismatches = []
    for n in (16, 32):
        grid = SectorGrid(GEO_SOLVE, R_MIN, R_MAX, n, n)
        p, exact = nonlocal_problem(alpha, beta, grid)
        res = solve_nonlocal_poisson(p, grid)
        w = res.info["w"].values
        assert np.all(w[:, 0] == 0.0)
        assert np.all(w[:, -1] == 0.0)

        # against the computed homogeneous part the matching identity is a
        # matrix identity and holds to rounding
        s = grid.shift_columns
        ut = apply_on_grid(op, res.info["w"]).values
        scale = max(float(np.max(np.abs(ut))), 1.0)
        both = factor * (ut[:, s] + alpha * ut[:, -1])
        assert np.max(np.abs(w[:, s] - both)) <= 1e-12 * scale
        other = factor * (beta * ut[:, 0] + ut[:, s])
        assert np.max(np.abs(w[:, s] - other)) <= 1e-12 * scale

        # against the exact homogeneous part it is met to discretization order
        ug = res.info["lifting"].values
        ut1 = exact.values[:, s] - ug[:, s]
        ut2 = exact.values[:, -1] - ug[:, -1]
        mismatches.append(
            float(np.max(np.abs(w[:, s] - factor * (ut1 + alpha * ut2))))
        )
        assert mismatches[-1] <= 2.0 * grid.dr**2
    assert mismatches[0] / mismatches[1] >= 3.0


@criterion(9, "both Green identities hold to quadrature accuracy")
def test_criterion_09_green_identities():
    t0 = time.monotonic()
    geo = make_geometry([0.3, 1.3, 2.3])
    phi12 = 1.0
    pair = bump_trig_pair()
    for chi12 in (1.0, 1.5, 2.0):
        cfg_d = GreenConfig(geo, 0.7, chi12, phi12)
        assert green_residual_dirichlet(cfg_d, pair) <= 1e-8 * sum(
            term_magnitudes(cfg_d, pair, neumann=False)
        )
        cfg_n = GreenConfig(geo, 0.4, chi12, phi12)
        assert green_residual_neumann(cfg_n, pair) <= 1e-8 * sum(
            term_magnitudes(cfg_n, pair, neumann=True)
        )
    r_lo = green_residual_neumann(GreenConfig(geo, 0.4, 2.0, phi12, order=8), pair)
    r_hi = green_residual_neumann(GreenConfig(geo, 0.4, 2.0, phi12, order=16), pair)
    assert r_lo >= 10.0 * r_hi
    assert time.monotonic() - t0 <= 10.0


@criterion(10, "weighted norms are homogeneous, ordered in l, with bounded traces")
def test_criterion_10_weighted_norm_properties():
    grid = SectorGrid(GEO_SOLVE, 0.3, 1.0, 32, 32)
    u = GridFunction.from_callable(
        grid, lambda r, p: r * np.cos(p) + 0.5 * np.sin(2 * p)
    )
    params = WeightParams(0.3, 2)
    for c in (0.37, 2.0, 13.1):
        cu = GridFunction(grid, c * u.values)
        assert abs(e_norm(cu, params) - c * e_norm(u, params)) <= 1e-13 * e_norm(
            cu, params
        )
        assert abs(h_norm(cu, params) - c * h_norm(u, params)) <= 1e-13 * h_norm(
            cu, params
        )
    for a in (-0.5, 0.0, 0.7):
        es = [e_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
        hs = [h_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
        assert es[0] <= es[1] <= es[2]
        assert hs[0] <= hs[1] <= hs[2]

    params = WeightParams(0.5, 1)
    wide = SectorGrid(GEO_SOLVE, 0.5, 3.0, 256, 64)
    ratios = []
    for s in (1.0, 0.5, 0.25, 0.125):
        bump = exp_bump(0.6, 0.6 + s)
        v = GridFunction.from_callable(wide, lambda r, phi: bump(r)[0] * np.cos(phi))
        ratios.append(trace_ratio(v, "gamma1", params))
    assert max(ratios) <= 3.0 * np.median(ratios)

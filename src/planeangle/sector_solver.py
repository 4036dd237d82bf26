"""Finite-difference solvers on a truncated sector.

Two problems are covered, both with the operator -Laplace + 1 and the
two-sector difference operator R w = w - alpha*w(phi+d) - beta*w(phi-d):

* the differential-difference Dirichlet problem  -Laplace(R_K w) + R_K w = f
  with w = 0 on both rays and the truncation arcs, discretized as the
  composite matrix A*M (polar five-point stencil A after the column-shift
  matrix M) on the interior unknowns only;
* the nonlocal Poisson problem  -Laplace u + u = f with ray conditions
  u|ray1 + alpha*u(r, phi+d)|ray1 = g1 and u|ray3 + beta*u(r, phi-d)|ray3
  = g3, solved through a boundary lifting u_g plus the substitution
  u = u_g + R_K w.

The infinite angle is truncated to r_min <= r <= r_max with homogeneous
Dirichlet data on the artificial arcs; manufactured and compactly supported
data make the truncation exact.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import AngleGeometry, GridFunction, IncompatibleGrid, PlaneAngleError
from .difference_ops import apply_on_grid, column_shift_operator, two_sector_operator


class SingularSystem(PlaneAngleError):
    pass


class SolverFailure(PlaneAngleError):
    pass


class TooLarge(PlaneAngleError):
    pass


def _check_problem(p):
    """Validation shared by the solver problem types."""
    if p.geometry.num_sectors != 2:
        raise IncompatibleGrid("solver geometry needs exactly 3 rays (R=2)")
    if not (0.0 < p.r_min < p.r_max):
        raise IncompatibleGrid("need 0 < r_min < r_max")


@dataclass(frozen=True)
class DDProblem:
    """Differential-difference Dirichlet problem data (two sectors)."""

    alpha: float
    beta: float
    geometry: AngleGeometry
    rhs: object  # callable f(r, phi) or GridFunction
    r_min: float
    r_max: float

    __post_init__ = _check_problem

    def operator(self):
        return two_sector_operator(self.alpha, self.beta, self.geometry)


@dataclass(frozen=True)
class NonlocalPoissonProblem:
    """Nonlocal Poisson problem data: rhs f and ray data g1(r), g3(r)."""

    alpha: float
    beta: float
    geometry: AngleGeometry
    rhs: object
    g1: object
    g3: object
    r_min: float
    r_max: float

    __post_init__ = _check_problem

    @property
    def guaranteed_solvable(self):
        return abs(self.alpha + self.beta) < 2.0


@dataclass(frozen=True)
class SolveResult:
    solution: GridFunction
    equation_residual: float
    boundary_residual: float
    n_unknowns: int
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.equation_residual, self.boundary_residual):
            if not (np.isfinite(v) and v >= 0.0):
                raise SolverFailure("non-finite residual norm %r" % v)


def _interior(grid):
    """Flat node indices off the rays and the truncation arcs, row-major."""
    i, j = np.mgrid[1 : grid.n_r, 1 : grid.n_phi]
    return (i * (grid.n_phi + 1) + j).ravel()


def laplacian_matrix(grid):
    """Sparse matrix of -(d_rr + (1/r)d_r + (1/r^2)d_phiphi) + 1.

    Second-order central stencil at interior nodes; identity rows on the
    boundary (rays and truncation arcs).
    """
    width = grid.n_phi + 1
    dr, dphi = grid.dr, grid.dphi
    r = np.repeat(grid.r_nodes, width)
    inner = np.zeros(r.shape, dtype=bool)
    inner[_interior(grid)] = True
    cr = 1.0 / dr**2
    cr1 = 1.0 / (2.0 * r * dr)
    cp = 1.0 / (r**2 * dphi**2)
    # row k reads nodes k+-1 (angular) and k+-width (radial); diags takes the
    # entries of offset +m from rows 0..N-1-m and of offset -m from rows m..N-1
    main = np.where(inner, 2.0 * cr + 2.0 * cp + 1.0, 1.0)
    ang = np.where(inner, -cp, 0.0)
    up = np.where(inner, -cr - cr1, 0.0)
    down = np.where(inner, -cr + cr1, 0.0)
    return sp.diags(
        [main, ang[:-1], ang[1:], up[:-width], down[width:]],
        [0, 1, -1, width, -width],
        format="csr",
    )


def shift_matrix_on_grid(op, grid):
    """Sparse matrix of apply_on_grid acting on flattened node vectors."""
    return sp.kron(
        sp.identity(grid.n_r + 1), column_shift_operator(op, grid), format="csr"
    )


def assemble_dd_system(p, grid):
    """Composite sparse system for the differential-difference problem.

    Returns (S, b) over the interior unknowns: S = A*M with rows and columns
    restricted to interior nodes (A the polar stencil of -Laplace + 1, M the
    discrete difference operator).  w = 0 on the rays and the truncation
    arcs, so the dropped columns carry no data into b.
    """
    if grid.geometry.angles != p.geometry.angles:
        raise IncompatibleGrid("problem and grid geometries differ")
    if grid.n_phi % 2 != 0:
        raise IncompatibleGrid("n_phi must be even for the two-sector shift")
    keep = _interior(grid)
    A = laplacian_matrix(grid)
    M = shift_matrix_on_grid(p.operator(), grid)
    S = A[keep] @ M[:, keep]
    return S, _rhs_vector(p.rhs, grid)[keep]


def _rhs_vector(rhs, grid):
    if isinstance(rhs, GridFunction):
        if rhs.grid is not grid and rhs.grid != grid:
            raise IncompatibleGrid("rhs grid differs from solve grid")
        return rhs.values.ravel().astype(complex)
    return GridFunction.from_callable(grid, rhs).values.ravel()


def _direct_solve(S, b):
    """Solve the real system S x = b for complex b with one real LU."""
    try:
        lu = spla.splu(S.tocsc())
    except RuntimeError as exc:  # exactly singular factor
        raise SingularSystem("sparse LU failed: %s" % exc)
    parts = lu.solve(np.column_stack([b.real, b.imag]))
    x = parts[:, 0] + 1j * parts[:, 1]
    if not np.all(np.isfinite(x)):
        raise SingularSystem("direct sparse solve produced non-finite values")
    return x


def solve_dd(p, grid):
    """Solve the differential-difference Dirichlet problem on the grid.

    Only interior unknowns are solved for; the solution is zero on the rays
    and the truncation arcs by construction.  The equation residual is
    recomputed by applying the assembled operator to the solution.
    """
    S, b = assemble_dd_system(p, grid)
    x = _direct_solve(S, b)
    bnorm = np.linalg.norm(b)
    eq_res = float(np.linalg.norm(S @ x - b))
    if bnorm > 0 and eq_res > 1e-8 * bnorm:
        raise SolverFailure("direct solve residual %g too large" % eq_res)
    vals = np.zeros((grid.n_r + 1) * (grid.n_phi + 1), dtype=complex)
    vals[_interior(grid)] = x
    return SolveResult(
        solution=GridFunction(grid, vals.reshape(grid.n_r + 1, grid.n_phi + 1)),
        equation_residual=eq_res,
        boundary_residual=0.0,
        n_unknowns=S.shape[0],
        info={"method": "sparse_lu", "rhs_norm": bnorm},
    )


def lifting_cutoff(t):
    """C^2 polynomial bump: 1 at t=0, 0 with two flat derivatives at t>=1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = (1.0 - ti) ** 3 * (1.0 + 3.0 * ti)
    return out


def boundary_lifting(p, grid):
    """Grid function u_g carrying the ray data, vanishing near the middle ray.

    u_g(r, phi) = g1(r)*chi((phi-b1)/eps) + g3(r)*chi((b3-phi)/eps) with
    eps = d/2, so u_g is zero on and around the middle ray and the nonlocal
    ray traces of u_g reduce to plain traces.
    """
    b1, b3 = p.geometry.angles[0], p.geometry.angles[-1]
    eps = 0.5 * p.geometry.d
    r, phi = grid.meshgrid()
    width = grid.n_r + 1
    g1 = np.full(width, p.g1(r[:, 0]), dtype=complex)
    g3 = np.full(width, p.g3(r[:, 0]), dtype=complex)
    vals = g1[:, None] * lifting_cutoff((phi - b1) / eps) + g3[:, None] * lifting_cutoff(
        (b3 - phi) / eps
    )
    return GridFunction(grid, vals)


def nonlocal_boundary_residual(p, grid, u):
    """Max residual of the two nonlocal ray conditions on the grid."""
    s = grid.shift_columns
    r = grid.r_nodes
    g1 = np.asarray(p.g1(r), dtype=complex)
    g3 = np.asarray(p.g3(r), dtype=complex)
    res1 = u.values[:, 0] + p.alpha * u.values[:, s] - g1
    res3 = u.values[:, -1] + p.beta * u.values[:, s] - g3
    return float(max(np.max(np.abs(res1)), np.max(np.abs(res3))))


def solve_nonlocal_poisson(p, grid):
    """Solve the nonlocal Poisson problem via lifting and substitution.

    u = u_g + R_K w where u_g is the cutoff lifting of the ray data and w
    solves the differential-difference problem with right-hand side
    f - (discrete -Laplace + 1) u_g.  For |alpha+beta| >= 2 the solve is
    still attempted but flagged in the result info.
    """
    flagged = not p.guaranteed_solvable
    op = two_sector_operator(p.alpha, p.beta, p.geometry)
    A = laplacian_matrix(grid)
    u_g = boundary_lifting(p, grid)
    f = _rhs_vector(p.rhs, grid)
    lifted = A @ u_g.values.ravel()
    rhs = f - lifted
    rhs_fun = GridFunction(grid, rhs.reshape(grid.n_r + 1, grid.n_phi + 1))
    dd = DDProblem(p.alpha, p.beta, p.geometry, rhs_fun, p.r_min, p.r_max)
    inner = solve_dd(dd, grid)
    w = inner.solution
    u = GridFunction(grid, u_g.values + apply_on_grid(op, w).values)
    # recomputed equation residual of the full discrete operator
    resid = A @ u.values.ravel() - f
    eq_res = float(np.linalg.norm(resid[_interior(grid)]))
    bc_res = nonlocal_boundary_residual(p, grid, u)
    info = {
        "method": "lifting+substitution",
        "regime_flag": "unsupported" if flagged else "ok",
        "w": w,
        "lifting": u_g,
    }
    return SolveResult(
        solution=u,
        equation_residual=eq_res,
        boundary_residual=bc_res,
        n_unknowns=inner.n_unknowns,
        info=info,
    )


def discrete_coercivity(p, grid, dense_limit=4096):
    """Smallest eigenvalue of the symmetric part of the assembled operator.

    The interior operator S of assemble_dd_system is weighted by the discrete
    inner product r_i*dr*dphi; returns lambda_min of (W S + (W S)^T)/2.  Up
    to dense_limit interior nodes the symmetric part is densified for
    eigvalsh; above it only sparse matrices are built and eigsh is used.
    """
    S, _ = assemble_dd_system(p, grid)
    r = np.repeat(grid.r_nodes, grid.n_phi + 1)[_interior(grid)]
    Sw = sp.diags(r * grid.dr * grid.dphi) @ S
    sym = 0.5 * (Sw + Sw.T)
    if sym.shape[0] <= dense_limit:
        return float(np.linalg.eigvalsh(sym.toarray())[0])
    try:
        val = spla.eigsh(sym, k=1, which="SA", return_eigenvectors=False)
        return float(val[0])
    except Exception as exc:  # pragma: no cover - iterative fallback
        raise TooLarge("extreme eigenvalue estimation failed: %s" % exc)

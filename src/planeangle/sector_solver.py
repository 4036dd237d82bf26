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

The assembled system separates like the Mellin transform separates r from
phi: S = (D_r x I + diag(1/r^2) x T)(I x M_int), with D_r the radial
tridiagonal stencil, M_int the column shift on the interior columns (a
2x2 block on each column pair (j, j+s), the identity on the middle column
j = s) and T the angular second difference with the ray conditions
v_0 = -alpha*v_s, v_2s = -beta*v_s of v = M w folded in (angular_matrix).
solve_dd diagonalizes T = V diag(mu) V^-1 once, solves one tridiagonal
radial system D_r + mu_k diag(1/r^2) per angular mode (all modes in one
sparse LU of a block-diagonal matrix) and recovers w with the closed-form
inverse of the 2x2 blocks: the tensor-product method of Lynch, Rice &
Thomas (Numer. Math. 6, 1964).  The transform with V is not backward
stable for S: its residual grows with cond(V), which is 2 to 45 for
|alpha+beta| <= 1.998 and grows without bound as |alpha+beta| -> 2.  So the
residual of S, recomputed after every solve and gated at 1e-8 * ||b||,
decides: when T has a complex spectrum (|alpha+beta| > 2 or, by rounding,
just below), when the separable transform hits a singular matrix, or when
its solution fails the gate, solve_dd solves again with a sparse LU of S.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import AngleGeometry, GridFunction, IncompatibleGrid, PlaneAngleError
from .difference_ops import (
    SingularMatrix,
    apply_on_grid,
    column_shift_operator,
    inverse_matrix,
    two_sector_operator,
)


class SingularSystem(PlaneAngleError):
    pass


class SolverFailure(PlaneAngleError):
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


def _radial_stencil(r, dr):
    """Main, upper and lower coefficients of -(d_rr + (1/r) d_r) + 1 at radii r."""
    cr = 1.0 / dr**2
    cr1 = 1.0 / (2.0 * r * dr)
    return np.full(r.shape, 2.0 * cr + 1.0), -cr - cr1, -cr + cr1


def laplacian_matrix(grid):
    """Sparse matrix of -(d_rr + (1/r)d_r + (1/r^2)d_phiphi) + 1.

    Second-order central stencil at interior nodes; identity rows on the
    boundary (rays and truncation arcs).
    """
    width = grid.n_phi + 1
    r = np.repeat(grid.r_nodes, width)
    inner = np.zeros(r.shape, dtype=bool)
    inner[_interior(grid)] = True
    radial, up, down = _radial_stencil(r, grid.dr)
    cp = 1.0 / (r**2 * grid.dphi**2)
    # row k reads nodes k+-1 (angular) and k+-width (radial); diags takes the
    # entries of offset +m from rows 0..N-1-m and of offset -m from rows m..N-1
    main = np.where(inner, radial + 2.0 * cp, 1.0)
    ang = np.where(inner, -cp, 0.0)
    up = np.where(inner, up, 0.0)
    down = np.where(inner, down, 0.0)
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


def angular_matrix(alpha, beta, grid):
    """Dense (n_phi-1)^2 matrix T of -d_phiphi with the ray conditions folded in.

    T acts on the interior columns j = 1..n_phi-1 of v = M w; the ray
    columns are eliminated by the conditions v_0 = -alpha*v_s and
    v_2s = -beta*v_s (s = shift_columns) that v inherits from w = 0 on the
    rays.  Its eigenvalues approximate (Im lambda)^2 for the pencil
    eigenvalues lambda (pencil.eigenvalues_closed_form), at second order.
    """
    m, s = grid.n_phi - 1, grid.shift_columns
    T = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    T[0, s - 1] += alpha
    T[-1, s - 1] += beta
    return T / grid.dphi**2


def _separable_solve(p, grid, b, mu, V):
    """Solve S x = b through T = V diag(mu) V^-1, one radial system per mode.

    With v = M w and b as (radius x angle) arrays of interior nodes, S x = b
    reads D_r v + diag(1/r^2) v T^T = b for the radial stencil D_r.  Column
    k of v V^-T then solves the tridiagonal system D_r + mu_k diag(1/r^2)
    with column k of b V^-T; all columns go through one sparse LU of the
    block-diagonal matrix.  w is recovered from v column pair (j, j+s) by
    column pair with the 2x2 sector matrix of the difference operator; the
    middle column passes through unchanged.
    """
    r = grid.r_nodes[1:-1]
    s = grid.shift_columns
    main, up, down = _radial_stencil(r, grid.dr)
    D_r = sp.diags([main, up[:-1], down[1:]], [0, 1, -1])
    radial = sp.kron(sp.identity(mu.size), D_r) + sp.diags((mu[:, None] / r**2).ravel())
    modes = np.linalg.solve(V, b.reshape(r.size, mu.size).T)
    v = (V @ _direct_solve(radial, modes.ravel()).reshape(mu.size, r.size)).T
    inv = inverse_matrix(p.operator())
    left, right = v[:, : s - 1], v[:, s:]
    w = v.copy()
    w[:, : s - 1] = inv[0, 0] * left + inv[0, 1] * right
    w[:, s:] = inv[1, 0] * left + inv[1, 1] * right
    return w.ravel()


def solve_dd(p, grid):
    """Solve the differential-difference Dirichlet problem on the grid.

    Only interior unknowns are solved for; the solution is zero on the rays
    and the truncation arcs by construction.  The system is first solved by
    the separable method of _separable_solve when the folded angular matrix
    T has a real spectrum.  The equation residual is recomputed by applying
    the assembled operator to the solution; when the separable path fails
    or its residual exceeds 1e-8 * ||b||, the system is solved again by a
    sparse LU of the assembled matrix, whose residual must pass the same
    gate.  info["method"] names the path whose solution is returned and
    info["cond_V"] holds the condition number of the eigenvector matrix V.
    """
    S, b = assemble_dd_system(p, grid)
    bnorm = np.linalg.norm(b)
    mu, V = np.linalg.eig(angular_matrix(p.alpha, p.beta, grid))
    method, eq_res = "separable", np.inf
    if np.isrealobj(mu):
        try:
            x = _separable_solve(p, grid, b, mu, V)
            eq_res = float(np.linalg.norm(S @ x - b))
        except (SingularMatrix, SingularSystem, np.linalg.LinAlgError):
            pass
    # written so that a NaN residual also falls back
    if not eq_res <= 1e-8 * bnorm:
        method, x = "sparse_lu", _direct_solve(S, b)
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
        info={"method": method, "cond_V": float(np.linalg.cond(V)), "rhs_norm": bnorm},
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
        "dd_method": inner.info["method"],
        "cond_V": inner.info["cond_V"],
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


def discrete_coercivity(p, grid, dense_limit=500):
    """Smallest eigenvalue of the symmetric part of the assembled operator.

    The interior operator S of assemble_dd_system is weighted by the discrete
    inner product r_i*dr*dphi; returns lambda_min of (W S + (W S)^T)/2.  Up
    to dense_limit interior nodes the symmetric part is densified for
    eigvalsh; above it only sparse matrices are built and eigsh is used.
    The default sits at the measured crossover (2-core VM, best of 5):
    eigvalsh wins up to 441 nodes (0.016 s against 0.017 s), eigsh from 529
    (0.02 s against 0.024 s); at 3969 nodes eigsh takes 0.2-0.3 s and
    eigvalsh 3.5-4.2 s, agreeing to 6e-12 relative.
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
    except spla.ArpackError as exc:
        raise SolverFailure("extreme eigenvalue estimation failed: %s" % exc)

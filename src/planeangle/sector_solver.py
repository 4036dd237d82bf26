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

Matrix rows are the interior nodes and columns all nodes (laplacian_matrix);
both solvers check the problem against the grid first (assemble_dd_system)
and hand the interior system S x = b to one solve core (_solve_interior).

The assembled system separates like the Mellin transform separates r from
phi: S = (D_r x I + diag(1/r^2) x T)(I x M_int), with D_r the radial
tridiagonal stencil, M_int the column shift on the interior columns (a
2x2 block on each column pair (j, j+s), the identity on the middle column
j = s) and T the angular second difference with the ray conditions
v_0 = -alpha*v_s, v_2s = -beta*v_s of v = M w folded in (angular_matrix).
The solve core diagonalizes T = V diag(mu) V^-1, solves one tridiagonal radial
system D_r + mu_k diag(1/r^2) per angular mode and recovers w with the
closed-form inverse of the 2x2 blocks: the tensor-product method of Lynch,
Rice & Thomas (Numer. Math. 6, 1964).  The eigenpairs of T are written
down, not computed (_angular_basis): for |alpha+beta| < 2 they are the
discrete pencil, theta = eta*h over the pencil eigenvalues i*eta, with
x = theta*s taken from the pencil's own root routine
pencil.characteristic_roots, in O(n_phi^2) operations.  All radial
systems go through one sparse LU of a block-diagonal matrix in natural
order, which a tridiagonal block fills no further.  The transform with V
is not backward stable for S: its residual grows with cond(V), which is
2 to 45 for |alpha+beta| <= 1.998 and grows without bound as
|alpha+beta| -> 2.  So the residual of S,
recomputed after every solve and gated at 1e-8 * ||b||, decides: when T
has no real eigenbasis (|alpha+beta| >= 2), when the separable transform
hits a singular matrix, or when its solution fails the gate, the core
solves again with a sparse LU of S.
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
from .pencil import UnsupportedRegime, characteristic_roots


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


def _operator(p):
    return two_sector_operator(p.alpha, p.beta, p.geometry)


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
    operator = _operator


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
    operator = _operator

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
    """Sparse matrix of -(d_rr + (1/r)d_r + (1/r^2)d_phiphi) + 1, interior rows.

    Second-order central stencil; row k is the equation at node
    _interior(grid)[k], the columns are all nodes in row-major order.
    """
    width = grid.n_phi + 1
    rows = _interior(grid)
    r = np.repeat(grid.r_nodes[1:-1], grid.n_phi - 1)
    radial, up, down = _radial_stencil(r, grid.dr)
    cp = 1.0 / (r**2 * grid.dphi**2)
    cols = rows[:, None] + np.array([-width, -1, 0, 1, width])
    vals = np.column_stack([down, -cp, radial + 2.0 * cp, -cp, up])
    return sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, 5)),
        shape=(rows.size, width * (grid.n_r + 1)),
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
    arcs, so the dropped columns carry no data into b.  IncompatibleGrid
    unless the problem's rays, r_min and r_max are the grid's: solve_dd,
    solve_nonlocal_poisson and discrete_coercivity all check here.
    """
    where = (p.geometry.angles, p.r_min, p.r_max)
    if where != (grid.geometry.angles, grid.r_min, grid.r_max):
        raise IncompatibleGrid("problem and grid differ in geometry or radii")
    keep = _interior(grid)
    A = laplacian_matrix(grid)
    M = shift_matrix_on_grid(p.operator(), grid)
    return A @ M[:, keep], _rhs_vector(p.rhs, grid)[keep]


def _rhs_vector(rhs, grid):
    if isinstance(rhs, GridFunction):
        if rhs.grid is not grid and rhs.grid != grid:
            raise IncompatibleGrid("rhs grid differs from solve grid")
        return rhs.values.ravel()
    return GridFunction.from_callable(grid, rhs).values.ravel()


def _on_parts(real_map, x):
    """real_map(x) for complex x: real_map, a real linear map, acts once on the
    stacked real and imaginary parts, so it never meets a complex copy."""
    parts = real_map(np.column_stack([x.real, x.imag]))
    return parts[:, 0] + 1j * parts[:, 1]


def _direct_solve(S, b, **splu_options):
    """Solve the real system S x = b for complex b with one real LU.

    splu_options go to scipy's splu unchanged; without them SuperLU uses its
    defaults (COLAMD column ordering, supernode relaxation).
    """
    try:
        lu = spla.splu(S.tocsc(), **splu_options)
    except RuntimeError as exc:  # exactly singular factor
        raise SingularSystem("sparse LU failed: %s" % exc)
    x = _on_parts(lu.solve, b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("direct sparse solve produced non-finite values")
    return x


def angular_matrix(alpha, beta, grid):
    """Dense (n_phi-1)^2 matrix T of -d_phiphi with the ray conditions folded in.

    T acts on the interior columns j = 1..n_phi-1 of v = M w; the ray
    columns are eliminated by the conditions v_0 = -alpha*v_s and
    v_2s = -beta*v_s (s = shift_columns) that v inherits from w = 0 on the
    rays.  For |alpha+beta| < 2 its spectrum is exactly 4 sin^2(eta h/2)/h^2
    (h = dphi) over the pencil eigenvalues lambda = i*eta with eta in
    (0, pi/h) (pencil.eigenvalues_closed_form): x = theta*s with
    theta = eta*h is a root of sin(x)(2 cos(x) + alpha + beta) = 0, the
    continuous characteristic equation with lambda*d replaced by i*x, and
    pencil.characteristic_roots solves both.  So the eigenvalues tend to
    (Im lambda)^2 at second order in h.  The solver uses the closed-form
    eigenpairs of _angular_basis; this matrix is their reference.
    """
    m, s = grid.n_phi - 1, grid.shift_columns
    T = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    T[0, s - 1] += alpha
    T[-1, s - 1] += beta
    return T / grid.dphi**2


def _angular_basis(alpha, beta, grid):
    """Closed-form eigenpairs (mu, V) of angular_matrix, or None.

    Every eigenvector solves the recurrence of T on the columns j = 0..2s
    with v_0 = -alpha*v_s and v_2s = -beta*v_s, so mu = (2 - 2cos theta)/h^2
    with x = theta*s a root of sin(x)(2 cos(x) + alpha + beta) = 0 in
    (0, s*pi), from pencil.characteristic_roots.  The s - 1 sine roots
    x = pi*k give v_j = sin(theta j), which vanishes on the middle column;
    the s cosine roots, one in each interval (m*pi, (m+1)*pi), give
    v_j = cos(theta(j-s)) + B sin(theta(j-s)) with B = (alpha-beta)/(2 sin x).
    The columns of V are the interior entries j = 1..2s-1, scaled to unit
    2-norm as np.linalg.eig scales them.  For |alpha+beta| >= 2 the cosine
    family has no real theta and None is returned.
    """
    s = grid.shift_columns
    try:
        x1, x2 = characteristic_roots(alpha + beta, 0.0, s * np.pi)
    except UnsupportedRegime:
        return None
    x1 = x1[1:-1]  # the roots 0 and s*pi give v = 0
    j = np.arange(1, 2 * s)[:, None]
    B = (alpha - beta) / (2.0 * np.sin(x2))
    V = np.hstack([np.sin(x1 / s * j), np.cos(x2 / s * (j - s)) + B * np.sin(x2 / s * (j - s))])
    V /= np.linalg.norm(V, axis=0)
    theta = np.concatenate([x1, x2]) / s
    return (2.0 - 2.0 * np.cos(theta)) / grid.dphi**2, V


def _separable_solve(p, grid, b, mu, V):
    """Solve S x = b through T = V diag(mu) V^-1, one radial system per mode.

    With v = M w and b as (radius x angle) arrays of interior nodes, S x = b
    reads D_r v + diag(1/r^2) v T^T = b for the radial stencil D_r.  Column
    k of v V^-T then solves the tridiagonal system D_r + mu_k diag(1/r^2)
    with column k of b V^-T; all columns go through one sparse LU of the
    block-diagonal matrix, factored in natural order.  w is recovered from
    v column pair (j, j+s) by column pair with the 2x2 sector matrix of the
    difference operator; the middle column passes through unchanged.
    """
    r = grid.r_nodes[1:-1]
    s = grid.shift_columns
    main, up, down = _radial_stencil(r, grid.dr)
    # one tridiagonal block per mode, uncoupled: the last row of a block has
    # no upper entry and the first row no lower one
    up[-1] = down[0] = 0.0
    up, down = np.tile(up, mu.size), np.tile(down, mu.size)
    radial = sp.diags(
        [(main + mu[:, None] / r**2).ravel(), up[:-1], down[1:]], [0, 1, -1], format="csc"
    )
    modes = np.linalg.solve(V, b.reshape(r.size, mu.size).T)
    # tridiagonal blocks take no fill in natural order, so a fill-reducing
    # ordering and supernode relaxation only cost time
    x = _direct_solve(radial, modes.ravel(), permc_spec="NATURAL", relax=1, panel_size=1)
    v = (V @ x.reshape(mu.size, r.size)).T
    inv = inverse_matrix(p.operator())
    left, right = v[:, : s - 1], v[:, s:]
    w = v.copy()
    w[:, : s - 1] = inv[0, 0] * left + inv[0, 1] * right
    w[:, s:] = inv[1, 0] * left + inv[1, 1] * right
    return w.ravel()


def _solve_interior(p, grid, S, b):
    """Solve S x = b on the interior nodes; returns (w, ||S x - b||, info).

    For |alpha+beta| < 2 the system is first solved by the separable method
    of _separable_solve in the closed-form eigenbasis of the folded angular
    matrix T (_angular_basis).  The residual is recomputed by applying S to
    the solution; when the separable path fails or its residual exceeds
    1e-8 * ||b||, the system is solved again by a sparse LU of S, whose
    residual must pass the same gate.  For |alpha+beta| >= 2, T has no real
    eigenbasis and the sparse LU is the only path.  w is the grid function
    with x on the interior nodes and zero on the rays and the truncation
    arcs.  info["method"] names the path whose solution is returned,
    info["cond_V"] holds the 2-norm condition number of the eigenvector
    matrix V with unit columns (inf when there is no real basis) and
    info["rhs_norm"] is ||b||.
    """
    bnorm = np.linalg.norm(b)
    basis = _angular_basis(p.alpha, p.beta, grid)
    method, eq_res, cond_V = "separable", np.inf, np.inf
    if basis is not None:
        mu, V = basis
        cond_V = float(np.linalg.cond(V))
        try:
            x = _separable_solve(p, grid, b, mu, V)
            eq_res = float(np.linalg.norm(_on_parts(S.dot, x) - b))
        except (SingularMatrix, SingularSystem, np.linalg.LinAlgError):
            pass
    # written so that a NaN residual also falls back
    if not eq_res <= 1e-8 * bnorm:
        method, x = "sparse_lu", _direct_solve(S, b)
        eq_res = float(np.linalg.norm(_on_parts(S.dot, x) - b))
        if bnorm > 0 and eq_res > 1e-8 * bnorm:
            raise SolverFailure("direct solve residual %g too large" % eq_res)
    w = np.zeros((grid.n_r + 1, grid.n_phi + 1), dtype=complex)
    w[1:-1, 1:-1] = x.reshape(grid.n_r - 1, grid.n_phi - 1)
    return GridFunction(grid, w), eq_res, {"method": method, "cond_V": cond_V, "rhs_norm": bnorm}


def solve_dd(p, grid):
    """Solve the differential-difference Dirichlet problem on the grid (_solve_interior)."""
    S, b = assemble_dd_system(p, grid)
    w, eq_res, info = _solve_interior(p, grid, S, b)
    return SolveResult(
        solution=w,
        equation_residual=eq_res,
        boundary_residual=0.0,
        n_unknowns=S.shape[0],
        info=info,
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
    f - (discrete -Laplace + 1) u_g on the interior nodes; the lifting is
    built after the problem passes the grid check.  For |alpha+beta| >= 2
    the solve is still attempted but flagged in the result info.
    """
    S, f = assemble_dd_system(p, grid)
    A = laplacian_matrix(grid)
    u_g = boundary_lifting(p, grid)
    w, _, inner = _solve_interior(p, grid, S, f - _on_parts(A.dot, u_g.values.ravel()))
    u = GridFunction(grid, u_g.values + apply_on_grid(p.operator(), w).values)
    # recomputed equation residual of the full discrete operator
    eq_res = float(np.linalg.norm(_on_parts(A.dot, u.values.ravel()) - f))
    info = {
        "method": "lifting+substitution",
        "regime_flag": "ok" if p.guaranteed_solvable else "unsupported",
        "dd_method": inner["method"],
        "cond_V": inner["cond_V"],
        "w": w,
        "lifting": u_g,
    }
    return SolveResult(
        solution=u,
        equation_residual=eq_res,
        boundary_residual=nonlocal_boundary_residual(p, grid, u),
        n_unknowns=S.shape[0],
        info=info,
    )


def _shift_invert(H, sigma, v0):
    """Inertia of H - sigma*I and, when that is definite, lambda_min of H.

    One symmetric-mode LU of H - sigma*I with diagonal pivots only: if it
    kept perm_r == perm_c, H - sigma*I = P^T L U P with U = D L^T, and the
    signs of diag(U) are its inertia (Sylvester).  Returns (n_below, value):
    n_below counts the pivots <= 0, that is the eigenvalues of H at or below
    sigma, and is None when the factor cannot certify (SuperLU failed or
    perm_r != perm_c).  When n_below is 0, the same factor serves as the
    shift-invert operator at sigma, and value is the eigenvalue of H nearest
    sigma, so lambda_min, if it lies above sigma; otherwise value is None.
    The factor is released on return.
    """
    try:
        lu = spla.splu(
            (H - sigma * sp.identity(H.shape[0], format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # SuperLU: exactly singular factor
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    n_below = int(np.count_nonzero(lu.U.diagonal() <= 0.0))
    if n_below:
        return n_below, None
    inv = spla.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    val = spla.eigsh(H, 1, sigma=sigma, which="LM", OPinv=inv, v0=v0, return_eigenvectors=False)
    return 0, (val[0] if val[0] > sigma else None)


def _indefinite_lambda_min(H, v0):
    """lambda_min of an H proven indefinite, by shift-invert below a Ritz bound.

    A loose SA iteration gives a Ritz value theta >= lambda_min (0 if it
    does not converge, still an upper bound).  Shifts sigma = theta - delta,
    delta growing 4x per try and sigma clamped at the Gershgorin floor
    -||H||_inf, are tried until the inertia of H - sigma*I proves that no
    eigenvalue lies at or below sigma; the eigenvalue nearest sigma is then
    lambda_min.  theta and delta decide only the speed, the inertia decides
    the answer.  Returns None when no shift down to the floor is certified,
    or when the value does not lie above the certified shift.
    """
    try:
        theta = spla.eigsh(H, 1, which="SA", v0=v0, tol=1e-2, maxiter=300, return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence:
        theta = 0.0
    h_norm = spla.norm(H, np.inf)
    delta = 1e-2 * max(abs(theta), 1e-3 * h_norm)
    while True:
        sigma = max(theta - delta, -h_norm)
        n_below, val = _shift_invert(H, sigma, v0)
        if n_below == 0 or sigma == -h_norm:
            return val
        delta *= 4.0


def discrete_coercivity(p, grid):
    """Smallest eigenvalue of the symmetric part of the assembled operator.

    The interior operator S of assemble_dd_system is weighted by the discrete
    inner product r_i*dr*dphi; returns lambda_min of H = (W S + (W S)^T)/2,
    the sparse symmetric part, which is never densified.

    One sparse symmetric-mode LU of H with diagonal pivots counts its
    negative eigenvalues (Sylvester inertia) and picks one of three paths:

    * definite (no pivot <= 0): ARPACK (eigsh) in shift-invert mode at 0
      with that same factor returns lambda_min in a few iterations, however
      close to 0 it lies (Ericsson & Ruhe, Math. Comp. 35, 1980);
    * proven indefinite (a negative pivot): the factor is released, a loose
      SA iteration gives a Ritz upper bound theta, and shift-invert runs at
      the first sigma below theta for which the inertia of H - sigma*I
      proves that no eigenvalue lies below sigma (Grimes, Lewis & Simon,
      SIAM J. Matrix Anal. Appl. 15, 1994), so the eigenvalue nearest sigma
      is lambda_min;
    * cannot certify (SuperLU failed or the factor broke symmetry,
      perm_r != perm_c): the factor is released and eigsh iterates for the
      smallest algebraic eigenvalue (which="SA") of H itself.

    A shift-invert value that does not lie above its shift, or a shift that
    no factor certifies down to the Gershgorin floor -||H||_inf, also sends
    the call to the SA iteration.  At most one factor is alive at a time.

    Every ARPACK run starts from one fixed pseudo-random vector, so equal
    inputs give equal values.  A symmetric start vector would not do: for
    alpha = beta the reflection about the middle ray commutes with the
    operator, and from the all-ones vector ARPACK misses a lowest
    eigenvector that is odd under it (at n = 16, alpha = beta = -1.9 it
    returned -11.92 for -12.04).  An ARPACK failure raises SolverFailure;
    only a loose SA iteration that does not converge is no failure, its
    bound theta is then 0.
    """
    S, _ = assemble_dd_system(p, grid)
    r = np.repeat(grid.r_nodes, grid.n_phi + 1)[_interior(grid)]
    Sw = sp.diags(r * grid.dr * grid.dphi) @ S
    sym = 0.5 * (Sw + Sw.T)
    v0 = np.random.default_rng(0).standard_normal(sym.shape[0])
    try:
        n_below, val = _shift_invert(sym, 0.0, v0)
        if n_below:
            val = _indefinite_lambda_min(sym, v0)
        if val is None:
            val = spla.eigsh(sym, 1, which="SA", v0=v0, return_eigenvectors=False)[0]
        return float(val)
    except spla.ArpackError as exc:
        raise SolverFailure("extreme eigenvalue estimation failed: %s" % exc)

"""Finite-difference solvers on a truncated sector.

Two problems are covered, both with the operator -Laplace + 1 and the
two-sector difference operator R w = w - alpha*w(phi+d) - beta*w(phi-d):

* the differential-difference Dirichlet problem  -Laplace(R_K w) + R_K w = f
  with w = 0 on both rays and the truncation arcs, discretized as the
  composite matrix A*M (polar five-point stencil A after the column-shift
  matrix M) on the interior unknowns only, and solved through v = M w;
* the nonlocal Poisson problem  -Laplace u + u = f with ray conditions
  u|ray1 + alpha*u(r, phi+d)|ray1 = g1 and u|ray3 + beta*u(r, phi-d)|ray3
  = g3, solved through a boundary lifting u_g plus the substitution
  u = u_g + R_K w.

The infinite angle is truncated to r_min <= r <= r_max with homogeneous
Dirichlet data on the artificial arcs; manufactured and compactly supported
data make the truncation exact.

Matrix rows are the interior nodes and columns all nodes (laplacian_matrix);
both solvers check the problem against the grid first (_check_grid, in
assemble_dd_system) and hand the interior system to one solve core
(_solve_interior).  The stencil A is written straight into CSR arrays with
32-bit indices while the grid allows, from one value array per stencil
slot and the interior node indices.  The system the solvers assemble is
that of v = M w, S_v (assemble_dd_system): A's arrays with the arc columns
dropped and the ray columns folded onto the middle column, with no sparse
matrix product.

The system of w separates like the Mellin transform separates r from
phi: S = A M[:, interior] = S_v (I x M_int), S_v = D_r x I + diag(1/r^2) x T,
with D_r the radial tridiagonal stencil, M_int the column shift on the
interior columns (a 2x2 block on each column pair (j, j+s), the identity
on the middle column j = s) and T the angular second difference with the
ray conditions v_0 = -alpha*v_s, v_2s = -beta*v_s of v = M w folded in
(angular_matrix).
The solve core diagonalizes T = V diag(mu) V^-1, solves one tridiagonal radial
system D_r + mu_k diag(1/r^2) per angular mode and recovers w with the
closed-form inverse of the 2x2 blocks: the tensor-product method of Lynch,
Rice & Thomas (Numer. Math. 6, 1964).  The eigenpairs of T are written
down, not computed (_angular_basis, which checks |alpha+beta| < 2 itself):
there they are the discrete pencil, theta = eta*h over the pencil
eigenvalues i*eta, with x = theta*s taken from the pencil's own root
routine pencil.characteristic_roots, in O(n_phi^2) operations.  So is V^-1: its
rows are the left eigenvectors, the eigenvectors of the adjoint T^T, which
are piecewise sines, scaled by biorthogonality.  S_v, V and the radial
factor are real, so every solve and matrix-vector product is a real map
on one float column per part of the data (_on_parts).  Real data are
float64 from the rhs on, because GridFunction stores real fields so, and
cost one real solve; complex data cost one solve of their two parts side
by side.  The lifting, the residuals and w keep the dtype of their data,
so real data never meet complex arithmetic.  Both transforms are real
matrix products, and the separable path factors no dense matrix.  All
radial systems go through one sparse LU of a block-diagonal matrix in
natural order, which a tridiagonal block fills no further.  The transform
with V is not backward stable for S: its residual grows with cond(V),
which is 2 to 45 for |alpha+beta| <= 1.998 and grows without bound as
|alpha+beta| -> 2.  So the residual ||S_v v - b|| of v = M w, the shift
applied to w on the grid (apply_on_grid), recomputed after every solve and
gated at 1e-8 * ||b||, decides: when T has no real eigenbasis
(|alpha+beta| >= 2), when a radial system is exactly singular, or when
the separable solution fails the gate, the core separates S_v along the
other axis (_radial_solve): the radial operator has the orthogonal
eigenbasis of the symmetric C = R^1/2 (R D_r) R^1/2 for every coupling,
and each radial mode leaves one angular system T + lam_i I, all of them
factored by the same block-diagonal LU (_block_lu), the only sparse factor
the library makes.  Both paths recover w from v by the same 2x2 inverse
(_shift_inverse).  That v is the field the nonlocal solve adds to its
lifting.  A coupling with 1 - alpha*beta = 0 makes M_int singular; the
core refuses it before any factor.

The coercivity probe (discrete_coercivity) certifies the sign of lambda_min
of the weighted symmetric part H = dr*dphi*(K x A1 + R^-1 x A2) of S.
Neither S nor H is assembled for it: one set of Kronecker factors
(_kronecker_factors: the radii, all eigenpairs of the radial tridiagonal
C = R^1/2 K R^1/2, and the dense angular A1 and A2) gives the bracket
floor <= lambda_min <= theta of _coercivity_bracket and a rounding margin
of at least 1e-12*||H||_inf.  The probe returns floor when it exceeds the
margin (a coercivity constant), theta when it lies below minus the margin
(the Rayleigh quotient of a vector on which the form is negative), and
0.0 in between, which is only |alpha+beta| = 2.  floor and theta are one
end-block eigenvalue over positive numbers, so they never differ in sign.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.linalg as la

from .core import AngleGeometry, GridFunction, IncompatibleGrid, SingularSystem, SolverFailure
from .difference_ops import apply_on_grid, column_shift_operator, two_sector_operator
from .pencil import characteristic_roots


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
    rhs: object  # GridFunction, or f(r, phi) sampled by GridFunction.from_callable
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
    rows = np.arange(1, grid.n_r)[:, None] * (grid.n_phi + 1)
    return (rows + np.arange(1, grid.n_phi)).ravel()


def _radial_stencil(r, dr):
    """Main, upper and lower coefficients of -(d_rr + (1/r) d_r) + 1 at radii r."""
    cr = 1.0 / dr**2
    cr1 = 1.0 / (2.0 * r * dr)
    return np.full(r.shape, 2.0 * cr + 1.0), -cr - cr1, -cr + cr1


def _index_dtype(largest):
    """int32 if indices and counts up to largest fit it, else int64: scipy's
    CSR constructor chooses alike and so keeps such arrays uncopied."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def laplacian_matrix(grid):
    """Sparse matrix of -(d_rr + (1/r)d_r + (1/r^2)d_phiphi) + 1, interior rows.

    Second-order central stencil; row k is the equation at node
    _interior(grid)[k], the columns are all nodes in row-major order.  The
    CSR arrays are written directly: the (n_r-1, n_phi-1, 5) value array is
    one row of five stencil coefficients per radius, repeated over the
    angle, and the column indices are one line's stencil plus each line's
    offset.
    """
    width = grid.n_phi + 1
    shape = ((grid.n_r - 1) * (grid.n_phi - 1), width * (grid.n_r + 1))
    idx = _index_dtype(max(5 * shape[0], shape[1]))
    r = grid.r_nodes[1:-1, None]
    radial, up, down = _radial_stencil(r, grid.dr)
    cp = 1.0 / (r**2 * grid.dphi**2)
    row = np.hstack([down, -cp, radial + 2.0 * cp, -cp, up])[:, None, :]
    vals = np.repeat(row, grid.n_phi - 1, axis=1).ravel()
    stencil = np.array([-width, -1, 0, 1, width], dtype=idx)
    line = (np.arange(1, grid.n_phi, dtype=idx)[:, None] + stencil).ravel()
    cols = line + width * np.arange(1, grid.n_r, dtype=idx)[:, None]
    return sp.csr_matrix((vals, cols.ravel(), np.arange(0, vals.size + 1, 5, dtype=idx)), shape=shape)


def shift_matrix_on_grid(op, grid):
    """Sparse matrix of apply_on_grid acting on flattened node vectors.

    kron(I_{n_r+1}, C) for the column shift C of one radial line.  No solver
    path builds it: they apply the shift with apply_on_grid, and this
    matrix is its reference.
    """
    return sp.kron(sp.identity(grid.n_r + 1), column_shift_operator(op, grid), format="csr")


def _check_grid(p, grid):
    """IncompatibleGrid unless the problem's rays, r_min and r_max are the grid's."""
    if (p.geometry.angles, p.r_min, p.r_max) != (grid.geometry.angles, grid.r_min, grid.r_max):
        raise IncompatibleGrid("problem and grid differ in geometry or radii")


def assemble_dd_system(p, grid):
    """Sparse system of the differential-difference problem in v = M w.

    Returns (S_v, b) over the interior unknowns.  S_v is laplacian_matrix(grid)
    with its arc columns dropped and its two ray columns folded onto the
    middle column j = s by v_0 = -alpha*v_s and v_2s = -beta*v_s, which
    v = M w inherits from w = 0 on the rays: S_v = D_r x I + diag(1/r^2) x T
    with T = angular_matrix, the operator _separable_solve diagonalizes and
    _radial_solve factors.  A row keeps A's slot order,
    a folded entry in the slot of its ray column; at s = 2 it lands on a
    stencil neighbour and the two are summed.  b is the
    rhs on the interior nodes.  IncompatibleGrid unless the problem's rays,
    r_min and r_max are the grid's (_check_grid), which solve_dd and
    solve_nonlocal_poisson check here.
    """
    _check_grid(p, grid)
    A = laplacian_matrix(grid)
    n_a, m, s = grid.n_r - 1, grid.n_phi - 1, grid.shift_columns
    n = n_a * m
    # A's arrays are this call's own and change in place.  Its five slots
    # (line below, left, centre, right, line above) hold node columns: node
    # (a, j) is interior column (a-1)*m + j - 1, so the slots of row line i
    # drop 2i + m + 3, those of the lines below and above 2 less and 2 more
    vals, cols = A.data.reshape(n_a, m, 5), A.indices.reshape(n_a, m, 5)
    idx = cols.dtype
    by_line = A.indices.reshape(n_a, 5 * m)
    by_line -= (2 * np.arange(n_a, dtype=idx) + (m + 3))[:, None]
    cols[..., 0] += 2
    cols[..., 4] -= 2
    vals[:, 0, 1] *= -p.alpha
    cols[:, 0, 1] += s
    vals[:, -1, 3] *= -p.beta
    cols[:, -1, 3] -= s
    # the first line has no line below and the last none above; the middle
    # lines are one slice of each array
    data, indices = (
        np.concatenate([x[0, :, 1:].ravel(), x.ravel()[5 * m : -5 * m], x[-1, :, :4].ravel()])
        for x in (vals, cols)
    )
    k = np.arange(n + 1, dtype=idx)
    S_v = sp.csr_matrix((data, indices, 4 * k + np.clip(k - m, 0, n - 2 * m)), shape=(n, n))
    if s == 2:
        S_v.sum_duplicates()
    return S_v, _rhs_vector(p.rhs, grid)[_interior(grid)]


def _rhs_vector(rhs, grid):
    if isinstance(rhs, GridFunction):
        if rhs.grid is not grid and rhs.grid != grid:
            raise IncompatibleGrid("rhs grid differs from solve grid")
        return rhs.values.ravel()
    return GridFunction.from_callable(grid, rhs).values.ravel()


def _on_parts(real_map, x):
    """real_map(x) for real or complex x, real_map a real linear map.

    real_map acts once on an (N, k) float array and never meets a complex
    one: a real x is its one column (k = 1) and gives a real result, a
    complex x its (N, 2) float view, real then imaginary part, and gives a
    complex result.  Whether data are real is decided by their dtype, which
    GridFunction sets: real fields are float64, so real data cost one real
    part.  Strided complex x is copied to a contiguous array first, which
    the view needs.
    """
    if not np.iscomplexobj(x):
        return real_map(x[:, None]).ravel()
    y = real_map(np.ascontiguousarray(x).view(float).reshape(-1, 2))
    return np.ascontiguousarray(y).view(complex).ravel()


def _block_lu(block, diagonals):
    """One splu, in natural order, of the block-diagonal matrix that holds a
    copy of the canonical CSC block per row of diagonals, with that row on
    its diagonal.

    Blocks are uncoupled, so the factor of each is the factor of its own.
    The solvers pass tridiagonal blocks, which natural order does not fill,
    and the angular matrix, whose ray column fills one row and one column,
    so a fill-reducing ordering and supernode relaxation only cost time.
    SingularSystem if SuperLU finds a block exactly singular.
    """
    k, n = diagonals.shape
    data = np.tile(block.data, (k, 1))
    data[:, block.indices == np.repeat(np.arange(n), np.diff(block.indptr))] = diagonals
    offsets = np.arange(k, dtype=np.int32)[:, None]
    starts = np.append(block.indptr[:-1] + block.nnz * offsets, np.int32(k * block.nnz))
    tiled = sp.csc_matrix((data.ravel(), (block.indices + n * offsets).ravel(), starts), shape=(k * n, k * n))
    try:
        return spla.splu(tiled, permc_spec="NATURAL", relax=1, panel_size=1)
    except RuntimeError as exc:  # exactly singular factor
        raise SingularSystem("sparse LU failed: %s" % exc)


def _finite(x):
    """x, or SingularSystem if it holds an inf or a NaN."""
    if not np.all(np.isfinite(x)):
        raise SingularSystem("sparse solve produced non-finite values")
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
    (Im lambda)^2 at second order in h.  The separable path uses the
    closed-form eigenpairs of _angular_basis, which this matrix checks;
    the radial path factors T + lam_i I for each radial eigenvalue lam_i
    (_radial_solve), for every coupling.
    """
    m, s = grid.n_phi - 1, grid.shift_columns
    T = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    T[0, s - 1] += alpha
    T[-1, s - 1] += beta
    return T / grid.dphi**2


def _angular_basis(alpha, beta, grid):
    """Closed-form eigenpairs of angular_matrix and the inverse eigenbasis.

    Returns (mu, V, W) with T = V diag(mu) W and W = V^-1, or None.  Every
    eigenvector solves the recurrence of T on the columns j = 0..2s with
    v_0 = -alpha*v_s and v_2s = -beta*v_s, so mu = (2 - 2cos theta)/h^2 with
    x = theta*s a root of sin(x)(2 cos(x) + alpha + beta) = 0 in (0, s*pi),
    from pencil.characteristic_roots.  The s - 1 sine roots x = pi*k give
    v_j = sin(theta j), which vanishes on the middle column; the s cosine
    roots, one in each interval (m*pi, (m+1)*pi), give
    v_j = cos(theta(j-s)) + B sin(theta(j-s)) with B = (alpha-beta)/(2 sin x).
    The columns of V are the interior entries j = 1..2s-1, scaled to unit
    2-norm as np.linalg.eig scales them.

    The rows of W are the adjoint (left) eigenvectors y, eigenvectors of T^T
    for the same mu.  In T^T the ray conditions act only on the middle row,
    as a point source, so y is a sine on each side of j = s that vanishes
    at j = 0 and j = 2s: y_j = sin(theta*min(j, 2s-j)) for a cosine root,
    and for a sine root (c = cos x = +-1) y_j = (c+beta) sin(theta j) for
    j <= s and -(c+alpha) sin(theta(2s-j)) for j >= s.  Both are read off
    the sine tables of V.  Left and right eigenvectors of distinct
    eigenvalues are biorthogonal, so W = diag(1/(y_k . v_k)) Y^T.  For
    |alpha+beta| >= 2 the cosine roots are complex or double, T has no real
    eigenbasis of this form, and None is returned before any root is listed.
    """
    s = grid.shift_columns
    if not abs(alpha + beta) < 2.0:
        return None
    x1, x2 = characteristic_roots(alpha + beta, 0.0, s * np.pi)
    x1 = x1[1:-1]  # the roots 0 and s*pi give v = 0
    j = np.arange(1, 2 * s)[:, None]
    sin1 = np.sin(x1 / s * j)
    sin2, cos2 = np.sin(x2 / s * (j - s)), np.cos(x2 / s * (j - s))
    B = (alpha - beta) / (2.0 * np.sin(x2))
    V = np.hstack([sin1, cos2 + B * sin2])
    V /= np.linalg.norm(V, axis=0)
    # sin1 holds sin(theta j) at row j - 1, sin2 holds sin(theta t) at row t + s - 1
    c = np.cos(x1)
    Y = np.hstack([
        np.vstack([(c + beta) * sin1[:s], -(c + alpha) * sin1[: s - 1][::-1]]),
        np.vstack([sin2[s:], np.sin(x2), sin2[s:][::-1]]),
    ])
    W = Y.T / np.einsum("ij,ij->j", Y, V)[:, None]
    theta = np.concatenate([x1, x2]) / s
    return (2.0 - 2.0 * np.cos(theta)) / grid.dphi**2, V, W


def _shift_inverse(p, s, v):
    """w from v = M_int w along axis 0, the angle: the inverse
    [[1, alpha], [beta, 1]]/(1 - alpha*beta) of the 2x2 sector matrix on
    each column pair (j, j+s); the middle column j = s passes unchanged."""
    det = 1.0 - p.alpha * p.beta
    left, right = v[: s - 1], v[s:]
    w = v.copy()
    w[: s - 1] = (left + p.alpha * right) / det
    w[s:] = (right + p.beta * left) / det
    return w


def _separable_solve(p, grid, b, mu, V, W):
    """Solve S x = b through T = V diag(mu) W, one radial system per mode.

    With v = M w and b as (radius x angle) arrays of interior nodes, S x = b
    reads D_r v + diag(1/r^2) v T^T = b for the radial stencil D_r.  Column
    k of v W^T then solves the tridiagonal system D_r + mu_k diag(1/r^2)
    with column k of b W^T; all columns go through one sparse LU of the
    block-diagonal matrix (_block_lu).  w is recovered from
    v by _shift_inverse, whose 2x2 sector matrix is never singular here:
    1 - alpha*beta > (alpha-beta)^2/4 when |alpha+beta| < 2.  That recovery
    acts on the angle index only, so it is folded into V before the
    synthesis.  The whole solve is one real linear map on the k parts
    of b that _on_parts hands on, k = 1 for real data: both transforms are
    real products with one (angle x radius*k) array that holds the parts
    of every radius side by side.
    """
    r = grid.r_nodes[1:-1]
    s = grid.shift_columns
    main, up, down = _radial_stencil(r, grid.dr)
    radial = sp.diags([down[1:], main, up[:-1]], [-1, 0, 1], format="csc")
    lu = _block_lu(radial, main + mu[:, None] / r**2)
    Vw = _shift_inverse(p, s, V)

    def solve(parts):
        k = parts.shape[1]
        by_angle = np.ascontiguousarray(parts.reshape(r.size, mu.size, k).transpose(1, 0, 2))
        modes = W @ by_angle.reshape(mu.size, -1)
        x = lu.solve(modes.reshape(-1, k))
        w = Vw @ x.reshape(mu.size, -1)
        return w.reshape(mu.size, r.size, k).transpose(1, 0, 2).reshape(-1, k)

    return _finite(_on_parts(solve, b))


def _radial_solve(p, grid, b):
    """Solve S x = b through the radial eigenbasis, one angular system per mode.

    With v = M w and b as (radius x angle) arrays, S_v v = b reads
    R^2 D_r v + v T^T = R^2 b for R = diag(r).  With C = Q diag(lam) Q^T of
    _kronecker_factors, R^2 D_r = P diag(lam) P^-1 for P = R^1/2 Q, so row
    i of y = P^-1 v solves (T + lam_i I) y_i = g_i with g = Q^T R^3/2 b: the
    method of Buzbee, Golub & Nielson (SIAM J. Numer. Anal. 7, 1970) along
    the radius.  Q is orthogonal, so it holds for every coupling; all rows
    go through one sparse LU of the block-diagonal matrix (_block_lu), and
    w comes from v = R^1/2 Q y by _shift_inverse.
    """
    r, lam, Q, _, _ = _kronecker_factors(p, grid)
    T = sp.csc_matrix(angular_matrix(p.alpha, p.beta, grid))
    lu = _block_lu(T, T.diagonal() + lam[:, None])

    def solve(parts):
        k = parts.shape[1]
        y = lu.solve((Q.T @ (r[:, None] ** 1.5 * parts.reshape(r.size, -1))).reshape(-1, k))
        return (np.sqrt(r)[:, None] * (Q @ y.reshape(r.size, -1))).reshape(-1, k)

    v = _finite(_on_parts(solve, b)).reshape(r.size, -1)
    return _shift_inverse(p, grid.shift_columns, v.T).T.ravel()


def _norm_estimate(A):
    """||A||_2 from below: 10 power steps on A^T A from a fixed start vector."""
    x = np.random.default_rng(0).standard_normal(A.shape[1])
    for _ in range(10):
        x /= np.linalg.norm(x)
        x = A.T @ (A @ x)
    return float(np.sqrt(np.linalg.norm(x)))


def _solve_interior(p, grid, S_v, b):
    """Solve S_v (I x M_int) x = b, the system of w, on the interior nodes.

    Returns (w, v, ||S_v v - b||, info): w the grid function with x on the
    interior nodes and zero on the rays and the truncation arcs, and
    v = M w = apply_on_grid(op, w), on whose interior nodes the residual
    applies S_v (assemble_dd_system).  For |alpha+beta| < 2 the system is
    first solved by the separable method of _separable_solve in the
    closed-form eigenbasis of the folded angular matrix T and its
    closed-form inverse (_angular_basis), with no dense factorization.
    When the separable path fails or its residual exceeds 1e-8 * ||b||, x
    comes from _radial_solve, which separates S_v in the radial eigenbasis
    instead; that solution must pass the same gate, or SolverFailure.  For
    |alpha+beta| >= 2, T has no real eigenbasis and the radial solve is the
    only path.  info["method"] names the path whose solution is returned
    ("separable" or "radial"), info["cond_V"] estimates the
    2-norm condition number of the eigenvector matrix V with unit columns
    as ||V||_2 * ||W||_2, each norm from below by a few power steps
    (_norm_estimate), so it does not exceed cond(V); it is inf when there is
    no real basis.  info["rhs_norm"] is ||b||.  SolverFailure if b is not
    finite; SingularSystem before any factor if 1 - alpha*beta = 0, which
    makes the 2x2 blocks of M_int singular.
    """
    if not np.all(np.isfinite(b)):
        raise SolverFailure("right-hand side is not finite")
    if 1.0 - p.alpha * p.beta == 0.0:
        raise SingularSystem("1 - alpha*beta = 0: the column shift is singular")
    bnorm = np.linalg.norm(b)

    def gated(x):
        w = GridFunction(grid, np.pad(x.reshape(grid.n_r - 1, grid.n_phi - 1), 1))
        v = apply_on_grid(p.operator(), w)
        return w, v, float(np.linalg.norm(_on_parts(S_v.dot, v.values[1:-1, 1:-1].ravel()) - b))

    basis = _angular_basis(p.alpha, p.beta, grid)
    method, eq_res, cond_V = "separable", np.inf, np.inf
    if basis is not None:
        mu, V, W = basis
        cond_V = _norm_estimate(V) * _norm_estimate(W)
        try:
            w, v, eq_res = gated(_separable_solve(p, grid, b, mu, V, W))
        except SingularSystem:
            pass
    # written so that a NaN residual also falls back
    if not eq_res <= 1e-8 * bnorm:
        method = "radial"
        w, v, eq_res = gated(_radial_solve(p, grid, b))
        if bnorm > 0 and eq_res > 1e-8 * bnorm:
            raise SolverFailure("radial solve residual %g too large" % eq_res)
    return w, v, eq_res, {"method": method, "cond_V": cond_V, "rhs_norm": bnorm}


def solve_dd(p, grid):
    """Solve the differential-difference Dirichlet problem on the grid (_solve_interior)."""
    S_v, b = assemble_dd_system(p, grid)
    w, _, eq_res, info = _solve_interior(p, grid, S_v, b)
    return SolveResult(
        solution=w,
        equation_residual=eq_res,
        boundary_residual=0.0,
        n_unknowns=S_v.shape[0],
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
    r, phi = grid.r_nodes, grid.phi_nodes
    g1 = np.full(r.size, p.g1(r))
    g3 = np.full(r.size, p.g3(r))
    vals = g1[:, None] * lifting_cutoff((phi - b1) / eps) + g3[:, None] * lifting_cutoff(
        (b3 - phi) / eps
    )
    return GridFunction(grid, vals)


def nonlocal_boundary_residual(p, grid, u):
    """Max residual of the two nonlocal ray conditions on the grid."""
    s = grid.shift_columns
    r = grid.r_nodes
    res1 = u.values[:, 0] + p.alpha * u.values[:, s] - p.g1(r)
    res3 = u.values[:, -1] + p.beta * u.values[:, s] - p.g3(r)
    return float(max(np.max(np.abs(res1)), np.max(np.abs(res3))))


def solve_nonlocal_poisson(p, grid):
    """Solve the nonlocal Poisson problem via lifting and substitution.

    u = u_g + R_K w where u_g is the cutoff lifting of the ray data and w
    solves the differential-difference problem with right-hand side
    f - (discrete -Laplace + 1) u_g on the interior nodes; the lifting is
    built after the problem passes the grid check.  For |alpha+beta| >= 2
    (p.guaranteed_solvable is False) the solve is still attempted.  info is
    that of solve_dd for the w problem (_solve_interior: method, cond_V,
    rhs_norm) plus info["w"] and info["lifting"] = u_g.  With real f, g1
    and g3 the solution, w and u_g are real fields, float64 throughout.
    """
    S_v, f = assemble_dd_system(p, grid)
    A = laplacian_matrix(grid)
    u_g = boundary_lifting(p, grid)
    w, v, _, info = _solve_interior(p, grid, S_v, f - _on_parts(A.dot, u_g.values.ravel()))
    u = GridFunction(grid, u_g.values + v.values)
    # recomputed equation residual of the full discrete operator
    eq_res = float(np.linalg.norm(_on_parts(A.dot, u.values.ravel()) - f))
    info.update(w=w, lifting=u_g)
    return SolveResult(
        solution=u,
        equation_residual=eq_res,
        boundary_residual=nonlocal_boundary_residual(p, grid, u),
        n_unknowns=S_v.shape[0],
        info=info,
    )


def _kronecker_factors(p, grid):
    """(r, lam, Q, A1, A2): the factors of H = dr*dphi*(K x A1 + R^-1 x A2).

    r holds the interior radii and (lam, Q) all eigenpairs of the symmetric
    tridiagonal C = R^1/2 K R^1/2 = Q diag(lam) Q^T for K = R D_r, from one
    eigh_tridiagonal; A1 = sym(M_int) and A2 = sym(T M_int) are dense, for
    the folded angular matrix T and the interior block M_int of the column
    shift.  The coercivity probe reads all five; the radial solve reads
    (r, lam, Q), in which R^2 D_r = R K = P diag(lam) P^-1 for P = R^1/2 Q.
    """
    r = grid.r_nodes[1:-1]
    main, up, _ = _radial_stencil(r, grid.dr)
    lam, Q = la.eigh_tridiagonal(r**2 * main, r[:-1] * up[:-1] * np.sqrt(r[:-1] * r[1:]))
    M_int = column_shift_operator(p.operator(), grid)[1:-1, 1:-1]
    M = np.eye(grid.n_phi - 1) @ M_int  # dense: ndarray @ sparse
    TM = angular_matrix(p.alpha, p.beta, grid) @ M_int
    return r, lam, Q, 0.5 * (M + M.T), 0.5 * (TM + TM.T)


def _coercivity_bracket(grid, factors):
    """(floor, theta) with floor <= lambda_min(H) <= theta, H as in discrete_coercivity.

    H = dr*dphi*(K x A1 + R^-1 x A2) over the interior radii R = diag(r)
    (_kronecker_factors).  With C = R^1/2 K R^1/2 = Q Lambda Q^T and
    Z = R^1/2 Q, (Z x I)^T H (Z x I) is block diagonal with blocks
    lambda_i A1 + A2, and Z Z^T = R, so by Ostrowski's theorem (Horn &
    Johnson, Thm 4.5.9) lambda_min(H) is dr*dphi*b over a radius in
    [r_first, r_last], b the least block eigenvalue.  b is concave in
    lambda_i, so the two end blocks attain it.  theta is the least Rayleigh
    quotient of H at (R^1/2 q_i) x y_i, y_i the lowest eigenvector of end
    block i.
    """
    r, lam, Q, A1, A2 = factors
    scale, ends = grid.dr * grid.dphi, (0, -1)
    b = [np.linalg.eigvalsh(lam[k] * A1 + A2)[0] for k in ends]
    theta = min(scale * b_k / (Q[:, k] ** 2 @ r) for b_k, k in zip(b, ends))
    return scale * min(b) / (r[0] if min(b) < 0.0 else r[-1]), theta


def discrete_coercivity(p, grid):
    """A certified bound on the least eigenvalue of the discrete operator's
    weighted symmetric part; its sign says whether the form is coercive.

    The interior operator of w, S = S_v (I x M_int) with S_v of
    assemble_dd_system and M_int the interior column shift, is weighted by
    the discrete inner product r_i*dr*dphi; its symmetric part
    H = (W S + (W S)^T)/2 = dr*dphi*(K x A1 + R^-1 x A2) is never formed.
    Its Kronecker factors (_kronecker_factors) give the bracket
    floor <= lambda_min(H) <= theta of _coercivity_bracket, and the value
    returned is
      * floor when floor > margin: then (H x, x) >= floor*||x||^2 for every
        x, so floor is a discrete coercivity constant;
      * theta when theta < -margin: theta is the Rayleigh quotient of an
        explicit vector, so H is not definite and coercivity is lost;
      * 0.0 otherwise, which happens on |alpha+beta| = 2, where lambda_min
        is 0 up to rounding.
    margin = 1e-12*dr*dphi*(||K||_inf ||A1||_inf + ||A2||_inf / r_first) is
    at least 1e-12*||H||_inf, since ||X x Y||_inf = ||X||_inf ||Y||_inf.
    No undecided case, where the bracket straddles 0, can occur: floor and
    theta are both the least end-block eigenvalue b times a positive number
    (dr*dphi/r_first or dr*dphi/r_last, and dr*dphi/(q^T R q)), so they have
    the sign of b.  Neither S nor S_v is assembled, the rhs is never
    sampled and no sparse matrix is factored; nothing is iterative or
    random, so equal inputs give equal values.  IncompatibleGrid unless the
    problem's rays and radii are the grid's (_check_grid).
    """
    _check_grid(p, grid)
    factors = _kronecker_factors(p, grid)
    r, _, _, A1, A2 = factors
    floor, theta = _coercivity_bracket(grid, factors)
    main, up, _ = _radial_stencil(r, grid.dr)
    off = np.abs(r[:-1] * up[:-1])  # K's off-diagonal, taken from the upper one as in C
    k_norm = np.max(r * main + np.append(off, 0.0) + np.append(0.0, off))
    norm = k_norm * np.linalg.norm(A1, np.inf) + np.linalg.norm(A2, np.inf) / r[0]
    margin = 1e-12 * grid.dr * grid.dphi * norm
    if floor > margin:
        return float(floor)
    if theta < -margin:
        return float(theta)
    return 0.0

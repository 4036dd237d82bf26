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
(|alpha+beta| >= 2), when the radial solve hits a singular matrix, or when
the separable solution fails the gate, the core forms S by one sparse
product and solves again with its sparse LU, ordered by minimum degree on
S + S^T.  That v is the field the nonlocal solve adds to its lifting.  A
coupling with 1 - alpha*beta = 0 makes M_int, and so S, singular; the core
refuses it before any factor.

The coercivity probe (discrete_coercivity) takes lambda_min of the weighted
symmetric part H = dr*dphi*(K x A1 + R^-1 x A2) of S by shift-invert ARPACK
at a certified shift sigma.  S is not assembled for it: one set of
Kronecker factors (_kronecker_factors: the radii, all eigenpairs of the
radial tridiagonal C = R^1/2 K R^1/2, and the dense angular A1 and A2)
gives H as two sparse Kronecker products (_kronecker_sum), the bracket
of _coercivity_bracket and the congruence.  At sigma = 0, where the
bracket proves H definite, H is inverted through the diagonal congruence
of its Kronecker factors, with no sparse LU; at sigma < 0 each shift is
certified by the inertia of a symmetric-mode SuperLU factor.
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
    CSR arrays are written directly: one stencil coefficient per slot of an
    (n_r-1, n_phi-1, 5) value array, taken per radius and broadcast over the
    angle, and the column indices _interior(grid) plus the five offsets.
    """
    width = grid.n_phi + 1
    shape = ((grid.n_r - 1) * (grid.n_phi - 1), width * (grid.n_r + 1))
    idx = _index_dtype(max(5 * shape[0], shape[1]))
    r = grid.r_nodes[1:-1, None]
    radial, up, down = _radial_stencil(r, grid.dr)
    cp = 1.0 / (r**2 * grid.dphi**2)
    vals = np.empty((grid.n_r - 1, grid.n_phi - 1, 5))
    for k, coefficient in enumerate((down, -cp, radial + 2.0 * cp, -cp, up)):
        vals[:, :, k] = coefficient
    cols = _interior(grid).astype(idx)[:, None] + np.array([-width, -1, 0, 1, width], dtype=idx)
    return sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, 5, dtype=idx)), shape=shape
    )


def shift_matrix_on_grid(op, grid):
    """Sparse matrix of apply_on_grid acting on flattened node vectors.

    kron(I_{n_r+1}, C) for the column shift C of one radial line, by index
    arithmetic on the CSR arrays of C: one copy of its data, indices and
    row pointers per radial line, offset by the line's first node and entry.
    The solvers do not build it: they apply the shift with apply_on_grid,
    and this matrix is its reference.
    """
    C = column_shift_operator(op, grid)
    lines, width = grid.n_r + 1, grid.n_phi + 1
    idx = _index_dtype(max(lines * C.nnz, lines * width))
    line = np.arange(lines, dtype=idx)[:, None]
    indptr = np.append(C.indptr[:-1] + C.nnz * line, idx(lines * C.nnz))
    return sp.csr_matrix(
        (np.tile(C.data, lines), (C.indices + width * line).ravel(), indptr),
        shape=(lines * width, lines * width),
    )


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
    with T = angular_matrix, the operator _separable_solve diagonalizes.  The
    system of w is S = S_v (I x M_int), M_int the column shift on the
    interior columns; only the sparse LU of _solve_interior forms it.  A row
    keeps A's slot order, a folded entry in the slot of its ray column; at
    s = 2 it lands on a stencil neighbour and the two are summed.  b is the
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


def _factor(M, **splu_options):
    """scipy's splu of M; SingularSystem if SuperLU finds it exactly singular.

    splu_options go to splu unchanged; without them SuperLU uses its
    defaults (COLAMD column ordering, supernode relaxation).
    """
    try:
        return spla.splu(M.tocsc(), **splu_options)
    except RuntimeError as exc:  # exactly singular factor
        raise SingularSystem("sparse LU failed: %s" % exc)


def _finite(x):
    """x, or SingularSystem if it holds an inf or a NaN."""
    if not np.all(np.isfinite(x)):
        raise SingularSystem("sparse solve produced non-finite values")
    return x


def _direct_solve(S, b, **splu_options):
    """Solve the real system S x = b for real or complex b with one real LU
    (_factor), solving once for the parts of b that _on_parts hands on."""
    return _finite(_on_parts(_factor(S, **splu_options).solve, b))


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


def _separable_solve(p, grid, b, mu, V, W):
    """Solve S x = b through T = V diag(mu) W, one radial system per mode.

    With v = M w and b as (radius x angle) arrays of interior nodes, S x = b
    reads D_r v + diag(1/r^2) v T^T = b for the radial stencil D_r.  Column
    k of v W^T then solves the tridiagonal system D_r + mu_k diag(1/r^2)
    with column k of b W^T; all columns go through one sparse LU of the
    block-diagonal matrix, factored in natural order.  w is recovered from
    v column pair (j, j+s) by column pair with the closed-form inverse
    [[1, alpha], [beta, 1]]/(1 - alpha*beta) of the 2x2 sector matrix, which
    is never singular here: 1 - alpha*beta > (alpha-beta)^2/4 when
    |alpha+beta| < 2.  The middle column passes through unchanged.  That
    recovery acts on the angle index only, so it is folded into V before
    the synthesis.  The whole solve is one real linear map on the k parts
    of b that _on_parts hands on, k = 1 for real data: both transforms are
    real products with one (angle x radius*k) array that holds the parts
    of every radius side by side.
    """
    r = grid.r_nodes[1:-1]
    s = grid.shift_columns
    main, up, down = _radial_stencil(r, grid.dr)
    # one tridiagonal block per mode, uncoupled, in CSC form with the 32-bit
    # indices SuperLU takes: column i of a block holds up[i-1], main[i] and
    # down[i+1] at 3i-1, 3i and 3i+1 of the block's entries; the first
    # column has no upper entry and the last no lower one
    width = 3 * r.size - 2
    data = np.empty((mu.size, width))
    data[:, 0::3] = main + mu[:, None] / r**2
    data[:, 1::3] = down[1:]
    data[:, 2::3] = up[:-1]
    diag = np.arange(mu.size * r.size, dtype=np.int32).reshape(mu.size, r.size)
    rows = np.empty((mu.size, width), dtype=np.int32)
    rows[:, 0::3] = diag
    rows[:, 1::3] = diag[:, :-1] + 1
    rows[:, 2::3] = diag[:, :-1]
    starts = width * np.arange(mu.size)[:, None] + np.maximum(3 * np.arange(r.size) - 1, 0)
    radial = sp.csc_matrix(
        (data.ravel(), rows.ravel(), np.append(starts, width * mu.size).astype(np.int32)),
        shape=(diag.size, diag.size),
    )
    # tridiagonal blocks take no fill in natural order, so a fill-reducing
    # ordering and supernode relaxation only cost time
    lu = _factor(radial, permc_spec="NATURAL", relax=1, panel_size=1)
    det = 1.0 - p.alpha * p.beta
    left, right = V[: s - 1], V[s:]
    Vw = V.copy()
    Vw[: s - 1] = (left + p.alpha * right) / det
    Vw[s:] = (right + p.beta * left) / det

    def solve(parts):
        k = parts.shape[1]
        by_angle = np.ascontiguousarray(parts.reshape(r.size, mu.size, k).transpose(1, 0, 2))
        modes = W @ by_angle.reshape(mu.size, -1)
        x = lu.solve(modes.reshape(-1, k))
        w = Vw @ x.reshape(mu.size, -1)
        return w.reshape(mu.size, r.size, k).transpose(1, 0, 2).reshape(-1, k)

    return _finite(_on_parts(solve, b))


def _norm_estimate(A):
    """||A||_2 from below: 10 power steps on A^T A from a fixed start vector."""
    x = np.random.default_rng(0).standard_normal(A.shape[1])
    for _ in range(10):
        x /= np.linalg.norm(x)
        x = A.T @ (A @ x)
    return float(np.sqrt(np.linalg.norm(x)))


def _solve_interior(p, grid, S_v, b):
    """Solve S x = b, S = S_v (I x M_int), on the interior nodes.

    Returns (w, v, ||S_v v - b||, info): w the grid function with x on the
    interior nodes and zero on the rays and the truncation arcs, and
    v = M w = apply_on_grid(op, w), on whose interior nodes the residual
    applies S_v (assemble_dd_system).  For |alpha+beta| < 2 the system is
    first solved by the separable method of _separable_solve in the
    closed-form eigenbasis of the folded angular matrix T and its
    closed-form inverse (_angular_basis), with no dense factorization.
    When the separable path fails or its residual exceeds 1e-8 * ||b||, S
    is formed by one sparse product and solved by its sparse LU, whose
    residual must pass the same gate.  For |alpha+beta| >= 2, T has no real
    eigenbasis and the sparse LU is the only path.  info["method"] names
    the path whose solution is returned, info["cond_V"] estimates the
    2-norm condition number of the eigenvector matrix V with unit columns
    as ||V||_2 * ||W||_2, each norm from below by a few power steps
    (_norm_estimate), so it does not exceed cond(V); it is inf when there is
    no real basis.  info["rhs_norm"] is ||b||.  SolverFailure if b is not
    finite; SingularSystem before any factor if 1 - alpha*beta = 0, which
    makes the 2x2 blocks of M_int, and so S, singular.
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
        M_int = column_shift_operator(p.operator(), grid)[1:-1, 1:-1]
        S = S_v @ sp.kron(sp.identity(grid.n_r - 1), M_int, format="csr")
        # minimum degree on the pattern of S + S^T fills about half as much
        # as the default COLAMD on this nearly symmetric pattern
        method = "sparse_lu"
        w, v, eq_res = gated(_direct_solve(S, b, permc_spec="MMD_AT_PLUS_A"))
        if bnorm > 0 and eq_res > 1e-8 * bnorm:
            raise SolverFailure("direct solve residual %g too large" % eq_res)
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


def _nearest_above(H, sigma, inverse, v0):
    """The eigenvalue of H nearest sigma, from ARPACK in shift-invert mode
    with inverse as (H - sigma*I)^-1, if it lies above sigma, else None.

    ARPACK accepts a Ritz value theta of the inverse once its residual is
    at most tol*|theta|, tol = 64*eps (for |theta| >= eps^(2/3)).  Then an
    eigenvalue mu of the inverse lies within tol*|theta| of theta, and the
    returned value sigma + 1/theta lies within
    tol*|lambda - sigma| <= tol*||H - sigma*I||_2 of the eigenvalue
    lambda = sigma + 1/mu of H.  ARPACK's default tol = eps asks for more
    than the rounding of the solves gives: outside the regime at n = 64 it
    needs 31 solves where 21 give the same value.
    """
    tol = 64.0 * np.finfo(float).eps
    val = spla.eigsh(
        H, 1, sigma=sigma, which="LM", OPinv=inverse, v0=v0, tol=tol, return_eigenvectors=False
    )
    return val[0] if val[0] > sigma else None


def _shift_invert(H, sigma, v0):
    """lambda_min of H if the inertia of H - sigma*I proves it above sigma, else None.

    One symmetric-mode LU of H - sigma*I with diagonal pivots only: if it
    kept perm_r == perm_c, H - sigma*I = P^T L U P with U = D L^T, and the
    signs of diag(U) are its inertia (Sylvester).  When every pivot is > 0,
    the same factor serves as the shift-invert operator at sigma, and the
    eigenvalue of H nearest sigma is lambda_min if it lies above sigma.
    None when SuperLU fails, perm_r != perm_c, a pivot is <= 0 or the value
    does not lie above sigma.  The factor is released on return.
    """
    try:
        lu = spla.splu(
            (H - sigma * sp.identity(H.shape[0], format="csr")).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # SuperLU: exactly singular factor
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal() <= 0.0):
        return None
    inverse = spla.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    return _nearest_above(H, sigma, inverse, v0)


def _kronecker_factors(p, grid):
    """(r, lam, Q, A1, A2): the factors of H = dr*dphi*(K x A1 + R^-1 x A2).

    r holds the interior radii and (lam, Q) all eigenpairs of the symmetric
    tridiagonal C = R^1/2 K R^1/2 = Q diag(lam) Q^T for K = R D_r, from one
    eigh_tridiagonal; A1 = sym(M_int) and A2 = sym(T M_int) are dense, for
    the folded angular matrix T and the interior block M_int of the column
    shift.
    """
    r = grid.r_nodes[1:-1]
    main, up, _ = _radial_stencil(r, grid.dr)
    lam, Q = la.eigh_tridiagonal(r**2 * main, r[:-1] * up[:-1] * np.sqrt(r[:-1] * r[1:]))
    M_int = column_shift_operator(p.operator(), grid)[1:-1, 1:-1]
    M = np.eye(grid.n_phi - 1) @ M_int  # dense: ndarray @ sparse
    TM = angular_matrix(p.alpha, p.beta, grid) @ M_int
    return r, lam, Q, 0.5 * (M + M.T), 0.5 * (TM + TM.T)


def _kronecker_sum(grid, factors):
    """H = dr*dphi*(K x A1 + R^-1 x A2) in CSR form from its _kronecker_factors.

    K = R D_r is symmetric tridiagonal; both its off-diagonals are taken
    from the upper one, as in C, so H is exactly symmetric.
    """
    r, _, _, A1, A2 = factors
    main, up, _ = _radial_stencil(r, grid.dr)
    K = sp.diags([r[:-1] * up[:-1], r * main, r[:-1] * up[:-1]], [-1, 0, 1])
    H = sp.kron(K, A1, format="csr") + sp.kron(sp.diags(1.0 / r), A2, format="csr")
    return grid.dr * grid.dphi * H


def _diagonal_congruence(grid, factors):
    """(Z, U, d) with (Z x U)^T H (Z x U) = diag(d), H as in discrete_coercivity.

    With C = Q Lambda Q^T and Z = R^1/2 Q, Z^T K Z = Lambda and
    Z^T R^-1 Z = I.  For the lowest block B0 = lambda_0 A1 + A2, the
    symmetric-definite pencil (A1, B0) gives U with U^T B0 U = I and
    U^T A1 U = diag(a) (Golub & Van Loan, Matrix Computations, 8.7), so
    d_ik = dr*dphi*(1 + (lambda_i - lambda_0)*a_k), an (n_r-1) x (n_phi-1)
    array, radius by angle.  The pencil is definite through B0, not A1:
    A1 = sym(M_int) is definite only for |alpha+beta| < 2, B0 whenever the
    bracket floor is > 0.  LinAlgError when B0 is not definite.  factors
    are the _kronecker_factors of H.
    """
    r, lam, Q, A1, A2 = factors
    a, U = la.eigh(A1, lam[0] * A1 + A2)
    return np.sqrt(r)[:, None] * Q, U, grid.dr * grid.dphi * (1.0 + (lam - lam[0])[:, None] * a)


def _congruence_invert(H, grid, factors, v0):
    """lambda_min of H if its diagonal congruence proves H definite, else None.

    Every d_ik > 0 of _diagonal_congruence proves H definite (Sylvester),
    and then H^-1 x = vec(Z ((Z^T X U) / d) U^T), X the radius-major view of
    x, is the shift-invert operator at 0.  None when B0 is not definite, a
    d_ik is <= 0 or the value does not lie above 0.
    """
    try:
        Z, U, d = _diagonal_congruence(grid, factors)
    except la.LinAlgError:  # B0 is not definite
        return None
    if not np.all(d > 0.0):
        return None

    def solve(x):
        return (Z @ ((Z.T @ np.reshape(x, d.shape) @ U) / d) @ U.T).ravel()

    inverse = spla.LinearOperator(H.shape, matvec=solve, dtype=H.dtype)
    return _nearest_above(H, 0.0, inverse, v0)


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
    """Smallest eigenvalue of the symmetric part of the discrete operator.

    The interior operator of w, S = S_v (I x M_int) with S_v of
    assemble_dd_system and M_int the interior column shift, is weighted by
    the discrete inner product r_i*dr*dphi; returns lambda_min of
    H = (W S + (W S)^T)/2, the sparse symmetric part, which is never
    densified.  Neither S nor S_v is assembled and the rhs is never
    sampled: H = dr*dphi*(K x A1 + R^-1 x A2) is built from its Kronecker
    factors (_kronecker_factors, _kronecker_sum), which also give the
    bracket and the congruence.  IncompatibleGrid unless
    the problem's rays and radii are the grid's (_check_grid).

    ARPACK (eigsh) runs in shift-invert mode at a shift sigma certified to
    lie below every eigenvalue of H, so the eigenvalue nearest sigma is
    lambda_min (Ericsson & Ruhe, Math. Comp. 35, 1980).  The bracket floor <= lambda_min <= theta of
    _coercivity_bracket places sigma.  When floor > margin =
    1e-12*||H||_inf, sigma = 0 and H is inverted through the diagonal
    congruence of its Kronecker factors (_diagonal_congruence), which
    certifies H definite and needs no sparse factor; if it cannot certify,
    SolverFailure.  Otherwise sigma = theta - delta, delta = 0.01|theta|
    growing 4x per shift that does not certify, down to floor - margin, and
    each shift is certified by the inertia of a symmetric-mode SuperLU
    factor of H - sigma*I (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl.
    15, 1994); a shift at the floor that does not certify raises
    SolverFailure.  At most one factor is alive at a time.  ARPACK stops at
    tol = 64*eps of the Ritz value of the inverse (_nearest_above), so the
    value lies within 64*eps*|lambda_min - sigma| of lambda_min.

    Every ARPACK run starts from one fixed pseudo-random vector, so equal
    inputs give equal values.  A symmetric start vector would not do: for
    alpha = beta the reflection about the middle ray commutes with the
    operator, and from the all-ones vector ARPACK misses a lowest
    eigenvector that is odd under it (at n = 16, alpha = beta = -1.9 it
    returned -11.92 for -12.04).  An ARPACK failure raises SolverFailure.
    """
    _check_grid(p, grid)
    factors = _kronecker_factors(p, grid)
    H = _kronecker_sum(grid, factors)
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    floor, theta = _coercivity_bracket(grid, factors)
    margin = 1e-12 * spla.norm(H, np.inf)
    lowest = floor - margin
    delta = 1e-2 * abs(theta) if theta else margin  # a zero delta never moves sigma
    sigma = 0.0 if floor > margin else max(theta - delta, lowest)
    try:
        while True:
            if floor > margin:
                val = _congruence_invert(H, grid, factors, v0)
            else:
                val = _shift_invert(H, sigma, v0)
            if val is not None:
                return float(val)
            if sigma <= lowest:
                raise SolverFailure("no certified shift down to the floor %g" % floor)
            delta *= 4.0
            sigma = max(theta - delta, lowest)
    except spla.ArpackError as exc:
        raise SolverFailure("extreme eigenvalue estimation failed: %s" % exc)

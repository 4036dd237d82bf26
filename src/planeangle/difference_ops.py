"""Angular difference operators on a plane angle.

The operator acts by superposing angular shifts, (R w)(r, phi) =
sum_p e_p * w(r, phi + p*d), truncated to the angle by zero extension and
restriction.  Under the sector-stacking isomorphism the truncated operator
is multiplication by the R x R matrix with entries e_{p2 - p1}, so its
spectrum, adjoint and positivity are all matrix questions.
"""

from dataclasses import dataclass

import numpy as np

from .core import AngleGeometry, GridFunction, IncompatibleGrid, PlaneAngleError

SINGULAR_TOL = 1e-14  # relative determinant below which a shift matrix is singular
DEFINITE_TOL = 1e-12  # relative eigenvalue margin of a positive definite symmetric part


class SingularMatrix(PlaneAngleError):
    pass


@dataclass(frozen=True)
class DifferenceOperator:
    """Shift superposition with real coefficients e_p, |p| <= R-1.

    coefficients maps the shift index p to e_p; omitted indices mean 0.
    """

    coefficients: dict
    geometry: AngleGeometry

    def __post_init__(self):
        R = self.geometry.num_sectors
        coeffs = {}
        for p, e in self.coefficients.items():
            p = int(p)
            if abs(p) > R - 1:
                raise PlaneAngleError(
                    "shift index %d outside {-(R-1), ..., R-1} for R=%d" % (p, R)
                )
            e = float(e)
            if not np.isfinite(e):
                raise PlaneAngleError("coefficient e_%d is not finite" % p)
            coeffs[p] = e
        object.__setattr__(self, "coefficients", coeffs)

    def coeff(self, p):
        return self.coefficients.get(p, 0.0)


def two_sector_operator(alpha, beta, geometry):
    """The operator w - alpha*w(phi+d) - beta*w(phi-d) used throughout (R=2)."""
    if geometry.num_sectors != 2:
        raise IncompatibleGrid("two_sector_operator needs R=2 geometry")
    return DifferenceOperator({0: 1.0, 1: -alpha, -1: -beta}, geometry)


def to_matrix(op):
    """R x R matrix with entries e_{p2 - p1} (1-based sector indices)."""
    R = op.geometry.num_sectors
    m = np.zeros((R, R))
    for p1 in range(R):
        for p2 in range(R):
            m[p1, p2] = op.coeff(p2 - p1)
    return m


def adjoint(op):
    """Adjoint operator: coefficients e'_p = e_{-p}."""
    return DifferenceOperator(
        {-p: e for p, e in op.coefficients.items()}, op.geometry
    )


def spectrum(op):
    """Eigenvalues of the shift matrix, sorted by (real, imag)."""
    vals = np.linalg.eigvals(to_matrix(op))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def inverse_matrix(op):
    """Inverse of the shift matrix; SingularMatrix if det is negligible.

    The determinant is compared against SINGULAR_TOL * max(||M||_F^R, 1).
    """
    m = to_matrix(op)
    R = m.shape[0]
    det = np.linalg.det(m)
    scale = max(np.linalg.norm(m) ** R, 1.0)
    if abs(det) <= SINGULAR_TOL * scale:
        raise SingularMatrix("shift matrix determinant %g is negligible" % det)
    return np.linalg.inv(m)


def symmetric_part_positive_definite(op):
    """True iff all eigenvalues of M + M^T exceed DEFINITE_TOL * its norm."""
    m = to_matrix(op)
    sym = m + m.T
    eigs = np.linalg.eigvalsh(sym)
    return bool(np.min(eigs) > DEFINITE_TOL * max(np.linalg.norm(sym), 1.0))


def column_shift_operator(op, grid):
    """Sparse (n_phi+1) x (n_phi+1) matrix of the shift on one radial line.

    Row j holds e_p at column j + p*s (s = n_phi/R grid columns per sector);
    shifted reads outside the column range [0, n_phi] are dropped (zero
    extension outside the angle, restriction back to it).  This is the one
    definition of the discrete shift: apply_on_grid and the solver's node
    matrix are both built from it.
    """
    import scipy.sparse as sp  # here, so the rest of the module needs numpy only

    s = grid.shift_columns
    coeffs = op.coefficients or {0: 0.0}  # diags needs at least one diagonal
    return sp.diags(
        list(coeffs.values()),
        [p * s for p in coeffs],
        shape=(grid.n_phi + 1, grid.n_phi + 1),
        format="csr",
    )


def apply_on_grid(op, u):
    """Discrete truncated operator on a grid function.

    v(i, j) = sum_p e_p * u(i, j + p*s), i.e. column_shift_operator applied
    to every radial line of u.
    """
    grid = u.grid
    if grid.geometry.num_sectors != op.geometry.num_sectors:
        raise IncompatibleGrid("operator and grid sector counts differ")
    if abs(grid.geometry.d - op.geometry.d) > 1e-12:
        raise IncompatibleGrid("operator and grid sector spacings differ")
    return GridFunction(grid, u.values @ column_shift_operator(op, grid).T)

"""Discrete weighted Sobolev norms on annular sector grids.

Two weighted scales are evaluated on grid functions.  The E-scale integrand
is sum_{|alpha| <= l} r^(2a) (r^(2(|alpha|-l)) + 1) |D^alpha u|^2 and the
H-scale weight is r^(2(a-l+|alpha|)), with D^alpha the Cartesian derivatives
assembled from central differences of the polar representation.  A trace
ratio probes boundedness of the weighted trace inequality along a boundary
ray; the trace-space norm proper is an infimum over extensions and is not
computed, the extension's own volume norm stands in for it.

Quadrature is midpoint over grid cells with polar area weight r dr dphi, so
the integral of a nodal-constant integrand is exact.

The norms of one field share its derivative table.  One module slot holds
None or an immutable tuple for the last field asked for: a weak reference
to it, a copy of its values, the order, and the real squares |D^alpha u|^2
for every |alpha| up to that order.  A call hits only for the same object
with equal values and an order at least its own, so a field whose values
were changed in place is differentiated afresh; a higher order rebuilds the
table, a lower one reads part of it.  Each call reads only the tuple it
loaded, so threads need no lock, and the slot is emptied when its field is
collected.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .core import PlaneAngleError


class UnsupportedOrder(PlaneAngleError):
    pass


@dataclass(frozen=True)
class WeightParams:
    """Finite weight exponent a and smoothness order l (l in {0, 1, 2})."""

    a: float
    l: int

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise PlaneAngleError("weight exponent a=%r is not finite" % (self.a,))
        if self.l not in (0, 1, 2):
            raise UnsupportedOrder("smoothness order l=%r not in {0, 1, 2}" % (self.l,))


def _cartesian_gradient(grid, vals):
    """(u_x, u_y) at the nodes via the polar chain rule, on second-order
    differences (central inside, one-sided at the edges)."""
    r = grid.r_nodes[:, None]
    phi = grid.phi_nodes[None, :]
    cos, sin = np.cos(phi), np.sin(phi)
    u_r = np.gradient(vals, grid.dr, axis=0, edge_order=2)
    u_phi = np.gradient(vals, grid.dphi, axis=1, edge_order=2)
    # u_x = cos u_r - sin/r u_phi, then u_y = sin u_r + cos/r u_phi in the
    # arrays of u_r and u_phi: the same operations on fewer new arrays
    u_x = cos * u_r
    u_x -= sin / r * u_phi
    np.multiply(sin, u_r, out=u_r)
    np.multiply(cos / r, u_phi, out=u_phi)
    u_r += u_phi
    return u_x, u_r


def cartesian_derivatives(u, l):
    """Nodal arrays of D^alpha u keyed by multi-index, all |alpha| <= l."""
    grid = u.grid
    out = {(0, 0): u.values}
    if l >= 1:
        u_x, u_y = _cartesian_gradient(grid, u.values)
        out[(1, 0)] = u_x
        out[(0, 1)] = u_y
    if l >= 2:
        u_xx, u_xy = _cartesian_gradient(grid, out[(1, 0)])
        _, u_yy = _cartesian_gradient(grid, out[(0, 1)])
        out[(2, 0)] = u_xx
        out[(1, 1)] = u_xy
        out[(0, 2)] = u_yy
    return out


# None, or (weakref to the field, copy of its values, order, {alpha: |D^alpha u|^2});
# replaced whole, never changed in place
_TABLE = None


def _release(ref):
    """Empty the slot when the field of its table is collected.

    A table stored by another thread between the test and the store is
    dropped too, which costs its next call a rebuild and nothing else.
    """
    global _TABLE
    table = _TABLE
    if table is not None and table[0] is ref:
        _TABLE = None


def _squares(u, l):
    """{alpha: |D^alpha u|^2} for |alpha| <= l, in cartesian_derivatives' order."""
    global _TABLE
    table = _TABLE
    if table is None or table[0]() is not u or table[2] < l or not np.array_equal(u.values, table[1]):
        _TABLE = table = None  # the old table is freed before the new one is built
        values = u.values.copy()
        squares = {alpha: np.abs(d) ** 2 for alpha, d in cartesian_derivatives(u, l).items()}
        _TABLE = table = (weakref.ref(u, _release), values, l, squares)
    return {alpha: sq for alpha, sq in table[3].items() if sum(alpha) <= l}


def _cell_integral(grid, nodal):
    """Midpoint-cell quadrature sum of a nodal integrand with weight r dr dphi."""
    cell = 0.25 * (nodal[:-1, :-1] + nodal[1:, :-1] + nodal[:-1, 1:] + nodal[1:, 1:])
    r_mid = 0.5 * (grid.r_nodes[:-1] + grid.r_nodes[1:])
    return float(np.real(np.sum(cell * r_mid[:, None]) * grid.dr * grid.dphi))


def _weighted_norm(u, l, weight):
    """Root of the cell integral of sum weight(r, |alpha|) |D^alpha u|^2, |alpha| <= l."""
    grid = u.grid
    r = grid.r_nodes[:, None]
    by_order = [weight(r, k) for k in range(l + 1)]
    integrand = np.zeros(u.values.shape)
    for (i, j), sq in _squares(u, l).items():
        integrand += by_order[i + j] * sq
    return np.sqrt(_cell_integral(grid, integrand))


def e_norm(u, p):
    """Weighted norm with integrand sum r^(2a) (r^(2(|alpha|-l)) + 1) |D^alpha u|^2."""
    return _weighted_norm(
        u, p.l, lambda r, k: r ** (2 * p.a) * (r ** (2 * (k - p.l)) + 1.0)
    )


def h_norm(u, p):
    """Weighted norm with weight r^(2(a - l + |alpha|)) on each derivative term."""
    return _weighted_norm(u, p.l, lambda r, k: r ** (2 * (p.a - p.l + k)))


def trace_integral(u, ray, p):
    """Discrete weighted trace integral (int r^(2(a-(l-1/2))) |u|^2 dr)^(1/2).

    ray is "gamma1" (first boundary ray) or "gamma3" (last).
    """
    if p.l not in (1, 2):
        raise UnsupportedOrder("trace integral needs l in {1, 2}")
    grid = u.grid
    if ray == "gamma1":
        psi = u.values[:, 0]
    elif ray == "gamma3":
        psi = u.values[:, -1]
    else:
        raise PlaneAngleError("ray must be 'gamma1' or 'gamma3', got %r" % (ray,))
    r = grid.r_nodes
    nodal = r ** (2 * (p.a - (p.l - 0.5))) * np.abs(psi) ** 2
    cell = 0.5 * (nodal[:-1] + nodal[1:])
    return float(np.sqrt(np.real(np.sum(cell)) * grid.dr))


def trace_ratio(u, ray, p):
    """Trace integral along the ray divided by e_norm(u); 0 for u identically 0.

    A boundedness probe for the weighted trace inequality: the ratio should
    stay below a single constant across families of test functions.
    """
    denom = e_norm(u, p)
    if denom == 0.0:
        return 0.0
    return trace_integral(u, ray, p) / denom

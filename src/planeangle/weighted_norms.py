"""Discrete weighted Sobolev norms on annular sector grids.

Two weighted scales are evaluated on grid functions.  The E-scale integrand
is sum_{|alpha| <= l} r^(2a) (r^(2(|alpha|-l)) + 1) |D^alpha u|^2 and the
H-scale weight is r^(2(a-l+|alpha|)), with D^alpha the Cartesian derivatives
assembled from central differences of the polar representation.  A trace
ratio probes boundedness of the weighted trace inequality along a boundary
ray; the trace-space norm proper is an infimum over extensions and is not
computed, the extension's own volume norm stands in for it.

Quadrature is midpoint over grid cells with polar area weight r dr dphi, so
the integral of a nodal-constant integrand is exact.  Both weights depend on
r and |alpha| only, so the rule is a radial sum: with S_k = sum_{|alpha|=k}
|D^alpha u|^2 and the profile P_k[i] = sum_{j<n_phi} (S_k[i,j] + S_k[i,j+1]),
the integral is dr dphi sum_i rbar_i (Q_i + Q_{i+1})/4 for
Q = sum_k w_k(r) P_k and rbar_i the cell's mid radius.

The norms of one field share its table of profiles, which lives in the
field's own derived dict: one vector of length n_r+1 per order k up to the
highest order asked for so far.  A higher order extends the table from
cartesian_derivatives and drops the node-sized squares, a lower one reads
part of it, so after the first call at an order every norm of the field up
to that order costs O(n_r).  The first derivatives are kept too, so order 2
after order 1 takes only the gradients of u_x and u_y.  Grid function
values are read-only, so a table never goes stale, and it dies with its
field.  A field whose imaginary part is exactly zero, as every sample of a
real function is, gets its derivatives from the real part in float64; the
differences round as numpy rounds complex ones, so the table holds the
same bits either way.
"""

from dataclasses import dataclass

import numpy as np

from .core import PlaneAngleError, check_counts


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
        check_counts(UnsupportedOrder, l=self.l)
        if self.l not in (0, 1, 2):
            raise UnsupportedOrder("smoothness order l=%r not in {0, 1, 2}" % (self.l,))


def _difference(vals, h, axis):
    """d/dx along axis at spacing h: np.gradient(vals, h, axis=axis,
    edge_order=2), central inside and one-sided at the edges, but inside it
    multiplies by 1/(2h) for real data too, as numpy's division of complex
    data by h does, so real data give the real parts of the complex result."""
    f = np.moveaxis(vals, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) * (1.0 / (2.0 * h))
    out[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
    out[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return np.moveaxis(out, 0, axis)


def _polar_factors(grid):
    """(cos, sin, cos/r, sin/r) of the polar chain rule: the angular rows
    and the node-sized quotients, formed once for all gradients of a call."""
    r = grid.r_nodes[:, None]
    cos, sin = np.cos(grid.phi_nodes), np.sin(grid.phi_nodes)
    return cos, sin, cos / r, sin / r


def _cartesian_gradient(grid, vals, factors):
    """(u_x, u_y) at the nodes via the polar chain rule, on second-order
    differences (central inside, one-sided at the edges), in the dtype of
    vals; factors are the grid's _polar_factors."""
    cos, sin, cos_r, sin_r = factors
    u_r = _difference(vals, grid.dr, 0)
    u_phi = _difference(vals, grid.dphi, 1)
    # u_x = cos u_r - sin/r u_phi, then u_y = sin u_r + cos/r u_phi in the
    # arrays of u_r and u_phi: the same operations on fewer new arrays
    u_x = cos * u_r
    u_x -= sin_r * u_phi
    np.multiply(sin, u_r, out=u_r)
    np.multiply(cos_r, u_phi, out=u_phi)
    u_r += u_phi
    return u_x, u_r


def cartesian_derivatives(u, l):
    """Nodal arrays of D^alpha u keyed by multi-index, all |alpha| <= l.

    The values are differenced as they are, so a real field, whose values
    GridFunction stores as float64, gets float64 derivatives.  The first
    derivatives are computed once per field and kept, read-only like its
    values, in u.derived["gradient"].  The chain-rule factors are formed
    once per call that takes a gradient (_polar_factors).
    """
    grid = u.grid
    out = {(0, 0): u.values}
    if l >= 1:
        gradient = u.derived.get("gradient")
        factors = _polar_factors(grid) if gradient is None or l >= 2 else None
        if gradient is None:
            gradient = _cartesian_gradient(grid, u.values, factors)
            for d in gradient:
                d.flags.writeable = False
            u.derived["gradient"] = gradient
        out[(1, 0)], out[(0, 1)] = gradient
    if l >= 2:
        out[(2, 0)], out[(1, 1)] = _cartesian_gradient(grid, out[(1, 0)], factors)
        out[(0, 2)] = _cartesian_gradient(grid, out[(0, 1)], factors)[1]
    return out


def _profiles(u, l):
    """(P_0, ..., P_l): P_k[i] = sum_{j<n_phi} (S_k[i,j] + S_k[i,j+1]) with
    S_k = sum_{|alpha|=k} |D^alpha u|^2, from the field's table, which is
    extended when the order first rises."""
    profiles = u.derived.get("profiles", ())
    if len(profiles) <= l:
        squares = [0.0] * (l + 1)
        for (i, j), d in cartesian_derivatives(u, l).items():
            if i + j >= len(profiles):
                squares[i + j] += np.abs(d) ** 2
        profiles += tuple(np.sum(s[:, :-1] + s[:, 1:], axis=1) for s in squares[len(profiles):])
        u.derived["profiles"] = profiles
    return profiles[: l + 1]


def _weighted_norm(u, l, weight):
    """Root of the midpoint-cell integral of sum weight(r, |alpha|) |D^alpha u|^2,
    |alpha| <= l, with weight r dr dphi, summed over radii from the profiles."""
    grid = u.grid
    r = grid.r_nodes
    Q = sum(weight(r, k) * P for k, P in enumerate(_profiles(u, l)))
    r_mid = 0.5 * (r[:-1] + r[1:])
    return np.sqrt(float(np.sum(0.25 * (Q[:-1] + Q[1:]) * r_mid) * grid.dr * grid.dphi))


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
    stay below a single constant across families of test functions.  The
    ray and the order are checked first (trace_integral), also for u = 0.
    """
    trace = trace_integral(u, ray, p)
    denom = e_norm(u, p)
    if denom == 0.0:
        return 0.0
    return trace / denom

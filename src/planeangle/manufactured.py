"""Manufactured solutions with compact radial support.

dd_problem and nonlocal_problem build a solver problem on a grid together
with its exact solution on that grid, and error_norm measures a solve
against it: the CLI's built-in "rhs": "manufactured", the convergence tests
and the demos all go through them.  The radial factor eta is a C^3 sin^4
bump supported strictly inside (r_min, r_max), 8% of the radial range away
from each end, so the Dirichlet data on the artificial arcs is 0.  It is
one jet r -> (eta, eta', eta'') like core.exp_bump, the package's
C-infinity bump.
"""

import numpy as np

from .core import GridFunction
from .difference_ops import apply_on_grid, two_sector_operator
from .sector_solver import DDProblem, NonlocalPoissonProblem


def _sin4_bump(r_min, r_max):
    """jet(r) -> (eta, eta', eta'') of the sin^4 bump, one mask and one sin/cos pair."""
    a0 = r_min + 0.08 * (r_max - r_min)
    a1 = r_max - 0.08 * (r_max - r_min)
    k = np.pi / (a1 - a0)

    def jet(r):
        r = np.asarray(r, float)
        eta, deta, ddeta = np.zeros_like(r), np.zeros_like(r), np.zeros_like(r)
        m = (r > a0) & (r < a1)
        s, c = np.sin(k * (r[m] - a0)), np.cos(k * (r[m] - a0))
        eta[m] = s**4
        deta[m] = 4.0 * k * s**3 * c
        ddeta[m] = 4.0 * k**2 * (3.0 * s**2 * c**2 - s**4)
        return eta, deta, ddeta

    return jet


def manufactured_dd(geometry, r_min, r_max):
    """Exact solution and data for the differential-difference problem.

    w* = eta(r) * sin(kappa*(phi-b1))**3 vanishes with two derivatives at
    both rays, so the difference-operator image of the data stays smooth
    across the middle ray and second-order convergence is observable.
    """
    b1 = geometry.angles[0]
    kappa = np.pi / geometry.opening
    jet = _sin4_bump(r_min, r_max)

    def w(r, phi):
        return jet(r)[0] * np.sin(kappa * (phi - b1)) ** 3

    def pde_of_w(r, phi):
        eta, deta, ddeta = jet(r)
        s = np.sin(kappa * (phi - b1))
        c = np.cos(kappa * (phi - b1))
        ang = s**3
        ddang = 3.0 * kappa**2 * (2.0 * s * c**2 - s**3)
        lap = ddeta * ang + deta * ang / r + eta * ddang / r**2
        return -lap + eta * ang

    return w, pde_of_w


def manufactured_nonlocal(geometry, r_min, r_max):
    """Exact solution u* = r^2 cos(phi) eta(r) and its data."""
    jet = _sin4_bump(r_min, r_max)

    def u(r, phi):
        return r**2 * np.cos(phi) * jet(r)[0]

    def f(r, phi):
        eta, deta, ddeta = jet(r)
        g = r**2 * eta
        dg = 2.0 * r * eta + r**2 * deta
        ddg = 2.0 * eta + 4.0 * r * deta + r**2 * ddeta
        return (-(ddg + dg / r - g / r**2) + g) * np.cos(phi)

    return u, f


def dd_problem(alpha, beta, grid):
    """(DDProblem, exact w* on the grid); rhs = discrete R of (-Laplace + 1) w*."""
    geo = grid.geometry
    w, pde = manufactured_dd(geo, grid.r_min, grid.r_max)
    rhs = apply_on_grid(two_sector_operator(alpha, beta, geo), GridFunction.from_callable(grid, pde))
    problem = DDProblem(alpha, beta, geo, rhs, grid.r_min, grid.r_max)
    return problem, GridFunction.from_callable(grid, w)


def nonlocal_problem(alpha, beta, grid):
    """(NonlocalPoissonProblem, exact u* on the grid); g1, g3 are u*'s ray traces."""
    geo = grid.geometry
    u, f = manufactured_nonlocal(geo, grid.r_min, grid.r_max)
    b1, b2, b3 = geo.angles
    g1 = lambda r: u(r, b1) + alpha * u(r, b2)
    g3 = lambda r: u(r, b3) + beta * u(r, b2)
    rhs = GridFunction.from_callable(grid, f)
    problem = NonlocalPoissonProblem(alpha, beta, geo, rhs, g1, g3, grid.r_min, grid.r_max)
    return problem, GridFunction.from_callable(grid, u)


def error_norm(u, exact):
    """Nodal weighted L2 error sqrt(sum r*dr*dphi*|u - exact|^2) on u's grid."""
    grid = u.grid
    r, _ = grid.meshgrid()
    diff = u.values - exact.values
    return float(np.sqrt(np.sum(r * grid.dr * grid.dphi * np.abs(diff) ** 2)))

"""Manufactured solutions with compact radial support.

These exact fields and their data back the CLI's built-in
"rhs": "manufactured", the convergence tests and the demos.  The radial
factor eta is a C^3 sin^4 bump supported strictly inside (r_min, r_max),
8% of the radial range away from each end, so the Dirichlet data on the
artificial arcs is 0.
"""

import numpy as np


def _sin4_bump(r_min, r_max):
    a0 = r_min + 0.08 * (r_max - r_min)
    a1 = r_max - 0.08 * (r_max - r_min)
    k = np.pi / (a1 - a0)

    def eta(r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = (r > a0) & (r < a1)
        out[m] = np.sin(k * (r[m] - a0)) ** 4
        return out

    def deta(r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = (r > a0) & (r < a1)
        s, c = np.sin(k * (r[m] - a0)), np.cos(k * (r[m] - a0))
        out[m] = 4.0 * k * s**3 * c
        return out

    def ddeta(r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = (r > a0) & (r < a1)
        s, c = np.sin(k * (r[m] - a0)), np.cos(k * (r[m] - a0))
        out[m] = 4.0 * k**2 * (3.0 * s**2 * c**2 - s**4)
        return out

    return eta, deta, ddeta


def manufactured_dd(geometry, r_min, r_max):
    """Exact solution and data for the differential-difference problem.

    w* = eta(r) * sin(kappa*(phi-b1))**3 vanishes with two derivatives at
    both rays, so the difference-operator image of the data stays smooth
    across the middle ray and second-order convergence is observable.
    """
    b1 = geometry.angles[0]
    kappa = np.pi / geometry.opening
    eta, deta, ddeta = _sin4_bump(r_min, r_max)

    def w(r, phi):
        return eta(r) * np.sin(kappa * (phi - b1)) ** 3

    def pde_of_w(r, phi):
        s = np.sin(kappa * (phi - b1))
        c = np.cos(kappa * (phi - b1))
        ang = s**3
        ddang = 3.0 * kappa**2 * (2.0 * s * c**2 - s**3)
        lap = ddeta(r) * ang + deta(r) * ang / r + eta(r) * ddang / r**2
        return -lap + eta(r) * ang

    return w, pde_of_w


def manufactured_nonlocal(geometry, r_min, r_max):
    """Exact solution u* = r^2 cos(phi) eta(r) and its data."""
    eta, deta, ddeta = _sin4_bump(r_min, r_max)

    def u(r, phi):
        return r**2 * np.cos(phi) * eta(r)

    def f(r, phi):
        g = r**2 * eta(r)
        dg = 2.0 * r * eta(r) + r**2 * deta(r)
        ddg = 2.0 * eta(r) + 4.0 * r * deta(r) + r**2 * ddeta(r)
        return (-(ddg + dg / r - g / r**2) + g) * np.cos(phi)

    return u, f

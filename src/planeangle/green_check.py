"""Quadrature verification of the two second-order nonlocal Green identities.

A test function U lives on the whole angle and is compactly supported in an
annulus; V = (V1, V2) lives piecewise on the two sectors.  Each is a Field:
its value, d/dr, d/dphi and Laplacian as callables of (r, phi), supplied in
closed form, never differenced.  Field callables must broadcast: the area
quadrature calls them with a radius column r[:, None] and an angle row
phi[None, :], the ray terms with a radius vector and an angle vector of the
same length.

Both identities share one pairing.  On each ray the Dirichlet data is
D = f and the Neumann data is N = df/dn; the Dirichlet identity pairs
(P, Q) = (D, N) and the Neumann identity (P, Q) = (N, -D), so on gamma_1 and
gamma_3 the LHS integrates P(U) conj(Q(V)) and the RHS Q(U) conj(P(V)).  On
gamma_1 the nonlocal trace adds alpha*U(chi12*r, b2) (Dirichlet) or
alpha*U_r(chi12*r, b2) (Neumann).  On gamma_2 the LHS is N(U) against the
jump V1 - V2, and the RHS pairs U with N(V1) - N(V2) plus the adjoint
nonlocal term at (chi21*r, b1), chi21 = 1/chi12: alpha*chi21*N(V1) for the
Dirichlet identity, alpha*chi21**2*V1_r for the Neumann one.  Both sides are
integrated with tensor Gauss-Legendre panels and the residual |LHS - RHS| is
returned; with analytic derivatives supplied the residual is pure quadrature
error.

The coupling alpha, phi12 and the flavour enter only the ray terms.  The
sector integrals over K1 and K2 are independent of them, so they are
computed once per key (ray angles, radial window, panels, order and the
three fields) and memoized in a bounded cache shared by both flavours,
every alpha and term_magnitudes.  Field callables must therefore be pure
functions of (r, phi), and hashable (functions and lambdas are).

Normals: n1 and n2 point counterclockwise, +(1/r) d/dphi; n3 points
clockwise, -(1/r) d/dphi.  Area element r dr dphi, line element dr.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import AngleGeometry, IncompatibleGrid, PlaneAngleError
from .manufactured import exp_bump


class SupportViolation(PlaneAngleError):
    pass


class Field(NamedTuple):
    """A function of (r, phi) with its analytic r, phi derivatives and Laplacian.

    Every component is a pure, hashable callable (r, phi) -> array that
    broadcasts its arguments and may return complex values; the area
    integrals are memoized on the component objects.
    """

    value: Callable
    r: Callable
    phi: Callable
    lap: Callable

    def map(self, g):
        """Field with the pointwise linear map g applied to every component."""
        return Field(*(lambda r, p, c=c: g(c(r, p)) for c in self))


@dataclass(frozen=True)
class GreenTestPair:
    """Closed-form test pair: u compactly supported in the annulus
    support = (s_lo, s_hi), v1 and v2 smooth on the closed sectors."""

    u: Field
    v1: Field
    v2: Field
    support: tuple

    def __post_init__(self):
        s_lo, s_hi = self.support
        if not (0.0 < s_lo < s_hi):
            raise SupportViolation("support annulus must satisfy 0 < s_lo < s_hi")


@dataclass(frozen=True)
class GreenConfig:
    """Geometry, coupling and quadrature resolution for the identity check.

    alpha is finite, chi12 > 0 the finite radial expansion, phi12 the
    rotation taking gamma_1 to gamma_2 (b1 + phi12 = b2).  Quadrature:
    `order`-point Gauss-Legendre on `panels` x `panels` panels per sector
    over the radial window, the hull of the support annulus and its 1/chi12
    image; line integrals reuse the radial panels.  The default panel count
    is sized for the exponential bump in bump_trig_pair, whose derivatives
    grow fast near the support edges.
    """

    geometry: AngleGeometry
    alpha: float
    chi12: float
    phi12: float
    order: int = 12
    panels: int = 48

    def __post_init__(self):
        if self.geometry.num_sectors != 2:
            raise IncompatibleGrid("Green identity check needs R=2 geometry")
        if not (np.isfinite(self.alpha) and 0.0 < self.chi12 < np.inf):
            raise PlaneAngleError("need a finite alpha and a positive finite chi12")
        b1, b2, _ = self.geometry.angles
        if abs(b1 + self.phi12 - b2) >= 1e-12:
            raise PlaneAngleError("phi12 must satisfy b1 + phi12 = b2")
        if self.order < 2 or self.panels < 1:
            raise PlaneAngleError("need order >= 2 and panels >= 1")


def _panel_rule(a, b, panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@lru_cache
def _area_terms(angles, window, panels, order, u, v1, v2):
    """LHS and RHS sector integrals over K1 and K2, as two 2-tuples.

    -Lap(U) conj(V) and U conj(-Lap(V)) on a radius column times an angle
    row: they depend on the rays, the radial window, the quadrature and the
    fields, not on alpha, phi12 or the flavour, so one evaluation serves
    both identities at every coupling.
    """
    b1, b2, b3 = angles
    rn, rw = _panel_rule(*window, panels, order)
    rc = rn[:, None]
    lhs, rhs = [], []
    for blo, bhi, v in ((b1, b2, v1), (b2, b3, v2)):
        pn, pw = _panel_rule(blo, bhi, panels, order)
        pr = pn[None, :]
        w2 = rw[:, None] * pw[None, :] * rc
        lhs.append(np.sum(w2 * (-u.lap(rc, pr)) * np.conj(v.value(rc, pr))))
        rhs.append(np.sum(w2 * u.value(rc, pr) * np.conj(-v.lap(rc, pr))))
    return tuple(lhs), tuple(rhs)


def _identity_terms(cfg, pair, neumann):
    """LHS and RHS term lists of the chosen Green identity.

    Returns (lhs_terms, rhs_terms); each is a fresh list of complex integrals
    in a fixed order: sector areas K1, K2 (memoized by _area_terms), then
    line terms gamma_1, gamma_3, gamma_2.  The residual is
    |sum(lhs) - sum(rhs)|.
    """
    b1, b2, b3 = cfg.geometry.angles
    alpha = cfg.alpha
    chi12 = cfg.chi12
    chi21 = 1.0 / chi12
    s_lo, s_hi = pair.support
    window = (min(s_lo, s_lo * chi21), max(s_hi, s_hi * chi21))
    rn, rw = _panel_rule(*window, cfg.panels, cfg.order)
    area_lhs, area_rhs = _area_terms(
        cfg.geometry.angles, window, cfg.panels, cfg.order, pair.u, pair.v1, pair.v2
    )
    lhs, rhs = list(area_lhs), list(area_rhs)

    def ray(f, b, sign):
        """Traces (D, N) on phi = b: D = f and N = sign (1/r) df/dphi."""
        ba = np.full_like(rn, b)
        return f.value(rn, ba), sign * f.phi(rn, ba) / rn

    def paired(d, n):
        """(P, Q): (D, N) for the Dirichlet identity, (N, -D) for the Neumann one."""
        return (n, -d) if neumann else (d, n)

    u1, u2, u3 = ray(pair.u, b1, 1.0), ray(pair.u, b2, 1.0), ray(pair.u, b3, -1.0)
    v1_1, v1_2 = ray(pair.v1, b1, 1.0), ray(pair.v1, b2, 1.0)
    v2_2, v2_3 = ray(pair.v2, b2, 1.0), ray(pair.v2, b3, -1.0)
    # the nonlocal pieces: U seen from gamma_1 at (chi12 r, b2), and the
    # adjoint V1 seen from gamma_2 at (chi21 r, b1)
    if neumann:
        u_far = pair.u.r(chi12 * rn, np.full_like(rn, b2))
        v_far = alpha * chi21**2 * pair.v1.r(chi21 * rn, np.full_like(rn, b1))
    else:
        u_far = pair.u.value(chi12 * rn, np.full_like(rn, b2))
        v_far = alpha * chi21 * (pair.v1.phi(chi21 * rn, np.full_like(rn, b1)) / (chi21 * rn))

    # gamma_1: nonlocal trace; gamma_3: plain trace
    (p_u, q_u), (p_v, q_v) = paired(*u1), paired(*v1_1)
    lhs.append(np.sum(rw * (p_u + alpha * u_far) * np.conj(q_v)))
    rhs.append(np.sum(rw * q_u * np.conj(p_v)))
    (p_u, q_u), (p_v, q_v) = paired(*u3), paired(*v2_3)
    lhs.append(np.sum(rw * p_u * np.conj(q_v)))
    rhs.append(np.sum(rw * q_u * np.conj(p_v)))

    # gamma_2: jump of V against N(U), and the adjoint nonlocal term
    lhs.append(np.sum(rw * u2[1] * np.conj(v1_2[0] - v2_2[0])))
    rhs.append(np.sum(rw * u2[0] * np.conj(v1_2[1] - v2_2[1] + v_far)))

    return lhs, rhs


def green_residual_dirichlet(cfg, pair):
    """|LHS - RHS| of the Dirichlet-type nonlocal Green identity."""
    lhs, rhs = _identity_terms(cfg, pair, neumann=False)
    return abs(sum(lhs) - sum(rhs))


def green_residual_neumann(cfg, pair):
    """|LHS - RHS| of the Neumann-type nonlocal Green identity."""
    lhs, rhs = _identity_terms(cfg, pair, neumann=True)
    return abs(sum(lhs) - sum(rhs))


def term_magnitudes(cfg, pair, neumann=False):
    """Magnitudes |term| of every integral in the identity, LHS then RHS.

    The sum of these is the natural scale against which to read the residual.
    """
    lhs, rhs = _identity_terms(cfg, pair, neumann=neumann)
    return [abs(t) for t in lhs] + [abs(t) for t in rhs]


def _harmonic_combo(coeffs):
    """Smooth sector Field sum c * r^m * trig(k*phi) with exact derivatives.

    coeffs is a list of (c, m, k, kind) with kind in {"cos", "sin"}; the
    Laplacian of r^m trig(k phi) is (m^2 - k^2) r^(m-2) trig(k phi).
    """

    def angular(kind, k, p, deriv=False):
        if kind == "cos":
            return -k * np.sin(k * p) if deriv else np.cos(k * p)
        return k * np.cos(k * p) if deriv else np.sin(k * p)

    def v(r, p):
        return sum(c * r**m * angular(kind, k, p) for c, m, k, kind in coeffs)

    def v_r(r, p):
        return sum(
            c * m * r ** (m - 1) * angular(kind, k, p) for c, m, k, kind in coeffs
        )

    def v_phi(r, p):
        return sum(
            c * r**m * angular(kind, k, p, deriv=True) for c, m, k, kind in coeffs
        )

    def v_lap(r, p):
        return sum(
            c * (m**2 - k**2) * r ** (m - 2) * angular(kind, k, p)
            for c, m, k, kind in coeffs
        )

    return Field(v, v_r, v_phi, v_lap)


BUMP_SUPPORT = (0.8, 2.4)
_V1_COEFFS = [(1.0, 2, 1, "cos"), (0.5, 3, 2, "sin"), (0.7, 1, 0, "cos")]
_V2_COEFFS = [(0.8, 2, 2, "cos"), (-0.4, 1, 1, "sin"), (0.3, 3, 0, "cos")]


def bump_trig_pair():
    """Built-in test pair: radial bump times trig polynomial, smooth V pieces.

    U(r, phi) = eta(r) * (2 + cos(2 phi) + 0.3 sin(phi)) with eta the
    exp_bump on the annulus BUMP_SUPPORT; V1 and V2 are different low-degree
    r^m trig(k phi) combinations so the gamma_2 jump terms are exercised.
    """
    jet = exp_bump(*BUMP_SUPPORT)

    def ang(p):
        return 2.0 + np.cos(2 * p) + 0.3 * np.sin(p)

    def dang(p):
        return -2 * np.sin(2 * p) + 0.3 * np.cos(p)

    def ddang(p):
        return -4 * np.cos(2 * p) - 0.3 * np.sin(p)

    def lap(r, p):
        eta, deta, ddeta = jet(r)
        return ddeta * ang(p) + deta * ang(p) / r + eta * ddang(p) / r**2

    u = Field(
        lambda r, p: jet(r)[0] * ang(p),
        lambda r, p: jet(r)[1] * ang(p),
        lambda r, p: jet(r)[0] * dang(p),
        lap,
    )
    return GreenTestPair(
        u=u,
        v1=_harmonic_combo(_V1_COEFFS),
        v2=_harmonic_combo(_V2_COEFFS),
        support=BUMP_SUPPORT,
    )

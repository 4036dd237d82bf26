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
Dirichlet identity, alpha*chi21**2*V1_r for the Neumann one.  Taken in
rho = chi12*r, the nonlocal trace lives on U's support annulus like every
other integrand, so both sides are integrated with tensor Gauss-Legendre
panels on that annulus, whatever chi12 is, and the residual |LHS - RHS| is
returned; with analytic derivatives it is pure quadrature error.

The coupling alpha, chi12, phi12 and the flavour enter only the ray terms.
The sector integrals over K1 and K2 are independent of them, so they are
computed once per key (ray angles, panels, order) and kept on the test
pair, shared by both flavours, every alpha, every chi12 and
term_magnitudes, and freed with the pair.  The pair also keeps, in one
slot, the terms of the last identity it was checked under, keyed by
(config, flavour): a residual followed by term_magnitudes at an equal
config evaluates the ray terms once, and another config replaces the
entry.  Field callables must therefore be pure functions of (r, phi).

Normals: n1 and n2 point counterclockwise, +(1/r) d/dphi; n3 points
clockwise, -(1/r) d/dphi.  Area element r dr dphi, line element dr.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import AngleGeometry, IncompatibleGrid, PlaneAngleError, check_counts, exp_bump


class SupportViolation(PlaneAngleError):
    pass


# Gauss-Legendre nodes per axis of a sector, panels * order: the area arrays
# hold its square in complex values: 0.6 s and 193 MB peak RSS at the cap
# (48 panels of order 48) on a 2-vCPU VM
MAX_QUAD_NODES = 2304


class Field(NamedTuple):
    """A function of (r, phi) with its analytic r, phi derivatives and Laplacian.

    Every component is a pure callable (r, phi) -> array that broadcasts
    its arguments and may return complex values.
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
    """Closed-form test pair: u compactly supported in the annulus support = (s_lo, s_hi),
    v1 and v2 smooth on the closed sectors; areas holds its sector integrals (_area_terms),
    last the one entry (cfg, neumann) -> terms of the last identity checked (_terms)."""

    u: Field
    v1: Field
    v2: Field
    support: tuple
    areas: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    last: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    over the test pair's support annulus, whatever chi12 is; line integrals
    reuse the radial panels.  panels * order is at most MAX_QUAD_NODES, so
    the area arrays stay within a few hundred MB.  The default panel count
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
        check_counts(PlaneAngleError, order=self.order, panels=self.panels)
        if self.order < 2 or self.panels < 1:
            raise PlaneAngleError("need order >= 2 and panels >= 1")
        if self.panels * self.order > MAX_QUAD_NODES:
            raise PlaneAngleError("%d panels of order %d give more than %d nodes per axis"
                                  % (self.panels, self.order, MAX_QUAD_NODES))


def _panel_rule(a, b, panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _area_terms(angles, panels, order, pair):
    """LHS and RHS sector integrals over K1 and K2, as two 2-tuples.

    -Lap(U) conj(V) and U conj(-Lap(V)) on a radius column over U's support
    times an angle row: they depend on the rays, the quadrature and the
    pair, not on alpha, chi12, phi12 or the flavour, so one evaluation,
    kept in pair.areas, serves both identities at every coupling.
    """
    key = (angles, panels, order)
    if key in pair.areas:
        return pair.areas[key]
    b1, b2, b3 = angles
    rn, rw = _panel_rule(*pair.support, panels, order)
    rc = rn[:, None]
    lhs, rhs = [], []
    for blo, bhi, v in ((b1, b2, pair.v1), (b2, b3, pair.v2)):
        pn, pw = _panel_rule(blo, bhi, panels, order)
        pr = pn[None, :]
        w2 = rw[:, None] * pw[None, :] * rc
        lhs.append(np.sum(w2 * (-pair.u.lap(rc, pr)) * np.conj(v.value(rc, pr))))
        rhs.append(np.sum(w2 * pair.u.value(rc, pr) * np.conj(-v.lap(rc, pr))))
    pair.areas[key] = tuple(lhs), tuple(rhs)
    return pair.areas[key]


def _identity_terms(cfg, pair, neumann):
    """LHS and RHS term lists of the chosen Green identity.

    Returns (lhs_terms, rhs_terms); each is a fresh list of complex integrals
    in a fixed order: sector areas K1, K2 (kept by _area_terms), then
    line terms gamma_1, gamma_3, gamma_2.  The residual is
    |sum(lhs) - sum(rhs)|.
    """
    b1, b2, b3 = cfg.geometry.angles
    alpha = cfg.alpha
    chi21 = 1.0 / cfg.chi12
    rn, rw = _panel_rule(*pair.support, cfg.panels, cfg.order)
    area_lhs, area_rhs = _area_terms(cfg.geometry.angles, cfg.panels, cfg.order, pair)
    lhs, rhs = list(area_lhs), list(area_rhs)

    def ray(f, b, sign, r=rn):
        """Traces (D, N) on phi = b: D = f and N = sign (1/r) df/dphi."""
        ba = np.full_like(r, b)
        return f.value(r, ba), sign * f.phi(r, ba) / r

    def paired(d, n):
        """(P, Q): (D, N) for the Dirichlet identity, (N, -D) for the Neumann one."""
        return (n, -d) if neumann else (d, n)

    u1, u2, u3 = ray(pair.u, b1, 1.0), ray(pair.u, b2, 1.0), ray(pair.u, b3, -1.0)
    v1_1, v1_2 = ray(pair.v1, b1, 1.0), ray(pair.v1, b2, 1.0)
    v2_2, v2_3 = ray(pair.v2, b2, 1.0), ray(pair.v2, b3, -1.0)
    # the nonlocal pieces in rho = chi12 r, on U's support: U on gamma_2
    # meets V1 on gamma_1 at (chi21 rho, b1)
    v1_far = ray(pair.v1, b1, 1.0, chi21 * rn)
    if neumann:
        u_near = pair.u.r(rn, np.full_like(rn, b2))
        # a product, not chi21**2: a float power raises OverflowError
        v_far = alpha * (chi21 * chi21) * pair.v1.r(chi21 * rn, np.full_like(rn, b1))
    else:
        u_near = u2[0]
        v_far = alpha * chi21 * v1_far[1]

    # gamma_1: nonlocal trace, its alpha U(chi12 r, b2) in rho; gamma_3: plain trace
    (p_u, q_u), (p_v, q_v) = paired(*u1), paired(*v1_1)
    nonlocal_trace = alpha * chi21 * np.sum(rw * u_near * np.conj(paired(*v1_far)[1]))
    lhs.append(np.sum(rw * p_u * np.conj(q_v)) + nonlocal_trace)
    rhs.append(np.sum(rw * q_u * np.conj(p_v)))
    (p_u, q_u), (p_v, q_v) = paired(*u3), paired(*v2_3)
    lhs.append(np.sum(rw * p_u * np.conj(q_v)))
    rhs.append(np.sum(rw * q_u * np.conj(p_v)))

    # gamma_2: jump of V against N(U), and the adjoint nonlocal term
    lhs.append(np.sum(rw * u2[1] * np.conj(v1_2[0] - v2_2[0])))
    rhs.append(np.sum(rw * u2[0] * np.conj(v1_2[1] - v2_2[1] + v_far)))

    return lhs, rhs


def _terms(cfg, pair, neumann):
    """The (lhs, rhs) terms of _identity_terms as tuples, evaluated only when
    the one entry of pair.last is not keyed by an equal (cfg, neumann), which
    then replaces it."""
    key = (cfg, neumann)
    if key not in pair.last:
        pair.last.clear()
        pair.last[key] = tuple(map(tuple, _identity_terms(cfg, pair, neumann)))
    return pair.last[key]


def green_residual_dirichlet(cfg, pair):
    """|LHS - RHS| of the Dirichlet-type nonlocal Green identity."""
    lhs, rhs = _terms(cfg, pair, neumann=False)
    return abs(sum(lhs) - sum(rhs))


def green_residual_neumann(cfg, pair):
    """|LHS - RHS| of the Neumann-type nonlocal Green identity."""
    lhs, rhs = _terms(cfg, pair, neumann=True)
    return abs(sum(lhs) - sum(rhs))


def term_magnitudes(cfg, pair, neumann=False):
    """Magnitudes |term| of every integral in the identity, LHS then RHS.

    The sum of these is the natural scale against which to read the residual.
    """
    lhs, rhs = _terms(cfg, pair, neumann=neumann)
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

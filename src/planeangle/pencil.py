"""Eigenvalues of the nonlocal ordinary-differential pencil on an arc.

Separating variables for -Laplace + 1 on the angle b_1 < phi < b_3 with the
nonlocal ray conditions u(b_1) + alpha*u(b_2) = 0, u(b_3) + beta*u(b_2) = 0
(b_2 the middle ray) gives a lambda-dependent two-point problem

    -U'' + lambda^2 U = 0  on (b_1, b_3),

whose eigenvalues are the zeros of a 2x2 determinant over the fundamental
system {exp(lambda*phi), exp(-lambda*phi)}.  The determinant factorizes as
-2*sinh(lambda*d)*(2*cosh(lambda*d) + alpha + beta) with d = (b_3-b_1)/2,
so the eigenvalues are i*x/d over the roots x of sin(x)*(2*cos(x) + alpha
+ beta) = 0 (characteristic_roots, shared by the sector solver's angular
basis), complex for |alpha+beta| > 2.  For |alpha+beta| < 2 a line
Im lambda = h free of eigenvalues certifies unique solvability in the
weighted scale with a = h + l + 1.  Both certificate functions return one
flat LineCertificate that names the nearest eigenvalue, the lower one on a
tie, as on the line h = 0 of the symmetric spectrum.
A certificate lists no roots: it rounds the line to the nearest branch k
of each root family and compares the branches k-1, k, k+1.
Every lambda-range taken here (a closed-form strip, the Im edges of a
search window, a certificate line) must lie within MAX_HEIGHT of the real
axis, and a search window's Re edges within MAX_HEIGHT of the imaginary
axis.  The closed form and the finder list the branches k of a root family
by one rule (_branches), so they keep the same roots on a range's edges.

The module also provides the characteristic determinant of the formally
adjoint nonlocal transmission pencil (piecewise solutions on the two
sub-arcs coupled through the middle ray), a 4x4 determinant written out by
its expansion along the two ray rows, and a numeric zero finder that does
not use the closed forms.  At lambda = 0 both determinants switch to the
degenerate basis {1, phi}, where they coincide (lambda_zero_determinant).
The middle ray bisects the arc, so both determinants (the adjoint one
divided by lambda) are Laurent polynomials of degree <= 2 in z =
exp(lambda*d): the finder reads their coefficients off 64 samples on
|z| = 1, refuses any term of higher degree, takes the roots in z from the
companion matrix, merges each cluster of roots that holds two within a
relative distance of 1e-4 whole into one multiple root at its mean (the
eigenvalues at |alpha+beta| = 2, and distinct ones at alpha+beta =
+-(2 - delta), delta <= 1e-8) and unfolds each once onto the window,
lambda = (log z + 2*pi*i*k)/d.  The degree check is what makes these
exactly the zeros of the determinant; companion-matrix roots are backward
stable (Edelman & Murakami, Math. Comp. 64, 1995).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import OutOfRange, PlaneAngleError


# Nothing calls this.  It only keeps the benchmark's tracer target
# "planeangle.pencil:minimize_scalar" (perfbench/layers.py) resolvable without
# loading scipy.optimize; ROADMAP item 1 deletes the target and this stub.
# A None here would match, by identity, every None-valued name the tracer scans.
def minimize_scalar(*args, **kwargs):
    raise NotImplementedError("pencil.minimize_scalar is a placeholder for a tracer target")


class UnsupportedRegime(PlaneAngleError):
    pass


class NoConvergence(PlaneAngleError):
    pass


FREE_LINE_TOL = 1e-9  # a line farther than this from every eigenvalue is free
# the listed roots round by about eps*|h| (at most 1.4 eps*|h| against 50-digit
# mpmath), so below this height a distance is off by under FREE_LINE_TOL/45
MAX_HEIGHT = FREE_LINE_TOL / (64.0 * np.finfo(float).eps)  # about 7.0e4
WINDOW_PAD = 1e-9  # roots this far outside a range, in x = lambda*d, still count
N_SAMPLES = 64  # samples of a determinant on |exp(lambda*d)| = 1
MAX_DEGREE = 2  # Laurent degree of the determinants in exp(lambda*d)
GROUP_RADIUS = 1e-4  # companion roots this close, relative, are one multiple root

# the Laurent samples lambda = _LAURENT_NODES/d, theta offset by half a step
# on |exp(lambda*d)| = 1; the FFT index k of each coefficient, the phase
# exp(-i*pi*k/N_SAMPLES) that undoes the offset, the coefficients of degree
# |k| > MAX_DEGREE and the positions of k = MAX_DEGREE ... -MAX_DEGREE
_LAURENT_NODES = 1j * (2.0 * np.pi * (np.arange(N_SAMPLES) + 0.5) / N_SAMPLES)
_FFT_INDEX = np.rint(np.fft.fftfreq(N_SAMPLES) * N_SAMPLES)
_FFT_PHASE = np.exp(-1j * np.pi * _FFT_INDEX / N_SAMPLES)
_HIGH_DEGREE = np.abs(_FFT_INDEX) > MAX_DEGREE
_POLY_INDEX = np.arange(MAX_DEGREE, -MAX_DEGREE - 1, -1)


@dataclass(frozen=True)
class PoissonPencilProblem:
    """Nonlocal pencil data: finite coefficients alpha, beta and opening rays b1 < b3."""

    alpha: float
    beta: float
    b1: float
    b3: float

    def __post_init__(self):
        if not (0.0 < self.b1 < self.b3 < 2.0 * np.pi and np.isfinite([self.alpha, self.beta]).all()):
            raise OutOfRange("need 0 < b1 < b3 < 2*pi and a finite coupling")

    @property
    def d(self):
        return 0.5 * (self.b3 - self.b1)

    @property
    def b2(self):
        return self.b1 + self.d

    @property
    def opening(self):
        return self.b3 - self.b1

    @property
    def coupling_sum(self):
        return self.alpha + self.beta


@dataclass(frozen=True)
class EigenvalueSet:
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).ravel()
        order = np.lexsort((vals.real, vals.imag))
        object.__setattr__(self, "values", vals[order])


def lambda_zero_determinant(p):
    """Determinant of the conditions in the basis {1, phi}: (1+alpha)(b3 +
    beta*b2) - (1+beta)(b1 + alpha*b2) = d*(2 + alpha + beta), as b2 = b1 + d."""
    return p.d * (2.0 + p.coupling_sum)


def _fundamental_system(p, lam):
    """(lam flattened, exp(lam*b_k), exp(-lam*b_k)) on the rays k = 1, 2, 3.

    Each column is damped to modulus 1 at the end of [b1, b3] where it peaks,
    so a product of one of each is the undamped one times
    exp(-|Re lambda|*(b3 - b1)), the largest of modulus 1.
    """
    # flat, so that a scalar runs the same array loops as an array entry
    lam = np.asarray(lam, dtype=complex).ravel()
    peak = np.where(lam.real > 0.0, p.b3, p.b1)  # where exp(lam*phi) peaks on the arc
    s1, s2 = -lam.real * peak, lam.real * (p.b1 + p.b3 - peak)
    rays = (p.b1, p.b2, p.b3)
    return lam, [np.exp(lam * phi + s1) for phi in rays], [np.exp(-lam * phi + s2) for phi in rays]


def _ray_minors(p, lam):
    """(lam flattened, the alternating sum of the two-row minors of the rays).

    With e+k = exp(lambda*b_k) and e-k = exp(-lambda*b_k) (damped as in
    _fundamental_system) the sum is

        (e+1 e-3 - e-1 e+3) + alpha (e+2 e-3 - e+3 e-2) + beta (e+1 e-2 - e+2 e-1),

    one e+ and one e- per product.  Both determinants are multiples of it.
    """
    lam, (ep1, ep2, ep3), (em1, em2, em3) = _fundamental_system(p, lam)
    return lam, (
        (ep1 * em3 - em1 * ep3)
        + p.alpha * (ep2 * em3 - ep3 * em2)
        + p.beta * (ep1 * em2 - ep2 * em1)
    )


def characteristic_value(p, lam):
    """Characteristic determinant of the pencil at lambda.

    For lambda != 0 this is the 2x2 determinant of the two nonlocal
    conditions applied to {exp(lambda*phi), exp(-lambda*phi)}; its zeros are
    exactly the pencil eigenvalues (lambda = 0 is a spurious zero of this
    basis and takes the value d*(2 + alpha + beta) of the basis {1, phi}).
    With rows (e+1 + alpha e+2, e-1 + alpha e-2) at b1 and (e+3 + beta e+2,
    e-3 + beta e-2) at b3 it expands to the minor sum of _ray_minors: the
    alpha*beta terms e+2 e-2 - e-2 e+2 cancel exactly and are not formed, so
    a large |alpha*beta| adds no rounding.  So it equals
    -adjoint_transmission_characteristic/(2*lambda) for lambda != 0.

    lam is a scalar or an array; the result is a complex array of its shape
    (0-d for a scalar), elementwise equal to scalar calls.  It is the undamped
    determinant times exp(-|Re lambda|*(b3 - b1)) (_fundamental_system).
    """
    shape = np.shape(lam)
    lam, det = _ray_minors(p, lam)
    return np.where(lam == 0, lambda_zero_determinant(p), det).reshape(shape)


def adjoint_transmission_characteristic(p, lam):
    """Characteristic determinant of the adjoint nonlocal transmission pencil.

    Piecewise solutions V1 on (b1, b2) and V2 on (b2, b3), each spanned by
    {exp(lambda*phi), exp(-lambda*phi)}, subject to

        V1(b1) = 0,
        V2(b3) = 0,
        V1(b2) - V2(b2) = 0,
        V1'(b2) - V2'(b2) + alpha*V1'(b1) - beta*V2'(b3) = 0.

    The last row encodes the transmission condition written with normal
    derivatives (1/r) d/dphi on the first two rays and -(1/r) d/dphi on the
    third, which flips the sign of the beta term.  Zeros of this determinant
    are the conjugates of the primal pencil eigenvalues.

    The expansion along the first two rows leaves four 2x2 minors; with
    e+k = exp(lambda*b_k) and e-k = exp(-lambda*b_k) the determinant is

        2*lambda*[(e-1 e+3 - e+1 e-3) + alpha (e+3 e-2 - e+2 e-3)
                  + beta (e+2 e-1 - e+1 e-2)],

    the prefactors e+k e-k (k = 2, 1, 3) of the minors being exactly 1,
    that is -2*lambda times the minor sum of _ray_minors.
    At lambda = 0 the piecewise basis {1, phi} gives b3(1+alpha) - b1(1+beta)
    - b2(alpha-beta) = d*(2 + alpha + beta) = lambda_zero_determinant(p).
    lam acts as in characteristic_value.  With one e+ and one e- per product,
    the value is the undamped determinant times exp(-|Re lambda|*(b3 - b1)).
    """
    shape = np.shape(lam)
    lam, minors = _ray_minors(p, lam)
    return np.where(lam == 0, lambda_zero_determinant(p), -2.0 * lam * minors).reshape(shape)


def _check_height(what, *heights):
    """OutOfRange, naming what, unless every height is within MAX_HEIGHT of 0 (so finite)."""
    if not all(abs(h) <= MAX_HEIGHT for h in heights):
        raise OutOfRange("%s is not within %.3g of the real axis" % (what, MAX_HEIGHT))


def _branches(offset, period, lo, hi):
    """The k with offset + period*k in [lo - WINDOW_PAD, hi + WINDOW_PAD]."""
    return range(math.ceil((lo - WINDOW_PAD - offset) / period),
                 math.floor((hi + WINDOW_PAD - offset) / period) + 1)


def _cosine_offset(sigma):
    """t0 = arccos(-sigma/2) of the cosine family: a float for |sigma| < 2,
    else the principal complex arccos (a Python number, which rounds as
    numpy's do)."""
    w = -0.5 * sigma
    return float(np.arccos(w)) if abs(w) < 1.0 else complex(np.arccos(complex(w)))


def characteristic_roots(sigma, lo, hi):
    """Roots x, Re x in [lo, hi], of sin(x)*(2*cos(x) + sigma) = 0, as (sine, cosine).

    Both sorted by numpy: the sine family x = pi*k and the cosine family
    x = +-(t0 + 2*pi*k), t0 = arccos(-sigma/2), complex for |sigma| > 2 and
    exactly symmetric about 0 except at |sigma| = 2, where each double root
    t0 + 2*pi*k lies on a sine root and is listed once.  WINDOW_PAD widens
    [lo, hi] (_branches).
    """
    t0 = _cosine_offset(sigma)
    period = 2.0 * np.pi
    sine = [np.pi * k for k in _branches(0.0, np.pi, lo, hi)]
    up = [t0 + period * k for k in _branches(t0.real, period, lo, hi)]
    down = [-(t0 + period * k) for k in _branches(t0.real, period, -hi, -lo)]
    cosine = np.array(up if abs(sigma) == 2.0 else down + up)
    cosine.sort()  # numpy sorts complex roots, which sorted() cannot
    return np.array(sine), cosine


def _closed_form_roots(p, lo, hi):
    """Sorted x/d over the roots x with Re x/d in [lo, hi], once per eigenvalue i*x/d.

    At |alpha+beta| = 2 every cosine root lies on a sine root and is left out.
    """
    d, sigma = p.d, p.coupling_sum
    sine, cosine = characteristic_roots(sigma, lo * d, hi * d)
    sine = sine[sine != 0.0] if lambda_zero_determinant(p) != 0.0 else sine
    return np.sort(np.concatenate([sine, cosine[:0] if abs(sigma) == 2.0 else cosine])) / d


def eigenvalues_closed_form(p, strip):
    """All eigenvalues with Im lambda in strip = (h_lo, h_hi), each once.

    They are i*x/d over the roots x of characteristic_roots(alpha+beta, ...),
    off the imaginary axis for |alpha+beta| > 2, 0 only at alpha+beta = -2,
    within WINDOW_PAD/d of the strip as in find_zeros.  OutOfRange before
    any root is listed unless h_lo < h_hi, both within MAX_HEIGHT of the
    real axis (so at most about 2.8e5 roots).
    """
    lo, hi = float(strip[0]), float(strip[1])
    _check_height("strip %s" % ((lo, hi),), lo, hi)
    if not lo < hi:
        raise OutOfRange("empty strip %s: need h_lo < h_hi" % ((lo, hi),))
    return EigenvalueSet(1j * _closed_form_roots(p, lo, hi))


# ---------------------------------------------------------------------------
# zero finding: companion-matrix roots of the Laurent coefficients


def _laurent_coefficients(vals):
    """Coefficients of z^2*f as a polynomial in z = exp(lambda*d), highest first.

    vals holds f at the N_SAMPLES points _LAURENT_NODES/d of |z| = 1, offset
    by half a step so that z = 1 (lambda = 0) is never hit; the Fourier
    coefficients c_k come from an FFT.  NoConvergence if a coefficient of
    degree |k| > 2 exceeds 1e-12 of the largest: f is then not the Laurent
    polynomial the search assumes.  Coefficients below that level are
    roundoff and are set to 0.
    """
    c = np.fft.fft(vals) * _FFT_PHASE / N_SAMPLES
    noise = 1e-12 * np.max(np.abs(c))
    if noise == 0.0:
        raise NoConvergence("f vanishes at every Laurent sample")
    if np.any(np.abs(c[_HIGH_DEGREE]) > noise):
        raise NoConvergence(
            "determinant is not a Laurent polynomial of degree <= %d in "
            "exp(lambda*d)" % MAX_DEGREE
        )
    poly = c[_POLY_INDEX]
    poly[np.abs(poly) <= noise] = 0.0
    return poly


def _grouped_roots(coefficients):
    """Roots of the polynomial as (root, multiplicity), once per multiple root.

    np.roots splits an m-fold root into m roots about eps^(1/m) apart (up to
    3.5e-5 relative for the pencils at |alpha+beta| = 2); their mean is well
    conditioned (Kahan 1972).  Roots chained by |z - w| <= 2*GROUP_RADIUS*
    max(|z|, |w|) form a cluster.  A cluster with two roots within
    GROUP_RADIUS of each other is one root at its mean, with the cluster
    size as multiplicity; otherwise its roots stay apart.  So a cluster
    merges whole or not at all.
    """

    def near(z, w, radius):
        return abs(z - w) <= radius * max(abs(z), abs(w))

    clusters = []
    for z in np.roots(coefficients).tolist():
        linked = [any(near(z, w, 2.0 * GROUP_RADIUS) for w in c) for c in clusters]
        merged = [z] + [w for c, hit in zip(clusters, linked) if hit for w in c]
        clusters = [c for c, hit in zip(clusters, linked) if not hit] + [merged]
    groups = []
    for c in clusters:
        if any(near(z, w, GROUP_RADIUS) for i, z in enumerate(c) for w in c[:i]):
            groups.append((np.mean(c), len(c)))
        else:
            groups.extend((z, 1) for z in c)
    return groups


def _unfold(z, d, rect):
    """All lambda = (log z + 2*pi*i*k)/d within WINDOW_PAD/d of rect, one per branch k."""
    re_lo, re_hi, im_lo, im_hi = rect
    if z == 0:
        return []  # lambda with real part -infinity
    w = np.log(complex(z))
    if not re_lo * d - WINDOW_PAD <= w.real <= re_hi * d + WINDOW_PAD:
        return []
    return [(w + 2j * np.pi * k) / d for k in _branches(w.imag, 2.0 * np.pi, im_lo * d, im_hi * d)]


def find_zeros(f, window, d):
    """All zeros of f inside the complex rectangle window, as an array.

    window = (re_lo, re_hi, im_lo, im_hi).  f must be a Laurent polynomial
    of degree <= 2 in z = exp(lambda*d), as the pencil determinants are for
    equally spaced rays.  f is called once, with the array of the N_SAMPLES
    Laurent samples _LAURENT_NODES/d on Re lambda = 0; its coefficients come
    from them (_laurent_coefficients, which refuses any term of higher
    degree), the roots z of the coefficient polynomial from the companion
    matrix, multiple ones merged by _grouped_roots (near alpha+beta =
    +-(2 - delta) three roots about sqrt(delta) apart merge for delta <=
    1e-8, never in part), and each is unfolded once to the branches
    lambda = (log z + 2*pi*i*k)/d within WINDOW_PAD/d of the window, by the
    branch rule of the closed form (_unfold).
    OutOfRange before f is called unless re_lo < re_hi and im_lo < im_hi
    are finite and im_lo, im_hi (re_lo, re_hi) lie within MAX_HEIGHT of the
    real (imaginary) axis.  NoConvergence, naming f, if the samples of f
    are not finite.
    """
    window = tuple(float(x) for x in window)
    re_lo, re_hi, im_lo, im_hi = window
    if not all(map(math.isfinite, window)):
        raise OutOfRange("search window %s is not finite" % (window,))
    if not (re_lo < re_hi and im_lo < im_hi):
        raise OutOfRange(
            "empty search window %s: need re_lo < re_hi and im_lo < im_hi" % (window,)
        )
    _check_height("search window %s" % (window,), im_lo, im_hi)
    if not max(abs(re_lo), abs(re_hi)) <= MAX_HEIGHT:  # exp(lam*phi) rounds by eps*|lam|*b3
        raise OutOfRange("search window %s is not within %.3g of the imaginary axis" % (window, MAX_HEIGHT))
    vals = f(_LAURENT_NODES / d)
    if not np.isfinite(vals).all():
        raise NoConvergence("f is not finite at some of %d points" % np.size(vals))
    groups = _grouped_roots(_laurent_coefficients(vals))
    return np.array([lam for z, _ in groups for lam in _unfold(z, d, window)], dtype=complex)


def _numeric_eigenvalues(f, p, window):
    """EigenvalueSet of the zeros of f in the window.

    lambda = 0 is a zero of the exponential-basis determinants whether or
    not it is an eigenvalue; it is kept only if the determinant in the
    degenerate basis {1, phi}, which both pencils share
    (lambda_zero_determinant), vanishes relative to the data.
    """
    roots = find_zeros(f, window, p.d)
    scale0 = 1.0 + abs(p.alpha) + abs(p.beta) + p.b3
    if abs(lambda_zero_determinant(p)) > 1e-12 * scale0:
        roots = roots[np.abs(roots) >= 1e-6]
    return EigenvalueSet(roots)


def eigenvalues_numeric(p, window):
    """Pencil eigenvalues inside the window, found without the closed forms."""
    return _numeric_eigenvalues(lambda lam: characteristic_value(p, lam), p, window)


def adjoint_eigenvalues_numeric(p, window):
    """Zeros of the adjoint transmission determinant inside the window.

    The determinant carries a factor lambda (its last row is a derivative
    condition); the search runs on the determinant divided by lambda.
    """

    def f(lam):  # the Laurent samples never include lambda = 0
        return adjoint_transmission_characteristic(p, lam) / lam

    return _numeric_eigenvalues(f, p, window)


# ---------------------------------------------------------------------------
# solvability certificates


@dataclass(frozen=True)
class LineCertificate:
    """Whether the line Im lambda = h misses the eigenvalue set."""

    line: float
    solvable: bool
    nearest_eigenvalue: complex
    distance: float


def line_is_eigenvalue_free(p, h):
    """Certify that Im lambda = h contains no closed-form eigenvalue.

    Solvable: farther than FREE_LINE_TOL from nearest_eigenvalue, the
    closed-form eigenvalue nearest to the line, the lower one of two equally
    near.  OutOfRange unless |h| <= MAX_HEIGHT (so h is finite), then
    UnsupportedRegime unless |alpha+beta| < 2, the theorem's regime.

    No root is listed: y = h*d is rounded to the nearest branch k of each
    family, pi*k (k != 0, lambda = 0 is no eigenvalue here), t0 + 2*pi*k
    and -(t0 + 2*pi*k), and the branches k-1, k, k+1 are compared.  Each
    root x/d is formed as _closed_form_roots forms it, so the certificate
    is the one of the nearest listed root.
    """
    h = float(h)
    _check_height("line Im lambda = %r" % h, h)
    if not abs(p.coupling_sum) < 2.0:
        raise UnsupportedRegime("certificate needs |alpha+beta| < 2, got %g" % p.coupling_sum)
    d, t0 = p.d, _cosine_offset(p.coupling_sum)
    y, period = h * d, 2.0 * np.pi
    k_sine, k_up, k_down = (round(x) for x in (y / np.pi, (y - t0) / period, (-y - t0) / period))
    parts = [np.pi * k / d for k in range(k_sine - 1, k_sine + 2) if k != 0]
    parts += [(t0 + period * k) / d for k in range(k_up - 1, k_up + 2)]
    parts += [-(t0 + period * k) / d for k in range(k_down - 1, k_down + 2)]
    nearest = min(parts, key=lambda x: (abs(x - h), x))  # the lower of two equally near
    dist = abs(nearest - h)
    return LineCertificate(h, dist > FREE_LINE_TOL, 1j * nearest, dist)


def solvability_report(p, a, l):
    """Unique-solvability certificate in the weighted scale (a, l).

    The pencil line for the second-order problem is Im lambda = a - l - 1;
    the problem is uniquely solvable in the scale iff that line is free of
    eigenvalues, so this is line_is_eigenvalue_free on that line.  In
    particular a = 1 + l always certifies solvability for |alpha+beta| < 2.
    """
    return line_is_eigenvalue_free(p, float(a) - float(l) - 1.0)

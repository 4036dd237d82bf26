"""Eigenvalues of the nonlocal ordinary-differential pencil on an arc.

Separating variables for -Laplace + 1 on the angle b_1 < phi < b_3 with the
nonlocal ray conditions u(b_1) + alpha*u(b_2) = 0, u(b_3) + beta*u(b_2) = 0
(b_2 the middle ray) gives a lambda-dependent two-point problem

    -U'' + lambda^2 U = 0  on (b_1, b_3),

whose eigenvalues are the zeros of a 2x2 determinant over the fundamental
system {exp(lambda*phi), exp(-lambda*phi)}.  The determinant factorizes as
-2*sinh(lambda*d)*(2*cosh(lambda*d) + alpha + beta) with d = (b_3-b_1)/2,
so for |alpha+beta| < 2 the eigenvalues are i*x/d over the nonzero roots
x of sin(x)*(2*cos(x) + alpha + beta) = 0 (characteristic_roots, which the
sector solver's angular basis shares).  A line Im lambda = h free of
eigenvalues certifies unique solvability in the weighted scale with
a = h + l + 1; the certificate names the nearest eigenvalue, the lower one
on a tie, as on the line h = 0 of the symmetric spectrum.

The module also provides the characteristic determinant of the formally
adjoint nonlocal transmission pencil (piecewise solutions on the two
sub-arcs coupled through the middle ray), a 4x4 determinant written out by
its expansion along the two ray rows, and a numeric zero finder that does
not use the closed forms.  At lambda = 0 both determinants switch to the
degenerate basis {1, phi}, where they coincide (lambda_zero_determinant).
The middle ray bisects the arc, so both determinants (the adjoint one
divided by lambda) are Laurent polynomials of degree <= 2 in z =
exp(lambda*d): the finder reads their coefficients off samples on |z| = 1,
takes the roots in z from the companion matrix, merges each cluster of
roots that holds two within a relative distance of 1e-4 whole into one
multiple root at its mean (the eigenvalues at |alpha+beta| = 2, and
distinct ones at alpha+beta = +-(2 - delta), delta <= 1e-8) and unfolds
each once to lambda = (log z + 2*pi*i*k)/d.  An argument-principle count
on the window boundary checks the number of zeros found, with
multiplicity.

Both determinants are elementwise products over one damped fundamental
system and map a scalar or an array of lambda to a complex array of the
same shape (0-d for a scalar), so the finder makes one call per batch:
one for the 64 Laurent samples together with the first contour level,
then one per refinement level and one per nudged retry of the contour.
"""

import math
from dataclasses import dataclass, field

import numpy as np
# unused: perfbench/layers.py traces this name; drop both in the next benchmark change
from scipy.optimize import minimize_scalar  # noqa: F401

from .core import OutOfRange, PlaneAngleError


class UnsupportedRegime(PlaneAngleError):
    pass


class ContourThroughZero(PlaneAngleError):
    pass


class NoConvergence(PlaneAngleError):
    pass


FREE_LINE_TOL = 1e-9  # a line farther than this from every eigenvalue is free
WINDOW_PAD = 1e-9  # zeros this far outside the search window still count
N_SAMPLES = 64  # samples of a determinant on |exp(lambda*d)| = 1
MAX_DEGREE = 2  # Laurent degree of the determinants in exp(lambda*d)
CONTOUR_START, CONTOUR_MAX = 64, 8192  # contour points per edge, first and last
MAX_NUDGES = 8  # outward moves of a contour that passes through a zero
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
    values: np.ndarray = field(repr=False)
    search_window: tuple
    method: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).ravel()
        order = np.lexsort((vals.real, vals.imag))
        object.__setattr__(self, "values", vals[order])


def lambda_zero_determinant(p):
    """Determinant of the nonlocal conditions in the degenerate basis {1, phi}."""
    a, b = p.alpha, p.beta
    return (1.0 + a) * (p.b3 + b * p.b2) - (1.0 + b) * (p.b1 + a * p.b2)


def _fundamental_system(p, lam):
    """(lam flattened, exp(lam*b_k), exp(-lam*b_k)) on the rays k = 1, 2, 3.

    Each column is damped by exp(-max(+-Re lam, 0)*b3), so neither exceeds 1
    on [0, b3] and a determinant with k columns of each is the undamped one
    times exp(-k*|Re lambda|*b3), with the same zeros.
    """
    # flat, so that a scalar runs the same array loops as an array entry
    lam = np.asarray(lam, dtype=complex).ravel()
    s1 = -np.maximum(lam.real, 0.0) * p.b3
    s2 = -np.maximum(-lam.real, 0.0) * p.b3
    rays = (p.b1, p.b2, p.b3)
    return lam, [np.exp(lam * phi + s1) for phi in rays], [np.exp(-lam * phi + s2) for phi in rays]


def characteristic_value(p, lam):
    """Characteristic determinant of the pencil at lambda.

    For lambda != 0 this is the 2x2 determinant of the two nonlocal
    conditions applied to {exp(lambda*phi), exp(-lambda*phi)}; its zeros are
    exactly the pencil eigenvalues (lambda = 0 is a spurious zero of this
    basis and is handled by the degenerate basis {1, phi}).

    lam is a scalar or an array; the result is a complex array of its shape
    (0-d for a scalar), elementwise equal to scalar calls.  The columns are
    damped (_fundamental_system), so the value never overflows.
    """
    shape = np.shape(lam)
    lam, (ep1, ep2, ep3), (em1, em2, em3) = _fundamental_system(p, lam)
    a, b = p.alpha, p.beta
    # rows: condition at b1 (alpha-coupled), condition at b3 (beta-coupled)
    det = (ep1 + a * ep2) * (em3 + b * em2) - (em1 + a * em2) * (ep3 + b * ep2)
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

        2*lambda*[e+2 e-2 (e-1 e+3 - e+1 e-3) + alpha e+1 e-1 (e+3 e-2 - e+2 e-3)
                  + beta e+3 e-3 (e+2 e-1 - e+1 e-2)].

    At lambda = 0 the degenerate piecewise basis {1, phi} gives
    b3(1+alpha) - b1(1+beta) - b2(alpha-beta) = lambda_zero_determinant(p).
    lam acts as in characteristic_value.  Each term has two damped e+ and
    two damped e- factors, so the value is the undamped determinant times
    exp(-2*|Re lambda|*b3).
    """
    shape = np.shape(lam)
    lam, (ep1, ep2, ep3), (em1, em2, em3) = _fundamental_system(p, lam)
    a, b = p.alpha, p.beta
    det = 2.0 * lam * (
        ep2 * em2 * (em1 * ep3 - ep1 * em3)
        + a * ep1 * em1 * (ep3 * em2 - ep2 * em3)
        + b * ep3 * em3 * (ep2 * em1 - ep1 * em2)
    )
    return np.where(lam == 0, lambda_zero_determinant(p), det).reshape(shape)


def characteristic_roots(sigma, lo, hi):
    """Roots x in [lo, hi] of sin(x)*(2*cos(x) + sigma) = 0, as (sine, cosine).

    Both sorted: the sine family x = pi*k and the cosine family
    x = +-(t0 + 2*pi*k), t0 = arccos(-sigma/2), exactly symmetric about 0
    and disjoint from the first.  k may miss its range by 1e-12.
    UnsupportedRegime unless |sigma| < 2.
    """
    if not abs(sigma) < 2.0:
        raise UnsupportedRegime(
            "closed-form eigenvalues need |alpha+beta| < 2, got %g" % sigma
        )

    def steps(k_lo, k_hi):
        return range(math.ceil(k_lo - 1e-12), math.floor(k_hi + 1e-12) + 1)

    # few roots per call: Python floats, which round as numpy's do
    t0 = float(np.arccos(-0.5 * sigma))
    period = 2.0 * np.pi
    sine = [np.pi * k for k in steps(lo / np.pi, hi / np.pi)]
    up = [t0 + period * k for k in steps((lo - t0) / period, (hi - t0) / period)]
    down = [-(t0 + period * k) for k in steps((-hi - t0) / period, (-lo - t0) / period)]
    return np.array(sine), np.array(sorted(down + up))


def _closed_form_imag_parts(p, lo, hi):
    """Sorted Im lambda = x/d in finite [lo, hi] over the nonzero characteristic roots x."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise OutOfRange("Im lambda range %s is not finite" % ((lo, hi),))
    d = p.d
    sine, cosine = characteristic_roots(p.coupling_sum, lo * d, hi * d)
    return np.sort(np.concatenate([sine[sine != 0.0], cosine])) / d


def eigenvalues_closed_form(p, strip):
    """All eigenvalues with Im lambda in strip = (h_lo, h_hi), |alpha+beta| < 2.

    The eigenvalues are i*x/d over the nonzero roots x of
    characteristic_roots(alpha+beta, ...): i*pi*k/d (k != 0) and
    +-i*(arccos(-(alpha+beta)/2) + 2*pi*k)/d.  OutOfRange unless
    h_lo < h_hi, both finite; UnsupportedRegime unless |alpha+beta| < 2.
    """
    lo, hi = float(strip[0]), float(strip[1])
    if not lo < hi:
        raise OutOfRange("empty strip %s: need h_lo < h_hi" % ((lo, hi),))
    vals = 1j * _closed_form_imag_parts(p, lo, hi)
    return EigenvalueSet(vals, (0.0, 0.0, lo, hi), "closed_form")


# ---------------------------------------------------------------------------
# zero finding: companion-matrix roots, checked by the argument principle


def _rect_contour(rect, n_per_edge):
    re_lo, re_hi, im_lo, im_hi = rect
    # the corners counterclockwise, the first again at the end
    corners = np.array(
        [re_lo + 1j * im_lo, re_hi + 1j * im_lo, re_hi + 1j * im_hi, re_lo + 1j * im_hi,
         re_lo + 1j * im_lo]
    )
    t = np.arange(n_per_edge) / n_per_edge
    return (corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * t).ravel()


def _winding_number(f, rect, n, vals):
    """Winding number of f around the rectangle, with adaptive refinement.

    vals holds f at n points per edge.  The point count per edge doubles
    from n, one call of f per level, until every phase step between
    consecutive samples is small and the accumulated winding lies within
    0.25 of an integer.  ContourThroughZero if a contour value is
    negligibly small or the winding is unsettled at CONTOUR_MAX.
    """
    prev = None
    while True:
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0 or np.min(np.abs(vals)) < 1e-12 * scale:
            raise ContourThroughZero("characteristic value vanishes on contour")
        steps = np.angle(np.concatenate((vals[1:], vals[:1])) / vals)
        w = float(np.sum(steps)) / (2.0 * np.pi)
        near = round(w)
        largest = np.max(np.abs(steps))
        # a phase step of nearly pi that survives refinement is the signature
        # of a zero sitting on the contour; such a zero contributes a half
        # winding to each neighboring cell and would corrupt the count
        if abs(w - near) < 0.25 and largest < 3.0:
            if largest < 1.2 or prev == near:
                return near
            prev = near
        else:
            prev = None
        if n >= CONTOUR_MAX:
            raise ContourThroughZero("winding number did not stabilize")
        n *= 2
        vals = f(_rect_contour(rect, n))


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
    if np.any(np.abs(c[_HIGH_DEGREE]) > noise):
        raise NoConvergence(
            "determinant is not a Laurent polynomial of degree <= %d in "
            "exp(lambda*d)" % MAX_DEGREE
        )
    poly = c[_POLY_INDEX]
    poly[np.abs(poly) <= noise] = 0.0
    return poly


def _sampled_search(f, window, d):
    """(Laurent coefficients, winding number, rectangle) of f on the window.

    The first call of f takes the Laurent samples and the first contour
    level in one batch; f is called again only to refine the contour or
    after a nudge.  The contour starts at CONTOUR_START doubled to
    n >= 4*MAX_DEGREE*d*L/pi points per edge (L the longest edge), so that
    no term z^k turns by more than about pi/4 between samples: coarser
    levels can alias alike.  OutOfRange, naming the window, if that n
    exceeds CONTOUR_MAX.

    A contour through a zero (or through lambda = 0, where the adjoint
    search's f raises ContourThroughZero) is nudged outward and the whole
    batch retried.  The nudge grows geometrically: a zero sitting exactly
    on the contour must end up farther from the expanded contour than the
    sample spacing before the phase steps become unambiguous.  The total
    expansion stays below 3e-3 per side; any zero pulled in from just
    outside is discarded by the caller's final window filter.
    """
    n = CONTOUR_START
    while n < 4.0 * MAX_DEGREE * d * max(window[1] - window[0], window[3] - window[2]) / np.pi:
        n *= 2
    if n > CONTOUR_MAX:
        raise OutOfRange("search window %s is too tall for the contour" % (window,))
    rect = window
    for k in range(MAX_NUDGES):
        try:
            vals = f(np.concatenate((_LAURENT_NODES / d, _rect_contour(rect, n))))
            coefficients = _laurent_coefficients(vals[:N_SAMPLES])
            return coefficients, _winding_number(f, rect, n, vals[N_SAMPLES:]), rect
        except ContourThroughZero:
            eps = 1.25e-7 * 4.0**k
            re_lo, re_hi, im_lo, im_hi = rect
            rect = (re_lo - eps, re_hi + eps, im_lo - eps, im_hi + eps)
    raise ContourThroughZero(
        "contour still passes through a zero after %d nudges" % MAX_NUDGES
    )


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
    """All lambda = (log z + 2*pi*i*k)/d inside rect, one per branch k."""
    re_lo, re_hi, im_lo, im_hi = rect
    pad = WINDOW_PAD
    if z == 0:
        return []  # lambda with real part -infinity
    w = np.log(complex(z))
    if not re_lo - pad <= w.real / d <= re_hi + pad:
        return []
    k_lo = int(np.ceil(((im_lo - pad) * d - w.imag) / (2.0 * np.pi)))
    k_hi = int(np.floor(((im_hi + pad) * d - w.imag) / (2.0 * np.pi)))
    return [(w + 2j * np.pi * k) / d for k in range(k_lo, k_hi + 1)]


def find_zeros(f, window, d):
    """All zeros of f inside the complex rectangle window, as an array.

    window = (re_lo, re_hi, im_lo, im_hi).  f must be a Laurent polynomial
    of degree <= 2 in z = exp(lambda*d), as the pencil determinants are for
    equally spaced rays.  The roots z of its coefficient polynomial come from
    the companion matrix (_grouped_roots): a cluster of roots chained within
    a relative distance of 2*GROUP_RADIUS merges whole into one multiple
    root at its mean if two of them lie within GROUP_RADIUS = 1e-4 of each
    other, and each root is unfolded once to the branches
    lambda = (log z + 2*pi*i*k)/d.  Distinct roots that close merge too:
    near alpha+beta = +-(2 - delta) three roots lie about sqrt(delta)
    apart, distinct for delta >= 2e-8, merged for delta <= 1e-8, never in
    part.  The argument-principle count on the window boundary must equal
    the zeros found, with multiplicity, or NoConvergence is raised.
    f is called with arrays only: once with the Laurent samples and the
    first contour level in one batch, and again only per refinement level
    or per nudge of a contour through a zero.  OutOfRange unless re_lo <
    re_hi and im_lo < im_hi are finite (f is not called), or if the window
    is too tall for the contour.
    """
    window = tuple(float(x) for x in window)
    re_lo, re_hi, im_lo, im_hi = window
    if not all(map(math.isfinite, window)):
        raise OutOfRange("search window %s is not finite" % (window,))
    if not (re_lo < re_hi and im_lo < im_hi):
        raise OutOfRange(
            "empty search window %s: need re_lo < re_hi and im_lo < im_hi" % (window,)
        )
    coefficients, count, rect = _sampled_search(f, window, d)
    unfolded = [(lam, m) for z, m in _grouped_roots(coefficients) for lam in _unfold(z, d, rect)]
    total = sum(m for _, m in unfolded)
    if total != count:
        raise NoConvergence(
            "%d zeros from the companion matrix, %d from the argument "
            "principle" % (total, count)
        )
    zeros = np.array([lam for lam, _ in unfolded], dtype=complex)
    pad = WINDOW_PAD
    in_re = (re_lo - pad <= zeros.real) & (zeros.real <= re_hi + pad)
    in_im = (im_lo - pad <= zeros.imag) & (zeros.imag <= im_hi + pad)
    return zeros[in_re & in_im]


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
    return EigenvalueSet(roots, tuple(window), "numeric")


def eigenvalues_numeric(p, window):
    """Pencil eigenvalues inside the window, found without the closed forms."""
    return _numeric_eigenvalues(lambda lam: characteristic_value(p, lam), p, window)


def adjoint_eigenvalues_numeric(p, window):
    """Zeros of the adjoint transmission determinant inside the window.

    The determinant carries a factor lambda (its last row is a derivative
    condition); the search runs on the determinant divided by lambda.
    """

    def f(lam):
        if np.any(lam == 0):
            # f is undefined here; _sampled_search moves the contour off it
            raise ContourThroughZero("lambda = 0 on the contour")
        return adjoint_transmission_characteristic(p, lam) / lam

    return _numeric_eigenvalues(f, p, window)


# ---------------------------------------------------------------------------
# solvability certificates


@dataclass(frozen=True)
class LineCertificate:
    """Whether the line Im lambda = h misses the eigenvalue set."""

    line: float
    free: bool
    nearest_eigenvalue: complex
    distance: float


def line_is_eigenvalue_free(p, h):
    """Certify that Im lambda = h contains no closed-form eigenvalue.

    Free: farther than FREE_LINE_TOL from nearest_eigenvalue, the closed-form
    eigenvalue nearest to the line, the lower one of two equally near.
    OutOfRange unless h is finite.
    """
    h = float(h)
    margin = 4.0 * np.pi / p.opening + 1.0
    # sorted, so argmin takes the lower of two equally near
    parts = _closed_form_imag_parts(p, h - margin, h + margin)
    nearest = float(parts[np.argmin(np.abs(parts - h))])
    dist = abs(nearest - h)
    return LineCertificate(h, dist > FREE_LINE_TOL, 1j * nearest, dist)


@dataclass(frozen=True)
class SolvabilityReport:
    weight: float
    smoothness: float
    line: float
    solvable: bool
    certificate: LineCertificate
    message: str


def solvability_report(p, a, l):
    """Unique-solvability certificate in the weighted scale (a, l).

    The pencil line for the second-order problem is Im lambda = a - l - 1;
    the problem is uniquely solvable in the scale iff that line is free of
    eigenvalues.  In particular a = 1 + l always certifies solvability for
    |alpha+beta| < 2.
    """
    h = float(a) - float(l) - 1.0
    cert = line_is_eigenvalue_free(p, h)
    if cert.free:
        msg = (
            "uniquely solvable in the weighted scale (a=%g, l=%g): line "
            "Im lambda = %g is eigenvalue-free (nearest eigenvalue %s at "
            "distance %.3e)" % (a, l, h, cert.nearest_eigenvalue, cert.distance)
        )
    else:
        msg = "blocked: eigenvalue %s lies on the line Im lambda = %g" % (
            cert.nearest_eigenvalue,
            h,
        )
    return SolvabilityReport(float(a), float(l), h, cert.free, cert, msg)

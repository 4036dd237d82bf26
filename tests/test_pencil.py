"""Pencil eigenvalues: closed forms, numeric root finding, adjoint mirror."""

import itertools
import re

import numpy as np
import pytest

from planeangle import pencil
from planeangle.core import OutOfRange, make_geometry
from planeangle.pencil import (
    FREE_LINE_TOL,
    LineCertificate,
    MAX_HEIGHT,
    N_SAMPLES,
    NoConvergence,
    PoissonPencilProblem,
    UnsupportedRegime,
    _grouped_roots,
    adjoint_eigenvalues_numeric,
    adjoint_transmission_characteristic,
    characteristic_roots,
    characteristic_value,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    find_zeros,
    lambda_zero_determinant,
    line_is_eigenvalue_free,
    solvability_report,
)

B1 = np.pi / 6
P_DIR = PoissonPencilProblem(0.0, 0.0, B1, B1 + np.pi)  # opening pi, alpha+beta=0
P_MIX = PoissonPencilProblem(0.6, 0.4, B1, B1 + np.pi)  # alpha+beta=1
WINDOW = (-0.5, 0.5, -4.0, 4.0)
# the narrow and wide geometries of the acceptance tests
GEOMETRIES = (
    make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6]),
    make_geometry([0.3, 0.3 + 0.9 * np.pi, 0.3 + 1.8 * np.pi]),
)
SOLVE_GEOMETRY = make_geometry([np.pi / 6, np.pi / 6 + 0.5 * np.pi, np.pi / 6 + np.pi])


def factorized(p, lam):
    return -2.0 * np.sinh(2.0 * lam * p.d) - 2.0 * (p.alpha + p.beta) * np.sinh(
        lam * p.d
    )


def test_characteristic_zero_at_pi_over_d():
    lam = 1j * np.pi / P_MIX.d
    scale = 1.0 + abs(P_MIX.alpha) + abs(P_MIX.beta)
    assert abs(characteristic_value(P_MIX, lam)) <= 1e-12 * scale


def test_characteristic_zero_at_first_dirichlet_eigenvalue():
    assert abs(characteristic_value(P_DIR, 1j)) <= 1e-12


def test_characteristic_nonzero_on_real_axis():
    assert abs(characteristic_value(P_DIR, 0.5)) > 1e-6


def test_factorized_determinant_identity():
    # the damped determinant is the product form times
    # exp(-|Re lambda|*(b3 - b1)); the bound is the undamped relative one,
    # damped alike
    rng = np.random.default_rng(42)
    for p in (P_DIR, P_MIX, PoissonPencilProblem(-0.8, 0.3, 0.4, 2.9)):
        lam = rng.uniform(-3, 3, 120) + 1j * rng.uniform(-3, 3, 120)
        for z in lam:
            damp = np.exp(-abs(z.real) * (p.b3 - p.b1))
            got = characteristic_value(p, z)
            ref = factorized(p, z)
            scale = max(abs(ref), 1.0)
            assert abs(got - ref * damp) <= 1e-10 * scale * damp


def test_determinants_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(5)
    lam = rng.uniform(-3, 3, (3, 7)) + 1j * rng.uniform(-4, 4, (3, 7))
    lam[1, 2] = 0.0
    lam[0, 0] = 2.5
    for p in (P_MIX, PoissonPencilProblem(-0.8, 0.3, 0.4, 2.9)):
        primal = characteristic_value(p, lam)
        adjoint = adjoint_transmission_characteristic(p, lam)
        assert primal.shape == adjoint.shape == lam.shape
        for idx, z in np.ndenumerate(lam):
            one = characteristic_value(p, z)
            assert one.shape == () and one == primal[idx]
            ref = adjoint_transmission_characteristic(p, z)
            assert ref.shape == () and ref == adjoint[idx]
        assert primal[1, 2] == adjoint[1, 2] == lambda_zero_determinant(p)


def adjoint_matrix(p, lam):
    """The four adjoint conditions on the undamped piecewise basis, as a 4x4 matrix.

    Columns: exp(lam*phi) and exp(-lam*phi) on (b1, b2), then on (b2, b3);
    at lam = 0 the degenerate basis 1 and phi on each sub-arc.
    """
    a, b = p.alpha, p.beta
    b1, b2, b3 = p.b1, p.b2, p.b3
    if lam == 0:
        return np.array([
            [1.0, b1, 0.0, 0.0],
            [0.0, 0.0, 1.0, b3],
            [1.0, b2, -1.0, -b2],
            [0.0, 1.0 + a, 0.0, -1.0 - b],
        ])
    ep1, ep2, ep3 = np.exp(lam * np.array([b1, b2, b3]))
    em1, em2, em3 = np.exp(-lam * np.array([b1, b2, b3]))
    return np.array([
        [ep1, em1, 0.0, 0.0],
        [0.0, 0.0, ep3, em3],
        [ep2, em2, -ep2, -em2],
        [lam * (ep2 + a * ep1), -lam * (em2 + a * em1),
         -lam * (ep2 + b * ep3), lam * (em2 + b * em3)],
    ])


@pytest.mark.parametrize("geo", GEOMETRIES, ids=("narrow", "wide"))
def test_adjoint_determinant_matches_the_4x4_determinant(geo):
    # the two-row expansion against LAPACK on the matrix it expands; each
    # product of the expansion takes one exp(+lam*phi) and one
    # exp(-lam*phi) column, so the damping is exp(-|Re lam|*(b3 - b1))
    rng = np.random.default_rng(11)
    for alpha, beta in ((0.6, 0.4), (-0.8, 0.3), (1.2, -0.5), (1.4, 0.9)):
        p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
        lam = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-8, 8, 200)
        lam[0] = 0.0
        got = adjoint_transmission_characteristic(p, lam)
        for z, value in zip(lam, got):
            ref = np.linalg.det(adjoint_matrix(p, z)) * np.exp(-abs(z.real) * (p.b3 - p.b1))
            assert abs(value - ref) <= 1e-13 * (1.0 + abs(z))


def test_degenerate_adjoint_determinant_is_the_primal_one():
    rng = np.random.default_rng(12)
    for _ in range(50):
        alpha, beta = rng.uniform(-3, 3, 2)
        b1, b3 = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2))
        p = PoissonPencilProblem(alpha, beta, b1, b3)
        ref = np.linalg.det(adjoint_matrix(p, 0.0))
        assert abs(ref - lambda_zero_determinant(p)) <= 1e-13 * (1.0 + abs(ref))


def test_primal_determinant_is_the_adjoint_one_over_minus_two_lambda():
    # both expand to the same minor sum, with no alpha*beta term
    rng = np.random.default_rng(13)
    for _ in range(50):
        alpha, beta = rng.uniform(-3, 3, 2) * rng.choice((1.0, 100.0))
        b1, b3 = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2))
        p = PoissonPencilProblem(alpha, beta, b1, b3)
        lam = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-8, 8, 20)
        primal = characteristic_value(p, lam)
        adjoint = adjoint_transmission_characteristic(p, lam)
        assert np.all(np.abs(primal + adjoint / (2.0 * lam)) <= 1e-12 * np.abs(primal))


@pytest.mark.parametrize("opening,count", [(np.pi, 8), (2.0 * np.pi / 3.0, 4)])
def test_searches_at_a_large_product_with_a_small_sum(opening, count):
    # alpha*beta = -1.5e5 with alpha+beta = 0.5: a product form whose
    # alpha*beta terms cancel only to rounding leaves noise above the
    # Laurent degree check, and the primal search refused the samples
    p = PoissonPencilProblem(300.0, -299.5, B1, B1 + opening)
    expected = eigenvalues_closed_form(p, (-4.0, 4.0)).values
    assert len(expected) == count
    for search, conj in ((eigenvalues_numeric, False), (adjoint_eigenvalues_numeric, True)):
        found = search(p, (-1.0, 1.0, -4.0, 4.0)).values
        found = np.conj(found) if conj else found
        assert len(found) == count, search.__name__
        for z in expected:
            assert np.min(np.abs(found - z)) <= 1e-12 * max(1.0, abs(z)), (z, search.__name__)


def test_closed_form_dirichlet_family():
    eig = eigenvalues_closed_form(P_DIR, (-3.5, 3.5))
    expected = np.array([-3j, -2j, -1j, 1j, 2j, 3j])
    assert len(eig.values) == 6
    assert np.allclose(eig.values, expected, atol=1e-14)


def test_closed_form_mixed_family():
    # alpha=0.6, beta=0.4: 2*arctan(sqrt(3)) = 2*pi/3, so with opening pi the
    # positive imaginary parts are 4/3, 2, 8/3, 4, ...
    eig = eigenvalues_closed_form(P_MIX, (0.0, 4.0))
    expected = 1j * np.array([4.0 / 3.0, 2.0, 8.0 / 3.0, 4.0])
    assert np.allclose(eig.values, expected, atol=1e-12)


def test_closed_form_at_large_coupling():
    # alpha+beta = 3, d = pi/2: the sine family 2ik, k != 0, and the cosine
    # family off the imaginary axis, +-arccosh(3/2)/d + 2i(2k+1)
    p = PoissonPencilProblem(1.5, 1.5, B1, B1 + np.pi)
    shift = np.arccosh(1.5) / p.d
    expected = [-4j, 4j] + [re + 2j * m for m in (-1, 1) for re in (-shift, 0.0, shift)]
    eig = eigenvalues_closed_form(p, (-4.0, 4.0)).values
    assert len(eig) == len(expected)
    for z in expected:
        assert np.min(np.abs(eig - z)) <= 1e-14


@pytest.mark.parametrize("strip", [(4.0, -4.0), (1.0, 1.0)])
def test_closed_form_rejects_empty_strip(strip):
    with pytest.raises(OutOfRange, match=r"empty strip \(%s, %s\)" % strip):
        eigenvalues_closed_form(P_MIX, strip)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.4), (0.6, np.inf)])
def test_non_finite_coupling_is_out_of_range(alpha, beta):
    with pytest.raises(OutOfRange, match="finite coupling"):
        PoissonPencilProblem(alpha, beta, B1, B1 + np.pi)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_strip_and_line_are_out_of_range(x):
    for strip in ((x, 1.0), (-1.0, x)):
        with pytest.raises(OutOfRange):
            eigenvalues_closed_form(P_MIX, strip)
    with pytest.raises(OutOfRange):
        solvability_report(P_MIX, x, 1.0)


def test_closed_form_refuses_a_strip_with_too_many_roots(monkeypatch):
    # about 1e7 roots; the height bound refuses the strip before any is listed
    def roots(sigma, lo, hi):
        raise AssertionError("roots listed for (%g, %g)" % (lo, hi))

    monkeypatch.setattr(pencil, "characteristic_roots", roots)
    with pytest.raises(OutOfRange, match=re.escape("strip (0.0, 10000000.0) is not within")):
        eigenvalues_closed_form(P_MIX, (0.0, 1e7))


def test_ranges_just_above_the_height_bound_are_refused_first(monkeypatch):
    # strips, windows and lines: no root listed, no determinant called
    def refused(*args):
        raise AssertionError("called with %s" % (args,))

    for name in ("characteristic_roots", "characteristic_value",
                 "adjoint_transmission_characteristic"):
        monkeypatch.setattr(pencil, name, refused)
    top = 1.001 * MAX_HEIGHT
    for lo, hi in ((top - 4.0, top), (-top, 4.0), (-top, -top + 4.0)):
        with pytest.raises(OutOfRange, match="real axis"):
            eigenvalues_closed_form(P_MIX, (lo, hi))
        for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
            with pytest.raises(OutOfRange, match="real axis"):
                search(P_MIX, (-0.5, 0.5, lo, hi))
        with pytest.raises(OutOfRange, match="real axis"):
            find_zeros(refused, (-0.5, 0.5, lo, hi), P_MIX.d)
    for h in (top, -top):
        with pytest.raises(OutOfRange, match="real axis"):
            line_is_eigenvalue_free(P_MIX, h)
    for lo, hi in ((top - 1.0, top), (-top, -top + 1.0)):
        for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
            with pytest.raises(OutOfRange, match="imaginary axis"):
                search(P_MIX, (lo, hi, 0.0, 4.0))
        with pytest.raises(OutOfRange, match="imaginary axis"):
            find_zeros(refused, (lo, hi, 0.0, 4.0), P_MIX.d)


def test_numeric_matches_closed_form_mixed():
    closed = eigenvalues_closed_form(P_MIX, (0.1, 4.1))
    numeric = eigenvalues_numeric(P_MIX, (-0.1, 0.1, 0.1, 4.1))
    assert len(numeric.values) == len(closed.values)
    for z in closed.values:
        assert np.min(np.abs(numeric.values - z)) <= 1e-8


def test_numeric_single_root_window():
    numeric = eigenvalues_numeric(P_DIR, (-0.3, 0.3, 0.5, 1.5))
    assert len(numeric.values) == 1
    assert abs(numeric.values[0] - 1j) <= 1e-10


def test_numeric_empty_off_axis_window():
    numeric = eigenvalues_numeric(P_MIX, (2.0, 3.0, -0.5, 0.5))
    assert len(numeric.values) == 0


def test_find_zeros_laurent_control():
    # independent check of the root finder on f = (z - z1)(z - z2)/z with
    # z = exp(lambda*d): z1 on the unit circle, z2 off it (Re lambda != 0)
    d, window = 0.8, (-1.0, 1.0, -10.0, 10.0)
    z1, z2 = np.exp(0.9j), 1.5 * np.exp(-2.0j)

    def f(lam):
        z = np.exp(lam * d)
        return (z - z1) * (z - z2) / z

    expected = [(0.9j + 2j * np.pi * k) / d for k in (-1, 0, 1)]
    expected += [(np.log(1.5) - 2.0j + 2j * np.pi * k) / d for k in (0, 1)]
    roots = find_zeros(f, window, d)
    assert len(roots) == 5
    for w in expected:
        assert min(abs(r - w) for r in roots) <= 1e-10


def test_find_zeros_rejects_degree_three():
    with pytest.raises(NoConvergence, match="not a Laurent polynomial"):
        find_zeros(lambda lam: np.exp(3.0 * lam) - 2.0, (-1.0, 1.0, -2.0, 2.0), 1.0)


def test_find_zeros_refuses_f_that_vanishes_at_every_sample():
    # every lambda would be a zero, and no coefficient is left to take roots of
    with pytest.raises(NoConvergence, match="vanishes at every Laurent sample"):
        find_zeros(lambda lam: np.zeros(np.shape(lam), dtype=complex), WINDOW, P_MIX.d)


def test_find_zeros_calls_f_once_per_batch():
    # one call takes the Laurent samples, the only batch of a search
    shapes = []

    def f(lam):
        shapes.append(np.shape(lam))
        return characteristic_value(P_MIX, lam)

    roots = find_zeros(f, (-0.5, 0.5, -3.9, 3.9), P_MIX.d)
    assert len(roots) == 7
    assert shapes == [(N_SAMPLES,)]


def test_searches_with_edges_on_zeros_take_one_batch(monkeypatch):
    # the adjoint window's bottom edge passes through lambda = 0, where the
    # adjoint determinant divided by lambda is undefined, and the primal
    # window's top edge through the eigenvalue 4i: neither edge is sampled,
    # so each search makes the one call of its Laurent samples
    batches = []
    for name in ("characteristic_value", "adjoint_transmission_characteristic"):

        def counted(p, lam, det=getattr(pencil, name)):
            batches.append(np.size(lam))
            return det(p, lam)

        monkeypatch.setattr(pencil, name, counted)
    cases = (
        (adjoint_eigenvalues_numeric, (-0.5, 0.5, 0.0, 4.0), True),
        (eigenvalues_numeric, WINDOW, False),
    )
    for search, window, conj in cases:
        batches.clear()
        found = search(P_MIX, window).values
        found = np.conj(found) if conj else found
        found = found[np.argsort(found.imag)]
        strip = (-window[3], -window[2]) if conj else window[2:]
        closed = eigenvalues_closed_form(P_MIX, strip).values
        assert batches == [N_SAMPLES]
        assert len(found) == len(closed)
        assert np.max(np.abs(found - closed)) <= 1e-12


def test_grouped_roots_chain():
    # the outer roots are 1.6e-4 apart, each 8e-5 from the middle one: one
    # chain, one triple root at the mean; the root at 2 stays apart
    z = np.array([1.0, 1.0 + 8e-5, 1.0 + 1.6e-4, 2.0])
    groups = _grouped_roots(np.poly(z))
    assert sorted(m for _, m in groups) == [1, 3]
    for mean, m in groups:
        assert abs(mean - (1.0 + 8e-5 if m == 3 else 2.0)) <= 1e-12


def test_grouped_roots_merge_whole_clusters():
    # 1 + 9e-5 links to 1 within the grouping radius, so the cluster
    # absorbs 1 - 1.1e-4, 1.1e-4 from 1; three roots 1.5e-4 apart have no
    # pair that close and stay apart
    merged = _grouped_roots(np.poly([1.0, 1.0 + 9e-5, 1.0 - 1.1e-4, 3.0]))
    assert sorted(m for _, m in merged) == [1, 3]
    for mean, m in merged:
        assert abs(mean - (1.0 - 2e-5 / 3.0 if m == 3 else 3.0)) <= 1e-10
    apart = _grouped_roots(np.poly([1.0, 1.0 + 1.5e-4, 1.0 + 3e-4]))
    assert [m for _, m in apart] == [1, 1, 1]


@pytest.mark.parametrize("geo", GEOMETRIES)
def test_merge_band_merges_whole_clusters(geo):
    # at alpha+beta = +-(2 - delta) three roots in z lie about sqrt(delta)
    # apart near -+1; a search returns either the distinct closed-form
    # eigenvalues or, with the cluster merged whole, the multiple ones
    # i*pi*k/d, k != 0 (lambda = 0 is an eigenvalue only at alpha+beta = -2),
    # never the mean of part of a cluster
    k_max = int(np.floor(WINDOW[3] * geo.d / np.pi))
    merged = np.pi * np.array([k for k in range(-k_max, k_max + 1) if k != 0]) / geo.d
    for delta in np.geomspace(1e-5, 1e-10, 26):
        for sign in (1.0, -1.0):
            half = sign * (1.0 - 0.5 * delta)
            p = PoissonPencilProblem(half, half, geo.angles[0], geo.angles[-1])
            distinct = np.sort(eigenvalues_closed_form(p, WINDOW[2:]).values.imag)
            for search, conj in ((eigenvalues_numeric, 1.0), (adjoint_eigenvalues_numeric, -1.0)):
                found = search(p, WINDOW).values
                got = np.sort(conj * found.imag)
                assert np.max(np.abs(found.real)) <= 1e-6
                assert any(
                    len(got) == len(ref) and np.max(np.abs(got - ref)) <= 1e-6
                    for ref in (distinct, merged)
                ), (delta, sign, search.__name__)


TRIPLE_COUPLINGS = ((1.0, 1.0), (-1.0, -1.0))


def triple_zero_windows(d, sigma):
    """Windows with an Im edge on a triple zero at sigma = +-2, or 2e-4 inside or outside of one.

    Each comes with its gap: no zero lies closer than that to its boundary,
    except on it.
    """
    if sigma > 0:
        t = np.pi / d  # the lowest triple zero above the real axis
        return [((-0.5, 0.5, -3.0, 3.0), 0.2), ((-0.5, 0.5, -t, t), 0.2),
                ((-0.5, 0.5, -t - 2e-4, t - 2e-4), 2e-4)]
    t = 2.0 * np.pi / d
    return [((-0.5, 0.5, 0.0, 4.0), 0.2), ((-0.5, 0.5, -t, 0.0), 0.2),
            ((-0.5, 0.5, 2e-4, t + 2e-4), 2e-4)]


@pytest.mark.parametrize("geo", GEOMETRIES, ids=("narrow", "wide"))
@pytest.mark.parametrize("alpha, beta", TRIPLE_COUPLINGS)
def test_window_edges_through_triple_eigenvalues(geo, alpha, beta):
    # at alpha+beta = 2 the product form -2 sinh(lambda d)(2 cosh(lambda d)
    # + alpha + beta) has triple zeros at i*pi*(2k+1)/d, at -2 at 2*pi*i*k/d,
    # lambda = 0 included; every zero is some i*pi*k/d.  These windows once
    # aliased an argument-principle count on their boundary (7 zeros from
    # the companion matrix, 3 from the count on (-0.5, 0.5, -3, 3) of the
    # narrow geometry)
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    for window, _ in triple_zero_windows(p.d, alpha + beta):
        # lambda = 0 is an eigenvalue only where lambda_zero_determinant vanishes
        expected = eigenvalues_closed_form(p, window[2:]).values
        assert np.max(np.abs(factorized(p, expected))) <= 1e-12
        # the adjoint zeros in the mirrored window, whose edges pass through
        # triple zeros too, are the conjugate eigenvalues
        mirror = (window[0], window[1], -window[3], -window[2])
        for search, w, conj in ((eigenvalues_numeric, window, False),
                                (adjoint_eigenvalues_numeric, mirror, True)):
            found = search(p, w).values
            found = np.conj(found) if conj else found
            found = found[np.argsort(found.imag)]
            assert len(found) == len(expected), (window, search.__name__)
            assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


MULTIPLE_COUPLINGS = ((1.0, 1.0), (-1.0, -1.0), (1.3, 0.7), (-1.2, -0.8))


@pytest.mark.parametrize("geo", GEOMETRIES)
@pytest.mark.parametrize("alpha, beta", MULTIPLE_COUPLINGS)
def test_multiple_eigenvalues_come_back_once(geo, alpha, beta):
    # at alpha+beta = +-2 every eigenvalue is i*pi*k/d, and triple where the
    # double root of 2*cos(x) + alpha + beta meets a root of sin(x);
    # lambda = 0 is one at alpha+beta = -2, where lambda_zero_determinant
    # vanishes for every alpha
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    expected = eigenvalues_closed_form(p, WINDOW[2:]).values
    assert np.max(np.abs(factorized(p, expected))) <= 1e-12
    assert (0j in expected) == (alpha + beta < 0)
    for search, conj in ((eigenvalues_numeric, False), (adjoint_eigenvalues_numeric, True)):
        found = search(p, WINDOW).values
        found = np.conj(found) if conj else found
        assert len(found) == len(expected)
        assert np.max(np.abs(np.sort(found.imag) - expected.imag)) <= 1e-12
        assert np.max(np.abs(found.real)) <= 1e-12


def test_tall_window():
    # 216 zeros on the wide geometry; a contour started at 64 points per
    # edge aliases the phase of exp(2*lambda*d) and miscounts them
    geo = GEOMETRIES[1]
    p = PoissonPencilProblem(0.6, 0.4, geo.angles[0], geo.angles[-1])
    closed = eigenvalues_closed_form(p, (-60.0, 60.0)).values
    window = (-0.5, 0.5, -60.0, 60.0)
    for found in (eigenvalues_numeric(p, window).values,
                  np.conj(adjoint_eigenvalues_numeric(p, window).values)):
        assert len(found) == len(closed) == 216
        for z in closed:
            assert np.min(np.abs(found - z)) <= 1e-12


@pytest.mark.parametrize("height", [1200.0, 7.0e4])
def test_windows_up_to_the_height_bound(height):
    # one Laurent batch serves a window of any height: 2400 and 140000
    # eigenvalues, each within the rounding of the closed form at its height
    window = (-0.5, 0.5, -height, height)
    closed = eigenvalues_closed_form(P_MIX, window[2:]).values
    for found in (eigenvalues_numeric(P_MIX, window).values,
                  np.conj(adjoint_eigenvalues_numeric(P_MIX, window).values)):
        found = found[np.argsort(found.imag)]
        assert len(found) == len(closed) == round(2.0 * height)
        assert np.all(np.abs(found - closed) <= 1e-9 * np.maximum(1.0, np.abs(closed)))


@pytest.mark.parametrize(
    "window", [(-0.5, 0.5, 4.0, -4.0), (0.5, -0.5, -4.0, 4.0), (0.5, 0.5, -4.0, 4.0)]
)
def test_empty_window_is_out_of_range(window):
    for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
        with pytest.raises(OutOfRange, match="empty search window"):
            search(P_MIX, window)


@pytest.mark.parametrize(
    "window", [(-0.5, 0.5, 0.0, np.inf), (-np.inf, 0.5, -4.0, 4.0), (-0.5, 0.5, np.nan, 4.0)]
)
def test_non_finite_window_is_out_of_range_before_any_determinant_call(window, monkeypatch):
    # an infinite edge would size the contour without end
    calls = []
    for name in ("characteristic_value", "adjoint_transmission_characteristic"):
        monkeypatch.setattr(pencil, name, lambda p, lam: calls.append(lam))
    for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
        with pytest.raises(OutOfRange, match="not finite"):
            search(P_MIX, window)
    assert calls == []


@pytest.mark.parametrize(
    "f",
    [lambda lam: np.full(np.shape(lam), np.nan),
     lambda lam: np.where(lam.imag > 2.0, np.inf, characteristic_value(P_MIX, lam))],
    ids=("nan", "inf_on_some_samples"),
)
def test_find_zeros_refuses_values_of_f_that_are_not_finite(f):
    # NaN everywhere, or inf on the upper half of the Laurent samples only
    # (they lie on Re lambda = 0 with 0 < Im lambda < 2*pi/d = 4)
    with pytest.raises(NoConvergence, match="f is not finite"):
        find_zeros(f, WINDOW, P_MIX.d)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=("narrow", "wide"))
@pytest.mark.parametrize("alpha, beta", [(0.6, 0.4), (3.0, 2.0)])
def test_windows_far_from_the_imaginary_axis(geo, alpha, beta):
    # no zeros there; the damped determinants stay of modulus about 1, so
    # the contour is not read as passing through a zero
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    for window in ((300.0, 301.0, 0.0, 4.0), (1000.0, 1001.0, 0.0, 4.0),
                   (-1001.0, -1000.0, 0.0, 4.0)):
        for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
            assert len(search(p, window).values) == 0, (window, search.__name__)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=("narrow", "wide"))
def test_damped_columns_peak_at_one_far_from_the_imaginary_axis(geo):
    # the largest product of a damped exp(lam*phi) and a damped
    # exp(-lam*phi) column is exp(|Re lam|*(b3 - b1)) undamped, so 1 damped,
    # up to the rounding of the exponents, about eps*|lam|*b3
    p = PoissonPencilProblem(0.6, 0.4, geo.angles[0], geo.angles[-1])
    for re in (300.0, 1e3, 0.999 * MAX_HEIGHT):
        for lam in (re + 0.5j, -re + 0.5j):
            for det in (characteristic_value, adjoint_transmission_characteristic):
                value = det(p, lam)
                assert np.isfinite(value) and value != 0.0, (lam, det.__name__)
            _, up, down = pencil._fundamental_system(p, lam)
            largest = max(abs(u[0] * v[0]) for u in up for v in down)
            assert abs(largest - 1.0) <= 4.0 * np.finfo(float).eps * abs(lam) * p.b3


# (-15.51, -15.31): sigma = -30.82, where the discrete S on r in [0.5, 3] is
# nearly singular at n = 32
OUTSIDE_COUPLINGS = ((1.5, 1.0), (-1.5, -1.0), (3.0, 2.0), (-2.0, -1.5), (2.5, -0.3),
                     (-3.0, 0.5), (-15.51, -15.31))


def outside_regime_window(d):
    return (-4.0 / d, 4.0 / d, -12.0 / d, 12.0 / d)


@pytest.mark.parametrize("geo", GEOMETRIES, ids=("narrow", "wide"))
@pytest.mark.parametrize("alpha, beta", OUTSIDE_COUPLINGS)
def test_searches_outside_the_regime(geo, alpha, beta):
    # |alpha+beta| > 2: the cosine family leaves the imaginary axis in pairs,
    # lambda = +-arccosh(sigma/2)/d + i*pi*(2k+1)/d for sigma > 2 and
    # +-arccosh(|sigma|/2)/d + 2*pi*i*k/d for sigma < -2; the sine family
    # i*pi*k/d, k != 0, stays.  Window edges off every eigenvalue.
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    window = outside_regime_window(p.d)
    expected = eigenvalues_closed_form(p, window[2:]).values
    assert np.max(np.abs(expected.real)) > 0.1
    assert np.max(np.abs(factorized(p, expected))) <= 1e-12
    for search, conj in ((eigenvalues_numeric, False), (adjoint_eigenvalues_numeric, True)):
        found = search(p, window).values
        found = np.conj(found) if conj else found
        assert len(found) == len(expected), search.__name__
        for z in expected:
            assert np.min(np.abs(found - z)) <= 1e-12 * max(1.0, abs(z)), (z, search.__name__)


def windows_with_edges_on_eigenvalues():
    """(p, lo, hi): Im edges on the eigenvalues lo and hi, from height 10 to the bound.

    Over both sides of the real axis; lo and hi bound a period of
    x = lambda*d below the height.
    """
    couplings = ((0.6, 0.4), (0.3, -0.8), (0.0, 0.0), (-0.8, 1.1), (1.2, 0.5),
                 (0.999, 0.999), (-1.5, 0.3))
    heights = (10.0, 100.0, 1e3, 3e3, 1e4, 3e4, 0.999 * MAX_HEIGHT)
    for geo, (alpha, beta), height, sign in itertools.product(
            GEOMETRIES, couplings, heights, (1.0, -1.0)):
        p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
        ims = eigenvalues_closed_form(p, (height - 2.0 * np.pi / p.d - 1.0, height)).values.imag
        yield (p, ims[0], ims[-1]) if sign > 0 else (p, -ims[-1], -ims[0])


def test_both_routes_agree_on_windows_with_edges_on_eigenvalues():
    # the closed form, the primal search and the conjugated adjoint search
    # keep the same set
    failures = []
    cases = list(windows_with_edges_on_eigenvalues())
    for p, lo, hi in cases:
        try:
            closed = eigenvalues_closed_form(p, (lo, hi)).values
            found = (eigenvalues_numeric(p, (-0.5, 0.5, lo, hi)).values,
                     np.conj(adjoint_eigenvalues_numeric(p, (-0.5, 0.5, -hi, -lo)).values))
        except NoConvergence as exc:
            failures.append((p, lo, hi, str(exc)))
            continue
        if not all(len(v) == len(closed) and np.max(np.abs(v[np.argsort(v.imag)] - closed))
                   <= 1e-12 * max(-lo, hi) for v in found):
            failures.append((p, lo, hi, found, closed))
    assert not failures, "%d of %d windows: %s" % (len(failures), len(cases), failures[:3])


def winding_number(f, rect, h):
    """Zeros of f inside the rectangle, with multiplicity, by the argument principle.

    f is sampled counterclockwise along the edges at a spacing of at most h.
    Between two samples, m zeros at least 2h from the contour turn the phase
    of f by at most 2*m*atan(1/4), below pi for m <= 3, so each phase step
    is the true one and their sum is 2*pi times the count.  The largest step
    is asserted below 2, which a zero closer to the contour would break.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi),
               complex(re_lo, im_hi)]
    edges = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = int(np.ceil(abs(b - a) / h))
        edges.append(a + (b - a) * np.arange(n) / n)
    vals = f(np.concatenate(edges))
    steps = np.angle(np.roll(vals, -1) / vals)
    assert np.max(np.abs(steps)) < 2.0, rect
    turns = np.sum(steps) / (2.0 * np.pi)
    assert abs(turns - round(turns)) <= 1e-6, rect
    return round(turns)


# the function each search samples
SEARCHED = {
    eigenvalues_numeric: characteristic_value,
    adjoint_eigenvalues_numeric: lambda p, lam: adjoint_transmission_characteristic(p, lam) / lam,
}


def assert_the_argument_principle_counts(search, p, window, gap):
    """The zeros found, with multiplicity, are those the argument principle counts.

    gap: no zero lies closer than that to the window's boundary, except on
    it.  The count runs on the window widened by gap/2, so it takes in the
    zeros on the edges, which the search keeps.  The multiplicity of each
    zero found is the count on a square around it that holds no other; so
    is that of lambda = 0, a zero of both f that the search drops unless it
    is an eigenvalue.
    """
    def f(lam):
        return SEARCHED[search](p, lam)

    pad = 0.5 * gap
    rect = (window[0] - pad, window[1] + pad, window[2] - pad, window[3] + pad)
    zeros = list(search(p, window).values)
    if rect[0] < 0.0 < rect[1] and rect[2] < 0.0 < rect[3] and min(map(abs, zeros), default=1.0) >= 1e-6:
        zeros.append(0j)
    r = 0.5 * min([gap] + [abs(z - w) for i, z in enumerate(zeros) for w in zeros[:i]])
    multiplicities = [winding_number(f, (z.real - r, z.real + r, z.imag - r, z.imag + r), 0.125 * r)
                      for z in zeros]
    assert min(multiplicities, default=1) >= 1, (window, search.__name__)
    assert sum(multiplicities) == winding_number(f, rect, 0.25 * gap), (window, search.__name__)


def test_argument_principle_counts_the_zeros_found():
    # the windows of the tests above, for both searches; the count is
    # independent of the Laurent coefficients and of the closed forms
    for p, lo, hi in windows_with_edges_on_eigenvalues():
        # the nearest zeros of (0.999, 0.999) lie 0.0158 apart on the wide geometry
        assert_the_argument_principle_counts(eigenvalues_numeric, p, (-0.5, 0.5, lo, hi), 0.01)
        assert_the_argument_principle_counts(adjoint_eigenvalues_numeric, p, (-0.5, 0.5, -hi, -lo), 0.01)
    for geo in GEOMETRIES:
        for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
            for alpha, beta in OUTSIDE_COUPLINGS:
                p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
                assert_the_argument_principle_counts(search, p, outside_regime_window(p.d), 0.1)
            for alpha, beta in MULTIPLE_COUPLINGS:
                p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
                assert_the_argument_principle_counts(search, p, WINDOW, 0.4)
            for alpha, beta in TRIPLE_COUPLINGS:
                p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
                for window, gap in triple_zero_windows(p.d, alpha + beta):
                    assert_the_argument_principle_counts(search, p, window, gap)


def test_adjoint_mirror_of_primal_zeros():
    primal = eigenvalues_numeric(P_MIX, (-0.2, 0.2, -3.0, 3.0))
    adj = adjoint_eigenvalues_numeric(P_MIX, (-0.2, 0.2, -3.0, 3.0))
    assert len(adj.values) == len(primal.values)
    mirrored = np.conj(primal.values)
    for z in mirrored:
        assert np.min(np.abs(adj.values - z)) <= 1e-8


@pytest.mark.parametrize(
    "alpha, beta",
    [(1.2, 0.79), (-1.2, -0.79), (1.0, 0.9999), (-1.0, -0.9999), (1.0, 1.0 - 1e-6),
     (-1.0, -1.0 + 1e-6)],
)
def test_near_double_zeros(alpha, beta):
    # |alpha+beta| -> 2 merges the arctan family with the 2*pi*k/(b3-b1) one;
    # at 2 - 1e-6 the roots in z are about 1e-3 apart, ten times the
    # grouping radius, and stay distinct
    for geo in GEOMETRIES:
        p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
        closed = eigenvalues_closed_form(p, WINDOW[2:]).values
        primal = eigenvalues_numeric(p, WINDOW).values
        adjoint = adjoint_eigenvalues_numeric(p, WINDOW).values
        assert len(primal) == len(adjoint) == len(closed)
        for z in closed:
            assert np.min(np.abs(primal - z)) <= 1e-8
        for z in primal:
            assert np.min(np.abs(adjoint - np.conj(z))) <= 1e-8


def test_zero_on_window_edge():
    # 4i lies on the top edge of the window, -4i on the bottom one
    assert len(eigenvalues_numeric(P_MIX, WINDOW).values) == 8
    assert len(adjoint_eigenvalues_numeric(P_MIX, WINDOW).values) == 8


def test_window_edge_through_lambda_zero():
    # the bottom edge samples lambda = 0, where the exponential basis
    # degenerates and the adjoint determinant divided by lambda is undefined
    closed = eigenvalues_closed_form(P_MIX, (0.0, 4.0)).values
    for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
        found = search(P_MIX, (-0.5, 0.5, 0.0, 4.0)).values
        assert len(found) == len(closed)
        for z in closed:
            assert np.min(np.abs(found - z)) <= 1e-8


def test_adjoint_nonzero_on_real_axis():
    for x in (0.5, 1.0, 2.0, -1.5):
        assert abs(adjoint_transmission_characteristic(P_MIX, x)) > 1e-8


@pytest.mark.parametrize("sigma", [0.0, 1.0, -0.5, -1.1, 1.999, -1.999])
def test_characteristic_roots(sigma):
    sine, cosine = characteristic_roots(sigma, -40.0, 40.0)
    assert np.all(np.diff(sine) > 0.0) and np.all(np.diff(cosine) > 0.0)
    assert np.all(np.abs(np.sin(sine)) <= 1e-13 * (1.0 + np.abs(sine)))
    assert np.all(np.abs(2.0 * np.cos(cosine) + sigma) <= 1e-13 * (1.0 + np.abs(cosine)))
    assert not set(sine.tolist()) & set(cosine.tolist())
    for lo in 2.0 * np.pi * np.array([-3.0, 0.0, 5.0]):
        # the closed interval also holds the next period's first sine root
        sine, cosine = characteristic_roots(sigma, lo, lo + 2.0 * np.pi)
        assert np.sum(sine < lo + 2.0 * np.pi) == 2 and cosine.size == 2
    for lo, hi in [(-7.0, 13.5), (0.0, 10.0 * np.pi), (2.5, 2.6)]:
        mirrored = characteristic_roots(sigma, -hi, -lo)
        for got, want in zip(mirrored, characteristic_roots(sigma, lo, hi)):
            assert np.array_equal(got, -want[::-1])


@pytest.mark.parametrize("sigma", [2.0, -2.0, 2.5, -2.5, 3.0, -30.8189])
def test_characteristic_roots_outside_the_regime(sigma):
    # the cosine roots are complex, Re t0 = pi for sigma > 2 and 0 for
    # sigma < -2; at |sigma| = 2 the double root is listed once
    sine, cosine = characteristic_roots(sigma, -40.0, 40.0)
    assert np.array_equal(cosine, np.sort(cosine))
    assert np.all(np.abs(np.sin(cosine) * (2.0 * np.cos(cosine) + sigma)) <= 1e-12 * (1.0 + np.abs(cosine)))
    assert np.all((np.abs(cosine.imag) > 0.5) == (abs(sigma) > 2.0))
    for lo in 2.0 * np.pi * np.array([-3.0, 0.0, 5.0]) + 0.5:
        sine, cosine = characteristic_roots(sigma, lo, lo + 2.0 * np.pi)
        assert sine.size == 2 and cosine.size == (1 if abs(sigma) == 2.0 else 2)
    for lo, hi in [(-7.0, 13.5), (0.0, 10.0 * np.pi), (2.5, 2.6)]:
        mirrored = characteristic_roots(sigma, -hi, -lo)
        for got, want in zip(mirrored, characteristic_roots(sigma, lo, hi)):
            want = np.sort(-want)
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (-1.0, -1.0), (1.5, 1.0), (-3.0, 0.5)])
def test_certificate_refuses_outside_the_regime(alpha, beta):
    # the closed form lists these eigenvalues, but the solvability theorem
    # is stated for |alpha+beta| < 2 only
    p = PoissonPencilProblem(alpha, beta, B1, B1 + np.pi)
    with pytest.raises(UnsupportedRegime, match=r"\|alpha\+beta\| < 2"):
        line_is_eigenvalue_free(p, 0.5)
    for h in (np.nextafter(MAX_HEIGHT, np.inf), np.nan):  # the height is checked first
        with pytest.raises(OutOfRange, match="real axis"):
            line_is_eigenvalue_free(p, h)
    with pytest.raises(UnsupportedRegime):
        solvability_report(p, 2.0, 1.0)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (0.3, -0.8), (0.0, 0.0), (-0.8, 1.1)])
def test_line_zero_names_the_lower_of_the_tied_eigenvalues(alpha, beta):
    # h = 0 is equally far from +-i*arccos(-(alpha+beta)/2)/d
    p = PoissonPencilProblem(alpha, beta, B1, B1 + np.pi)
    cert = line_is_eigenvalue_free(p, 0.0)
    want = -np.arccos(-0.5 * (alpha + beta)) / p.d
    assert cert.solvable and cert.nearest_eigenvalue.imag == want
    assert cert.distance == -want


def test_line_zero_is_free():
    cert = line_is_eigenvalue_free(P_MIX, 0.0)
    assert cert.solvable
    assert cert.distance > 0.5


def test_line_hitting_eigenvalue():
    cert = line_is_eigenvalue_free(P_DIR, np.pi / P_DIR.opening)
    assert not cert.solvable
    assert cert.distance <= 1e-9


def test_line_between_eigenvalues():
    cert = line_is_eigenvalue_free(P_DIR, 0.5 * np.pi / P_DIR.opening)
    assert cert.solvable


def test_solvability_weight_one_plus_l():
    for l in (0, 1, 2):
        report = solvability_report(P_MIX, 1.0 + l, l)
        assert report.solvable
        assert report.line == 0.0


def test_solvability_blocked_line():
    report = solvability_report(P_DIR, 3.0, 1.0)  # h = 1 hits lambda = i
    assert not report.solvable


def test_solvability_fractional_line():
    report = solvability_report(P_DIR, 2.5, 1.0)  # h = 0.5, between eigenvalues
    assert report.solvable


def test_both_certificates_are_one_flat_record():
    # the weighted-scale report is the line certificate on h = a - l - 1
    report = solvability_report(P_MIX, 2.5, 1.0)
    assert type(report) is LineCertificate
    assert report == line_is_eigenvalue_free(P_MIX, 0.5)


def test_no_certificate_verdict_is_wrong_up_to_the_line_height_cap():
    # lines within 3e-9 of eigenvalues, against 50-digit roots: below the cap
    # the distance is off by far less than FREE_LINE_TOL, so every verdict
    # away from the threshold is right; above it the certificate refuses
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    guard = FREE_LINE_TOL / 16
    with mp.workdps(50):
        for height in (1.0, 1e3, 1e4, 0.999 * MAX_HEIGHT, 1.001 * MAX_HEIGHT, 1e8):
            for _ in range(40):
                alpha, beta = rng.uniform(-0.99, 0.99, 2)
                b1 = rng.uniform(0.05, 1.0)
                p = PoissonPencilProblem(alpha, beta, b1, b1 + rng.uniform(0.3, 5.0))
                d = (mp.mpf(p.b3) - mp.mpf(p.b1)) / 2
                t0 = mp.acos(-(mp.mpf(alpha) + mp.mpf(beta)) / 2)
                x = height * float(d)
                family = rng.integers(3)
                if family == 0:
                    root = mp.pi * (mp.nint(x / mp.pi) or 1)  # lambda = 0 is not an eigenvalue
                else:
                    root = t0 + 2 * mp.pi * mp.nint((x - t0) / (2 * mp.pi))
                    root = root if family == 1 else -root
                eigenvalue = rng.choice([-1, 1]) * root / d
                h = float(eigenvalue + mp.mpf(rng.uniform(-3e-9, 3e-9)))
                if abs(h) > MAX_HEIGHT:
                    with pytest.raises(OutOfRange, match="real axis"):
                        line_is_eigenvalue_free(p, h)
                    continue
                cert = line_is_eigenvalue_free(p, h)
                true = float(abs(mp.mpf(h) - eigenvalue))  # the neighbours lie O(1/d) away
                assert abs(cert.distance - true) <= guard
                if abs(true - FREE_LINE_TOL) > guard:
                    assert cert.solvable == (true > FREE_LINE_TOL)


def _listed_certificate(p, h):
    # the certificate by listing: every closed-form root within 4*pi/opening
    # + 1 of the line (the nearest lies within pi/d), sorted, and the first
    # argmin of the distance, so the lower of two equally near
    margin = 4.0 * np.pi / p.opening + 1.0
    parts = pencil._closed_form_roots(p, h - margin, h + margin)
    nearest = float(parts[np.argmin(np.abs(parts - h))])
    dist = abs(nearest - h)
    return LineCertificate(h, dist > FREE_LINE_TOL, 1j * nearest, dist)


@pytest.mark.parametrize("geo", GEOMETRIES + (SOLVE_GEOMETRY,), ids=["narrow", "wide", "solve"])
def test_certificate_is_the_one_of_the_nearest_listed_root(geo):
    # lines at random heights, on closed-form eigenvalues, on midpoints
    # between neighbours (ties), near 0 (the sine root k = 0 is left out)
    # and near +-MAX_HEIGHT: every field equal to the listing rule's
    rng = np.random.default_rng(36)
    b1, b3 = geo.angles[0], geo.angles[-1]
    top = np.nextafter(MAX_HEIGHT, 0.0)
    for _ in range(150):
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        if not abs(alpha + beta) < 2.0:
            beta = rng.uniform(-1.999, 1.999) - alpha
        p = PoissonPencilProblem(alpha, beta, b1, b3)
        near = pencil._closed_form_roots(p, -30.0, 30.0)
        far = pencil._closed_form_roots(p, MAX_HEIGHT - 30.0, MAX_HEIGHT)
        lines = [0.0, 5e-324, -5e-324, 1e-12, -1e-12, MAX_HEIGHT, -MAX_HEIGHT, top, -top]
        lines += list(rng.uniform(-MAX_HEIGHT, MAX_HEIGHT, 3)) + list(rng.uniform(-6.0, 6.0, 3))
        lines += list(MAX_HEIGHT - rng.uniform(0.0, 30.0, 2)) + list(rng.uniform(-30.0, 0.0, 2) - MAX_HEIGHT)
        for roots in (near, far, -far):
            i = rng.integers(roots.size - 1)
            x, y = roots[i], roots[i + 1]
            lines += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf), 0.5 * (x + y), x + 0.5 * (y - x)]
        for h in lines:
            h = float(h)
            if abs(h) <= MAX_HEIGHT:
                assert line_is_eigenvalue_free(p, h) == _listed_certificate(p, h), (alpha, beta, h)

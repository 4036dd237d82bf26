"""Pencil eigenvalues: closed forms, numeric root finding, adjoint mirror."""

import re

import numpy as np
import pytest

from planeangle import pencil
from planeangle.core import OutOfRange, make_geometry
from planeangle.pencil import (
    CONTOUR_START,
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
    # the damped determinant is the product form times exp(-|Re lambda|*b3);
    # the bound is the undamped relative one, damped alike
    rng = np.random.default_rng(42)
    for p in (P_DIR, P_MIX, PoissonPencilProblem(-0.8, 0.3, 0.4, 2.9)):
        lam = rng.uniform(-3, 3, 120) + 1j * rng.uniform(-3, 3, 120)
        for z in lam:
            damp = np.exp(-abs(z.real) * p.b3)
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
    # term of the 4x4 determinant takes two exp(+lam*phi) and two
    # exp(-lam*phi) columns, so the damping is exp(-2*|Re lam|*b3)
    rng = np.random.default_rng(11)
    for alpha, beta in ((0.6, 0.4), (-0.8, 0.3), (1.2, -0.5), (1.4, 0.9)):
        p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
        lam = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-8, 8, 200)
        lam[0] = 0.0
        got = adjoint_transmission_characteristic(p, lam)
        for z, value in zip(lam, got):
            ref = np.linalg.det(adjoint_matrix(p, z)) * np.exp(-2.0 * abs(z.real) * p.b3)
            assert abs(value - ref) <= 1e-13 * (1.0 + abs(z))


def test_degenerate_adjoint_determinant_is_the_primal_one():
    rng = np.random.default_rng(12)
    for _ in range(50):
        alpha, beta = rng.uniform(-3, 3, 2)
        b1, b3 = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2))
        p = PoissonPencilProblem(alpha, beta, b1, b3)
        ref = np.linalg.det(adjoint_matrix(p, 0.0))
        assert abs(ref - lambda_zero_determinant(p)) <= 1e-13 * (1.0 + abs(ref))


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


def test_closed_form_rejects_large_coupling():
    p = PoissonPencilProblem(1.5, 1.5, B1, B1 + np.pi)
    with pytest.raises(UnsupportedRegime):
        eigenvalues_closed_form(p, (-1.0, 1.0))


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


def test_find_zeros_calls_f_once_per_batch():
    # one call takes the Laurent samples and the first contour level; the
    # window edges are far from zeros, so that level suffices
    shapes = []

    def f(lam):
        shapes.append(np.shape(lam))
        return characteristic_value(P_MIX, lam)

    roots = find_zeros(f, (-0.5, 0.5, -3.9, 3.9), P_MIX.d)
    assert len(roots) == 7
    assert shapes == [(N_SAMPLES + 4 * CONTOUR_START,)]


def test_nudged_and_refined_searches(monkeypatch):
    # the adjoint window's bottom edge passes through lambda = 0, where the
    # search's f raises before any determinant call, and the primal window's
    # top edge through the eigenvalue 4i: each contour is nudged outward and
    # the whole batch retried, then refined once, which samples the contour
    # only
    batches = []
    for name in ("characteristic_value", "adjoint_transmission_characteristic"):

        def counted(p, lam, det=getattr(pencil, name)):
            batches.append(np.size(lam))
            return det(p, lam)

        monkeypatch.setattr(pencil, name, counted)
    first, refined = N_SAMPLES + 4 * CONTOUR_START, 8 * CONTOUR_START
    cases = (
        (adjoint_eigenvalues_numeric, (-0.5, 0.5, 0.0, 4.0), True, [first, refined]),
        (eigenvalues_numeric, WINDOW, False, [first, first, refined]),
    )
    for search, window, conj, calls in cases:
        batches.clear()
        found = search(P_MIX, window).values
        found = np.conj(found) if conj else found
        found = found[np.argsort(found.imag)]
        strip = (-window[3], -window[2]) if conj else window[2:]
        closed = eigenvalues_closed_form(P_MIX, strip).values
        assert batches == calls
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


@pytest.mark.parametrize("geo", GEOMETRIES)
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (-1.0, -1.0), (1.3, 0.7), (-1.2, -0.8)])
def test_multiple_eigenvalues_come_back_once(geo, alpha, beta):
    # at alpha+beta = +-2 every eigenvalue is i*pi*k/d, and triple where the
    # double root of 2*cos(x) + alpha + beta meets a root of sin(x);
    # lambda = 0 is one at alpha+beta = -2, where lambda_zero_determinant
    # vanishes for every alpha
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    k_max = int(np.floor(WINDOW[3] * p.d / np.pi))
    ks = [k for k in range(-k_max, k_max + 1) if k != 0 or alpha + beta < 0]
    expected = 1j * np.pi * np.array(ks) / p.d
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


def test_window_too_tall_for_the_contour():
    window = (-0.5, 0.5, -1200.0, 1200.0)
    with pytest.raises(OutOfRange, match=re.escape("search window %s" % (window,))):
        eigenvalues_numeric(P_MIX, window)


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


@pytest.mark.parametrize("sigma", [2.0, -2.0, 2.5])
def test_characteristic_roots_outside_the_regime(sigma):
    with pytest.raises(UnsupportedRegime):
        characteristic_roots(sigma, 0.0, 10.0)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (0.3, -0.8), (0.0, 0.0), (-0.8, 1.1)])
def test_line_zero_names_the_lower_of_the_tied_eigenvalues(alpha, beta):
    # h = 0 is equally far from +-i*arccos(-(alpha+beta)/2)/d
    p = PoissonPencilProblem(alpha, beta, B1, B1 + np.pi)
    cert = line_is_eigenvalue_free(p, 0.0)
    want = -np.arccos(-0.5 * (alpha + beta)) / p.d
    assert cert.free and cert.nearest_eigenvalue.imag == want
    assert cert.distance == -want


def test_line_zero_is_free():
    cert = line_is_eigenvalue_free(P_MIX, 0.0)
    assert cert.free
    assert cert.distance > 0.5


def test_line_hitting_eigenvalue():
    cert = line_is_eigenvalue_free(P_DIR, np.pi / P_DIR.opening)
    assert not cert.free
    assert cert.distance <= 1e-9


def test_line_between_eigenvalues():
    cert = line_is_eigenvalue_free(P_DIR, 0.5 * np.pi / P_DIR.opening)
    assert cert.free


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

"""Pencil eigenvalues: closed forms, numeric root finding, adjoint mirror."""

import re

import numpy as np
import pytest

from planeangle.core import OutOfRange, make_geometry
from planeangle.pencil import (
    NoConvergence,
    PoissonPencilProblem,
    UnsupportedRegime,
    _newton_polish,
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
            assert ref.shape == ()
            assert abs(adjoint[idx] - ref) <= 1e-14 * abs(ref)
        assert primal[1, 2] == lambda_zero_determinant(p)


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
    # one call for the Laurent samples, one per contour level, one per
    # Newton step; the window edges are far from zeros, so one level and
    # one step suffice
    shapes = []

    def f(lam):
        shapes.append(np.shape(lam))
        return characteristic_value(P_MIX, lam)

    roots = find_zeros(f, (-0.5, 0.5, -3.9, 3.9), P_MIX.d)
    assert len(roots) == 7
    assert len(shapes) == 3 and all(len(shape) == 1 for shape in shapes)


@pytest.mark.parametrize(
    "window", [(-0.5, 0.5, 4.0, -4.0), (0.5, -0.5, -4.0, 4.0), (0.5, 0.5, -4.0, 4.0)]
)
def test_empty_window_is_out_of_range(window):
    for search in (eigenvalues_numeric, adjoint_eigenvalues_numeric):
        with pytest.raises(OutOfRange, match="empty search window"):
            search(P_MIX, window)


@pytest.mark.parametrize("geo", GEOMETRIES)
@pytest.mark.parametrize("alpha, beta", [(0.6, 0.4), (0.3, -0.8)])
def test_newton_polish_converges_from_perturbed_eigenvalues(geo, alpha, beta):
    p = PoissonPencilProblem(alpha, beta, geo.angles[0], geo.angles[-1])
    closed = eigenvalues_closed_form(p, WINDOW[2:]).values
    searches = (
        lambda lam: characteristic_value(p, lam),
        lambda lam: adjoint_transmission_characteristic(p, lam) / lam,
    )
    for f in searches:
        polished = _newton_polish(f, closed + 1e-3, 1.0)
        assert np.max(np.abs(polished - closed)) <= 1e-12


@pytest.mark.parametrize(
    "f",
    [
        lambda lam: 1.0 + np.abs(lam) ** 2 + 0j,  # |f| >= 1 everywhere
        lambda lam: np.full(np.shape(lam), 2.0 + 0j),  # zero difference quotient
    ],
)
def test_newton_polish_no_convergence_names_the_starts(f):
    starts = np.array([0.3 + 1.0j, -2.0 + 0.5j])
    with pytest.raises(NoConvergence, match=re.escape(str(starts))):
        _newton_polish(f, starts, 1.0)


def test_adjoint_mirror_of_primal_zeros():
    primal = eigenvalues_numeric(P_MIX, (-0.2, 0.2, -3.0, 3.0))
    adj = adjoint_eigenvalues_numeric(P_MIX, (-0.2, 0.2, -3.0, 3.0))
    assert len(adj.values) == len(primal.values)
    mirrored = np.conj(primal.values)
    for z in mirrored:
        assert np.min(np.abs(adj.values - z)) <= 1e-8


@pytest.mark.parametrize(
    "alpha, beta", [(1.2, 0.79), (-1.2, -0.79), (1.0, 0.9999), (-1.0, -0.9999)]
)
def test_near_double_zeros(alpha, beta):
    # |alpha+beta| -> 2 merges the arctan family with the 2*pi*k/(b3-b1) one
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

"""Weighted norms, weight algebra, trace-ratio boundedness probes."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeangle.core import GridFunction, PlaneAngleError, SectorGrid, exp_bump, make_geometry
from planeangle import weighted_norms
from planeangle.weighted_norms import (
    UnsupportedOrder,
    WeightParams,
    e_norm,
    h_norm,
    trace_ratio,
)

GEO = make_geometry([np.pi / 6, np.pi / 6 + np.pi / 2, np.pi / 6 + np.pi])


def smooth_u(grid):
    return GridFunction.from_callable(
        grid, lambda r, p: r * np.cos(p) + 0.5 * np.sin(2 * p)
    )


def test_order_validation():
    with pytest.raises(UnsupportedOrder):
        WeightParams(0.0, 3)
    with pytest.raises(UnsupportedOrder):
        WeightParams(0.0, -1)


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_weight_exponent_must_be_finite(a):
    with pytest.raises(PlaneAngleError, match="not finite"):
        WeightParams(a, 1)


def test_zero_function_zero_norms():
    grid = SectorGrid(GEO, 1.0, 2.0, 8, 8)
    u = GridFunction(grid, np.zeros((9, 9)))
    p = WeightParams(0.5, 2)
    assert e_norm(u, p) == 0.0
    assert h_norm(u, p) == 0.0
    assert trace_ratio(u, "gamma1", p) == 0.0


def test_constant_function_exact_area():
    # at a=0, l=0 the E integrand is the constant 2, and midpoint quadrature
    # integrates r dr dphi exactly: norm = sqrt(2 * area)
    grid = SectorGrid(GEO, 1.0, 2.0, 16, 16)
    u = GridFunction.from_callable(grid, lambda r, p: np.ones_like(r))
    area = GEO.opening * (2.0**2 - 1.0**2) / 2.0
    assert abs(e_norm(u, WeightParams(0.0, 0)) - np.sqrt(2.0 * area)) < 1e-13


def test_l0_e_norm_is_sqrt2_times_h_norm():
    grid = SectorGrid(GEO, 1.0, 2.0, 32, 32)
    u = smooth_u(grid)
    for a in (-0.5, 0.0, 0.7):
        p = WeightParams(a, 0)
        assert abs(e_norm(u, p) - np.sqrt(2.0) * h_norm(u, p)) < 1e-13 * e_norm(u, p)


def test_l0_direct_quadrature_oracle():
    grid = SectorGrid(GEO, 1.0, 2.0, 16, 16)
    u = smooth_u(grid)
    a = 0.3
    r, _ = grid.meshgrid()
    nodal = 2.0 * r ** (2 * a) * np.abs(u.values) ** 2
    cell = 0.25 * (nodal[:-1, :-1] + nodal[1:, :-1] + nodal[:-1, 1:] + nodal[1:, 1:])
    r_mid = 0.5 * (grid.r_nodes[:-1] + grid.r_nodes[1:])
    direct = np.sqrt(np.sum(np.real(cell) * r_mid[:, None]) * grid.dr * grid.dphi)
    assert abs(e_norm(u, WeightParams(a, 0)) - direct) < 1e-14 * direct


@given(c=st.floats(0.1, 50.0))
@settings(max_examples=30, deadline=None)
def test_homogeneity(c):
    grid = SectorGrid(GEO, 1.0, 2.0, 12, 12)
    u = smooth_u(grid)
    cu = GridFunction(grid, c * u.values)
    p = WeightParams(0.3, 2)
    assert abs(e_norm(cu, p) - c * e_norm(u, p)) <= 1e-13 * e_norm(cu, p)
    assert abs(h_norm(cu, p) - c * h_norm(u, p)) <= 1e-13 * h_norm(cu, p)


def test_monotone_in_l_on_unit_disk_grids():
    # the l-dependent weights only favor added derivative terms where r <= 1
    grid = SectorGrid(GEO, 0.3, 1.0, 32, 32)
    u = smooth_u(grid)
    for a in (-0.5, 0.0, 0.7):
        es = [e_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
        hs = [h_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
        assert es[0] <= es[1] <= es[2]
        assert hs[0] <= hs[1] <= hs[2]


def test_weight_envelope_against_unweighted_sobolev():
    # on grids inside r in [1, 2] with a = 0, each E weight lies between 1
    # and 2 * 2**(2l), so the norms differ by bounded factors
    grid = SectorGrid(GEO, 1.0, 2.0, 24, 24)
    u = smooth_u(grid)
    for l in (0, 1, 2):
        weighted = e_norm(u, WeightParams(0.0, l))
        plain = h_norm(u, WeightParams(float(l), l))  # weight r^(2|alpha|) <= 4^l
        assert weighted > 0 and plain > 0
        ratio = weighted / plain
        assert 2.0 ** (-2 * l) <= ratio <= np.sqrt(2.0) * 2.0 ** (2 * l)


def test_trace_ratio_requires_l_geq_1():
    grid = SectorGrid(GEO, 1.0, 2.0, 8, 8)
    u = smooth_u(grid)
    with pytest.raises(UnsupportedOrder):
        trace_ratio(u, "gamma1", WeightParams(0.0, 0))


def test_trace_ratio_of_zero_checks_ray_and_order():
    # u = 0 has a zero E norm, and still an invalid ray or order raises
    grid = SectorGrid(GEO, 1.0, 2.0, 8, 8)
    u = GridFunction(grid, np.zeros((9, 9)))
    with pytest.raises(PlaneAngleError, match="ray must be"):
        trace_ratio(u, "gamma2", WeightParams(0.5, 1))
    with pytest.raises(UnsupportedOrder):
        trace_ratio(u, "gamma1", WeightParams(0.5, 0))
    assert trace_ratio(u, "gamma3", WeightParams(0.5, 1)) == 0.0


def test_trace_ratio_stable_under_refinement():
    p = WeightParams(0.5, 1)
    bump = exp_bump(1.0, 2.5)
    ratios = []
    for n in (32, 64, 128):
        grid = SectorGrid(GEO, 0.5, 3.0, n, n)
        u = GridFunction.from_callable(grid, lambda r, phi: bump(r)[0] * np.cos(phi))
        ratios.append(trace_ratio(u, "gamma1", p))
    spread = (max(ratios) - min(ratios)) / np.median(ratios)
    assert spread < 0.2


def test_trace_ratio_bounded_for_shrinking_family():
    p = WeightParams(0.5, 1)
    grid = SectorGrid(GEO, 0.5, 3.0, 256, 64)
    ratios = []
    for s in (1.0, 0.5, 0.25, 0.125):
        bump = exp_bump(0.6, 0.6 + s)
        u = GridFunction.from_callable(grid, lambda r, phi: bump(r)[0] * np.cos(phi))
        ratios.append(trace_ratio(u, "gamma1", p))
    assert max(ratios) <= 3.0 * np.median(ratios)


def diagnostics_sequence(u, a=0.3):
    """The norms of one field that a diagnostics round takes, in its order."""
    es = [e_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
    hs = [h_norm(u, WeightParams(a, l)) for l in (0, 1, 2)]
    ts = [trace_ratio(u, "gamma1", WeightParams(a, l)) for l in (1, 2)]
    return es + hs + ts


def fresh(u):
    """A new GridFunction with u's values: it never meets a memo of u."""
    return GridFunction(u.grid, u.values.copy())


def counted(monkeypatch, name):
    calls = []
    inner = getattr(weighted_norms, name)

    def spy(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(weighted_norms, name, spy)
    return calls


def test_one_field_is_differentiated_once_per_order(monkeypatch):
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 32, 32))
    tables = counted(monkeypatch, "cartesian_derivatives")
    gradients = counted(monkeypatch, "_cartesian_gradient")
    values = diagnostics_sequence(u)
    # l = 0, then 1, then 2 each extend the table once; 8 and 12 without the
    # memo.  Order 1 takes the gradient of u, order 2 those of u_x and u_y
    assert len(tables) <= 3
    assert len(gradients) == 3
    monkeypatch.undo()
    assert values == diagnostics_sequence(fresh(u))


def test_values_cannot_change_under_their_table():
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 16, 16))
    p = WeightParams(0.3, 2)
    before = e_norm(u, p), h_norm(u, WeightParams(0.3, 1))
    with pytest.raises(ValueError, match="read-only"):
        u.values[5, 7] += 0.25
    with pytest.raises(ValueError, match="read-only"):
        u.values[:] *= 2.0
    assert (e_norm(u, p), h_norm(u, WeightParams(0.3, 1))) == before
    assert before == (e_norm(fresh(u), p), h_norm(fresh(u), WeightParams(0.3, 1)))


def test_alternating_fields_match_memo_free_norms():
    grid = SectorGrid(GEO, 0.3, 1.0, 24, 24)
    fields = {
        "u": smooth_u(grid),
        "v": GridFunction.from_callable(grid, lambda r, p: r**2 * np.sin(2 * p) + 1j * np.cos(r * p)),
    }
    runs = [(a, l) for a in (0.3, 1.0) for l in (2, 0, 1)]

    def norms(field, a, l):
        # field() is the argument of each single call
        p = WeightParams(a, l)
        return e_norm(field(), p), h_norm(field(), p), trace_ratio(field(), "gamma3", p) if l else None

    expected = {
        (k, a, l): norms(lambda: fresh(w), a, l) for k, w in fields.items() for a, l in runs
    }
    # one field across orders (the memo hits), then both fields in turn (it misses)
    for k in "uvuv":
        for a, l in runs:
            assert norms(lambda: fields[k], a, l) == expected[k, a, l]
    for a, l in runs:
        for k in "uvuv":
            assert norms(lambda: fields[k], a, l) == expected[k, a, l]


def test_table_lives_on_its_field_and_dies_with_it():
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 16, 24))
    e_norm(u, WeightParams(0.3, 2))
    # one radial profile of length n_r + 1 per order; no node-sized table
    # but the gradient
    profiles = u.derived["profiles"]
    assert [P.shape for P in profiles] == [(17,)] * 3
    assert set(u.derived) == {"gradient", "profiles"}
    # the first derivatives that order 2 was built from stay, read-only
    assert not any(d.flags.writeable for d in u.derived["gradient"])
    assert not hasattr(weighted_norms, "_TABLE")
    ref, table = weakref.ref(u), weakref.ref(profiles[2])
    del u, profiles
    gc.collect()
    assert ref() is None and table() is None


def test_fields_with_equal_values_keep_separate_tables():
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 16, 16))
    v = fresh(u)
    e_norm(u, WeightParams(0.3, 2))
    assert "profiles" not in v.derived
    h_norm(v, WeightParams(0.3, 1))
    assert len(u.derived["profiles"]) == 3 and len(v.derived["profiles"]) == 2
    assert not any(P is Q for P in u.derived["profiles"] for Q in v.derived["profiles"])


def test_threads_sharing_the_memo_get_their_own_norms():
    grid = SectorGrid(GEO, 0.3, 1.0, 16, 16)
    fields = [
        GridFunction.from_callable(grid, lambda r, p, k=k: r * np.cos(p) + 0.5 * np.sin((k + 2) * p))
        for k in range(4)
    ]
    expected = [diagnostics_sequence(u) for u in fields]
    wrong = []

    def work(k):
        for _ in range(20):
            if diagnostics_sequence(fields[k]) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _complex_table_gradient(grid, vals, *_):
    # the gradient on complex data by numpy's own differences and chain-rule
    # factors, as the table was built when every field was stored as complex
    vals = np.asarray(vals, dtype=complex)
    r, phi = grid.r_nodes[:, None], grid.phi_nodes[None, :]
    u_r = np.gradient(vals, grid.dr, axis=0, edge_order=2)
    u_phi = np.gradient(vals, grid.dphi, axis=1, edge_order=2)
    return np.cos(phi) * u_r - np.sin(phi) / r * u_phi, np.sin(phi) * u_r + np.cos(phi) / r * u_phi


@pytest.mark.parametrize("n", [3, 16, 64])
def test_real_fields_take_a_float_table_with_the_complex_table_norms(n, monkeypatch):
    # a real field is stored as float64 and differenced in float64, a field
    # with a nonzero imaginary part in complex128, and both give the norms
    # and trace ratios of the complex table bit for bit, at every order
    rng = np.random.default_rng(n)
    grid = SectorGrid(GEO, 0.3, 1.0, n, 2 * n)
    for _ in range(4):
        c1, c2, c3, a = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.7)
        real = GridFunction.from_callable(grid, lambda r, p: c1 * r * np.cos(p) + c2 * np.sin(2 * p))
        cplx = GridFunction.from_callable(grid, lambda r, p: c1 * r * np.cos(p) + 1j * c3 * r**2 * np.sin(p))
        assert real.values.dtype == np.float64 and cplx.values.dtype == complex
        got = [diagnostics_sequence(u, a) for u in (real, cplx)]
        assert real.derived["gradient"][0].dtype == np.float64
        assert cplx.derived["gradient"][0].dtype == complex
        with monkeypatch.context() as m:
            m.setattr(weighted_norms, "_cartesian_gradient", _complex_table_gradient)
            assert got == [diagnostics_sequence(fresh(u), a) for u in (real, cplx)]


def test_differences_round_as_numpy_rounds_complex_data():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((9, 7))
    z = x + 1j * rng.standard_normal((9, 7))
    for axis, h in ((0, 0.1), (1, 0.7 / 3.0)):
        want = np.gradient(x + 0j, h, axis=axis, edge_order=2)
        assert np.array_equal(weighted_norms._difference(x, h, axis), want.real)
        assert np.array_equal(weighted_norms._difference(z, h, axis), np.gradient(z, h, axis=axis, edge_order=2))
        # and agree with numpy's exact division of real data to rounding
        assert np.allclose(weighted_norms._difference(x, h, axis), np.gradient(x, h, axis=axis, edge_order=2),
                           rtol=1e-15, atol=0.0)


def _nodal_norm(u, l, weight):
    # the O(n^2) reference: the midpoint-cell rule on the nodal integrand
    # sum weight(r, |alpha|) |D^alpha u|^2, with no table
    grid = u.grid
    r = grid.r_nodes[:, None]
    nodal = np.zeros(u.values.shape)
    for (i, j), d in weighted_norms.cartesian_derivatives(fresh(u), l).items():
        nodal += weight(r, i + j) * np.abs(d) ** 2
    cell = 0.25 * (nodal[:-1, :-1] + nodal[1:, :-1] + nodal[:-1, 1:] + nodal[1:, 1:])
    r_mid = 0.5 * (grid.r_nodes[:-1] + grid.r_nodes[1:])
    return np.sqrt(float(np.sum(cell * r_mid[:, None]) * grid.dr * grid.dphi))


def _oracle(u, ray, a, l):
    e = _nodal_norm(u, l, lambda r, k: r ** (2 * a) * (r ** (2 * (k - l)) + 1.0))
    h = _nodal_norm(u, l, lambda r, k: r ** (2 * (a - l + k)))
    trace = weighted_norms.trace_integral(u, ray, WeightParams(a, l)) / e if l else None
    return e, h, trace


@pytest.mark.parametrize("n", [3, 16, 64])
def test_radial_profiles_match_the_nodal_quadrature(n):
    rng = np.random.default_rng(10 + n)
    grid = SectorGrid(GEO, 0.3, 1.0, n, 2 * n)
    c1, c2, c3 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    fields = [
        GridFunction.from_callable(grid, lambda r, p: c1 * r * np.cos(p) + c2 * np.sin(2 * p)),
        GridFunction.from_callable(grid, lambda r, p: c1 * r * np.cos(p) + 1j * c3 * r**2 * np.sin(3 * p)),
        GridFunction(grid, rng.standard_normal((n + 1, 2 * n + 1)) + 1j * rng.standard_normal((n + 1, 2 * n + 1))),
    ]
    for u in fields:
        # every order of one field in turn: the table is extended, then read
        for l in (1, 0, 2, 1, 0):
            for a in (-0.5, 0.0, 0.3, 1.7):
                p = WeightParams(a, l)
                got = e_norm(u, p), h_norm(u, p), trace_ratio(u, "gamma3", p) if l else None
                want = _oracle(u, "gamma3", a, l)
                for g, w in zip(got, want):
                    if w is not None:
                        assert abs(g - w) <= 1e-14 * w


def test_norms_after_order_2_read_only_the_table(monkeypatch):
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 32, 32))
    e_norm(u, WeightParams(0.3, 2))
    tables = counted(monkeypatch, "cartesian_derivatives")
    gradients = counted(monkeypatch, "_cartesian_gradient")
    for a in (-0.4, 0.3, 1.1):
        for l in (0, 1, 2):
            p = WeightParams(a, l)
            e_norm(u, p), h_norm(u, p)
            if l:
                trace_ratio(u, "gamma1", p)
    assert tables == [] and gradients == []

"""Weighted norms, weight algebra, trace-ratio boundedness probes."""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeangle.core import GridFunction, PlaneAngleError, SectorGrid, make_geometry
from planeangle import weighted_norms
from planeangle.manufactured import exp_bump
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
    # l = 0, then 1, then 2 each extend the table once; 8 and 12 without the memo
    assert len(tables) <= 3
    assert len(gradients) <= 4
    monkeypatch.undo()
    assert values == diagnostics_sequence(fresh(u))


def test_values_changed_in_place_are_differentiated_again():
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 16, 16))
    p = WeightParams(0.3, 2)
    before = e_norm(u, p)
    u.values[5, 7] += 0.25
    assert e_norm(u, p) == e_norm(fresh(u), p) != before
    u.values[:] *= 2.0
    assert h_norm(u, WeightParams(0.3, 1)) == h_norm(fresh(u), WeightParams(0.3, 1))


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


def test_memo_is_released_with_its_field():
    u = smooth_u(SectorGrid(GEO, 0.3, 1.0, 16, 16))
    e_norm(u, WeightParams(0.3, 2))
    ref, values, order, squares = weighted_norms._TABLE
    assert ref() is u and np.array_equal(values, u.values) and order == 2 and len(squares) == 6
    del u
    gc.collect()
    assert weighted_norms._TABLE is None


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

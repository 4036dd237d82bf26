"""Geometry and grid construction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planeangle.core import (
    AngleGeometry,
    GridFunction,
    IncompatibleGrid,
    NonUniformSpacing,
    OutOfRange,
    SectorGrid,
    TooFewAngles,
    make_geometry,
)
from planeangle.manufactured import manufactured_dd, manufactured_nonlocal


def test_make_geometry_two_sectors():
    geo = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])
    assert geo.num_sectors == 2
    assert abs(geo.d - np.pi / 3) < 1e-15


def test_make_geometry_single_sector():
    geo = make_geometry([0.5, 1.0])
    assert geo.num_sectors == 1
    assert geo.d == 0.5


def test_make_geometry_rejects_uneven_gaps():
    with pytest.raises(NonUniformSpacing):
        make_geometry([0.5, 1.0, 1.6])


def test_make_geometry_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        make_geometry([0.0, 1.0])
    with pytest.raises(OutOfRange):
        make_geometry([1.0, 2 * np.pi])
    with pytest.raises(OutOfRange):
        make_geometry([1.0, 0.5])
    with pytest.raises(OutOfRange):  # every comparison with NaN is false
        make_geometry([0.5, np.nan, 1.5])


def test_make_geometry_rejects_short_lists():
    with pytest.raises(TooFewAngles):
        make_geometry([1.0])


def test_make_geometry_idempotent_roundtrip():
    geo = make_geometry([0.3, 1.1, 1.9, 2.7])
    again = make_geometry(list(geo.angles))
    assert again == geo


def test_grid_validation():
    geo = make_geometry([0.5, 1.0, 1.5])
    with pytest.raises(IncompatibleGrid):
        SectorGrid(geo, -1.0, 3.0, 4, 4)
    with pytest.raises(IncompatibleGrid):
        SectorGrid(geo, 1.0, 3.0, 4, 5)  # n_phi not divisible by R
    with pytest.raises(IncompatibleGrid):
        SectorGrid(geo, 1.0, 3.0, 2, 4)  # n_r too small
    with pytest.raises(IncompatibleGrid):
        SectorGrid(geo, 1.0, np.inf, 4, 4)


def test_column_shift_matches_sector_spacing():
    geo = make_geometry([0.4, 1.2, 2.0])
    grid = SectorGrid(geo, 0.5, 2.0, 4, 12)
    phi = grid.phi_nodes
    s = grid.shift_columns
    for p in (-2, -1, 1, 2):
        for j in range(grid.n_phi + 1):
            k = j + s * p
            if 0 <= k <= grid.n_phi:
                assert abs((phi[k] - phi[j]) - p * geo.d) < 1e-13


def test_grid_function_shape_check():
    geo = make_geometry([0.5, 1.0, 1.5])
    grid = SectorGrid(geo, 1.0, 3.0, 4, 4)
    with pytest.raises(IncompatibleGrid):
        GridFunction(grid, np.zeros((4, 4)))
    u = GridFunction.from_callable(grid, lambda r, p: r * np.cos(p))
    assert u.values.shape == (5, 5)
    assert u.values.dtype == complex


@pytest.mark.parametrize(
    "func",
    [lambda r, phi: r**2, lambda r, phi: np.sin(phi), lambda r, phi: 2.5 - 1j],
    ids=["r-only", "phi-only", "scalar"],
)
def test_from_callable_spreads_a_broadcast_result(func):
    # n_r != n_phi, so a transposed sample would not fit the grid
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 6, 4)
    shapes = []

    def spy(r, phi):
        shapes.append((np.shape(r), np.shape(phi)))
        return func(r, phi)

    u = GridFunction.from_callable(grid, spy)
    assert shapes == [((7, 1), (1, 5))]
    assert u.values.shape == (7, 5) and u.values.dtype == complex
    r, phi = grid.meshgrid()
    assert np.array_equal(u.values, np.full(r.shape, func(r, phi), dtype=complex))


def test_from_callable_manufactured_fields_match_the_full_node_arrays():
    geo = make_geometry([np.pi / 6, np.pi / 6 + np.pi / 2, np.pi / 6 + np.pi])
    grid = SectorGrid(geo, 0.5, 3.0, 64, 64)
    r, phi = grid.meshgrid()
    for func in manufactured_nonlocal(geo, 0.5, 3.0) + manufactured_dd(geo, 0.5, 3.0):
        full = np.asarray(func(r, phi), dtype=complex)
        assert GridFunction.from_callable(grid, func).values.tobytes() == full.tobytes()


def test_grid_function_holds_a_complex_array_read_only():
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 4, 4)
    a = np.ones((5, 5), dtype=complex)
    u = GridFunction(grid, a)
    assert np.shares_memory(u.values, a)
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 2.0
    real = np.ones((5, 5))
    v = GridFunction(grid, real)
    assert not np.shares_memory(v.values, real) and not v.values.flags.writeable
    assert v.derived == {} and "derived" not in repr(v)


def test_grid_function_equality_and_hash_are_by_identity():
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 4, 4)
    a = GridFunction(grid, np.zeros((5, 5)))
    b = GridFunction(grid, np.zeros((5, 5)))
    assert a == a and not a != a and a in [a]
    assert not a == b and a != b and a not in [b]
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_geometry_is_frozen():
    geo = make_geometry([0.5, 1.0, 1.5])
    with pytest.raises(Exception):
        geo.d = 2.0
    assert isinstance(geo, AngleGeometry)


def test_green_check_imports_without_scipy():
    # core holds the C-infinity bump, so the Green check needs numpy only
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, planeangle.green_check; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"

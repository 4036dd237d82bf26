"""Geometry and grid construction, and what importing the package loads."""

import json
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
    PlaneAngleError,
    SectorGrid,
    TooFewAngles,
    make_geometry,
)
from planeangle.green_check import GreenConfig
from planeangle.manufactured import manufactured_dd, manufactured_nonlocal
from planeangle.weighted_norms import UnsupportedOrder, WeightParams


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


@pytest.mark.parametrize("count", [16.5, 16.0, True])
def test_counts_must_be_integers(count):
    # a float count, integral or not, and a bool are refused where they are
    # given: 16.5 radial intervals built 18 radial nodes, past r_max, and a
    # float order failed later inside the quadrature rule
    geo = make_geometry([0.5, 1.0, 1.5])
    builds = [
        (IncompatibleGrid, lambda: SectorGrid(geo, 0.5, 3.0, count, 16)),
        (IncompatibleGrid, lambda: SectorGrid(geo, 0.5, 3.0, 16, count)),
        (UnsupportedOrder, lambda: WeightParams(0.3, count)),
        # 16.0 / 8 = 2.0 passed the order check and failed inside e_norm
        (UnsupportedOrder, lambda: WeightParams(0.3, count / 8)),
        (PlaneAngleError, lambda: GreenConfig(geo, 0.7, 1.5, 0.5, order=count)),
        (PlaneAngleError, lambda: GreenConfig(geo, 0.7, 1.5, 0.5, panels=count)),
    ]
    for error, build in builds:
        with pytest.raises(error, match="is not an integer"):
            build()


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
    assert u.values.dtype == np.float64  # a real function gives a real field


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
    r, phi = grid.meshgrid()
    full = np.full(r.shape, func(r, phi), dtype=complex)
    # a real result fills a float64 array with the real parts of the complex
    # fill, bit for bit; a complex one stays complex
    want = full if full.imag.any() else full.real
    assert u.values.shape == (7, 5) and u.values.dtype == want.dtype
    assert u.values.tobytes() == np.ascontiguousarray(want).tobytes()


def test_from_callable_manufactured_fields_match_the_full_node_arrays():
    geo = make_geometry([np.pi / 6, np.pi / 6 + np.pi / 2, np.pi / 6 + np.pi])
    grid = SectorGrid(geo, 0.5, 3.0, 64, 64)
    r, phi = grid.meshgrid()
    for func in manufactured_nonlocal(geo, 0.5, 3.0) + manufactured_dd(geo, 0.5, 3.0):
        # the fields are real: float64 values, the real parts of the complex
        # full node arrays bit for bit
        full = np.asarray(func(r, phi), dtype=complex)
        values = GridFunction.from_callable(grid, func).values
        assert values.dtype == np.float64 and not full.imag.any()
        assert values.tobytes() == np.ascontiguousarray(full.real).tobytes()


def test_grid_function_holds_a_complex_array_read_only():
    # a complex array with a nonzero imaginary part is held as it is
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 4, 4)
    a = np.ones((5, 5), dtype=complex) + 1j
    u = GridFunction(grid, a)
    assert np.shares_memory(u.values, a) and u.values.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 2.0
    # other input is converted once, to a new read-only array
    ints = np.ones((5, 5), dtype=int)
    v = GridFunction(grid, ints)
    assert v.values.dtype == np.float64 and not np.shares_memory(v.values, ints)
    assert not v.values.flags.writeable
    assert v.derived == {} and "derived" not in repr(v)


def test_grid_function_holds_a_float_array_read_only():
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 4, 4)
    a = np.arange(25.0).reshape(5, 5)
    u = GridFunction(grid, a)
    assert u.values is a and u.values.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 2.0


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_grid_function_stores_a_zero_imaginary_part_as_float(dtype):
    # one float64 copy of the real part, contiguous and read-only; the
    # complex array is left as it was
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 4, 4)
    real = np.random.default_rng(0).standard_normal((5, 5))
    a = (real - 0j).astype(dtype)
    u = GridFunction(grid, a)
    assert u.values.dtype == np.float64 and u.values.flags.c_contiguous
    assert not np.shares_memory(u.values, a) and a.flags.writeable
    assert u.values.tobytes() == a.real.astype(float).tobytes()
    assert not u.values.flags.writeable


def test_from_callable_of_a_real_function_is_float64():
    grid = SectorGrid(make_geometry([0.5, 1.0, 1.5]), 1.0, 3.0, 6, 4)
    funcs = {
        np.float64: [lambda r, p: r * np.cos(p), lambda r, p: 3, lambda r, p: np.float32(0.5) * r,
                     lambda r, p: r + 0j],
        np.complex128: [lambda r, p: r + 1j * np.sin(p), lambda r, p: np.complex64(1j)],
    }
    for dtype, fs in funcs.items():
        for f in fs:
            assert GridFunction.from_callable(grid, f).values.dtype == dtype


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


def _scipy_modules_after(code, *argv):
    """The scipy modules a fresh interpreter holds after running code, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code += "\nimport json; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *out, loaded = proc.stdout.strip().splitlines()
    return json.loads(loaded), out


@pytest.mark.parametrize("module", ["core", "pencil", "green_check", "weighted_norms",
                                    "difference_ops", "manufactured", "cli", "sector_solver"])
def test_only_the_solver_imports_scipy(module):
    # numpy is all the pencil, the Green check, the norms and the CLI's
    # parsing need; the solver is the positive control
    loaded, _ = _scipy_modules_after("import sys, planeangle.%s" % module)
    assert bool(loaded) == (module == "sector_solver"), loaded[:5]


def test_numpy_only_subcommands_load_no_scipy(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "geometry": {"angles": [np.pi / 6, 2 * np.pi / 3, 7 * np.pi / 6]},
        "pencil": {"alpha": 0.6, "beta": 0.4},
        "solver": {"r_min": 0.5, "r_max": 3.0, "n_r": 16, "n_phi": 16, "rhs": "manufactured"},
        "weights": {"a": 1.0, "l": 1},
    }))
    commands = [["eigs"], ["solvability", "--a", "2", "--l", "1"], ["green"], ["spectrum"],
                ["norms"]]
    code = "\n".join([
        "import sys",
        "from planeangle.cli import main",
        "for args in %r:" % commands,
        "    code = main(['--spec', sys.argv[1], '--out', sys.argv[2], '--quiet'] + args)",
        "    print(args[0], code, any(m.split('.')[0] == 'scipy' for m in sys.modules))",
    ])
    loaded, out = _scipy_modules_after(code, str(spec), str(tmp_path))
    assert out == ["%s 0 False" % args[0] for args in commands]
    assert loaded == []

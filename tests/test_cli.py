"""Command-line interface: spec parsing, subcommands, exit codes, formats."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planeangle import cli, green_check, pencil, sector_solver
from planeangle.cli import (
    EXIT_BLOCKED,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REGIME,
    EXIT_SOLVER,
    SpecError,
    compile_expression,
    load_spec,
    main,
)
from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.manufactured import nonlocal_problem
from planeangle.pencil import PoissonPencilProblem, eigenvalues_closed_form, eigenvalues_numeric
from planeangle.sector_solver import solve_nonlocal_poisson
from planeangle.weighted_norms import WeightParams, e_norm

B1 = np.pi / 6


def write_spec(path, alpha=0.0, beta=0.0, rhs="manufactured", opening=np.pi, l=1):
    doc = {
        "geometry": {"angles": [B1, B1 + opening / 2, B1 + opening]},
        "pencil": {"alpha": alpha, "beta": beta},
        "solver": {
            "r_min": 0.5,
            "r_max": 3.0,
            "n_r": 16,
            "n_phi": 16,
            "rhs": rhs,
        },
        "weights": {"a": 1.0, "l": l},
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def test_expression_language_basics():
    f = compile_expression("r**2 * cos(phi) + bump(r, 1.0, 2.0)")
    r = np.array([1.5])
    phi = np.array([0.0])
    expected = 1.5**2 + np.exp(-1.0 / (1.0 - 0.0**2))
    assert abs(f(r, phi)[0] - expected) < 1e-15


def test_expression_language_rejects_unknown_names():
    with pytest.raises(SpecError):
        compile_expression("open('x')")
    with pytest.raises(SpecError):
        compile_expression("__import__('os')")
    with pytest.raises(SpecError):
        compile_expression("theta + 1")


def test_expression_calls_take_their_number_of_arguments():
    # numpy would take a second argument of exp as its output array and write into r
    with pytest.raises(SpecError):
        compile_expression("exp(r, r)")


def test_load_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"pencil": {"alpha": 1, "beta": 2, "gamma": 3}}')
    with pytest.raises(SpecError):
        load_spec(str(path))
    path.write_text('{"mystery": {}}')
    with pytest.raises(SpecError):
        load_spec(str(path))
    # nothing read output.format, so it is an unknown key (exit 2)
    path.write_text('{"output": {"format": "csv"}}')
    with pytest.raises(SpecError):
        load_spec(str(path))
    assert main(["--spec", str(path), "spectrum"]) == EXIT_PARSE
    path.write_text("not json")
    with pytest.raises(SpecError):
        load_spec(str(path))


def test_eigs_dirichlet_window(tmp_path):
    spec = write_spec(tmp_path / "s.json")
    out = str(tmp_path)
    code = main(["--spec", spec, "--out", out, "--quiet", "eigs",
                 "--im-min", "-3.5", "--im-max", "3.5"])
    assert code == EXIT_OK
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "method,re,im"
    closed = [l for l in lines[1:] if l.startswith("closed_form")]
    numeric = [l for l in lines[1:] if l.startswith("numeric")]
    assert len(closed) == 6 and len(numeric) == 6
    closed_im = sorted(float(l.split(",")[2]) for l in closed)
    assert np.allclose(closed_im, [-3, -2, -1, 1, 2, 3])
    # numeric and closed-form rows pair up
    numeric_vals = [complex(float(l.split(",")[1]), float(l.split(",")[2])) for l in numeric]
    for im in closed_im:
        assert min(abs(z - 1j * im) for z in numeric_vals) < 1e-8


def test_eigs_csv_has_no_negative_zero(tmp_path):
    # narrow geometry, (0.6, 0.4): closed-form eigenvalues with negative
    # imaginary part have real part -0.0
    spec = write_spec(tmp_path / "s.json", alpha=0.6, beta=0.4, opening=2 * np.pi / 3)
    assert main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs"]) == EXIT_OK
    rows = [l.split(",") for l in (tmp_path / "eigenvalues.csv").read_text().splitlines()[1:]]
    assert "-0.0" not in [field for row in rows for field in row]
    p = PoissonPencilProblem(0.6, 0.4, B1, B1 + 2 * np.pi / 3)
    want = [("closed_form", z) for z in eigenvalues_closed_form(p, (-4.0, 4.0)).values]
    want += [("numeric", z) for z in eigenvalues_numeric(p, (-0.5, 0.5, -4.0, 4.0)).values]
    assert any(z.imag < 0.0 and z.real == 0.0 for _, z in want)
    assert [(m, complex(float(re), float(im))) for m, re, im in rows] == want


EIGS_CSV = {
    "dirichlet": (
        "method,re,im\n"
        "closed_form,0.0,-3.0\n"
        "closed_form,0.0,-2.0\n"
        "closed_form,0.0,-1.0\n"
        "closed_form,0.0,1.0\n"
        "closed_form,0.0,2.0\n"
        "closed_form,0.0,3.0\n"
        "numeric,4.240739575284688e-16,-3.0\n"
        "numeric,-5.654319433712922e-16,-2.0\n"
        "numeric,2.827159716856459e-16,-0.9999999999999999\n"
        "numeric,4.240739575284688e-16,1.0000000000000002\n"
        "numeric,-5.654319433712922e-16,2.0\n"
        "numeric,2.827159716856459e-16,3.0\n"
    ),
    "narrow": (
        "method,re,im\n"
        "closed_form,0.0,-4.0\n"
        "closed_form,0.0,-3.0\n"
        "closed_form,0.0,-2.0000000000000004\n"
        "closed_form,0.0,2.0000000000000004\n"
        "closed_form,0.0,3.0\n"
        "closed_form,0.0,4.0\n"
        "numeric,2.0934769990288924e-16,-4.0\n"
        "numeric,6.361109362927032e-16,-3.0000000000000004\n"
        "numeric,5.235972755148877e-16,-2.0\n"
        "numeric,2.0934769990288924e-16,2.0000000000000004\n"
        "numeric,6.361109362927032e-16,3.0000000000000004\n"
        "numeric,5.235972755148877e-16,4.000000000000001\n"
    ),
}
EIGS_CASES = {
    "dirichlet": ({}, ["--im-min", "-3.5", "--im-max", "3.5"]),
    "narrow": ({"alpha": 0.6, "beta": 0.4, "opening": 2 * np.pi / 3}, []),
}


@pytest.mark.parametrize("case", sorted(EIGS_CASES))
def test_eigs_csv_golden(tmp_path, case):
    # golden bytes: the numeric column is the primal zero search, which must
    # not move a digit however the search treats lambda = 0
    kwargs, window = EIGS_CASES[case]
    spec = write_spec(tmp_path / "s.json", **kwargs)
    argv = ["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs"] + window
    assert main(argv) == EXIT_OK
    assert (tmp_path / "eigenvalues.csv").read_text() == EIGS_CSV[case]


def test_eigs_empty_window_exit(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json")
    code = main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs",
                 "--im-min", "4", "--im-max", "-4"])
    assert code == EXIT_PARSE
    # the numeric search runs first, on the closed form's whole strip, and
    # rejects the window before the closed-form table sees the strip
    err = capsys.readouterr().err
    window = (-float(pencil.MAX_HEIGHT), float(pencil.MAX_HEIGHT), 4.0, -4.0)
    assert "empty search window %s" % (window,) in err


def test_eigs_too_tall_window_is_refused_before_the_closed_form(tmp_path, capsys, monkeypatch):
    # Im 1e9 is above the height bound of both routes: whichever runs first
    # refuses it before any root is listed or any determinant is called
    def refused(*args):
        raise AssertionError("called with %s" % (args,))

    for name in ("characteristic_roots", "characteristic_value"):
        monkeypatch.setattr(pencil, name, refused)
    spec = write_spec(tmp_path / "s.json")
    code = main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs", "--im-max", "1e9"])
    assert code == EXIT_PARSE
    assert "not within %.3g of the real axis" % pencil.MAX_HEIGHT in capsys.readouterr().err


def test_solve_refuses_a_grid_too_fine_before_any_solve(tmp_path, capsys, monkeypatch):
    # 16 x 16 refined 7 times is 2048 intervals per axis
    def solve_once(spec, args, level):
        raise AssertionError("level %d solved" % level)

    monkeypatch.setattr(cli, "_solve_once", solve_once)
    for rhs in ("manufactured", "r * cos(phi)"):
        spec = write_spec(tmp_path / "s.json", rhs=rhs)
        assert main(["--spec", spec, "--out", str(tmp_path), "--quiet", "solve", "--refine", "7"]) == EXIT_PARSE
        assert "more than %d intervals" % cli.MAX_INTERVALS in capsys.readouterr().err


def test_eigs_regime_exit(tmp_path):
    # outside |alpha+beta| < 2 eigs exits 0: the cosine family leaves the
    # imaginary axis, here the pair +-arccosh(3/2)/d + i*pi*(2k+1)/d with
    # |Re| = 0.61 > 0.5, and the search covers the closed form's whole strip
    spec = write_spec(tmp_path / "s.json", alpha=1.5, beta=1.5)
    assert main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs"]) == EXIT_OK
    rows = [l.split(",") for l in (tmp_path / "eigenvalues.csv").read_text().splitlines()[1:]]
    closed = [complex(float(re), float(im)) for m, re, im in rows if m == "closed_form"]
    numeric = np.array([complex(float(re), float(im)) for m, re, im in rows if m == "numeric"])
    assert len(closed) == len(numeric) == 8
    assert sum(abs(z.real) > 0.5 for z in closed) == 4
    for z in closed:
        assert np.min(np.abs(numeric - z)) <= 1e-12 * max(1.0, abs(z))


def test_parse_error_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["--spec", str(path), "--quiet", "eigs"]) == EXIT_PARSE


@pytest.mark.parametrize("command", ["solve", "norms"])
def test_missing_solver_key_exit(tmp_path, capsys, command):
    path = write_spec(tmp_path / "s.json")
    doc = json.loads(Path(path).read_text())
    del doc["solver"]["n_r"]
    with open(path, "w") as f:
        json.dump(doc, f)
    assert main(["--spec", path, "--out", str(tmp_path), "--quiet", command]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "section 'solver' missing keys ['n_r']" in err


def edited_spec(tmp_path, edits):
    """write_spec's file with the keys of each section in edits replaced."""
    path = write_spec(tmp_path / "s.json")
    with open(path) as f:
        doc = json.load(f)
    for section, keys in edits.items():
        doc.setdefault(section, {}).update(keys)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


BAD_OUTPUT_PATHS = {
    "not-a-string": (5, "output.path must be a non-empty string, got 5"),
    "empty": ("", "output.path must be a non-empty string, got ''"),
    "missing-directory": ("missing/out.csv", "must name a file in an existing directory"),
    "a-directory": (".", "must name a file in an existing directory"),
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUT_PATHS))
def test_bad_output_path_exit(tmp_path, case):
    # a malformed output.path is a problem file error (exit 2), not a
    # traceback, which would exit 1 like a Green identity FAIL
    name, message = BAD_OUTPUT_PATHS[case]
    spec = edited_spec(tmp_path, {"output": {"path": name}})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs"]
    proc = subprocess.run([sys.executable, "-m", "planeangle.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_PARSE
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["eigs", "solve"])
def test_output_directory_is_checked_before_any_computation(tmp_path, capsys, monkeypatch, command):
    def computed(*args):
        raise AssertionError("computed before the output path was checked")

    spec = edited_spec(tmp_path, {"output": {"path": "sub/out.csv"}})
    argv = ["--spec", spec, "--out", str(tmp_path), "--quiet", command]
    with monkeypatch.context() as m:
        m.setattr(cli, "eigenvalues_numeric", computed)
        m.setattr(cli, "_solve_once", computed)
        assert main(argv) == EXIT_PARSE
    assert "sub/out.csv must name a file in an existing directory" in capsys.readouterr().err
    (tmp_path / "sub").mkdir()
    assert main(argv) == EXIT_OK
    assert (tmp_path / "sub" / "out.csv").read_text().startswith(("method,", "r,phi,"))


SUBCOMMANDS = {
    "eigs": ["eigs"],
    "solvability": ["solvability", "--a", "2", "--l", "1"],
    "solve": ["solve"],
    "green": ["green"],
    "spectrum": ["spectrum"],
    "norms": ["norms"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_four_ray_spec_exit(tmp_path, capsys, command):
    # three equal sectors; the pencil and the solver know two only
    path = edited_spec(tmp_path, {"geometry": {"angles": [B1, B1 + 0.5, B1 + 1.0, B1 + 1.5]}})
    args = ["--spec", path, "--out", str(tmp_path), "--quiet"] + SUBCOMMANDS[command]
    assert main(args) == EXIT_PARSE
    assert "must be a list of 3 rays" in capsys.readouterr().err


# spec edits and the arguments after the global --spec and --quiet
MALFORMED = {
    "n_r-many": ({"solver": {"n_r": "many"}}, ["solve"]),
    # an integer key takes integral values only, it does not truncate
    "n_r-fraction": ({"solver": {"n_r": 16.9}}, ["solve", "--problem", "dd"]),
    "l-fraction": ({"weights": {"l": 1.5}, "solver": {"rhs": "bump(r, 1.0, 2.0)"}}, ["norms"]),
    "alpha-list": ({"pencil": {"alpha": [0.6]}}, ["eigs"]),
    "angles-string": ({"geometry": {"angles": "abc"}}, ["spectrum"]),
    "angles-words": ({"geometry": {"angles": ["a", "b", "c"]}}, ["eigs"]),
    "rhs-number": ({"solver": {"rhs": 5}}, ["solve"]),
    # an expression that fails to evaluate is malformed input, not a FAIL;
    # literals are floats, so the power overflows at once
    "rhs-div-zero": ({"solver": {"rhs": "r + 1/0"}}, ["solve"]),
    "rhs-huge-power": ({"solver": {"rhs": "r * 3**2**24"}}, ["norms"]),
    "g1-overflow": ({"solver": {"rhs": "0"}, "boundary": {"g1": "r * 10.0**400"}}, ["solve"]),
    # array arithmetic that numpy would only warn about, and infinite values
    "rhs-array-div-zero": ({"solver": {"rhs": "r / 0"}}, ["solve"]),
    "rhs-array-div-zero-norms": ({"solver": {"rhs": "r / 0"}}, ["norms"]),
    "rhs-exp-overflow": ({"solver": {"rhs": "exp(1000 * r)"}}, ["solve", "--problem", "dd"]),
    "rhs-exp-overflow-norms": ({"solver": {"rhs": "exp(1000 * r)"}}, ["norms"]),
    "rhs-infinite-literal": ({"solver": {"rhs": "r * 1e400"}}, ["solve"]),
    "g3-exp-overflow": ({"solver": {"rhs": "0"}, "boundary": {"g3": "exp(1000 * r)"}}, ["solve"]),
    # each function takes its own number of arguments
    "rhs-bump-arity": ({"solver": {"rhs": "bump(r, 1, 2, 3)"}}, ["solve"]),
    "rhs-sin-two-args": ({"solver": {"rhs": "sin(r, phi)"}}, ["norms"]),
    "rhs-exp-no-args": ({"solver": {"rhs": "exp()"}}, ["solve", "--problem", "dd"]),
    "rhs-nested-too-deeply": ({"solver": {"rhs": "-" * 1000 + "r"}}, ["norms"]),
    "input-nan": ({}, ["norms", "--input", "{tmp}/nan.csv"]),
    "input-missing": ({}, ["norms", "--input", "{tmp}/none.csv"]),
    "input-no-re-im": ({}, ["norms", "--input", "{tmp}/no_re_im.csv"]),
    "input-no-r-phi": ({}, ["norms", "--input", "{tmp}/no_r_phi.csv"]),
    # a grid file written on write_spec's grid, read under another spec
    # with as many nodes
    "input-off-grid": (
        {"geometry": {"angles": [0.2, 1.2, 2.2]}, "solver": {"r_max": 4.0}},
        ["norms", "--input", "{tmp}/default_grid.csv"],
    ),
    "input-empty": ({}, ["norms", "--input", "{tmp}/empty.csv"]),
    "input-header-only": ({}, ["norms", "--input", "{tmp}/header_only.csv"]),
    "input-ragged": ({}, ["norms", "--input", "{tmp}/ragged.csv"]),
    "out-missing-eigs": ({}, ["--out", "{tmp}/none", "eigs"]),
    "out-missing-solve": ({}, ["--out", "{tmp}/none", "solve"]),
    # JSON's NaN and Infinity, and non-finite flags, are not numbers
    "angles-nan": ({"geometry": {"angles": [B1, float("nan"), B1 + np.pi]}}, ["eigs"]),
    "a-nan": ({"weights": {"a": float("nan")}}, ["norms"]),
    "alpha-nan-eigs": ({"pencil": {"alpha": float("nan")}}, ["eigs"]),
    "alpha-nan-green": ({"pencil": {"alpha": float("nan")}}, ["green"]),
    "r_max-inf": ({"solver": {"r_max": float("inf")}}, ["solve"]),
    "chi12-inf": ({}, ["green", "--chi12", "inf"]),
    "im-max-inf": ({}, ["eigs", "--im-max", "inf"]),
    "solvability-a-nan": ({}, ["solvability", "--a", "nan", "--l", "1"]),
    # a quadrature that overflows is malformed input, not an identity FAIL
    "chi12-tiny": ({}, ["green", "--chi12", "1e-300"]),
    "chi12-tiny-neumann": ({}, ["green", "--example", "2", "--chi12", "1e-300"]),
    "refine-negative": ({}, ["solve", "--refine", "-1"]),
    "n_r-too-fine-norms": ({"solver": {"n_r": 2048}}, ["norms"]),
}


# a warning would be one more stderr line from the command-line process
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit(tmp_path, capsys, case):
    edits, command = MALFORMED[case]
    path = edited_spec(tmp_path, edits)
    # one row per node of the 16 x 16 grid, so only the columns are wrong
    (tmp_path / "no_re_im.csv").write_text("r,phi\n" + "1.0,0.5\n" * 17 * 17)
    (tmp_path / "no_r_phi.csv").write_text("re,im\n" + "0.0,0.0\n" * 17 * 17)
    default_grid = cli._grid(load_spec(write_spec(tmp_path / "default.json")))
    cli._write_grid_csv(str(tmp_path / "default_grid.csv"), GridFunction(default_grid, np.zeros((17, 17))))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header_only.csv").write_text("r,phi,re,im\n")
    (tmp_path / "ragged.csv").write_text("r,phi,re,im\n1.0,0.5,0.0\n")
    (tmp_path / "nan.csv").write_text("r,phi,re,im\n" + "1.0,0.5,nan,0.0\n" * 17 * 17)
    argv = ["--spec", path, "--quiet"] + [a.format(tmp=tmp_path) for a in command]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("problem file error: ") and err.count("\n") == 1


BOOLEAN_NUMBERS = {
    # JSON true and false are not numbers, though Python's float takes them
    "float-key": ({"pencil": {"alpha": True, "beta": False}}, ["solvability", "--a", "2", "--l", "1"],
                  "pencil.alpha must be a finite number, got True"),
    "int-key": ({"weights": {"l": True}}, ["norms"], "weights.l must be a finite number, got True"),
    "ray": ({"geometry": {"angles": [B1, False, B1 + np.pi]}}, ["spectrum"],
            "each ray of geometry.angles must be a finite number, got False"),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_NUMBERS))
def test_booleans_are_not_numbers(tmp_path, capsys, case):
    edits, command, message = BOOLEAN_NUMBERS[case]
    path = edited_spec(tmp_path, edits)
    assert main(["--spec", path, "--out", str(tmp_path), "--quiet"] + command) == EXIT_PARSE
    assert capsys.readouterr().err == "problem file error: %s\n" % message


def test_integral_float_is_an_integer(tmp_path):
    path = edited_spec(tmp_path, {"solver": {"n_r": 16.0}})
    argv = ["--spec", path, "--out", str(tmp_path), "--quiet", "solve", "--problem", "dd"]
    assert main(argv) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_unknowns"] == 15 * 15


def test_solvability_exit_codes(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=0.6, beta=0.4)
    assert main(["--spec", spec, "--quiet", "solvability", "--a", "2", "--l", "1"]) == EXIT_OK
    # h = 1 hits the eigenvalue i for the Dirichlet family
    spec0 = write_spec(tmp_path / "s0.json")
    assert main(["--spec", spec0, "--quiet", "solvability", "--a", "3", "--l", "1"]) == EXIT_BLOCKED
    # the certificate's theorem is stated for |alpha+beta| < 2 only
    spec3 = write_spec(tmp_path / "s3.json", alpha=1.5, beta=1.5)
    assert main(["--spec", spec3, "--quiet", "solvability", "--a", "2", "--l", "1"]) == EXIT_REGIME


SOLVABILITY_STDOUT = {
    "solvable": (
        "pencil line Im lambda = 0.0\n"
        "nearest eigenvalue (-0-1.3333333333333335j) at distance 1.3333333333333335\n"
        "SOLVABLE\n"
    ),
    "blocked": (
        "pencil line Im lambda = 1.0\n"
        "nearest eigenvalue 1j at distance 0.0\n"
        "BLOCKED\n"
    ),
}


def test_solvability_stdout(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.6, beta=0.4)
    assert main(["--spec", spec, "solvability", "--a", "2", "--l", "1"]) == EXIT_OK
    assert capsys.readouterr().out == SOLVABILITY_STDOUT["solvable"]
    spec0 = write_spec(tmp_path / "s0.json")
    assert main(["--spec", spec0, "solvability", "--a", "3", "--l", "1"]) == EXIT_BLOCKED
    assert capsys.readouterr().out == SOLVABILITY_STDOUT["blocked"]


def test_solvability_refuses_a_line_too_far_from_the_axis(tmp_path, capsys):
    # at 1e16 the roots round by about 1, so a free line used to read BLOCKED
    spec = write_spec(tmp_path / "s.json", alpha=0.6, beta=0.4)
    assert main(["--spec", spec, "solvability", "--a", "1e16", "--l", "0"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "real axis" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("problem", ["dd", "nonlocal"])
def test_solve_singular_shift_exit(tmp_path, capsys, problem):
    # 1 - alpha*beta = 0: the system is singular, refused before any factor
    spec = write_spec(tmp_path / "s.json", alpha=2.0, beta=0.5)
    code = main(["--spec", spec, "--out", str(tmp_path), "--quiet", "solve", "--problem", problem])
    assert code == EXIT_SOLVER
    assert "1 - alpha*beta = 0" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_solve_zero_data(tmp_path):
    spec = write_spec(tmp_path / "s.json", rhs="0")
    out = str(tmp_path)
    code = main(["--spec", spec, "--out", out, "--quiet", "solve", "--problem", "dd"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["equation_residual"] == 0.0
    rows = (tmp_path / "solution.csv").read_text().strip().splitlines()
    assert rows[0] == "r,phi,re,im"
    assert len(rows) == 1 + 17 * 17
    assert all(row.endswith(",0.0,0.0") for row in rows[1:])


def test_solve_manufactured_refinement_order(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=0.9, beta=0.9)
    out = str(tmp_path)
    code = main(["--spec", spec, "--out", out, "--quiet", "solve",
                 "--problem", "nonlocal", "--refine", "2"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    for order in summary["observed_orders"]:
        assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("rhs,levels", [("r * cos(phi)", [64]), ("manufactured", [16, 32, 64])],
                         ids=["expression", "manufactured"])
def test_solve_refine_solves_coarse_grids_only_for_errors(tmp_path, monkeypatch, rhs, levels):
    # --refine N writes the finest solution; the N coarser solves feed only
    # the error table, so expression data (no exact solution) skips them
    # cli imports the solver only for solve and looks the solve up on it,
    # so the spy goes on sector_solver
    spec = write_spec(tmp_path / "s.json", alpha=0.3, beta=-0.2, rhs=rhs)
    sizes = []

    def spy(problem, grid):
        sizes.append(grid.n_r)
        return solve_nonlocal_poisson(problem, grid)

    monkeypatch.setattr(sector_solver, "solve_nonlocal_poisson", spy)
    assert main(["--spec", spec, "--out", str(tmp_path), "--quiet", "solve", "--refine", "2"]) == EXIT_OK
    assert sizes == levels
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(rows) == 1 + 65 * 65


def test_grid_csv_writes_every_number_as_f(tmp_path):
    # the writer formats each r and phi node once and the values in bulk;
    # every field must still read as _f of that number, -0.0 folded to 0.0
    grid = SectorGrid(make_geometry([B1, B1 + 1.0, B1 + 2.0]), 0.5, 3.0, 3, 4)
    values = np.random.default_rng(3).standard_normal((4, 5)) * 1j + np.linspace(-2.0, 2.0, 20).reshape(4, 5)
    values.flat[::3] = complex(-0.0, -0.0)
    values[1, 2] = complex(1e-300, -2.5e17)
    path = tmp_path / "u.csv"
    cli._write_grid_csv(str(path), GridFunction(grid, values))
    r, phi = grid.meshgrid()
    expected = ["r,phi,re,im"] + [
        ",".join(map(cli._f, (rr, pp, v.real, v.imag)))
        for rr, pp, v in zip(r.ravel(), phi.ravel(), values.ravel())
    ]
    rows = path.read_text().splitlines()
    assert rows == expected
    assert "-0.0" not in [field for row in rows for field in row.split(",")]


def test_every_option_is_read():
    # an option that parses but changes nothing is a promise the CLI does
    # not keep: each dest of the parser is read as args.<dest> in cli.py
    source = Path(cli.__file__).read_text()
    parsers, dests = [cli.build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            if action.dest != "help":
                dests.add(action.dest)
    assert {"spec", "command", "refine"} <= dests
    unread = sorted(d for d in dests if not re.search(r"\bargs\.%s\b" % d, source))
    assert unread == []


def test_solve_regime_warning_flag(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=1.5, beta=1.0, rhs="0")
    out = str(tmp_path)
    code = main(["--spec", spec, "--out", out, "--quiet", "solve", "--problem", "nonlocal"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "regime_warning" in summary


# golden bytes of solution.csv and summary.json: `solve --refine 1` on the
# manufactured spec at n = 8 writes the n = 16 solution, 289 rows
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("problem", ["dd", "nonlocal"])
def test_solve_golden(tmp_path, problem):
    path = edited_spec(tmp_path, {"pencil": {"alpha": 0.6, "beta": 0.4},
                                  "solver": {"n_r": 8, "n_phi": 8}})
    argv = ["--spec", path, "--out", str(tmp_path), "--quiet", "solve",
            "--problem", problem, "--refine", "1"]
    assert main(argv) == EXIT_OK
    for name in ("solution.csv", "summary.json"):
        golden = (GOLDEN / ("solve_" + problem) / name).read_text()
        assert (tmp_path / name).read_text() == golden


def test_solve_output_deterministic(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=0.3, beta=-0.2)
    for sub in ("a", "b"):
        os.mkdir(str(tmp_path / sub))
        main(["--spec", spec, "--out", str(tmp_path / sub), "--quiet",
              "solve", "--problem", "dd"])
    assert (tmp_path / "a" / "solution.csv").read_bytes() == (
        tmp_path / "b" / "solution.csv"
    ).read_bytes()


GREEN_STDOUT = {
    "1": (
        "identity residual: 3.955069161065694e-09\n"
        "  |term 0| = 7.869324262568522\n"
        "  |term 1| = 12.527085333055599\n"
        "  |term 2| = 0.5163639778533737\n"
        "  |term 3| = 1.5614178990736436\n"
        "  |term 4| = 0.5980567316863211\n"
        "  |term 5| = 4.682526514607779\n"
        "  |term 6| = 10.508307409905328\n"
        "  |term 7| = 1.6932434439638873\n"
        "  |term 8| = 1.1591353056427751\n"
        "  |term 9| = 3.1917423835941356\n"
        "PASS\n"
    ),
    "2": (
        "identity residual: 3.9550087649331545e-09\n"
        "  |term 0| = 7.869324262568522\n"
        "  |term 1| = 12.527085333055599\n"
        "  |term 2| = 2.4874422534607983\n"
        "  |term 3| = 1.1591353056427751\n"
        "  |term 4| = 0.5980567316863211\n"
        "  |term 5| = 4.682526514607779\n"
        "  |term 6| = 10.508307409905328\n"
        "  |term 7| = 0.4994327891618563\n"
        "  |term 8| = 1.5614178990736436\n"
        "  |term 9| = 2.414474762788798\n"
        "PASS\n"
    ),
}


def test_green_subcommand(tmp_path, capsys):
    # golden stdout: the text output is byte-stable, and the memoized area
    # integrals must not move a digit of it
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    for example in ("1", "2"):
        code = main(["--spec", spec, "green", "--example", example, "--chi12", "1.5"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == GREEN_STDOUT[example]


@pytest.mark.parametrize("example", ["1", "2"])
@pytest.mark.parametrize("chi12", ["1e-10", "0.01"])
def test_green_far_scaling_passes(tmp_path, capsys, chi12, example):
    # the quadrature covers U's support whatever chi12 is, so a strong
    # contraction passes as chi12 = 1 does
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    assert main(["--spec", spec, "green", "--example", example, "--chi12", chi12]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\nPASS\n")


def test_green_fail_exit(tmp_path, capsys):
    # two Gauss points per panel miss the identity by far more than the
    # 1e-6 relative gate
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    assert main(["--spec", spec, "green", "--order", "2"]) == EXIT_FAIL
    assert capsys.readouterr().out.endswith("\nFAIL\n")


def test_green_refuses_a_quadrature_too_fine_before_integrating(tmp_path, capsys, monkeypatch):
    # 48 panels of order 300 would need several GB; nothing is integrated
    def area_terms(*key):
        raise AssertionError("area integrals evaluated")

    monkeypatch.setattr(green_check, "_area_terms", area_terms)
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    assert main(["--spec", spec, "green", "--order", "300"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "nodes per axis" in captured.err


SPECTRUM_STDOUT = {
    "definite": (
        "shift matrix:\n"
        "  [1.0, -0.5]\n"
        "  [-0.5, 1.0]\n"
        "eigenvalues: (0.5000000000000001+0j), (1.5+0j)\n"
        "det: 0.75\n"
        "inverse:\n"
        "  [1.3333333333333333, 0.6666666666666666]\n"
        "  [0.6666666666666666, 1.3333333333333333]\n"
        "symmetric part positive definite: yes\n"
    ),
    "singular": (
        "shift matrix:\n"
        "  [1.0, -2.0]\n"
        "  [-0.5, 1.0]\n"
        "eigenvalues: (2.220446049250313e-16+0j), (2+0j)\n"
        "det: 0.0\n"
        "inverse: SINGULAR\n"
        "symmetric part positive definite: no\n"
    ),
}


def test_spectrum_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.5, beta=0.5)
    assert main(["--spec", spec, "spectrum"]) == EXIT_OK
    assert capsys.readouterr().out == SPECTRUM_STDOUT["definite"]


def test_spectrum_singular_matrix(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=2.0, beta=0.5)
    assert main(["--spec", spec, "spectrum"]) == EXIT_OK
    assert capsys.readouterr().out == SPECTRUM_STDOUT["singular"]


def test_norms_roundtrip_through_grid_csv(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.3, beta=-0.2)
    out = str(tmp_path)
    main(["--spec", spec, "--out", out, "--quiet", "solve", "--problem", "nonlocal"])
    code = main(["--spec", spec, "norms", "--input", str(tmp_path / "solution.csv")])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "e_norm:" in text and "h_norm:" in text and "trace ratio" in text
    # the writer prints each number with repr, so the values come back bit for bit
    grid = cli._grid(load_spec(spec))
    solved = solve_nonlocal_poisson(nonlocal_problem(0.3, -0.2, grid)[0], grid).solution.values
    read = cli._read_grid_csv(str(tmp_path / "solution.csv"), grid).values
    assert read.tobytes() == (solved + 0.0).tobytes()


NORMS_STDOUT = {
    0: (
        "e_norm: 51.01642103857342\n"
        "h_norm: 36.074057268243315\n"
    ),
    1: (
        "e_norm: 66.90571852111147\n"
        "h_norm: 41.03607433376215\n"
        "trace ratio gamma1: 0.14413568159827653\n"
        "trace ratio gamma3: 0.14229126013708257\n"
    ),
    2: (
        "e_norm: 60.67536469266636\n"
        "h_norm: 24.188326549899568\n"
        "trace ratio gamma1: 0.06540662579296222\n"
        "trace ratio gamma3: 0.06329539377086671\n"
    ),
}


@pytest.mark.parametrize("l", [0, 1, 2])
def test_norms_subcommand(tmp_path, capsys, l):
    # golden stdout: the text output is byte-stable, however the norms and
    # trace ratios share their derivative arrays
    rhs = "r**2 * sin(2 * phi) + bump(r, 1.0, 2.0) * cos(phi)"
    spec = write_spec(tmp_path / "s.json", rhs=rhs, l=l)
    assert main(["--spec", spec, "norms"]) == EXIT_OK
    assert capsys.readouterr().out == NORMS_STDOUT[l]


def test_norms_of_the_manufactured_spec(tmp_path, capsys):
    # "rhs": "manufactured" names the exact solution u* that `solve` converges to
    spec = write_spec(tmp_path / "s.json", alpha=0.3, beta=-0.2)
    assert main(["--spec", spec, "norms"]) == EXIT_OK
    lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    e = float(lines["e_norm"])
    assert np.isfinite(e) and e > 0.0
    with open(spec) as f:
        doc = json.load(f)
    s = doc["solver"]
    grid = SectorGrid(make_geometry(doc["geometry"]["angles"]), s["r_min"], s["r_max"], s["n_r"], s["n_phi"])
    exact = nonlocal_problem(0.3, -0.2, grid)[1]
    assert e == e_norm(exact, WeightParams(1.0, 1))

"""Command-line interface: spec parsing, subcommands, exit codes, formats."""

import json
import os

import numpy as np
import pytest

from planeangle.cli import (
    EXIT_BLOCKED,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REGIME,
    SpecError,
    compile_expression,
    load_spec,
    main,
)
from planeangle.pencil import PoissonPencilProblem, eigenvalues_closed_form, eigenvalues_numeric

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


def test_eigs_empty_window_exit(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json")
    code = main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs",
                 "--im-min", "4", "--im-max", "-4"])
    assert code == EXIT_PARSE
    # the closed-form table runs first and rejects the strip before the
    # numeric search sees the window
    err = capsys.readouterr().err
    assert "empty strip (4.0, -4.0)" in err


def test_eigs_regime_exit(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=1.5, beta=1.5)
    assert main(["--spec", spec, "--quiet", "eigs"]) == EXIT_REGIME


def test_parse_error_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["--spec", str(path), "--quiet", "eigs"]) == EXIT_PARSE


@pytest.mark.parametrize("command", ["solve", "norms"])
def test_missing_solver_key_exit(tmp_path, capsys, command):
    path = write_spec(tmp_path / "s.json")
    doc = json.loads(open(path).read())
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
        doc[section].update(keys)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


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
    "alpha-list": ({"pencil": {"alpha": [0.6]}}, ["eigs"]),
    "angles-string": ({"geometry": {"angles": "abc"}}, ["spectrum"]),
    "angles-words": ({"geometry": {"angles": ["a", "b", "c"]}}, ["eigs"]),
    "rhs-number": ({"solver": {"rhs": 5}}, ["solve"]),
    "input-missing": ({}, ["norms", "--input", "{tmp}/none.csv"]),
    "input-no-re-im": ({}, ["norms", "--input", "{tmp}/no_re_im.csv"]),
    "input-empty": ({}, ["norms", "--input", "{tmp}/empty.csv"]),
    "input-ragged": ({}, ["norms", "--input", "{tmp}/ragged.csv"]),
    "out-missing-eigs": ({}, ["--out", "{tmp}/none", "eigs"]),
    "out-missing-solve": ({}, ["--out", "{tmp}/none", "solve"]),
}


# a warning would be one more stderr line from the command-line process
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit(tmp_path, capsys, case):
    edits, command = MALFORMED[case]
    path = edited_spec(tmp_path, edits)
    # one row per node of the 16 x 16 grid, so only the columns are wrong
    (tmp_path / "no_re_im.csv").write_text("r,phi\n" + "1.0,0.5\n" * 17 * 17)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "ragged.csv").write_text("r,phi,re,im\n1.0,0.5,0.0\n")
    argv = ["--spec", path, "--quiet"] + [a.format(tmp=tmp_path) for a in command]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("problem file error: ") and err.count("\n") == 1


def test_solvability_exit_codes(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=0.6, beta=0.4)
    assert main(["--spec", spec, "--quiet", "solvability", "--a", "2", "--l", "1"]) == EXIT_OK
    # h = 1 hits the eigenvalue i for the Dirichlet family
    spec0 = write_spec(tmp_path / "s0.json")
    assert main(["--spec", spec0, "--quiet", "solvability", "--a", "3", "--l", "1"]) == EXIT_BLOCKED


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


def test_solve_regime_warning_flag(tmp_path):
    spec = write_spec(tmp_path / "s.json", alpha=1.5, beta=1.0, rhs="0")
    out = str(tmp_path)
    code = main(["--spec", spec, "--out", out, "--quiet", "solve", "--problem", "nonlocal"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "regime_warning" in summary


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
        "identity residual: 3.158470107678113e-08\n"
        "  |term 0| = 7.86932424908118\n"
        "  |term 1| = 12.527085311003198\n"
        "  |term 2| = 0.5163639778533738\n"
        "  |term 3| = 1.561417899073646\n"
        "  |term 4| = 0.5980567316863227\n"
        "  |term 5| = 4.682526514607787\n"
        "  |term 6| = 10.508307409905346\n"
        "  |term 7| = 1.69324344396389\n"
        "  |term 8| = 1.159135305642777\n"
        "  |term 9| = 3.1917423835941405\n"
        "PASS\n"
    ),
    "2": (
        "identity residual: 3.1593128113627245e-08\n"
        "  |term 0| = 7.86932424908118\n"
        "  |term 1| = 12.527085311003198\n"
        "  |term 2| = 2.487442253469168\n"
        "  |term 3| = 1.159135305642777\n"
        "  |term 4| = 0.5980567316863227\n"
        "  |term 5| = 4.682526514607787\n"
        "  |term 6| = 10.508307409905346\n"
        "  |term 7| = 0.4994327891618576\n"
        "  |term 8| = 1.561417899073646\n"
        "  |term 9| = 2.4144747627888012\n"
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


def test_green_fail_exit(tmp_path, capsys):
    # two Gauss points per panel miss the identity by far more than the
    # 1e-6 relative gate
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    assert main(["--spec", spec, "green", "--order", "2"]) == EXIT_FAIL
    assert capsys.readouterr().out.endswith("\nFAIL\n")


def test_spectrum_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.5, beta=0.5)
    assert main(["--spec", spec, "spectrum"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "positive definite: yes" in out
    assert "0.5" in out and "1.5" in out


def test_spectrum_singular_matrix(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=2.0, beta=0.5)
    assert main(["--spec", spec, "spectrum"]) == EXIT_OK
    assert "SINGULAR" in capsys.readouterr().out


def test_norms_roundtrip_through_grid_csv(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.3, beta=-0.2)
    out = str(tmp_path)
    main(["--spec", spec, "--out", out, "--quiet", "solve", "--problem", "nonlocal"])
    code = main(["--spec", spec, "norms", "--input", str(tmp_path / "solution.csv")])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "e_norm:" in text and "h_norm:" in text and "trace ratio" in text


NORMS_STDOUT = {
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


@pytest.mark.parametrize("l", [1, 2])
def test_norms_subcommand(tmp_path, capsys, l):
    # golden stdout: the text output is byte-stable, however the norms and
    # trace ratios share their derivative arrays
    rhs = "r**2 * sin(2 * phi) + bump(r, 1.0, 2.0) * cos(phi)"
    spec = write_spec(tmp_path / "s.json", rhs=rhs, l=l)
    assert main(["--spec", spec, "norms"]) == EXIT_OK
    assert capsys.readouterr().out == NORMS_STDOUT[l]

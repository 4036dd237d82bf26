"""Command-line interface: spec parsing, subcommands, exit codes, formats."""

import json
import os

import numpy as np
import pytest

from planeangle.cli import (
    EXIT_BLOCKED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REGIME,
    SpecError,
    compile_expression,
    load_spec,
    main,
)

B1 = np.pi / 6


def write_spec(path, alpha=0.0, beta=0.0, rhs="manufactured", opening=np.pi):
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
        "weights": {"a": 1.0, "l": 1},
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


def test_eigs_empty_window_exit(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json")
    code = main(["--spec", spec, "--out", str(tmp_path), "--quiet", "eigs",
                 "--im-min", "4", "--im-max", "-4"])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "empty search window (-0.5, 0.5, 4.0, -4.0)" in err


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


def test_green_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", alpha=0.7, beta=0.0)
    for example in ("1", "2"):
        code = main(["--spec", spec, "green", "--example", example, "--chi12", "1.5"])
        assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


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

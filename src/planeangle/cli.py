"""Command-line front end: JSON problem files in, tables and grids out.

Subcommands: eigs | solvability | solve | green | spectrum | norms.  Exit
codes are a stable contract: 0 ok, 1 Green identity FAIL, 2 malformed
problem file, grid file or output directory, 3 unsupported coefficient
regime, 4 solvability blocked, 5 linear solver failure.

The problem file is JSON with sections geometry, pencil, solver, boundary,
weights, output; unknown sections or keys are rejected.  Right-hand sides
and boundary data are written in a small expression language over r and phi
with sin, cos, exp and bump(r, r0, r1).  All floats are printed with repr
(shortest round-trip form) so identical inputs give byte-identical output.
"""

import argparse
import ast
import json
import os
import sys
import warnings

import numpy as np

from .core import GridFunction, PlaneAngleError, SectorGrid, make_geometry
from .difference_ops import (
    SingularMatrix,
    inverse_matrix,
    spectrum,
    symmetric_part_positive_definite,
    to_matrix,
    two_sector_operator,
)
from .green_check import (
    GreenConfig,
    bump_trig_pair,
    green_residual_dirichlet,
    green_residual_neumann,
    term_magnitudes,
)
from .manufactured import dd_problem, error_norm, exp_bump, nonlocal_problem
# perfbench/workloads.py imports this name from here; the re-export goes
# with the next benchmark change
from .manufactured import manufactured_nonlocal  # noqa: F401
from .pencil import (
    PoissonPencilProblem,
    UnsupportedRegime,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    solvability_report,
)
from .sector_solver import (
    DDProblem,
    NonlocalPoissonProblem,
    SingularSystem,
    SolverFailure,
    solve_dd,
    solve_nonlocal_poisson,
)
from .weighted_norms import WeightParams, e_norm, h_norm, trace_integral

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_REGIME = 3
EXIT_BLOCKED = 4
EXIT_SOLVER = 5


class SpecError(PlaneAngleError):
    pass


# ---------------------------------------------------------------------------
# expression mini-language


_EXPR_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "bump": lambda r, r0, r1: exp_bump(r0, r1)[0](r),
}
_EXPR_NAMES = {"pi": np.pi}
_EXPR_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Mod,
)


def compile_expression(text):
    """Compile an arithmetic expression in r, phi to a numpy callable.

    Allowed: numbers, r, phi, pi, + - * / % **, and the functions sin, cos,
    exp, bump(r, r0, r1).  Anything else raises SpecError.
    """
    if not isinstance(text, str):
        raise SpecError("expression must be a string, got %r" % (text,))
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SpecError("bad expression %r: %s" % (text, exc))
    func_names = {
        id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if not isinstance(node.op, _EXPR_OPS):
                raise SpecError("operator not allowed in %r" % text)
            continue
        if isinstance(node, _EXPR_OPS):
            continue
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise SpecError("non-numeric constant in %r" % text)
            continue
        if isinstance(node, ast.Name):
            if id(node) in func_names and node.id in _EXPR_FUNCS:
                continue
            if node.id not in ("r", "phi") and node.id not in _EXPR_NAMES:
                raise SpecError("unknown name %r in %r" % (node.id, text))
            continue
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS):
                raise SpecError("unknown function call in %r" % text)
            if node.keywords:
                raise SpecError("keyword arguments not allowed in %r" % text)
            continue
        raise SpecError("construct %s not allowed in %r" % (type(node).__name__, text))
    code = compile(tree, "<expression>", "eval")

    def func(r, phi):
        env = dict(_EXPR_FUNCS)
        env.update(_EXPR_NAMES)
        env["r"] = r
        env["phi"] = phi
        return eval(code, {"__builtins__": {}}, env)

    return func


# ---------------------------------------------------------------------------
# problem files

_SCHEMA = {
    "geometry": {"angles"},
    "pencil": {"alpha", "beta"},
    "solver": {"r_min", "r_max", "n_r", "n_phi", "rhs"},
    "boundary": {"g1", "g3"},
    "weights": {"a", "l"},
    "output": {"path"},
}
_OPTIONAL_KEYS = {"rhs"}  # a missing solver.rhs means "0"


def load_spec(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError("cannot read problem file %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SpecError("problem file must be a JSON object")
    for section, body in doc.items():
        if section not in _SCHEMA:
            raise SpecError("unknown section %r" % section)
        if not isinstance(body, dict):
            raise SpecError("section %r must be an object" % section)
        extra = set(body) - _SCHEMA[section]
        if extra:
            raise SpecError("unknown keys %s in section %r" % (sorted(extra), section))
    return doc


def _require(spec, *sections):
    missing = [s for s in sections if s not in spec]
    if missing:
        raise SpecError("missing required sections: %s" % ", ".join(missing))
    for s in sections:
        gaps = _SCHEMA[s] - _OPTIONAL_KEYS - set(spec[s])
        if gaps:
            raise SpecError("section %r missing keys %s" % (s, sorted(gaps)))


def _number(spec, section, key, kind=float):
    """spec[section][key] as a float (or int); SpecError if it is not a number."""
    try:
        return kind(spec[section][key])
    except (TypeError, ValueError):
        raise SpecError("%s.%s must be a number, got %r" % (section, key, spec[section][key]))


def _geometry(spec):
    """The spec's two-sector geometry: three equally spaced rays."""
    angles = spec["geometry"]["angles"]
    if not isinstance(angles, list) or len(angles) != 3:
        raise SpecError("geometry.angles must be a list of 3 rays (two sectors), got %r" % (angles,))
    try:
        rays = [float(b) for b in angles]
    except (TypeError, ValueError):
        raise SpecError("geometry.angles must be numbers, got %r" % (angles,))
    return make_geometry(rays)


def _coupling(spec):
    return _number(spec, "pencil", "alpha"), _number(spec, "pencil", "beta")


def _pencil_problem(spec):
    geo = _geometry(spec)
    return PoissonPencilProblem(*_coupling(spec), geo.angles[0], geo.angles[-1])


def _grid(spec, factor=1):
    return SectorGrid(
        _geometry(spec),
        _number(spec, "solver", "r_min"),
        _number(spec, "solver", "r_max"),
        _number(spec, "solver", "n_r", int) * factor,
        _number(spec, "solver", "n_phi", int) * factor,
    )


def _out_path(spec, args, default_name):
    out_dir = args.out if args.out else "."
    name = default_name
    if "output" in spec and spec["output"].get("path"):
        name = spec["output"]["path"]
    return os.path.join(out_dir, name)


def _f(x):
    """Shortest round-trip decimal form of a float-like value.

    Adding 0.0 folds negative zero into plain zero so outputs stay stable.
    """
    return repr(float(x) + 0.0)


def _say(args, text):
    if not args.quiet:
        print(text)


def _write_eig_csv(path, rows):
    with open(path, "w") as f:
        f.write("method,re,im\n")
        for method, z in rows:
            f.write("%s,%s,%s\n" % (method, _f(z.real), _f(z.imag)))


def _write_grid_csv(path, u):
    r, phi = u.grid.meshgrid()
    with open(path, "w") as f:
        f.write("r,phi,re,im\n")
        for rr, pp, vv in zip(r.ravel(), phi.ravel(), u.values.ravel()):
            f.write(
                "%s,%s,%s,%s\n"
                % (_f(rr), _f(pp), _f(vv.real), _f(vv.imag))
            )


def _read_grid_csv(path, grid):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty file warns
            data = np.genfromtxt(path, delimiter=",", names=True)
    except (OSError, ValueError, UserWarning) as exc:
        raise SpecError("cannot read grid file %s: %s" % (path, " ".join(str(exc).split())))
    if not {"re", "im"} <= set(data.dtype.names or ()):
        raise SpecError("grid file %s has no re and im columns" % path)
    expected = (grid.n_r + 1) * (grid.n_phi + 1)
    if data.shape != (expected,):
        raise SpecError(
            "grid file has %d rows, the declared grid needs %d" % (data.size, expected)
        )
    vals = (data["re"] + 1j * data["im"]).reshape(grid.n_r + 1, grid.n_phi + 1)
    return GridFunction(grid, vals)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigs(spec, args):
    _require(spec, "geometry", "pencil")
    p = _pencil_problem(spec)
    strip = (args.im_min, args.im_max)
    closed = eigenvalues_closed_form(p, strip)
    window = (-0.5, 0.5, args.im_min, args.im_max)
    numeric = eigenvalues_numeric(p, window)
    rows = [("closed_form", z) for z in closed.values]
    rows += [("numeric", z) for z in numeric.values]
    path = _out_path(spec, args, "eigenvalues.csv")
    _write_eig_csv(path, rows)
    _say(args, "%d closed-form and %d numeric eigenvalues -> %s"
         % (len(closed.values), len(numeric.values), path))
    return EXIT_OK


def cmd_solvability(spec, args):
    _require(spec, "geometry", "pencil")
    p = _pencil_problem(spec)
    report = solvability_report(p, args.a, args.l)
    _say(args, "pencil line Im lambda = %s" % _f(report.line))
    _say(args, "nearest eigenvalue %s at distance %s"
         % (repr(complex(report.certificate.nearest_eigenvalue)), _f(report.certificate.distance)))
    _say(args, "SOLVABLE" if report.solvable else "BLOCKED")
    return EXIT_OK if report.solvable else EXIT_BLOCKED


def _expression_problem(spec, problem, alpha, beta, grid):
    """Solver problem with the rhs and ray data of the spec's expressions."""
    geo = grid.geometry
    rhs = GridFunction.from_callable(grid, compile_expression(spec["solver"].get("rhs", "0")))
    if problem == "dd":
        return DDProblem(alpha, beta, geo, rhs, grid.r_min, grid.r_max)
    bnd = spec.get("boundary", {})
    g1_func = compile_expression(bnd.get("g1", "0"))
    g3_func = compile_expression(bnd.get("g3", "0"))
    b1, b3 = geo.angles[0], geo.angles[-1]
    g1 = lambda r: g1_func(r, b1 * np.ones_like(r))
    g3 = lambda r: g3_func(r, b3 * np.ones_like(r))
    return NonlocalPoissonProblem(alpha, beta, geo, rhs, g1, g3, grid.r_min, grid.r_max)


def _solve_once(spec, args, factor=1):
    alpha, beta = _coupling(spec)
    grid = _grid(spec, factor)
    if spec["solver"].get("rhs", "0") == "manufactured":
        build = dd_problem if args.problem == "dd" else nonlocal_problem
        problem, exact = build(alpha, beta, grid)
    else:
        problem, exact = _expression_problem(spec, args.problem, alpha, beta, grid), None
    solve = solve_dd if args.problem == "dd" else solve_nonlocal_poisson
    result = solve(problem, grid)
    warn = args.problem == "nonlocal" and not problem.guaranteed_solvable
    err = None if exact is None else error_norm(result.solution, exact)
    return grid, result, err, warn


def cmd_solve(spec, args):
    _require(spec, "geometry", "pencil", "solver")
    refinements = max(0, args.refine)
    errors = []
    warn = False
    for level in range(refinements + 1):
        grid, result, err, warn = _solve_once(spec, args, factor=2**level)
        if err is not None:
            errors.append(err)
    orders = [
        float(np.log2(errors[i] / errors[i + 1]))
        for i in range(len(errors) - 1)
        if errors[i + 1] > 0.0
    ]

    grid_path = _out_path(spec, args, "solution.csv")
    _write_grid_csv(grid_path, result.solution)
    summary = {
        "problem": args.problem,
        "equation_residual": result.equation_residual,
        "boundary_residual": result.boundary_residual,
        "n_unknowns": result.n_unknowns,
    }
    if warn:
        summary["regime_warning"] = "|alpha+beta| >= 2: solvability not guaranteed"
    if errors:
        summary["manufactured_errors"] = errors
        summary["observed_orders"] = orders
    out_dir = args.out if args.out else "."
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    _say(args, "solution -> %s" % grid_path)
    _say(args, "summary -> %s" % summary_path)
    if orders:
        _say(args, "observed orders: %s" % ", ".join(_f(o) for o in orders))
    return EXIT_OK


def cmd_green(spec, args):
    _require(spec, "geometry", "pencil")
    geo = _geometry(spec)
    b1, b2, _ = geo.angles
    cfg = GreenConfig(geo, _number(spec, "pencil", "alpha"), args.chi12, b2 - b1, order=args.order)
    pair = bump_trig_pair()
    if args.example == 1:
        residual = green_residual_dirichlet(cfg, pair)
        terms = term_magnitudes(cfg, pair, neumann=False)
    else:
        residual = green_residual_neumann(cfg, pair)
        terms = term_magnitudes(cfg, pair, neumann=True)
    _say(args, "identity residual: %s" % _f(residual))
    for i, t in enumerate(terms):
        _say(args, "  |term %d| = %s" % (i, _f(t)))
    ok = residual < 1e-6 * max(terms)
    _say(args, "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_spectrum(spec, args):
    _require(spec, "geometry", "pencil")
    op = two_sector_operator(*_coupling(spec), _geometry(spec))
    m = to_matrix(op)
    _say(args, "shift matrix:")
    for row in m:
        _say(args, "  [%s]" % ", ".join(_f(x) for x in row))
    _say(args, "eigenvalues: %s" % ", ".join(repr(complex(z)) for z in spectrum(op)))
    _say(args, "det: %s" % _f(np.linalg.det(m)))
    try:
        inv = inverse_matrix(op)
        _say(args, "inverse:")
        for row in inv:
            _say(args, "  [%s]" % ", ".join(_f(x) for x in row))
    except SingularMatrix:
        _say(args, "inverse: SINGULAR")
    pd = symmetric_part_positive_definite(op)
    _say(args, "symmetric part positive definite: %s" % ("yes" if pd else "no"))
    return EXIT_OK


def cmd_norms(spec, args):
    _require(spec, "geometry", "solver", "weights")
    grid = _grid(spec)
    if args.input:
        u = _read_grid_csv(args.input, grid)
    else:
        rhs_func = compile_expression(spec["solver"].get("rhs", "0"))
        u = GridFunction.from_callable(grid, rhs_func)
    p = WeightParams(_number(spec, "weights", "a"), _number(spec, "weights", "l", int))
    e = e_norm(u, p)
    _say(args, "e_norm: %s" % _f(e))
    _say(args, "h_norm: %s" % _f(h_norm(u, p)))
    if p.l >= 1:
        # trace_ratio(u, ray, p) without recomputing the E norm
        for ray in ("gamma1", "gamma3"):
            ratio = trace_integral(u, ray, p) / e if e != 0.0 else 0.0
            _say(args, "trace ratio %s: %s" % (ray, _f(ratio)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    ap = argparse.ArgumentParser(
        prog="planeangle",
        description="Nonlocal Poisson problems in plane angles: pencil "
        "eigenvalues, solvability certificates, sector solves, Green "
        "identity checks, weighted norms.",
    )
    ap.add_argument("--spec", required=True, help="JSON problem file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eigs = sub.add_parser("eigs", help="pencil eigenvalue table")
    p_eigs.add_argument("--im-min", type=float, default=-4.0)
    p_eigs.add_argument("--im-max", type=float, default=4.0)

    p_solv = sub.add_parser("solvability", help="weighted-scale certificate")
    p_solv.add_argument("--a", type=float, required=True)
    p_solv.add_argument("--l", type=float, required=True)

    p_solve = sub.add_parser("solve", help="sector boundary value solve")
    p_solve.add_argument("--problem", choices=("dd", "nonlocal"), default="nonlocal")
    p_solve.add_argument("--refine", type=int, default=0)

    p_green = sub.add_parser("green", help="Green identity residual")
    p_green.add_argument("--example", type=int, choices=(1, 2), default=1)
    p_green.add_argument("--chi12", type=float, default=1.0)
    p_green.add_argument("--order", type=int, default=12)

    sub.add_parser("spectrum", help="shift matrix report")

    p_norms = sub.add_parser("norms", help="weighted norms of a grid function")
    p_norms.add_argument("--input", default=None, help="grid CSV file")

    return ap


_COMMANDS = {
    "eigs": cmd_eigs,
    "solvability": cmd_solvability,
    "solve": cmd_solve,
    "green": cmd_green,
    "spectrum": cmd_spectrum,
    "norms": cmd_norms,
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.out and not os.path.isdir(args.out):
            raise SpecError("output directory %s does not exist" % args.out)
        spec = load_spec(args.spec)
        return _COMMANDS[args.command](spec, args)
    except SpecError as exc:
        print("problem file error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedRegime as exc:
        print("unsupported regime: %s" % exc, file=sys.stderr)
        return EXIT_REGIME
    except (SingularSystem, SolverFailure, SingularMatrix) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except PlaneAngleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

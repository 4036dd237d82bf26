"""Command-line front end: JSON problem files in, tables and grids out.

Subcommands: eigs | solvability | solve | green | spectrum | norms.  Exit
codes are a stable contract: 0 ok, 1 Green identity FAIL, 2 malformed
problem file, grid file, flag or output directory, 3 certificate outside
|alpha+beta| < 2, 4 solvability blocked, 5 linear solver failure.

The problem file is JSON with sections geometry, pencil, solver, boundary,
weights, output; unknown sections or keys are rejected.  Right-hand sides
and boundary data are written in a small expression language over r and phi
with sin(x), cos(x), exp(x) and bump(r, r0, r1); each is parsed once and runs
from its checked tree.  A grid file (norms --input) is CSV on the spec's grid
whose header names its r, phi, re and im columns.  All floats are printed with
repr (shortest round-trip form) so identical inputs give byte-identical output.
"""

import argparse
import ast
import json
import math
import operator
import os
import sys
import warnings

import numpy as np

from .core import (
    GridFunction,
    PlaneAngleError,
    SectorGrid,
    SingularSystem,
    SolverFailure,
    exp_bump,
    make_geometry,
)
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
from .manufactured import (
    dd_problem,
    error_norm,
    manufactured_nonlocal,
    nonlocal_problem,
)
from .pencil import (
    MAX_HEIGHT,
    PoissonPencilProblem,
    UnsupportedRegime,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    solvability_report,
)
from .weighted_norms import WeightParams, e_norm, h_norm, trace_ratio

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_REGIME = 3
EXIT_BLOCKED = 4
EXIT_SOLVER = 5

# a 1024 x 1024 `solve` takes 3.4 s at 0.6 GB peak RSS on a 2-vCPU VM
MAX_INTERVALS = 1024  # per grid axis


class SpecError(PlaneAngleError):
    pass


# ---------------------------------------------------------------------------
# expression mini-language


_EXPR_FUNCS = {  # name: (function, number of arguments)
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "bump": (lambda r, r0, r1: exp_bump(r0, r1)(r)[0], 3),
}
# the functions Python's own arithmetic calls, so every value stays the same
_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow, ast.Mod: operator.mod,
    ast.USub: operator.neg, ast.UAdd: operator.pos,
}


def _expression_term(node, text):
    """The function of (r, phi) that a node of the parsed text stands for."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        try:
            value = float(node.value)
        except OverflowError as exc:
            raise SpecError("bad number in %r: %s" % (text, exc))
        return lambda r, phi: value
    if isinstance(node, ast.Name) and node.id in ("r", "phi", "pi"):
        index = ("r", "phi", "pi").index(node.id)
        return lambda r, phi: (r, phi, np.pi)[index]
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _EXPR_OPS:
        func = _EXPR_OPS[type(node.op)]
        args = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _EXPR_FUNCS:
        func, arity = _EXPR_FUNCS[node.func.id]
        if node.keywords or len(node.args) != arity:
            raise SpecError("%s takes %d argument(s) and no keywords, in %r"
                            % (node.func.id, arity, text))
        args = node.args
    else:
        raise SpecError("%r is not allowed in %r" % (ast.unparse(node), text))
    terms = [_expression_term(arg, text) for arg in args]
    return lambda r, phi: func(*[term(r, phi) for term in terms])


def compile_expression(text):
    """Compile an arithmetic expression in r, phi to a numpy callable.

    Allowed: numbers, r, phi, pi, + - * / % **, and the calls sin(x),
    cos(x), exp(x) and bump(r, r0, r1) with exactly these arguments.  The
    text is parsed once and its tree, checked node by node, becomes nested
    functions.  Any other construct, a keyword, a wrong number of arguments
    or nesting deeper than Python's recursion limit raises SpecError here.
    The callable raises SpecError for an evaluation that divides by zero,
    overflows or is invalid (r / 0, exp(1000 * r), an overflowing power),
    or whose value is not finite.  Numbers are floats, so a power of
    literals overflows at once instead of running in exact integer
    arithmetic.
    """
    if not isinstance(text, str):
        raise SpecError("expression must be a string, got %r" % (text,))
    try:
        term = _expression_term(ast.parse(text, mode="eval").body, text)
    except (SyntaxError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SpecError("bad expression %r: %s" % (text, exc))

    def func(r, phi):
        try:
            # numpy raises FloatingPointError here instead of warning
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                value = term(r, phi)
        except (ArithmeticError, RecursionError) as exc:
            raise SpecError("cannot evaluate %r: %s" % (text, exc))
        if not np.all(np.isfinite(value)):
            raise SpecError("value of %r is not finite" % text)
        return value

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


def _finite(value, name):
    """value as a float; SpecError naming it unless it is a finite number (not NaN or inf)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not np.isfinite(number):
        raise SpecError("%s must be a finite number, got %r" % (name, value))
    return number


def _number(spec, section, key, kind=float):
    """spec[section][key] as a float (or int); SpecError if it is not a finite number.

    An int must be integral (16 or 16.0); 16.9 is an error, not 16.
    """
    value = spec[section][key]
    number = _finite(value, "%s.%s" % (section, key))
    if kind is int and not number.is_integer():
        raise SpecError("%s.%s must be an integer, got %r" % (section, key, value))
    return kind(number)


def _geometry(spec):
    """The spec's two-sector geometry: three equally spaced rays."""
    angles = spec["geometry"]["angles"]
    if not isinstance(angles, list) or len(angles) != 3:
        raise SpecError("geometry.angles must be a list of 3 rays (two sectors), got %r" % (angles,))
    return make_geometry([_finite(b, "each ray of geometry.angles") for b in angles])


def _coupling(spec):
    return _number(spec, "pencil", "alpha"), _number(spec, "pencil", "beta")


def _pencil_problem(spec):
    geo = _geometry(spec)
    return PoissonPencilProblem(*_coupling(spec), geo.angles[0], geo.angles[-1])


def _grid(spec, refine=0):
    """The spec's grid with n_r and n_phi doubled refine times; SpecError past MAX_INTERVALS."""
    geo = _geometry(spec)
    r_min, r_max = _number(spec, "solver", "r_min"), _number(spec, "solver", "r_max")
    n_r, n_phi = _number(spec, "solver", "n_r", int), _number(spec, "solver", "n_phi", int)
    if max(n_r, n_phi) > math.ldexp(MAX_INTERVALS, -refine):
        raise SpecError("grid %d x %d refined %d time(s) has more than %d intervals per axis"
                        % (n_r, n_phi, refine, MAX_INTERVALS))
    return SectorGrid(geo, r_min, r_max, n_r << refine, n_phi << refine)


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
    """One line r,phi,re,im per node, r outermost, each number as _f writes it."""
    phis = [_f(phi) for phi in u.grid.phi_nodes]
    nodes = ["%s,%s," % (r, phi) for r in map(_f, u.grid.r_nodes) for phi in phis]
    # adding 0.0 folds negative zero as _f does; tolist gives Python floats
    re = (u.values.real + 0.0).ravel().tolist()
    im = (u.values.imag + 0.0).ravel().tolist()
    with open(path, "w") as f:
        f.write("r,phi,re,im\n")
        f.writelines("%s%r,%r\n" % line for line in zip(nodes, re, im))


def _read_grid_csv(path, grid):
    """The grid function in a grid file, from the columns its header names r, phi, re and im."""
    columns = ("r", "phi", "re", "im")
    try:
        with open(path) as f, warnings.catch_warnings():
            names = [name.strip() for name in f.readline().split(",")]
            if not set(columns) <= set(names):
                raise SpecError("grid file %s has no r, phi, re and im columns" % path)
            warnings.simplefilter("error", UserWarning)  # a file with no data rows warns
            usecols = [names.index(name) for name in columns]
            r, phi, re, im = np.loadtxt(f, delimiter=",", usecols=usecols, ndmin=2, unpack=True)
    except (OSError, ValueError, UserWarning) as exc:
        raise SpecError("cannot read grid file %s: %s" % (path, " ".join(str(exc).split())))
    expected = (grid.n_r + 1) * (grid.n_phi + 1)
    if re.size != expected:
        raise SpecError("grid file has %d rows, the declared grid needs %d" % (re.size, expected))
    vals = (re + 1j * im).reshape(grid.n_r + 1, grid.n_phi + 1)
    if not np.all(np.isfinite(vals)):
        raise SpecError("grid file %s holds values that are not finite numbers" % path)
    for got, nodes in zip((r, phi), grid.meshgrid()):  # within 1e-9 relative
        if not np.all(np.abs(got - nodes.ravel()) <= 1e-9 * np.abs(nodes).max()):
            raise SpecError("grid file %s holds nodes off the declared grid" % path)
    return GridFunction(grid, vals)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigs(spec, args):
    _require(spec, "geometry", "pencil")
    p = _pencil_problem(spec)
    numeric = eigenvalues_numeric(p, (-MAX_HEIGHT, MAX_HEIGHT, args.im_min, args.im_max))
    closed = eigenvalues_closed_form(p, (args.im_min, args.im_max))
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
         % (repr(complex(report.nearest_eigenvalue)), _f(report.distance)))
    _say(args, "SOLVABLE" if report.solvable else "BLOCKED")
    return EXIT_OK if report.solvable else EXIT_BLOCKED


def _expression_problem(spec, problem, alpha, beta, grid):
    """Solver problem with the rhs and ray data of the spec's expressions."""
    from .sector_solver import DDProblem, NonlocalPoissonProblem

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


def _solve_once(spec, args, level):
    # only solve loads the solver, and with it scipy
    from . import sector_solver

    alpha, beta = _coupling(spec)
    grid = _grid(spec, level)
    if spec["solver"].get("rhs", "0") == "manufactured":
        build = dd_problem if args.problem == "dd" else nonlocal_problem
        problem, exact = build(alpha, beta, grid)
    else:
        problem, exact = _expression_problem(spec, args.problem, alpha, beta, grid), None
    solve = sector_solver.solve_dd if args.problem == "dd" else sector_solver.solve_nonlocal_poisson
    result = solve(problem, grid)
    warn = args.problem == "nonlocal" and not problem.guaranteed_solvable
    err = None if exact is None else error_norm(result.solution, exact)
    return grid, result, err, warn


def cmd_solve(spec, args):
    _require(spec, "geometry", "pencil", "solver")
    if args.refine < 0:
        raise SpecError("--refine must be a count >= 0, got %d" % args.refine)
    _grid(spec, args.refine)  # a grid too fine is refused before any level is solved
    # the coarser levels only feed the error table, which needs an exact solution
    manufactured = spec["solver"].get("rhs", "0") == "manufactured"
    errors = []
    for level in range(0 if manufactured else args.refine, args.refine + 1):
        grid, result, err, warn = _solve_once(spec, args, level)
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
    neumann = args.example == 2
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        residual = (green_residual_neumann if neumann else green_residual_dirichlet)(cfg, pair)
        terms = term_magnitudes(cfg, pair, neumann=neumann)
    if not np.all(np.isfinite([residual] + terms)):
        raise SpecError("the Green quadrature at --chi12 %r is not finite" % args.chi12)
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
    rhs = spec["solver"].get("rhs", "0")
    if args.input:
        u = _read_grid_csv(args.input, grid)
    elif rhs == "manufactured":
        # the exact solution u* that `solve` converges to on this spec
        u = GridFunction.from_callable(
            grid, manufactured_nonlocal(grid.geometry, grid.r_min, grid.r_max)[0])
    else:
        u = GridFunction.from_callable(grid, compile_expression(rhs))
    p = WeightParams(_number(spec, "weights", "a"), _number(spec, "weights", "l", int))
    _say(args, "e_norm: %s" % _f(e_norm(u, p)))
    _say(args, "h_norm: %s" % _f(h_norm(u, p)))
    if p.l >= 1:
        for ray in ("gamma1", "gamma3"):
            _say(args, "trace ratio %s: %s" % (ray, _f(trace_ratio(u, ray, p))))
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
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, "--" + name.replace("_", "-"))
        spec = load_spec(args.spec)
        return _COMMANDS[args.command](spec, args)
    except SpecError as exc:
        print("problem file error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedRegime as exc:
        print("unsupported regime: %s" % exc, file=sys.stderr)
        return EXIT_REGIME
    except (SingularSystem, SolverFailure) as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except PlaneAngleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

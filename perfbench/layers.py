"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules: core, difference_ops, pencil,
sector_solver, green_check and weighted_norms (cli only parses a spec and
prints, and is not measured).  A metric is named <module>.<function>.<stat>:

* ``.s``       inclusive time of the function per operation;
* ``.self_s``  the same minus the time of the traced calls it made;
* ``.calls``   calls per operation.

Metrics of solve_ladder end in the grid size (.n64 ... .n512), metrics of
pencil_search in the geometry (.narrow, .wide) and are per coupling, i.e.
per primal plus adjoint search.  Every workload reports every metric; a
layer a workload never calls reads 0.  green_check.quad_nodes is the number
of nodes the one-dimensional panel rules returned per identity evaluation
(radial and angular rules; the sector areas use their tensor products).
Sizes (n_unknowns, nnz) are read from the assembled matrix; nnz_LU and
lu_mb_computed come from a real ``splu`` of that matrix after the
operation, so they are computed, not observed.
"""

import scipy.sparse.linalg as spla

SOLVE_SUFFIXES = {"solve_n64": "n64", "solve_n128": "n128", "solve_n256": "n256",
                  "solve_n512": "n512"}
GEOMETRIES = ("narrow", "wide")

CHAR = "pencil.characteristic_value"
ADJ = "pencil.adjoint_transmission_characteristic"
HOT = (CHAR, ADJ)

# complex128 value plus int32 row index per stored entry of L + U
LU_BYTES_PER_NNZ = 16 + 4


def _record_system(tracer, args, out):
    S = out[0]
    tracer.count("sector_solver.n_unknowns", S.shape[0])
    tracer.count("sector_solver.nnz_S", S.nnz)
    tracer.capture(S)


def _record_zeros(tracer, args, out):
    tracer.count("pencil.zeros_found", len(out))


def _record_nodes(tracer, args, out):
    tracer.count("green_check.quad_nodes", len(out[0]))


def _target(module, attr, on_return=None, name=None):
    short = module.rsplit(".", 1)[-1]
    return ("%s:%s" % (module, attr), name or "%s.%s" % (short, attr), on_return)


TARGETS = [
    _target("planeangle.core", "GridFunction.from_callable"),
    _target("planeangle.difference_ops", "apply_on_grid"),
    _target("planeangle.sector_solver", "laplacian_matrix"),
    _target("planeangle.sector_solver", "shift_matrix_on_grid"),
    _target("planeangle.sector_solver", "assemble_dd_system", _record_system),
    _target("planeangle.sector_solver", "solve_dd"),
    _target("planeangle.sector_solver", "boundary_lifting"),
    _target("planeangle.sector_solver", "solve_nonlocal_poisson"),
    _target("planeangle.sector_solver", "discrete_coercivity"),
    _target("scipy.sparse.linalg", "spsolve", name="sector_solver.lu"),
    _target("scipy.sparse.linalg", "splu", name="sector_solver.lu"),
    _target("planeangle.pencil", "characteristic_value"),
    _target("planeangle.pencil", "adjoint_transmission_characteristic"),
    _target("planeangle.pencil", "find_zeros", _record_zeros),
    _target("planeangle.pencil", "minimize_scalar"),
    _target("planeangle.pencil", "eigenvalues_closed_form"),
    _target("planeangle.pencil", "solvability_report"),
    _target("planeangle.green_check", "green_residual_dirichlet"),
    _target("planeangle.green_check", "green_residual_neumann"),
    _target("planeangle.green_check", "term_magnitudes"),
    _target("planeangle.green_check", "_identity_terms"),
    _target("planeangle.green_check", "_panel_rule", _record_nodes),
    _target("planeangle.weighted_norms", "e_norm"),
    _target("planeangle.weighted_norms", "h_norm"),
    _target("planeangle.weighted_norms", "trace_ratio"),
    _target("planeangle.weighted_norms", "cartesian_derivatives"),
]

SOLVE_TIMES = [
    ("sector_solver.laplacian_matrix", "s"),
    ("sector_solver.shift_matrix_on_grid", "s"),
    ("sector_solver.assemble_dd_system", "self_s"),
    ("sector_solver.lu", "s"),
    ("sector_solver.solve_dd", "self_s"),
    ("sector_solver.boundary_lifting", "s"),
    ("sector_solver.solve_nonlocal_poisson", "self_s"),
    ("difference_ops.apply_on_grid", "s"),
    ("core.GridFunction.from_callable", "s"),
]
SOLVE_SIZES = ["n_unknowns", "nnz_S", "nnz_LU"]
PENCIL_FUNCS = [
    (CHAR, ("calls", "s")),
    (ADJ, ("calls", "s")),
    ("pencil.find_zeros", ("calls", "self_s")),
    ("pencil.minimize_scalar", ("calls", "s")),
]
DIAG_TIMES = [
    "pencil.solvability_report",
    "pencil.eigenvalues_closed_form",
    "green_check.green_residual_dirichlet",
    "green_check.green_residual_neumann",
    "green_check.term_magnitudes",
    "weighted_norms.e_norm",
    "weighted_norms.h_norm",
    "weighted_norms.trace_ratio",
    "sector_solver.discrete_coercivity",
    "core.GridFunction.from_callable",
]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for suffix in SOLVE_SUFFIXES.values():
        for fn, stat in SOLVE_TIMES:
            specs.append(("%s.%s.%s" % (fn, stat, suffix), "s", "lower"))
        specs.append(("sector_solver.laplacian_matrix.calls.%s" % suffix, "count", "lower"))
        for size in SOLVE_SIZES:
            specs.append(("sector_solver.%s.%s" % (size, suffix), "count", "lower"))
        specs.append(("sector_solver.lu_mb_computed.%s" % suffix, "MB", "lower"))
    for geo in GEOMETRIES:
        for fn, stats in PENCIL_FUNCS:
            for stat in stats:
                unit = "count" if stat == "calls" else "s"
                specs.append(("%s.%s.%s" % (fn, stat, geo), unit, "lower"))
        specs.append(("pencil.zeros_found.%s" % geo, "count", "higher"))
        specs.append(("pencil.det_evals_per_zero.%s" % geo, "ratio", "lower"))
        specs.append(("%s.per_zero.%s" % (CHAR, geo), "ratio", "lower"))
        specs.append(("%s.per_zero.%s" % (ADJ, geo), "ratio", "lower"))
    for fn in DIAG_TIMES:
        specs.append(("%s.s" % fn, "s", "lower"))
    specs += [
        ("sector_solver.discrete_coercivity.self_s", "s", "lower"),
        ("sector_solver.laplacian_matrix.s.coercivity", "s", "lower"),
        ("sector_solver.shift_matrix_on_grid.s.coercivity", "s", "lower"),
        ("green_check.evals_per_residual", "ratio", "lower"),
        ("green_check.quad_nodes", "count", "lower"),
        ("weighted_norms.cartesian_derivatives.calls", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def _per(total, count):
    return total / count if count else 0.0


def lu_fill(S):
    """nnz(L + U) of a real splu of S, the fill spsolve's factor has too."""
    lu = spla.splu(S.tocsc())
    return lu.L.nnz + lu.U.nnz


def solve_metrics(tr, lu_nnz):
    out = {}
    for kind, suffix in SOLVE_SUFFIXES.items():
        ops = tr.ops[kind]
        for fn, stat in SOLVE_TIMES:
            table = tr.incl if stat == "s" else tr.self_s
            out["%s.%s.%s" % (fn, stat, suffix)] = _per(table[(kind, fn)], ops)
        out["sector_solver.laplacian_matrix.calls.%s" % suffix] = _per(
            tr.calls[(kind, "sector_solver.laplacian_matrix")], ops)
        for size in ("n_unknowns", "nnz_S"):
            key = "sector_solver." + size
            out["%s.%s" % (key, suffix)] = _per(
                tr.counters[(kind, key)], tr.calls[(kind, "sector_solver.assemble_dd_system")])
        nnz = lu_nnz.get(kind, 0)
        out["sector_solver.nnz_LU.%s" % suffix] = nnz
        out["sector_solver.lu_mb_computed.%s" % suffix] = nnz * LU_BYTES_PER_NNZ / 1e6
    return out


def pencil_metrics(tr):
    out = {}
    for geo in GEOMETRIES:
        kinds = ("primal_" + geo, "adjoint_" + geo)
        couplings = tr.ops[kinds[0]]

        def total(table, fn):
            return sum(table[(k, fn)] for k in kinds)

        for fn, stats in PENCIL_FUNCS:
            for stat in stats:
                table = {"calls": tr.calls, "s": tr.incl, "self_s": tr.self_s}[stat]
                out["%s.%s.%s" % (fn, stat, geo)] = _per(total(table, fn), couplings)
        zeros = [tr.counters[(k, "pencil.zeros_found")] for k in kinds]
        out["pencil.zeros_found.%s" % geo] = _per(sum(zeros), couplings)
        dets = total(tr.calls, CHAR) + total(tr.calls, ADJ)
        out["pencil.det_evals_per_zero.%s" % geo] = _per(dets, sum(zeros))
        out["%s.per_zero.%s" % (CHAR, geo)] = _per(tr.calls[(kinds[0], CHAR)], zeros[0])
        out["%s.per_zero.%s" % (ADJ, geo)] = _per(tr.calls[(kinds[1], ADJ)], zeros[1])
    return out


def diagnostics_metrics(tr):
    kind_of = {
        "pencil.solvability_report": "certify",
        "pencil.eigenvalues_closed_form": "certify",
        "green_check.green_residual_dirichlet": "green",
        "green_check.green_residual_neumann": "green",
        "green_check.term_magnitudes": "green",
        "weighted_norms.e_norm": "norms",
        "weighted_norms.h_norm": "norms",
        "weighted_norms.trace_ratio": "norms",
        "sector_solver.discrete_coercivity": "coercivity",
        "core.GridFunction.from_callable": "norms",
    }
    out = {}
    for fn, kind in kind_of.items():
        out[fn + ".s"] = _per(tr.incl[(kind, fn)], tr.ops[kind])
    c = tr.ops["coercivity"]
    out["sector_solver.discrete_coercivity.self_s"] = _per(
        tr.self_s[("coercivity", "sector_solver.discrete_coercivity")], c)
    for fn in ("laplacian_matrix", "shift_matrix_on_grid"):
        out["sector_solver.%s.s.coercivity" % fn] = _per(
            tr.incl[("coercivity", "sector_solver." + fn)], c)
    residuals = (tr.calls[("green", "green_check.green_residual_dirichlet")]
                 + tr.calls[("green", "green_check.green_residual_neumann")])
    evals = tr.calls[("green", "green_check._identity_terms")]
    out["green_check.evals_per_residual"] = _per(evals, residuals)
    out["green_check.quad_nodes"] = _per(tr.counters[("green", "green_check.quad_nodes")], evals)
    out["weighted_norms.cartesian_derivatives.calls"] = _per(
        tr.calls[("norms", "weighted_norms.cartesian_derivatives")], tr.ops["norms"])
    return out

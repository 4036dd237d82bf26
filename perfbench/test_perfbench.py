"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import layers  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from planeangle import core, sector_solver  # noqa: E402
from planeangle.core import SectorGrid  # noqa: E402


class TinySolves:
    """A stand-in workload: one round of two n = 16 solves."""

    name = "solve_ladder"
    min_rounds = 1
    kinds = ("solve_n64",)

    def __init__(self):
        self.ladder = workloads.SolveLadder(0)

    def draw_round(self):
        return [(0.3, -0.8), (0.5, 0.2)]

    def build_round(self, couplings):
        ops = []
        for c in couplings:
            problem = self.ladder.problem(c)

            def solve(problem=problem):
                grid = SectorGrid(workloads.GEO_SOLVE, workloads.R_MIN, workloads.R_MAX, 16, 16)
                return sector_solver.solve_nonlocal_poisson(problem, grid)

            ops.append(workloads.Op("solve_n64", solve, lambda out: None))
        return ops


def snapshot():
    """Every attribute the traced run may replace, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "planeangle" or name.startswith("planeangle.")):
            for key, value in vars(mod).items():
                seen[(name, key)] = value
    seen["spsolve"] = spla.spsolve
    seen["splu"] = spla.splu
    seen["from_callable"] = core.GridFunction.__dict__["from_callable"]
    return seen


def assert_originals(before):
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_same_seed_same_inputs():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7), cls(7), cls(8)
        rounds_a = [a.draw_round() for _ in range(3)]
        rounds_b = [b.draw_round() for _ in range(3)]
        rounds_c = [c.draw_round() for _ in range(3)]
        assert repr(rounds_a) == repr(rounds_b)
        assert repr(rounds_a) != repr(rounds_c)


def test_couplings_admissible_and_spread_over_the_square():
    stream = workloads.coupling_stream(np.random.default_rng(3))
    pts = np.array(workloads.take(stream, 400))
    assert np.all(np.abs(pts) <= 1.5)
    assert np.all(np.abs(pts.sum(axis=1)) <= 1.8)
    cells = {(int((a + 1.5) // 0.75), int((b + 1.5) // 0.75)) for a, b in pts}
    assert len(cells) == 16


def test_reference_eigenvalues_agree_with_the_closed_form():
    for c in ((0.3, -0.8), (0.0, 0.0), (-1.2, -0.5), (1.4, 0.3)):
        for geo in (workloads.GEO_NARROW, workloads.GEO_WIDE):
            p = workloads.pencil_problem(c, geo)
            closed = workloads.pencil.eigenvalues_closed_form(p, workloads.STRIP).values
            ref = [1j * y for y in workloads.reference_imag_parts(p, *workloads.STRIP)]
            workloads.same_set(closed, ref, "closed form")


def test_checks_reject_wrong_values():
    with pytest.raises(workloads.CheckFailed):
        workloads.same_set([1j, 2j], [1j, 2j + 1e-6], "shifted")
    with pytest.raises(workloads.CheckFailed):
        workloads.same_set([1j], [1j, 2j], "missing")
    outside = workloads.Diagnostics(0).coercivity_op((1.25, 1.25), inside=True)
    with pytest.raises(workloads.CheckFailed):
        outside.check(-1.0)


def test_traced_run_restores_the_library_and_sees_every_call():
    before = snapshot()
    wl = TinySolves()
    args = Namespace(trace=1, seconds=0)
    rounds, traced, tracer, lu_nnz = run.measure(args, wl)
    assert_originals(before)
    assert [o.error for o in rounds[0] + traced[0]] == [None] * 4
    key = ("solve_n64", "sector_solver.laplacian_matrix")
    assert tracer.calls[key] == 2 * 2  # A is built twice per solve
    assert tracer.calls[("solve_n64", "sector_solver.lu")] == 2
    assert tracer.calls[("solve_n64", "core.GridFunction.from_callable")] == 2
    assert lu_nnz["solve_n64"] > 0


def test_restored_after_an_operation_raises():
    before = snapshot()
    tracer = layertrace.Tracer(hot=layers.HOT)
    handle = layertrace.install(tracer, layers.TARGETS)
    try:
        with pytest.raises(ZeroDivisionError):
            with tracer.op("boom"):
                sector_solver.laplacian_matrix(
                    SectorGrid(workloads.GEO_SOLVE, 0.5, 3.0, 8, 8))
                raise ZeroDivisionError
    finally:
        handle.restore()
    assert_originals(before)
    assert tracer.stack == []


def test_self_times_sum_to_at_most_the_total():
    tracer = layertrace.Tracer(hot=layers.HOT)
    handle = layertrace.install(tracer, layers.TARGETS)
    try:
        for op in TinySolves().build_round([(0.3, -0.8)]):
            with tracer.op(op.kind):
                op.run()
        p = workloads.pencil_problem((0.3, -0.8), workloads.GEO_NARROW)
        with tracer.op("primal_narrow"):
            workloads.pencil.eigenvalues_numeric(p, workloads.WINDOW)
    finally:
        handle.restore()
    assert len(tracer.op_totals) == 2
    for _, kind, total, self_sum in tracer.op_totals:
        assert self_sum <= total * (1 + 1e-9)
        names = [n for (k, n) in tracer.self_s if k == kind]
        layer_self = sum(tracer.self_s[(kind, n)] for n in names)
        assert 0.0 < layer_self <= total
    assert all(rec[4] >= -1e-9 for rec in tracer.records)
    # nested calls: the determinant runs inside find_zeros, whose self time
    # excludes it
    fz = ("primal_narrow", "pencil.find_zeros")
    assert tracer.self_s[fz] < tracer.incl[fz]


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.metric_specs()]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (u, b) for _, u, b in layers.metric_specs()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    outcome = run.Outcome("solve_n64", 0.5)
    metrics, _ = run.end_to_end(workloads.SolveLadder, [[outcome]], [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in metrics.values()]

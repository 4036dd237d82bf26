"""planeangle benchmark: end-to-end timings and, in a traced run, per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process each

Workloads (see workloads.py): solve_ladder, pencil_search, diagnostics.
The library is imported from ``src/`` next to this directory and driven
in-process through its public API, in a closed loop: each operation starts
when the previous one has returned.  BLAS threads are pinned to the number
of CPUs this process may run on.

A run sets up (import, input generation, one warm-up call of each kind
but the n = 512 solve) and then measures whole rounds of the workload's
fixed operation list until ``--seconds`` have passed (and at least the
workload's min_rounds).  Set-up is repeated in separate processes and
reported as the median.  Every operation's output is
checked; an operation fails if it raises or misses its check, and failures
are recorded under the exception's class name.

With ``--trace 1`` every operation runs twice on the same inputs, plain and
with timing wrappers swapped into the library modules (layertrace.py), the
two in alternating order; the wrappers are removed after each traced call.
The traced copies give the per-layer metrics (layers.py); the difference of
the traced and plain round times gives trace.overhead_s.

Stdout ends with one JSON line: correct, attempted, failed and the metrics
named in BENCHMARK.json (end-to-end without tracing, per-layer with it).
The full report, with the environment, every operation and, when traced,
the spans, is written to .perfbench/ at the repository root.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("solve_ladder", "pencil_search", "diagnostics")
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description="planeangle benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def pin_threads():
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n


def import_library():
    """Import planeangle from SRC, never from anywhere else."""
    if not (SRC / "planeangle" / "__init__.py").is_file():
        raise SystemExit("perfbench: no library at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import planeangle

    if Path(planeangle.__file__).resolve().parent != SRC / "planeangle":
        raise SystemExit("perfbench: planeangle imported from %s" % planeangle.__file__)


# ---------------------------------------------------------------------------
# statistics


def high_percentile(values):
    """(q, value) of the highest of p99/p90 with at least ten samples above it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def summary(values):
    out = {"n": len(values)}
    if values:
        out["median"] = statistics.median(values)
        hp = high_percentile(values)
        if hp:
            out["p%d" % hp[0]] = hp[1]
    return out


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                               blas.get("openblas configuration", ""))
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement


class Outcome:
    __slots__ = ("kind", "seconds", "error", "message", "wrong")

    def __init__(self, kind, seconds, error=None, message="", wrong=False):
        self.kind = kind
        self.seconds = seconds
        self.error = error
        self.message = message
        self.wrong = wrong

    def as_dict(self):
        d = {"kind": self.kind, "seconds": self.seconds}
        if self.error:
            d.update(error=self.error, message=self.message[:300], wrong_output=self.wrong)
        return d


def run_op(op, check_failed, tracer=None):
    """Time one operation (traced when a tracer is given), then check it."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op(op.kind):
                out = op.run()
    except Exception as exc:  # counted as a failed operation; the run goes on
        dt = time.perf_counter() - t0
        if not exc.__class__.__module__.startswith("planeangle"):
            traceback.print_exc(file=sys.stderr)
        return Outcome(op.kind, dt, type(exc).__name__, str(exc))
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except check_failed as exc:
        return Outcome(op.kind, dt, "CheckFailed", str(exc), wrong=True)
    return Outcome(op.kind, dt)


def child_setup_seconds(args):
    """Set-up time measured in a fresh process (import, inputs, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(wl, rounds, setups):
    outcomes = [o for r in rounds for o in r]
    round_s = [sum(o.seconds for o in r) for r in rounds]
    per_round = Counter(o.kind for o in rounds[0])
    # medians of every attempt, failed ones included, so that a kind that
    # starts to succeed or to fail stays in the sum
    medians = {k: statistics.median(o.seconds for o in outcomes if o.kind == k)
               for k in per_round}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_round[k] * m for k, m in medians.items()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failures = {}
    for o in outcomes:
        if o.error:
            failures[o.error] = failures.get(o.error, 0) + 1
    detail = {
        "setup_s.samples": (setups, "s"),
        "wall_s.rounds": (summary(round_s), "s"),
        "fail_frac": (sum(failures.values()) / len(outcomes), "ratio"),
        "failures_by_class": (failures, "count"),
    }
    for k in wl.kinds:
        ok = [o.seconds for o in outcomes if o.kind == k and not o.error]
        detail["%s_s" % k] = (summary(ok), "s")
    return metrics, detail


def layer_metrics(wl, tracer, lu_nnz, overhead):
    import layers

    specs = layers.metric_specs()
    values = dict.fromkeys((name for name, _, _ in specs), 0.0)
    if wl.name == "solve_ladder":
        values.update(layers.solve_metrics(tracer, lu_nnz))
    elif wl.name == "pencil_search":
        values.update(layers.pencil_metrics(tracer))
    else:
        values.update(layers.diagnostics_metrics(tracer))
    values["trace.overhead_s"] = overhead
    return {name: (values[name], unit) for name, unit, _ in specs}


def measure(args, wl):
    """Whole rounds until args.seconds have passed, and at least the
    workload's min_rounds; returns the outcomes.

    Traced: each operation runs twice on the same inputs, once plain and
    once with the wrappers installed, alternating which goes first so that
    warm caches favour neither side.
    """
    from workloads import CheckFailed

    rounds, traced, lu_nnz = [], [], {}
    tracer = None
    if args.trace:
        import layers
        import layertrace

        tracer = layertrace.Tracer(hot=layers.HOT)
    deadline = time.perf_counter() + args.seconds
    while True:
        inputs = wl.draw_round()
        if tracer is None:
            rounds.append([run_op(op, CheckFailed) for op in wl.build_round(inputs)])
        else:
            plain, probe = [], []
            pairs = zip(wl.build_round(inputs), wl.build_round(inputs))
            for i, (op, twin) in enumerate(pairs):
                if i % 2:
                    plain.append(run_op(op, CheckFailed))
                installed = layertrace.install(tracer, layers.TARGETS)
                try:
                    probe.append(run_op(twin, CheckFailed, tracer))
                finally:
                    installed.restore()
                if not i % 2:
                    plain.append(run_op(op, CheckFailed))
            rounds.append(plain)
            traced.append(probe)
            for kind, S in tracer.captured.items():
                if kind not in lu_nnz:
                    lu_nnz[kind] = layers.lu_fill(S)
            tracer.captured.clear()
        if time.perf_counter() >= deadline and len(rounds) >= wl.min_rounds:
            return rounds, traced, tracer, lu_nnz


def report_lines(title, metrics, detail):
    yield "# %s" % title
    for name, (value, unit) in list(metrics.items()) + list(detail.items()):
        if isinstance(value, float):
            value = "%.6g" % value
        elif isinstance(value, (dict, list)):
            value = json.dumps(value)
        yield "%-58s %s %s" % (name, value, unit)


def run_one(args):
    pin_threads()
    import_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup]
    if not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    rounds, traced, tracer, lu_nnz = measure(args, wl)
    all_outcomes = [o for r in rounds + traced for o in r]
    if tracer is None:
        metrics, detail = end_to_end(wl, rounds, setups)
    else:
        untraced_s = statistics.median(sum(o.seconds for o in r) for r in rounds)
        traced_s = statistics.median(sum(o.seconds for o in r) for r in traced)
        metrics = layer_metrics(wl, tracer, lu_nnz, traced_s - untraced_s)
        detail = {"wall_s.untraced": (untraced_s, "s"), "wall_s.traced": (traced_s, "s")}

    failed = sum(1 for o in all_outcomes if o.error)
    result = {
        "correct": not any(o.wrong for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "rounds": [[o.as_dict() for o in r] for r in rounds],
    }
    if tracer is not None:
        full["traced_rounds"] = [[o.as_dict() for o in r] for r in traced]
        full["spans"] = {
            "fields": ["op", "name", "start", "end", "self_s"],
            "records": tracer.records,
            "dropped": tracer.dropped,
            "ops": [{"op": i, "kind": k, "total_s": t, "self_sum_s": s}
                    for i, k, t, s in tracer.op_totals],
        }
        full["counters"] = ["%s|%s=%r" % (k, n, v) for (k, n), v in tracer.counters.items()]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(full))

    title = "%s seed=%d seconds=%d trace=%d rounds=%d" % (
        args.workload, args.seed, args.seconds, args.trace, len(rounds))
    for line in report_lines(title, metrics, detail):
        print(line)
    print("# environment " + json.dumps(full["environment"]))
    print("# report written to %s" % path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

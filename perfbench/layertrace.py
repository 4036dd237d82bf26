"""Span tracing from outside the library, by swapping module attributes.

The library's call sites look their callees up through the module namespace
at call time (``laplacian_matrix(grid)`` inside ``sector_solver``,
``spla.spsolve(...)``, ``find_zeros(f, window)`` inside ``pencil``), so a
timing wrapper stored under the same attribute sees every call.  Names
copied into another module by ``from x import f`` are bound there too and
are patched in every ``planeangle`` module that holds the same object.

Spans nest: each open span accumulates the durations of its children, and a
span's self time is its duration minus that sum.  Wrappers record only while
a benchmark operation (the root span opened by ``Tracer.op``) is open, so
input generation and correctness checks never show up in the layers.
Determinant evaluations run hundreds of thousands of times per search;
those "hot" names are aggregated only, every other span is also kept as a
record until MAX_RECORDS are kept.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter
MAX_RECORDS = 50_000
PACKAGE = "planeangle"  # modules searched for "from x import f" bindings


class Tracer:
    """Span stack, per-(kind, name) aggregates and counters of one run."""

    def __init__(self, hot):
        self.stack = []  # open frames: [start, child_seconds]
        self.kind = None  # kind of the operation being traced
        self.op_index = -1
        self.hot = frozenset(hot)
        self.records = []  # (op_index, name, start, end, self_s)
        self.dropped = 0
        self.ops = Counter()  # kind -> traced operations
        self.op_totals = []  # (op_index, kind, total_s, sum of all self_s)
        self.calls = Counter()  # (kind, name) -> calls
        self.incl = defaultdict(float)  # (kind, name) -> outermost inclusive s
        self.self_s = defaultdict(float)  # (kind, name) -> self s
        self.counters = defaultdict(float)  # (kind, name) -> summed value
        self.captured = {}  # kind -> last object handed to capture()
        self._depth = Counter()
        self._self_sum = 0.0

    @contextmanager
    def op(self, kind):
        """Root span of one benchmark operation."""
        if self.stack:
            raise RuntimeError("benchmark operations do not nest")
        self.kind = kind
        self.op_index += 1
        self.ops[kind] += 1
        self._self_sum = 0.0
        frame = [perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            total = end - frame[0]
            own = total - frame[1]
            self._self_sum += own
            self._record("op." + kind, frame[0], end, own)
            self.op_totals.append((self.op_index, kind, total, self._self_sum))
            self.kind = None

    def _record(self, name, start, end, own):
        if name in self.hot:
            return
        if len(self.records) < MAX_RECORDS:
            self.records.append((self.op_index, name, start, end, own))
        else:
            self.dropped += 1

    def call(self, name, fn, args, kwargs):
        """Run fn as a child span of the innermost open span."""
        stack = self.stack
        if not stack:
            return fn(*args, **kwargs)
        key = (self.kind, name)
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        frame = [perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[name] -= 1
            dur = end - frame[0]
            stack[-1][1] += dur
            own = dur - frame[1]
            self._self_sum += own
            self.calls[key] += 1
            self.self_s[key] += own
            if outermost:
                self.incl[key] += dur
            self._record(name, frame[0], end, own)

    def count(self, name, value):
        """Add value to a counter of the operation being traced."""
        if self.stack:
            self.counters[(self.kind, name)] += value

    def capture(self, obj):
        """Keep obj for inspection after the operation (sizes, fill)."""
        if self.stack:
            self.captured[self.kind] = obj


def _resolve(path):
    """Object and attribute name for 'package.module:Attr.attr' paths."""
    mod_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Installed:
    """Wrappers currently in place; restore() puts the originals back."""

    def __init__(self):
        self.saved = []  # (owner, attr, original raw attribute)

    def restore(self):
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)


def install(tracer, targets):
    """Swap each target for a timing wrapper.

    targets: iterable of (path, span_name, on_return) with path written as
    'module:attr' or 'module:Class.attr'; on_return(tracer, args, result)
    runs after a successful traced call.  Returns an Installed handle.
    """
    handle = Installed()
    try:
        for path, name, on_return in targets:
            owner, attr = _resolve(path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = _make_wrapper(tracer, name, fn, on_return)
            handle.saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            if is_classmethod:
                continue
            # bindings made by "from module import fn" inside the package
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod is None:
                    continue
                if not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        handle.saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
    except BaseException:
        handle.restore()
        raise
    return handle


def _make_wrapper(tracer, name, fn, on_return):
    if on_return is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            on_return(tracer, args, out)
            return out

    return wrapper

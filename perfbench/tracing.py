"""Per-layer tracing of the sorank package, installed from outside it.

Every public function and public method of each layer module is wrapped in
a span, and the wrapper is bound into every sorank module namespace that
held the original (``construct`` imports ``sample_root`` by name, ``cli``
imports ``find_self_dual_basis``, and so on).  A few kernels are counted
without a span, because a span around a sub-microsecond call would cost
more than the call: the ``mul``/``add`` closures of the field instances the
workload uses, ``ExtField.trace``, ``QuadraticForm.evaluate`` and the word
dataclasses' ``__post_init__``.

A span's self time is its duration minus the spans nested in it; a layer's
self time is the sum over its spans.  Generator functions get one span per
resumption, so time spent by the consumer between items is not theirs.
Wrappers read only the clock, so traced and untraced runs consume the RNG
identically.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "linalg", "words", "quadforms", "construct", "balls", "experiments", "cli")

# (layer, class, method) called too often for a span: counted only.
COUNT_ONLY = {
    ("fields", "ExtField", "trace"),
    ("quadforms", "QuadraticForm", "evaluate"),
    ("words", "MatrixWord", "__post_init__"),
    ("words", "VectorWord", "__post_init__"),
}

# Per-layer metric -> (end-to-end metric it should move, workloads).  Names
# and units are those of BENCHMARK.json's per_layer list.
MOVES = {
    "fields.mul.calls": ("ops_per_s", "all; most on golden-experiment, ball-route"),
    "fields.add.calls": ("ops_per_s", "all; most on golden-experiment, ball-route"),
    # Two of cli's ~200 ops per cycle search for a self-dual basis, so its
    # p95 tail is always an ordinary op: these move ops_per_s only.
    "fields.trace.calls": ("ops_per_s", "cli"),
    "fields.find_self_dual_basis.s": ("ops_per_s", "cli"),
    "fields.table_build_s": ("setup_s", "cli, construct-sweep"),
    "fields.self_s": ("ops_per_s", "cli"),
    "linalg.rref.calls": ("ops_per_s, op_p50_ms", "ball-route, construct-sweep"),
    "linalg.rank.calls": ("ops_per_s, op_p50_ms", "ball-route, construct-sweep"),
    "linalg.nullspace.calls": ("ops_per_s, op_p50_ms", "ball-route, construct-sweep"),
    "linalg.solve_in_span.calls": ("ops_per_s, op_p50_ms", "ball-route, construct-sweep"),
    "linalg.self_s": ("ops_per_s, op_p50_ms", "ball-route, construct-sweep"),
    "quadforms.sample_root.calls": ("ops_per_s, op_p50_ms", "golden-experiment"),
    "quadforms.sample_root.exhaustive_share": ("ops_per_s, op_p50_ms", "golden-experiment 1.0; ball-route 0.0"),
    "quadforms.evaluate.calls": ("ops_per_s, op_p50_ms", "golden-experiment"),
    "quadforms.evaluate_per_sample": ("ops_per_s, op_p50_ms", "golden-experiment"),
    "quadforms.self_s": ("ops_per_s, op_p50_ms", "golden-experiment; flat on ball-route"),
    "construct.so_flat_vectors.calls": ("ops_per_s", "construct-sweep, golden-experiment"),
    "construct.samples_per_vector": ("ops_per_s", "construct-sweep, golden-experiment"),
    "construct.self_s": ("ops_per_s", "construct-sweep, golden-experiment"),
    "words.contains.calls": ("ops_per_s, op_tail_ms", "ball-route"),
    "words.contains.hit_ratio": ("ops_per_s, op_tail_ms", "ball-route"),
    "words.rank_distance.calls": ("ops_per_s", "golden-experiment"),
    "words.word_objects": ("ops_per_s", "golden-experiment, ball-route"),
    "words.self_s": ("ops_per_s, op_tail_ms", "ball-route, golden-experiment"),
    "balls.enumerate_ball.words": ("ops_per_s", "ball-route; 0 on golden-experiment, construct-sweep"),
    "balls.enumerate_ball.self_s": ("ops_per_s", "ball-route"),
    "experiments.list_size_at.calls": ("op_p50_ms", "ball-route, golden-experiment"),
    "experiments.list_size_at.s": ("op_p50_ms", "ball-route, golden-experiment"),
    "experiments.ball_route_share": ("op_p50_ms", "ball-route 1.0; golden-experiment 0.0"),
    "experiments.self_s": ("op_p50_ms", "ball-route, golden-experiment"),
    "cli.main.calls": ("op_p50_ms", "cli"),
    "cli.self_s": ("op_p50_ms", "cli"),
    "trace.overhead_s": ("(traced minus untraced time of the same ops)", "all"),
    "trace.overhead_ratio": ("(traced over untraced time of the same ops)", "all"),
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span and call counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.calls = Counter()  # span or counter name -> calls
        self.items = Counter()  # generator span name -> items yielded
        self.total_s = Counter()  # span name -> inclusive seconds (outermost calls)
        self.self_s = Counter()  # layer -> self seconds
        self.depth = Counter()  # span name -> open spans of that name
        self.stack = []  # one child-time accumulator per open span
        self.derived = Counter()  # counts the metrics below are made from
        self.table_build_s = 0.0
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _close(self, name, layer, t0, acc):
        dt = perf_counter() - t0
        own = dt - acc[0]
        self.self_s[layer] += own
        if layer == "balls" and self.depth["balls.enumerate_ball"]:
            self.derived["enumerate_ball.self_s"] += own
        self.stack.pop()
        self.depth[name] -= 1
        if not self.depth[name]:
            self.total_s[name] += dt
        if self.stack:
            self.stack[-1][0] += dt

    def _span(self, name, layer, fn, enter=None, leave=None):
        calls, depth, stack, close = self.calls, self.depth, self.stack, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            token = enter(args, kwargs) if enter else None
            acc = [0.0]
            stack.append(acc)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, layer, t0, acc)
            if leave:
                leave(token, result)
            return result

        return wrapper

    def _gen_span(self, name, layer, fn):
        calls, items, depth, stack, close = self.calls, self.items, self.depth, self.stack, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    acc = [0.0]
                    stack.append(acc)
                    depth[name] += 1
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(name, layer, t0, acc)
                    items[name] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for derived counts -------------------------------------------

    def _enter_sample_root(self, args, kwargs):
        if self.depth["construct.so_flat_vectors"]:
            self.derived["construct.samples"] += 1
        return self.calls["quadforms.iter_roots"]

    def _leave_sample_root(self, token, result):
        # The call took the exhaustive path iff it enumerated the roots.
        self.derived["sample_root.exhaustive"] += self.calls["quadforms.iter_roots"] > token

    def _evaluate_counter(self, fn):
        calls, derived, depth = self.calls, self.derived, self.depth

        def wrapper(*args, **kwargs):
            calls["quadforms.evaluate"] += 1
            if depth["quadforms.sample_root"]:
                derived["evaluate_in_sample_root"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _leave_so_flat_vectors(self, token, result):
        self.derived["construct.vectors"] += len(result)

    def _leave_contains(self, token, result):
        self.derived["contains.hits"] += bool(result)

    def _enter_list_size_at(self, args, kwargs):
        return self.calls["balls.enumerate_ball"]

    def _leave_list_size_at(self, token, result):
        # The ball scan ran iff enumerate_ball was called inside this call.
        self.derived["list_size_at.ball_route"] += self.calls["balls.enumerate_ball"] > token

    # -- installation --------------------------------------------------------

    def time_table_builds(self, fields_module):
        """Time field table construction; install before any field is built."""
        cls = fields_module._PackedField
        orig = cls._build_tables
        tracer = self

        def _build_tables(field):
            t0 = perf_counter()
            try:
                return orig(field)
            finally:
                tracer.table_build_s += perf_counter() - t0

        self._patch(cls, "_build_tables", _build_tables)

    def count_field_ops(self, fields):
        seen = set()
        for F in fields:
            if id(F) in seen:
                continue
            seen.add(id(F))
            for op in ("mul", "add"):
                self._patch(F, op, self._counter(f"fields.{op}", getattr(F, op)))

    def install(self, *callers):
        """Wrap every layer's public functions and methods.

        Wrappers replace the originals in every sorank module and in each
        module of `callers` (the benchmark's own), wherever they were bound.
        """
        modules = {layer: sys.modules[f"sorank.{layer}"] for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in [sys.modules["sorank"], *modules.values(), *callers]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patch(mod, name, replace[obj])

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        if inspect.isgeneratorfunction(fn):
            return self._gen_span(qual, layer, fn)
        if qual == "quadforms.sample_root":
            return self._span(qual, layer, fn, self._enter_sample_root, self._leave_sample_root)
        if qual == "construct.so_flat_vectors":
            return self._span(qual, layer, fn, leave=self._leave_so_flat_vectors)
        if qual == "experiments.list_size_at":
            return self._span(qual, layer, fn, self._enter_list_size_at, self._leave_list_size_at)
        if qual == "words.contains":
            return self._span(qual, layer, fn, leave=self._leave_contains)
        return self._span(qual, layer, fn)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            key = (layer, cls.__name__, name)
            if key in COUNT_ONLY:
                if name == "evaluate":
                    self._patch(cls, name, self._evaluate_counter(attr))
                elif name == "__post_init__":
                    self._patch(cls, name, self._counter("words.word_objects", attr))
                else:
                    self._patch(cls, name, self._counter(f"{layer}.{name}", attr))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, (classmethod, staticmethod)):
                self._patch(cls, name, type(attr)(self._wrap(layer, name, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(layer, name, attr))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- results -------------------------------------------------------------

    def metrics(self, untraced_s, traced_s):
        """The per-layer metrics; the two times are of the same ops, untraced and traced."""
        c, d, s = self.calls, self.derived, self.self_s
        return {
            "fields.mul.calls": c["fields.mul"],
            "fields.add.calls": c["fields.add"],
            "fields.trace.calls": c["fields.trace"],
            "fields.find_self_dual_basis.s": self.total_s["fields.find_self_dual_basis"],
            "fields.table_build_s": self.table_build_s,
            "fields.self_s": s["fields"],
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rank.calls": c["linalg.rank"],
            "linalg.nullspace.calls": c["linalg.nullspace"],
            "linalg.solve_in_span.calls": c["linalg.solve_in_span"],
            "linalg.self_s": s["linalg"],
            "quadforms.sample_root.calls": c["quadforms.sample_root"],
            "quadforms.sample_root.exhaustive_share": _ratio(d["sample_root.exhaustive"], c["quadforms.sample_root"]),
            "quadforms.evaluate.calls": c["quadforms.evaluate"],
            "quadforms.evaluate_per_sample": _ratio(d["evaluate_in_sample_root"], c["quadforms.sample_root"]),
            "quadforms.self_s": s["quadforms"],
            "construct.so_flat_vectors.calls": c["construct.so_flat_vectors"],
            "construct.samples_per_vector": _ratio(d["construct.samples"], d["construct.vectors"]),
            "construct.self_s": s["construct"],
            "words.contains.calls": c["words.contains"],
            "words.contains.hit_ratio": _ratio(d["contains.hits"], c["words.contains"]),
            "words.rank_distance.calls": c["words.rank_distance"],
            "words.word_objects": c["words.word_objects"],
            "words.self_s": s["words"],
            "balls.enumerate_ball.words": self.items["balls.enumerate_ball"],
            "balls.enumerate_ball.self_s": d["enumerate_ball.self_s"],
            "experiments.list_size_at.calls": c["experiments.list_size_at"],
            "experiments.list_size_at.s": self.total_s["experiments.list_size_at"],
            "experiments.ball_route_share": _ratio(d["list_size_at.ball_route"], c["experiments.list_size_at"]),
            "experiments.self_s": s["experiments"],
            "cli.main.calls": c["cli.main"],
            "cli.self_s": s["cli"],
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        }

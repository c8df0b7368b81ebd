"""sorank benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sorank checkout; the package is imported from its
``src/``.  Workloads are defined in workloads.py; metric names and units
come from BENCHMARK.json.

``--trace 0`` (the end-to-end run):
  1. set-up time: SETUP_PROBES fresh interpreters each import sorank, build
     the workload's field tables and fixtures, run one warm-up op and
     report ready; ``setup_s`` is the median time from spawn to ready;
  2. this process does the same set-up, then runs whole cycles of ops for
     at least ``--seconds``, timing each op from outside;
  3. every output is checked after the timed section: golden rows, property
     checks, and the first cycle's sha256 digest against digests.json where
     that seed was recorded.

``--trace 1`` (the per-layer run) runs the workload's fixed number of trace
cycles untraced, then again with tracing.py's wrappers installed, and
reports the layer metrics.  The traced outputs must equal the untraced ones,
and the workload's routing predictions must hold.  The overhead of tracing
is reported as the difference between the two timings.

Stdout: a human-readable table, an ``env`` line and a digest line, then the
result as one JSON object on the last line.  Exit status 0 means the run
completed (check ``correct``); 2 means it could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
DIGESTS = HERE / "digests.json"
PRINTED_DIGESTS = 2  # digests of the first cycles, printed on the digests line
MAX_NOTES = 50


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import sorank from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "sorank" / "__init__.py").is_file():
        fail(f"no src/sorank/ under {ROOT}; run from the root of a sorank checkout")
    sys.path.insert(0, str(src))
    import sorank

    if Path(sorank.__file__).resolve().parent != (src / "sorank").resolve():
        fail(f"imported sorank from {sorank.__file__}, not from {src}")
    return sorank


def prepare(name, seed):
    """Set-up for one workload: fixtures, field tables and one warm-up op.

    The warm-up op is the first op of seed 0 whatever the seed, so that
    set-up does the same work on every run.
    """
    import workloads

    cls = workloads.WORKLOADS[name]
    warm = cls(0)
    fields = warm.build_fields()
    warm.cycle(0)[0].run()
    warm.close()
    return cls(seed), fields


class Outcome:
    """Per-op timings and check results of one pass of run_cycles."""

    def __init__(self, keep_outputs):
        self.start = array("d")  # op start and end (perf_counter)
        self.end = array("d")
        self.failed = 0
        self.notes = []
        self.cycles = 0
        self.cycle_digests = []  # of the first PRINTED_DIGESTS cycles
        self.outputs = [] if keep_outputs else None
        self.elapsed = 0.0

    def __len__(self):
        return len(self.start)

    def busy(self, sampler=None):
        """Per-op wall time, minus the speed samples taken during the op."""
        if sampler is None:
            return [t1 - t0 for t0, t1 in zip(self.start, self.end)]
        return [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in zip(self.start, self.end)]


def run_cycles(wl, *, cycles=None, seconds=None, keep_outputs=False, check=True):
    """Whole cycles, until `cycles` are done or `seconds` have passed.

    Only the ops are timed; unless `check` is false, each cycle's outputs
    are checked after its last op, then dropped (unless `keep_outputs`), so
    memory does not grow with the run length.
    """
    res = Outcome(keep_outputs)
    recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(wl.seed))
    start = perf_counter()
    c = 0
    while True:
        outs = []
        for op in wl.cycle(c):
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            res.end.append(perf_counter())
            res.start.append(t0)
            outs.append((op, out, err))
        settle(res, c, outs, recorded if c == 0 else None, check)
        c += 1
        if cycles is not None and c >= cycles:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    res.elapsed = perf_counter() - start
    return res


def settle(res, c, outs, recorded_digest, check=True):
    """Check one cycle's outputs, and its digest against the recorded one if given."""
    h = hashlib.sha256()
    bad = 0
    for op, out, err in outs:
        ok, why = err is None, err
        if ok and check and op.check is not None:
            try:
                ok, why = bool(op.check(out)), "output failed its check"
            except (ValueError, KeyError, IndexError) as exc:
                ok, why = False, f"check raised {exc!r}"
        if not ok:
            bad += 1
            if len(res.notes) < MAX_NOTES:
                res.notes.append(f"cycle {c}, {op.label}: {why}")
        if op.digested:
            h.update(f"{op.label}\0{err or ''}\0{out or ''}\0".encode())
        if res.outputs is not None:
            res.outputs.append((op.label, out, err))
    digest = h.hexdigest()
    res.cycles += 1
    if len(res.cycle_digests) < PRINTED_DIGESTS:
        res.cycle_digests.append(digest)
    if check and recorded_digest is not None and digest != recorded_digest:
        res.notes.append(f"cycle {c} digest {digest} != recorded {recorded_digest}")
        bad = len(outs)
    res.failed += bad


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * pct / 100) - 1)]


def setup_times(args):
    """Spawn-to-ready seconds of SETUP_PROBES fresh interpreters, raw and scaled.

    The speed kernel runs just before and after each probe; a probe's
    scaled time uses the mean of those two readings.
    """
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = speed.kernel_seconds(20)
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe failed (exit {proc.returncode})")
        after = speed.kernel_seconds(20)
        raw.append(dt)
        scaled.append(dt * speed.REF_S * 2 / (before + after))
    return raw, scaled


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, wl, res, **extra):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(res),
        "cycles": res.cycles,
        "elapsed_s": res.elapsed,
        **extra,
    }


def report(spec, values, correct, res, notes, env):
    """Print the table, env and digest lines, then the result as the last line."""
    for name, (value, unit, *raw) in values.items():
        extra = f"   (raw wall clock {raw[0]:.6g})" if raw else ""
        print(f"{env['workload']:18} {name:40} {value:14.6g} {unit}{extra}")
    for note in notes[:20]:
        print(f"FAILED: {note}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + " ".join(res.cycle_digests))
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in spec}
    print(json.dumps({"correct": correct, "attempted": len(res), "failed": res.failed, "metrics": metrics}))


def end_to_end(args, spec):
    setup_raw, setup_scaled = setup_times(args)
    wl, _ = prepare(args.workload, args.seed)
    try:
        with speed.SpeedSampler() as sampler:
            res = run_cycles(wl, seconds=args.seconds)
    finally:
        wl.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy = res.busy(sampler)
    raw = sorted(busy)
    scaled = sorted(b * sampler.scale(t0, t1) for b, t0, t1 in zip(busy, res.start, res.end))
    tail = percentile(scaled, wl.tail_pct)
    values = {
        "setup_s": (statistics.median(setup_scaled), "s", statistics.median(setup_raw)),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s", len(raw) / sum(raw)),
        "op_p50_ms": (statistics.median(scaled) * 1000, "ms", statistics.median(raw) * 1000),
        "op_tail_ms": (tail * 1000, "ms", percentile(raw, wl.tail_pct) * 1000),
        "failed_ratio": (res.failed / len(res), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    env = environment(
        args, wl, res,
        tail_percentile=wl.tail_pct,
        samples_beyond_tail=sum(1 for x in scaled if x > tail),
        setup_probes_raw_s=setup_raw,
        speed_samples=len(sampler.durations),
        speed_kernel_median_s=statistics.median(sampler.durations),
        speed_ref_s=speed.REF_S,
        # The timed metrics as measured, before scaling to the reference speed.
        unscaled={name: v[2] for name, v in values.items() if len(v) == 3},
    )
    report(spec, values, res.failed == 0, res, res.notes, env)


def traced(args, spec):
    import tracing

    tracer = tracing.Tracer()
    tracer.time_table_builds(sys.modules["sorank.fields"])
    wl, fields = prepare(args.workload, args.seed)
    try:
        plain = run_cycles(wl, cycles=wl.trace_cycles, keep_outputs=True)
        tracer.count_field_ops(fields)
        tracer.install(sys.modules["workloads"])
        try:
            # Checks call into the package too, so the traced pass is not
            # checked itself: its outputs must equal the checked untraced ones.
            res = run_cycles(wl, cycles=wl.trace_cycles, keep_outputs=True, check=False)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    notes = list(plain.notes)
    differ = [b[0] for a, b in zip(plain.outputs, res.outputs) if a != b]
    notes += [f"traced output of {label} differs from the untraced one" for label in differ]
    layer = tracer.metrics(sum(plain.busy()), sum(res.busy()))
    wrong = {k: (layer[k], v) for k, v in wl.predictions.items() if layer[k] != v}
    notes += [f"prediction {k} = {v!r} does not hold: measured {got!r}" for k, (got, v) in wrong.items()]
    if set(layer) != {name for name, _ in spec} or set(tracing.MOVES) != set(layer):
        fail("the per-layer metrics of tracing.py and BENCHMARK.json differ")
    # Counters default to the int 0; times are reported as floats.
    values = {name: (float(layer[name]) if unit == "s" else layer[name], unit) for name, unit in spec}
    env = environment(args, wl, res, untraced_s=sum(plain.busy()))
    res.failed = plain.failed + len(differ)
    print("layer metric -> end-to-end metric it should move (workloads):")
    for name, (moves, where) in tracing.MOVES.items():
        print(f"  {name:40} -> {moves} ({where})")
    report(spec, values, res.failed == 0 and not wrong, res, notes, env)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # One CPU for this process and the set-up probes it spawns (affinity is
    # inherited): the speed samples then describe the CPU the work runs on,
    # and no migration between CPUs shared with different neighbours.
    if hasattr(os, "sched_setaffinity") and not args.setup_probe:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        wl, _ = prepare(args.workload, args.seed)
        wl.close()
        print("ready", flush=True)
        return
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = [(m["name"], m["unit"]) for m in bench["per_layer" if args.trace else "end_to_end"]]
    (traced if args.trace else end_to_end)(args, spec)


if __name__ == "__main__":
    main()

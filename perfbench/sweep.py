"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one process at a time,
from the root of a checkout.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  The
timed metrics are summarised twice: as reported (scaled to the reference
speed) and unscaled, as measured (the ``unscaled`` entry of the env line).
With ``--out`` the per-run results (last stdout line and env line) and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return {"result": json.loads(lines[-1]), "env": env}


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary = {}, {}
    for w in args.workloads.split(","):
        runs[w] = [run_one(w, s, args.seconds) for s in args.seeds]
        results = [r["result"] for r in runs[w]]
        summary[w] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {},
            "unscaled": {},
        }
        columns = [("metrics", name, [r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]]
        columns += [("unscaled", name, [r["env"]["unscaled"][name] for r in runs[w]])
                    for name in runs[w][0]["env"]["unscaled"]]
        for kind, name, values in columns:
            s = summarise(values)
            summary[w][kind][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if s['spread'] > bound else ''}"
            label = name if kind == "metrics" else f"{name} (unscaled)"
            print(f"{w:18} {label:40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.3f}{flag}", flush=True)
        print(f"{w:18} correct={summary[w]['correct']} failed={summary[w]['failed']}/{summary[w]['attempted']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()

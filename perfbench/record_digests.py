"""Record the first-cycle output digests that run.py checks outputs against.

    python3 perfbench/record_digests.py --seeds 0-99 [--workloads a,b] [--write]

Run from the root of a checkout whose outputs are trusted.  For each
workload and seed it runs the first cycle (only the ops whose exact output
is digested) and prints {workload: {seed: digest}} as JSON; ``--write``
merges the result into perfbench/digests.json.

To confirm a change on a held-out seed, run this with the same arguments at
the parent commit and at the change and compare the two outputs.
"""

from __future__ import annotations

import argparse
import json

import run


class DigestedOnly:
    """A workload whose cycles keep only the ops that enter the digest."""

    def __init__(self, wl):
        self.wl = wl
        self.name, self.seed = wl.name, wl.seed

    def cycle(self, index):
        return [op for op in self.wl.cycle(index) if op.digested]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seeds", required=True, help="a range, e.g. 0-99")
    p.add_argument("--workloads", default="ball-route,construct-sweep,cli")
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")

    run.load_package()
    import workloads

    out = {}
    for name in args.workloads.split(","):
        out[name] = {}
        for seed in range(int(lo), int(hi or lo) + 1):
            wl = workloads.WORKLOADS[name](seed)
            try:
                res = run.run_cycles(DigestedOnly(wl), cycles=1, check=False)
            finally:
                wl.close()
            if res.notes:
                raise SystemExit(f"{name} seed {seed}: {res.notes}")
            out[name][str(seed)] = res.cycle_digests[0]
    if args.write:
        recorded = json.loads(run.DIGESTS.read_text())
        for name, seeds in out.items():
            recorded.setdefault(name, {}).update(seeds)
        run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

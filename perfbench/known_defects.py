"""Known defects, reproduced on demand; not one of the benchmark's workloads.

    python3 perfbench/known_defects.py

``sorank selfdual-basis --q 8 --m 5`` fails with E_BUDGET after its
100,000-draw random search (~16 s on a 2-vCPU Xeon), although a self-dual
basis exists for every even q.  ``--q 2 --m 13`` shows the same defect but
takes ~160 s, so it is left out.  The benchmark's workloads must not fail,
so this op is kept out of the ``cli`` workload and measured here instead.

Prints one line per case and, last, a JSON object with ``attempted``,
``failed`` and ``failed_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import perf_counter

import run

CASES = [["selfdual-basis", "--q", "8", "--m", "5"]]


def main():
    run.load_package()
    from sorank import cli

    failed = 0
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        dt = perf_counter() - t0
        failed += code != 0
        print(f"sorank {' '.join(argv)}: exit {code} after {dt:.1f} s; stderr {err.getvalue().strip()!r}")
    print(json.dumps({"attempted": len(CASES), "failed": failed, "failed_ratio": failed / len(CASES)}))


if __name__ == "__main__":
    main()

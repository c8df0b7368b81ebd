"""The benchmark's pinned entry points and outputs, checked in tier-1."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parents[1]


def test_record_digests_match_the_recorded_digests():
    # record_digests.py imports sorank from src/ and runs the first cycle of
    # each digested workload at seed 0, so a break of an entry point the
    # benchmark calls, or a drift in its outputs, fails here and not only
    # in a benchmark run.  -B keeps perfbench/ free of bytecode files.
    run = subprocess.run(
        [sys.executable, "-B", "perfbench/record_digests.py", "--seeds", "0"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    recorded = json.loads((REPO / "perfbench" / "digests.json").read_text())
    assert json.loads(run.stdout) == {name: {"0": seeds["0"]} for name, seeds in recorded.items()}


@pytest.mark.parametrize("workload", ["golden-experiment", "ball-route"])
def test_traced_run_holds_its_predictions(workload):
    # The tracer patches fields._PackedField._build_tables and reads the
    # list-size and sampler routes off list_size_at, enumerate_ball,
    # sample_root and iter_roots, which only a traced run exercises.  These
    # two workloads' route predictions point opposite ways; `correct`
    # includes them.
    run = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr

"""The benchmark's four workloads.

Each workload is a deterministic sequence of cycles; a cycle is a short list
of ops, and an op is one call into the package whose output is a string.
Inputs depend only on the benchmark seed and the cycle index, so two runs
with the same seed do the same work in the same order, whatever their
length.  Timed runs execute whole cycles.

Why these workloads (each ROADMAP item has one that exercises it and one
that bypasses it):

* ``golden-experiment`` -- criterion-7 trials; every ``sample_root`` call
  takes the exhaustive path, list sizes take the code scan.
* ``ball-route`` -- list-size trials whose ``list_size_at`` always takes the
  ball scan (membership-bound); construction only takes the rejection path.
* ``construct-sweep`` -- the criterion-4 grid: odd characteristic, GF(4),
  table-add extension fields, both sampler paths.
* ``cli`` -- in-process ``sorank.cli.main`` calls, including the self-dual
  basis search.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# The package is imported by run.py (from the checkout's src/) before this
# module is loaded.
from sorank import cli, linalg
from sorank.construct import max_so_dimension, so_code
from sorank.experiments import ExperimentConfig, max_list_size_experiment, trial_seed
from sorank.fields import ext_field, field_from_q
from sorank.quadforms import QuadraticForm
from sorank.words import MatrixWord, VectorWord, dual, dump_code, is_self_orthogonal, rank_distance

GOLDEN_CSV = Path("tests/golden/maxlist_q2n2m4_seed42.csv")
GOLDEN_TRIALS = 10_000

# experiments.trial_seed(seed, t) is documented as splitmix64(seed + t * GOLDEN),
# so the config seed below makes trial 0 of a one-trial experiment equal to
# trial t of the stream `seed`.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def stream_seed(seed: int, t: int) -> int:
    return (seed + t * _GOLDEN) & _MASK


def one_trial(q, n, m, tau, epsilon, seed, t, repr="matrix"):
    """Trial t of the list-size experiment stream `seed`, as 'size,rank,code_seed'."""
    cfg = ExperimentConfig(q, n, m, tau, epsilon, 1, seed=stream_seed(seed, t), repr=repr)
    rep = max_list_size_experiment(cfg)
    return f"{rep.list_sizes[0]},{rep.center_ranks[0]},{rep.code_seeds[0]}"


class CheckFailed(Exception):
    """An op produced an output that failed its inline property check."""


class Op(NamedTuple):
    label: str
    run: Callable[[], str]
    # Post-hoc property check of the output, run outside the timed section.
    check: Callable[[str], bool] | None = None
    # Whether the exact output enters the cycle digest; ops whose output may
    # legitimately change (a different self-dual basis) are checked by
    # property only.
    digested: bool = True


class Workload:
    name = ""
    # Fixed tail percentile, so that every run reports the same one: the
    # highest of 90/95/99 that keeps at least 10 samples beyond it, with
    # margin, at this workload's usual op count.  (p99.9 of a millisecond
    # op would be set by a dozen scheduler hiccups.)
    tail_pct = 99.0
    # Cycles run by a traced run (fixed, so that its counts repeat exactly).
    trace_cycles = 1
    # Field instances (q, m) built during set-up; m=1 means field_from_q(q).
    fields: tuple = ()
    # Per-layer values the traced run must reproduce: what makes the
    # workload exercise (or bypass) the layer it was chosen for.
    predictions: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def build_fields(self):
        out = []
        for q, m in self.fields:
            f = field_from_q(q) if m == 1 else ext_field(q, m)
            out.append(f)
            if m > 1:
                out.append(f.base)
        return out

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def close(self):
        pass


class GoldenExperiment(Workload):
    """Criterion-7 config (q=2, n=2, m=4, tau=0.5, eps=0.1, seed 42).

    A run walks the 10,000 golden trials from a seed-chosen start, wrapping
    at the end; every row must equal the golden file's row.
    """

    name = "golden-experiment"
    trace_cycles = 1000
    fields = ((2, 1),)
    predictions = {
        "balls.enumerate_ball.words": 0,
        "experiments.ball_route_share": 0.0,
        "quadforms.sample_root.exhaustive_share": 1.0,
    }

    def __init__(self, seed):
        super().__init__(seed)
        lines = GOLDEN_CSV.read_text().splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        if len(rows) != GOLDEN_TRIALS:
            raise ValueError(f"{GOLDEN_CSV}: expected {GOLDEN_TRIALS} rows, found {len(rows)}")
        # "t,list_size,center_rank,code_seed" -> "list_size,center_rank,code_seed"
        self.golden = [row.split(",", 1)[1] for row in rows]
        self.start = random.Random(seed).randrange(GOLDEN_TRIALS)

    def cycle(self, index):
        t = (self.start + index) % GOLDEN_TRIALS
        want = self.golden[t]
        return [Op(f"trial {t}", lambda: one_trial(2, 2, 4, 0.5, 0.1, 42, t), lambda out: out == want)]


BALL_MATRIX = (2, 3, 8, 0.4, 0.02)  # k=11, |C|=2048, |B|=1786
BALL_VECTOR = (2, 5, 5, 0.2, 0.2)  # k=2, |C|=1024, |B|=962


def list_size_oracle(q, n, m, tau, epsilon, repr, code_seed):
    """List size by the code scan, redrawing the trial's code and center.

    The draw order (code, then a uniform center) is the experiment's
    documented per-trial stream; the count itself uses only the code's
    words and rank distance, not list_size_at.
    """
    cfg = ExperimentConfig(q, n, m, tau, epsilon, 1, repr=repr)
    k, r = cfg.dimension(), cfg.radius
    rng = random.Random(code_seed)
    field = field_from_q(q)
    if repr == "matrix":
        code = so_code(field, n, m, k, rng)
        center = MatrixWord(tuple(tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)), field)
    else:
        ext = ext_field(q, m)
        code = so_code(field, n, m, k, rng, repr="vector", ext=ext)
        center = VectorWord(tuple(rng.randrange(ext.order) for _ in range(n)), ext)
    return sum(1 for w in code.iter_words() if rank_distance(center, w) <= r)


class BallRoute(Workload):
    """List-size trials that always take the ball scan.

    A cycle is four vector trials (~50 ms) then one matrix trial (~400 ms),
    so the median op is a vector trial and the 90th percentile a matrix
    trial, each well inside its own cluster.  Every trial of every
    ORACLE_EVERY-th cycle is re-checked against the code-scan oracle
    (list sizes here are mostly 0 or 1, so a cycle digest alone says
    little for seeds without one).
    """

    name = "ball-route"
    ORACLE_EVERY = 5
    tail_pct = 90.0
    trace_cycles = 2
    fields = ((2, 1), (2, 5))
    predictions = {
        "experiments.ball_route_share": 1.0,
        "quadforms.sample_root.exhaustive_share": 0.0,
    }

    def cycle(self, index):
        oracle = index % self.ORACLE_EVERY == 0
        ops = [self._op("vector", BALL_VECTOR, 4 * index + j, oracle) for j in range(4)]
        ops.append(self._op("matrix", BALL_MATRIX, index, oracle))
        return ops

    def _op(self, repr, params, t, oracle):
        seed = self.seed

        def run():
            return one_trial(*params, seed, t, repr=repr)

        def check(out):
            size, _, code_seed = (int(v) for v in out.split(","))
            if code_seed != trial_seed(seed, t):
                return False
            if oracle:
                return size == list_size_oracle(*params, repr, code_seed)
            return size >= 0

        return Op(f"{repr} trial {t}", run, check)


def construct_grid():
    """Criterion-4 grid: (q, repr, n, m, k)."""
    pts = []
    for q in (2, 3, 4):
        for n in range(1, 17):
            for m in range(n, 17):
                if n * m <= 16:
                    pts += [(q, "matrix", n, m, k) for k in range(1, max_so_dimension(n * m) + 1)]
        for m in (2, 3):
            for n in range(1, 9):
                pts += [(q, "vector", n, m, k) for k in range(1, max_so_dimension(n) + 1)]
    return pts


class ConstructSweep(Workload):
    """One cycle is one pass over the criterion-4 grid with one seed.

    Each op constructs a code and runs the criterion-4 check (self-orthogonal
    basis, every basis word in the dual); a failed check fails the op.
    """

    name = "construct-sweep"
    trace_cycles = 1
    fields = ((2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
    predictions = {"balls.enumerate_ball.words": 0}

    def __init__(self, seed):
        super().__init__(seed)
        self.grid = construct_grid()

    def cycle(self, index):
        s = trial_seed(self.seed, index)
        return [self._op(pt, s) for pt in self.grid]

    @staticmethod
    def _op(pt, s):
        q, repr, n, m, k = pt

        def run():
            field = field_from_q(q)
            ext = ext_field(q, m) if repr == "vector" else None
            code = so_code(field, n, m, k, random.Random(s), repr=repr, ext=ext)
            d = dual(code)
            if not (code.k == k and is_self_orthogonal(code) and all(d.contains(w) for w in code.basis)):
                raise CheckFailed(f"criterion-4 check failed for {pt} seed {s}")
            return dump_code(code)

        return Op(f"{repr} q={q} n={n} m={m} k={k}", run)


def cli_call(argv, stdin=""):
    """One in-process ``sorank.cli.main`` call; returns 'exit code' + stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return f"{code}\n{out.getvalue()}"


def _exit_ok(out):
    return out.startswith("0\n")


def _is_self_dual_basis_output(q, m):
    def check(out):
        if not _exit_ok(out):
            return False
        ext = ext_field(q, m)
        basis = tuple(int(v) for v in out.split("\n", 1)[1].split())
        return (
            len(basis) == m
            and all(0 < b < ext.order for b in basis)
            and ext.is_self_dual_basis(basis)
            and linalg.rank(ext.base, [ext.to_digits(b) for b in basis]) == m
        )

    return check


def _root_output_ok(out):
    if not _exit_ok(out):
        return False
    lines = dict(ln.split("=", 1) for ln in out.split("\n", 1)[1].splitlines())
    x = [int(v) for v in lines["root"].split()]
    f = QuadraticForm(3, (1, 2, 3, 4, 5, 6), ext_field(2, 4))
    return any(x) and f.evaluate(x) == 0


class CliScript(Workload):
    """A fixed script of in-process CLI calls.

    A cycle is ROUNDS rounds of ordinary calls (each round with its own
    seed), then ``selfdual-basis`` on GF(5^3) (the random search succeeds)
    and on GF(4^4) (the search exhausts its budget and backtracking
    succeeds).  ``selfdual-basis`` on GF(8^5) is left out: it fails with
    E_BUDGET after ~16 s (see known_defects.py).
    """

    name = "cli"
    ROUNDS = 20
    tail_pct = 95.0
    trace_cycles = 1
    fields = ((2, 1), (3, 1), (4, 1), (5, 1), (4, 3), (2, 4), (5, 3), (4, 4))
    WORKDIR = Path(".perfbench_work")

    def __init__(self, seed):
        super().__init__(seed)
        self.WORKDIR.mkdir(exist_ok=True)
        self.config = self.WORKDIR / f"cli-experiment-{os.getpid()}.cfg"
        self.config.write_text(f"q=3\nn=2\nm=3\ntau=0.5\nepsilon=0.1\ntrials=20\nseed={seed}\n")

    def close(self):
        self.config.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.WORKDIR.rmdir()

    def cycle(self, index):
        ops = []
        for r in range(self.ROUNDS):
            ops += self._round(str(trial_seed(self.seed, index * self.ROUNDS + r) % (1 << 31)))
        s = str(trial_seed(self.seed, index) % (1 << 31))
        for q, m in ((5, 3), (4, 4)):
            argv = ["selfdual-basis", "--q", str(q), "--m", str(m), "--seed", s]
            ops.append(Op(" ".join(argv[:5]), lambda a=argv: cli_call(a), _is_self_dual_basis_output(q, m), False))
        return ops

    def _round(self, s):
        codes = {}

        def construct(key, argv):
            def run():
                codes[key] = out = cli_call(argv)
                return out

            return Op(" ".join(argv[:-2]), run, _exit_ok)

        def piped(cmd, key, check):
            return Op(f"{cmd} <{key}", lambda: cli_call([cmd], codes[key].split("\n", 1)[1]), check)

        return [
            construct("A", ["construct", "--q", "3", "--n", "2", "--m", "4", "--k", "3", "--seed", s]),
            piped("verify", "A", lambda out: out == "0\nOK\n"),
            piped("dual", "A", _exit_ok),
            construct("B", ["construct", "--repr", "vector", "--q", "4", "--n", "6", "--m", "3", "--k", "2", "--seed", s]),
            piped("verify", "B", lambda out: out == "0\nOK\n"),
            piped("dual", "B", _exit_ok),
            Op("ball --exact", lambda: cli_call(["ball", "--q", "2", "--n", "4", "--m", "6", "--r", "2", "--exact"]), _exit_ok),
            Op("ball --bound", lambda: cli_call(["ball", "--q", "3", "--n", "3", "--m", "5", "--tau", "0.5", "--bound"]), _exit_ok),
            Op(
                "roots --sample GF(16)",
                lambda: cli_call(["roots", "--q", "2", "--ext-m", "4", "--nvars", "3", "--coeffs", "1,2,3,4,5,6", "--sample", "--nonzero", "--seed", s]),
                _root_output_ok,
            ),
            Op("experiment q=3", lambda: cli_call(["experiment", "--config", str(self.config)]), _exit_ok),
        ]


WORKLOADS = {w.name: w for w in (GoldenExperiment, BallRoute, ConstructSweep, CliScript)}

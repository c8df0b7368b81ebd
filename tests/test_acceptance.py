"""Acceptance suite: one pass/fail line per criterion on the real stdout.

Every criterion re-derives its expected values from an independent oracle
(exhaustive scans, closed-form identities, or frozen seeded goldens) and
enforces its runtime budget.
"""

import itertools
import pathlib
import random
import time

import pytest

from oracles import ball_words, check_gb_bounds, gb_recurrence_holds, iter_roots_brute, lemma1_pair_identity, translate
from sorank import linalg
from sorank.balls import ball_size_exact, iter_rref, sample_from_ball
from sorank.construct import max_so_dimension, so_code
from sorank.experiments import ExperimentConfig, list_size_at, max_list_size_experiment
from sorank.fields import ext_field, field_from_q, find_self_dual_basis, self_dual_basis_exists
from sorank.quadforms import (
    QuadraticForm,
    iter_roots,
    rank_of_form,
    sample_root,
)
from sorank.words import (
    LinearCode,
    MatrixWord,
    VectorWord,
    dual,
    is_self_orthogonal,
    rank_distance,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, on the real stdout despite capture."""

    def _report(num, label, ok, detail=""):
        line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_1_root_count_lemma(report):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for q in (2, 3, 5, 4):
        F = field_from_q(q)
        rng = random.Random(1000 + q)
        for _ in range(220):
            N = rng.randrange(1, 5)
            ncoef = N * (N + 1) // 2
            f = QuadraticForm(N, tuple(rng.randrange(q) for _ in range(ncoef)), F)
            brute = sum(1 for _ in iter_roots_brute(f))
            r = rank_of_form(f)
            if r == 0:
                ok &= brute == q**N
            elif r % 2 == 1:
                ok &= brute == q ** (N - 1)
            else:
                spread = (q - 1) * q ** (N - r // 2 - 1)
                ok &= brute in (q ** (N - 1) - spread, q ** (N - 1) + spread)
            checked += 1
    elapsed = time.monotonic() - t0
    report(1, "root-count lemma", ok and elapsed < 10, f"{checked} forms, {elapsed:.2f}s")


def test_criterion_2_gaussian_binomial_bounds(report):
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5):
        for n in range(11):
            for k in range(n + 1):
                ok &= check_gb_bounds(n, k, q)
                ok &= gb_recurrence_holds(n, k, q)
    elapsed = time.monotonic() - t0
    report(2, "Gaussian binomial bounds", ok and elapsed < 1, f"{elapsed:.3f}s")


def test_criterion_3_ball_cross_oracle(report):
    t0 = time.monotonic()
    ok = ball_size_exact(2, 2, 2, 1) == 10
    for q in (2, 3):
        F = field_from_q(q)
        for n, m in ((2, 2), (2, 3), (3, 3)):
            # independent oracle: full-space scan grouped by rank
            by_rank = [0] * (n + 1)
            for flat in itertools.product(range(q), repeat=n * m):
                rows = [list(flat[i * m : (i + 1) * m]) for i in range(n)]
                by_rank[linalg.rank(F, rows)] += 1
            for r in range(n + 1):
                want = sum(by_rank[: r + 1])
                ok &= ball_size_exact(n, m, q, r) == want
                members = set(ball_words(F, n, m, r))
                ok &= len(members) == want
    elapsed = time.monotonic() - t0
    report(3, "ball counting cross-oracle", ok and elapsed < 30, f"{elapsed:.2f}s")


def _check_so_code(code):
    D = dual(code)
    if not is_self_orthogonal(code):
        return False
    return all(D.contains(w) for w in code.basis)


def test_criterion_4_construction_validity(report):
    t0 = time.monotonic()
    ok = True
    runs = 0
    for q in (2, 3, 4):
        field = field_from_q(q)
        for n in range(1, 17):
            for m in range(n, 17):
                if n * m > 16:
                    continue
                for k in range(1, max_so_dimension(n * m) + 1):
                    for seed in range(100):
                        code = so_code(field, n, m, k, random.Random(seed))
                        ok &= code.k == k and _check_so_code(code)
                        runs += 1
        for m in (2, 3):
            ext = ext_field(q, m)
            for n in range(1, 9):
                for k in range(1, max_so_dimension(n) + 1):
                    for seed in range(100):
                        code = so_code(field, n, m, k, random.Random(seed), repr="vector", ext=ext)
                        ok &= code.k == k and _check_so_code(code)
                        runs += 1
    elapsed = time.monotonic() - t0
    report(4, "construction validity", ok and elapsed < 120, f"{runs} runs, {elapsed:.1f}s")


def test_criterion_5_lemma1_correspondence(report):
    ok = True
    for q, m, n in ((2, 2, 3), (3, 3, 2)):
        ext = ext_field(q, m)
        basis = find_self_dual_basis(ext)
        ok &= ext.is_self_dual_basis(basis)
        rng = random.Random(500 + q)
        for _ in range(10_000):
            a = VectorWord(tuple(rng.randrange(ext.order) for _ in range(n)), ext)
            b = VectorWord(tuple(rng.randrange(ext.order) for _ in range(n)), ext)
            lhs, rhs = lemma1_pair_identity(a, b, basis)
            ok &= lhs == rhs
    for q in (2, 3, 4, 5):
        for m in range(1, 5):
            found = find_self_dual_basis(ext_field(q, m))
            ok &= (found is not None) == self_dual_basis_exists(q, m)
    report(5, "Lemma 1 correspondence", ok)


def test_criterion_6_list_size_oracle_equivalence(report):
    t0 = time.monotonic()
    F = field_from_q(2)
    codes = []
    for k in (0, 1, 2):
        for rows in iter_rref(F, k, 4):
            codes.append(LinearCode(rows, F, 2, 2))
    centers = [
        MatrixWord((tuple(flat[:2]), tuple(flat[2:])), F)
        for flat in itertools.product(range(2), repeat=4)
    ]
    ok = len(codes) == 1 + 15 + 35 and len(centers) == 16
    for code in codes:
        for center in centers:
            for r in range(3):
                via_code = sum(1 for w in code.iter_words() if rank_distance(center, w) <= r)
                via_ball = sum(1 for e in ball_words(F, 2, 2, r) if code.contains(MatrixWord(translate(center, e), F)))
                ok &= via_code == via_ball == list_size_at(code, code.flat(center), r)
    elapsed = time.monotonic() - t0
    report(6, "list-size oracle equivalence", ok and elapsed < 60, f"{len(codes)} codes, {elapsed:.1f}s")


def test_criterion_7_seeded_experiment_golden(report):
    cfg = ExperimentConfig(2, 2, 4, 0.5, 0.1, 10_000, seed=42)
    rep = max_list_size_experiment(cfg)
    got = rep.to_csv()
    want = (GOLDEN / "maxlist_q2n2m4_seed42.csv").read_text()
    ok = got == want
    # frozen empirical maximum; any regression fails the suite
    ok &= rep.max_list_size == 4
    report(7, "seeded experiment golden", ok, f"max_list_size={rep.max_list_size}")


def test_criterion_8_sampling_uniformity(report):
    from scipy import stats

    rng = random.Random(2024)
    F2 = field_from_q(2)
    members = list(ball_words(F2, 2, 2, 1))
    counts = {w: 0 for w in members}
    for _ in range(100_000):
        counts[sample_from_ball(F2, 2, 2, 1, rng)] += 1
    p_ball = stats.chisquare(list(counts.values())).pvalue

    F5 = field_from_q(5)
    f = QuadraticForm(2, (1, 0, 1), F5)
    roots = list(iter_roots(f, nonzero=True))
    root_counts = {r: 0 for r in roots}
    for _ in range(100_000):
        root_counts[sample_root(f, rng, nonzero=True)] += 1
    p_root = stats.chisquare(list(root_counts.values())).pvalue

    ok = len(roots) == 8 and p_ball > 0.001 and p_root > 0.001
    report(8, "sampling uniformity", ok, f"p_ball={p_ball:.3f}, p_root={p_root:.3f}")

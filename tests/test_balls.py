import itertools
import random

import pytest

from oracles import check_gb_bounds, gb_recurrence_holds
from sorank import linalg
from sorank.balls import (
    BallSpec,
    ball_size_exact,
    ball_size_upper_bound,
    enumerate_ball,
    gaussian_binomial,
    iter_full_colrank,
    iter_rref,
    rank_stratum_count,
    sample_from_ball,
)
from sorank.errors import ParamError
from sorank.fields import field_from_q
from sorank.words import MatrixWord, rank_distance

F2 = field_from_q(2)
F3 = field_from_q(3)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    with pytest.raises(ParamError):
        gaussian_binomial(3, 4, 2)


def test_gaussian_binomial_counts_subspaces():
    # oracle: count distinct row spaces of rank-k matrices over GF(2)^4
    for k in (1, 2):
        spaces = {len(list(iter_rref(F2, k, 4)))}
        assert spaces == {gaussian_binomial(4, k, 2)}


def test_gb_symmetry_and_recurrence():
    for q in (2, 3, 4, 5):
        for n in range(11):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                assert gb_recurrence_holds(n, k, q)
                assert check_gb_bounds(n, k, q)


def test_rank_stratum_examples():
    assert rank_stratum_count(2, 2, 2, 0) == 1
    assert rank_stratum_count(2, 2, 2, 1) == 9
    assert rank_stratum_count(2, 2, 2, 2) == 6
    assert sum(rank_stratum_count(2, 2, 2, i) for i in range(3)) == 16


def test_rank_stratum_matches_brute_force():
    for q, n, m in ((2, 2, 3), (3, 2, 2)):
        F = field_from_q(q)
        counts = {}
        for flat in itertools.product(range(q), repeat=n * m):
            rows = [list(flat[i * m : (i + 1) * m]) for i in range(n)]
            r = linalg.rank(F, rows)
            counts[r] = counts.get(r, 0) + 1
        for i in range(min(n, m) + 1):
            assert counts.get(i, 0) == rank_stratum_count(n, m, q, i)


def test_ball_size_examples():
    assert ball_size_exact(2, 2, 2, 1) == 10
    assert ball_size_exact(2, 2, 2, 2) == 16
    assert ball_size_exact(2, 2, 2, 0) == 1
    with pytest.raises(ParamError):
        ball_size_exact(3, 2, 2, 1)  # needs n <= m


def test_ball_upper_bound_dominates():
    import math

    for q in (2, 3):
        for n, m in ((2, 2), (2, 3), (3, 3)):
            for tau in (0.3, 0.5, 0.7):
                r = int(math.floor(tau * n))
                exact = ball_size_exact(n, m, q, r)
                assert math.log(exact, q) <= ball_size_upper_bound(n, m, q, tau) + 1e-9


def test_ballspec_size_and_radius_range():
    c = MatrixWord.zero(F2, 2, 2)
    spec = BallSpec(c, 1)
    assert spec.params == (2, 2, 2) and spec.size() == 10
    with pytest.raises(ParamError):
        BallSpec(c, 3)


def test_iter_factorizations_count():
    assert sum(1 for _ in iter_rref(F2, 1, 2)) == 3
    assert sum(1 for _ in iter_full_colrank(F2, 2, 1)) == 3
    # rank-1 stratum of 2x2 over GF(2): 3 * 3 = 9
    assert rank_stratum_count(2, 2, 2, 1) == 9


@pytest.mark.parametrize("q,n,m,r", [(2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1)])
def test_enumerate_ball_matches_exact_count(q, n, m, r):
    F = field_from_q(q)
    center = MatrixWord(tuple(tuple((i + j) % q for j in range(m)) for i in range(n)), F)
    spec = BallSpec(center, r)
    members = list(enumerate_ball(spec))
    assert len(members) == len(set(members)) == ball_size_exact(n, m, q, r)
    assert all(rank_distance(center, w) <= r for w in members)


def test_enumerate_ball_matches_full_scan():
    center = MatrixWord(((1, 0), (1, 1)), F2)
    spec = BallSpec(center, 1)
    got = set(enumerate_ball(spec))
    want = set()
    for flat in itertools.product(range(2), repeat=4):
        w = MatrixWord((tuple(flat[:2]), tuple(flat[2:])), F2)
        if rank_distance(center, w) <= 1:
            want.add(w)
    assert got == want


def test_sample_from_ball_stays_inside():
    rng = random.Random(17)
    center = MatrixWord(((1, 2, 0), (0, 1, 1)), F3)
    spec = BallSpec(center, 1)
    for _ in range(500):
        w = sample_from_ball(spec, rng)
        assert rank_distance(center, w) <= 1


def test_sample_from_ball_uniformity():
    from scipy import stats

    spec = BallSpec(MatrixWord.zero(F2, 2, 2), 1)
    members = list(enumerate_ball(spec))
    rng = random.Random(23)
    counts = {w: 0 for w in members}
    for _ in range(20_000):
        counts[sample_from_ball(spec, rng)] += 1
    assert stats.chisquare(list(counts.values())).pvalue > 0.001

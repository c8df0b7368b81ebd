import hashlib
import itertools
import random
from collections import Counter

import pytest

from oracles import ball_words, check_gb_bounds, gb_recurrence_holds, iter_full_colrank, translate
from sorank import linalg
from sorank.balls import (
    ball_size_exact,
    ball_size_upper_bound,
    enumerate_ball,
    gaussian_binomial,
    iter_rref,
    rank_stratum_count,
    sample_from_ball,
)
from sorank.errors import ParamError, SizeError
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
    assert [rank_stratum_count(3, 2, 2, i) for i in range(4)] == [1, 21, 42, 0]


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
    assert ball_size_exact(3, 2, 2, 1) == 22  # a tall shape: 1 + 7 * 3
    assert [ball_size_exact(3, 1, 3, r) for r in range(4)] == [1, 27, 27, 27]


def test_ball_upper_bound_dominates():
    import math

    for q in (2, 3):
        for n, m in ((2, 2), (2, 3), (3, 3), (3, 2), (4, 2), (3, 1)):
            for tau in (0.3, 0.5, 0.7):
                r = int(math.floor(tau * n))
                exact = ball_size_exact(n, m, q, r)
                assert math.log(exact, q) <= ball_size_upper_bound(n, m, q, tau) + 1e-9


def test_ball_size_and_radius_range():
    assert sum(1 for _ in ball_words(F2, 2, 2, 1)) == ball_size_exact(2, 2, 2, 1) == 10
    for r in (-1, 3):
        with pytest.raises(ParamError):
            next(enumerate_ball(F2, 2, 2, r))
        with pytest.raises(ParamError):
            sample_from_ball(F2, 2, 2, r, random.Random(0))


def test_iter_factorizations_count():
    # X = A * B is a bijection from (full-column-rank n x i factor A, rank-i
    # RREF matrix B) onto the n x m matrices of rank i, as ball_words uses it.
    assert sum(1 for _ in iter_rref(F2, 1, 2)) == 3
    assert sum(1 for _ in iter_full_colrank(F2, 2, 1)) == 3
    for q, n, m in ((2, 2, 2), (2, 3, 2), (2, 2, 4), (3, 2, 3)):
        F = field_from_q(q)
        for i in range(min(n, m) + 1):
            pairs = sum(1 for _ in iter_rref(F, i, m)) * sum(1 for _ in iter_full_colrank(F, n, i))
            assert pairs == rank_stratum_count(n, m, q, i)


@pytest.mark.parametrize("q,n,m,r", [(2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1)])
def test_enumerate_ball_matches_exact_count(q, n, m, r):
    F = field_from_q(q)
    center = MatrixWord(tuple(tuple((i + j) % q for j in range(m)) for i in range(n)), F)
    members = [translate(center, e) for e in ball_words(F, n, m, r)]
    assert len(members) == len(set(members)) == ball_size_exact(n, m, q, r)
    assert all(rank_distance(center, MatrixWord(w, F)) <= r for w in members)


def _lattice_coefficients(q, s, r):
    """c_w = sum_{d <= r - w} (-1)^d q^(d(d-1)/2) [s - w, d]_q, w = 0..r."""
    return [
        sum((-1) ** d * q ** (d * (d - 1) // 2) * gaussian_binomial(s - w, d, q) for d in range(r - w + 1))
        for w in range(r + 1)
    ]


@pytest.mark.parametrize("q,n,m,r", [(2, 3, 8, 1), (2, 5, 5, 1), (3, 2, 3, 2), (2, 4, 2, 2), (2, 2, 2, 0)])
def test_enumerate_ball_yields_one_block_per_rref(q, n, m, r):
    # One term (W, c_W) per RREF matrix W of rank w <= min(r, s), s = min(n, m),
    # in iter_rref order over GF(q)^s, for each w whose coefficient is
    # nonzero: 8 and 32 terms at the two ball-route shapes, one (the zero
    # subspace) at r = 0, and only the whole space, with c = 1, once r
    # reaches s.
    F = field_from_q(q)
    s = min(n, m)
    coeffs = _lattice_coefficients(q, s, min(r, s))
    terms = list(enumerate_ball(F, n, m, r))
    assert terms == [(W, c) for w, c in enumerate(coeffs) if c for W in iter_rref(F, w, s)]
    assert all(c for _, c in terms)
    assert len(terms) == {(2, 3, 8, 1): 8, (2, 5, 5, 1): 32}.get((q, n, m, r), 1)
    if r >= s:
        assert terms == [([[int(i == j) for j in range(s)] for i in range(s)], 1)]


def _space(F, rows):
    """The RREF rows of the column space of an n x m matrix with n <= m, and
    of its row space when m < n: the space ``enumerate_ball`` reads."""
    vectors = list(zip(*rows)) if len(rows) <= len(rows[0]) else rows
    R, _ = linalg.rref(F, vectors)
    return tuple(map(tuple, R))


@pytest.mark.parametrize("q,limit", [(2, 12), (3, 6)])
def test_lattice_terms_sum_to_the_rank_indicator(q, limit):
    # For every n x m matrix X with nm <= limit, both orientations, and every
    # radius r: sum_W c_W [space(X) in W] = [rank X <= r].  Matrices with
    # the same space share the sum, which is computed once per space.
    F = field_from_q(q)
    checked = 0
    for n, m in ((n, m) for n in range(1, limit + 1) for m in range(1, limit // n + 1)):
        spaces = Counter(_space(F, flat) for flat in itertools.product(itertools.product(range(q), repeat=m), repeat=n))
        assert sum(spaces.values()) == q ** (n * m)
        for r in range(n + 1):
            terms = list(enumerate_ball(F, n, m, r))
            for U in spaces:
                inside = sum(c for W, c in terms if linalg.rank(F, [*W, *U]) == len(W))
                assert inside == (len(U) <= r), (n, m, r, U)
                checked += spaces[U]
    assert checked == sum(q ** (n * m) * (n + 1) for n in range(1, limit + 1) for m in range(1, limit // n + 1))


@pytest.mark.parametrize("q,side", [(2, 6), (3, 5), (4, 4), (5, 4)])
def test_lattice_terms_count_the_ball(q, side):
    # Each W of dimension w holds q^(max(n, m) * w) matrices with space in W.
    F = field_from_q(q)
    for n, m in itertools.product(range(1, side + 1), repeat=2):
        for r in range(n + 1):
            total = sum(c * q ** (max(n, m) * len(W)) for W, c in enumerate_ball(F, n, m, r))
            assert total == ball_size_exact(n, m, q, r), (n, m, r)


def test_enumerate_ball_matches_full_scan():
    center = MatrixWord(((1, 0), (1, 1)), F2)
    got = {translate(center, e) for e in ball_words(F2, 2, 2, 1)}
    want = set()
    for flat in itertools.product(range(2), repeat=4):
        w = MatrixWord((tuple(flat[:2]), tuple(flat[2:])), F2)
        if rank_distance(center, w) <= 1:
            want.add(w.entries)
    assert got == want


def test_sample_from_ball_stays_inside():
    rng = random.Random(17)
    center = MatrixWord(((1, 2, 0), (0, 1, 1)), F3)
    for _ in range(500):
        w = MatrixWord(translate(center, sample_from_ball(F3, 2, 3, 1, rng)), F3)
        assert rank_distance(center, w) <= 1


def test_sample_from_ball_uniformity():
    from scipy import stats

    members = list(ball_words(F2, 2, 2, 1))
    rng = random.Random(23)
    counts = {w: 0 for w in members}
    for _ in range(20_000):
        counts[sample_from_ball(F2, 2, 2, 1, rng)] += 1
    assert stats.chisquare(list(counts.values())).pvalue > 0.001


@pytest.mark.parametrize("q,n,m", [(q, n, m) for q in (2, 3) for n, m in ((3, 2), (4, 2), (3, 1))])
def test_tall_balls_match_full_scan(q, n, m):
    # Strata above m are empty, and the ball at every radius up to n, also
    # above m, is the set of matrices of rank <= r, each enumerated once.
    F = field_from_q(q)
    flats = itertools.product(range(q), repeat=n * m)
    ranks = {rows: linalg.rank(F, rows) for rows in (tuple(f[i * m : (i + 1) * m] for i in range(n)) for f in flats)}
    for i in range(n + 1):
        assert rank_stratum_count(n, m, q, i) == sum(rk == i for rk in ranks.values())
    for r in range(n + 1):
        members = list(ball_words(F, n, m, r))
        assert len(members) == ball_size_exact(n, m, q, r) == sum(rk <= r for rk in ranks.values())
        assert set(members) == {rows for rows, rk in ranks.items() if rk <= r}


def test_sample_from_ball_tall_shapes():
    from scipy import stats

    # Uniform over the 22 words of the 3 x 2 ball of radius 1 over GF(2).
    members = list(ball_words(F2, 3, 2, 1))
    rng = random.Random(29)
    counts = {w: 0 for w in members}
    for _ in range(4_400):
        counts[sample_from_ball(F2, 3, 2, 1, rng)] += 1
    assert len(counts) == 22 and stats.chisquare(list(counts.values())).pvalue > 0.001
    # Radii up to n = 3, above m: at 3 the draw is from the whole space.
    for r in (1, 2, 3):
        for _ in range(100):
            assert linalg.rank(F3, sample_from_ball(F3, 3, 2, r, rng)) <= r


# (q, n, m, r) -> sha256 of the repr of three lists: iter_full_colrank(F, n, r)
# as tuples of column tuples, the rows of every word of the ball around a center in
# enumeration order, and the rows of 300 draws from that ball with
# random.Random(1000q + 100n + 10m + r).  The center's entry (i, j) is
# (i + 2j) mod q, added to each word around zero that ball_words and
# sample_from_ball give.  Recorded while the balls had a center argument and
# enumerate_ball yielded words (ball_words now lists them), the full-rank
# factors came from a recursive span search and the RREF shapes and weighted
# draws were written out separately in each caller.
BALL_STREAMS = {
    (2, 1, 1, 0): (
        "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
        "4ac279b94d8c735ee76858c2b50da00526af1f31a8c2e829581bbbeae1fea620",
        "2a3241af9c6575288de102583c920278aac065494904e1bb79386b62b2d9462c",
    ),
    (2, 2, 2, 0): (
        "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
        "1cfa10e55370445f90dcc93c9acae5e8341842d46ae32aeb104ec8cdbca1a2bc",
        "ed1ca8b48bb0796ba145172961edbf90f9de93675c5f43c9ca5ef8ad12e4530a",
    ),
    (2, 2, 2, 1): (
        "1ca2f26f3823786ff8131c3a29aedaf4fd815f106fbf91ccf6d7603dea979167",
        "d60d9264cb847b2090a9dd0c59ca698881ba68df73f9c4ee15b1e1c2e6b8e2b9",
        "5d6862dde156bfbad2ee12345a617e240a1e3bcdce6ac77bb9703aa4cfd9056b",
    ),
    (2, 2, 3, 2): (
        "c253f5c6fc7202a8dca6fa3b2d46787d4a941794cbb770944bd223b4454eca23",
        "7bd135c7b7582d3c683f132d5bda83519f58472feeda5fb67ca3ef364ede84cc",
        "e7d9557a73a73b4a4d09b3c03b8114bf273d6159d53927507b07f0dd43324a15",
    ),
    (2, 3, 3, 1): (
        "0639e34358e1c3cc27c32e47547c7400af5c5220b9530f3daf295decc347d3c7",
        "4da2c5c8a026d36fdd94663ab06952c50699db8b21a2c7429a4bf003d7283cb7",
        "bc30abb560612d59e63f65d01d5de814967ff5e9bb1c90109f55083ad26466b5",
    ),
    (2, 3, 4, 2): (
        "5d5cb934ac001c8c45daf2300e2d6b5d1674c135d42ef5b8987ed6433330a089",
        "287cf902233dfbde3bddab0a2a1fbb71a42645fa7906649b6fe2529b196c4a53",
        "0c86d49f586dc5775440507b562033ee589b121493f22f446890aa6f8175c124",
    ),
    (3, 2, 2, 1): (
        "4c3f447ad205c9ef0e5410b398744da264ab8c2ce2ad0bfad8e5d07e513844db",
        "3d5c635dcb3efff1fbbb17de9cbca0311f3441d2dfd7548d423dfe5c0acad57b",
        "5b03ac345d84d79f177eab2d7d11eda9df2dce4b49c23099095bd1fac23c7052",
    ),
    (3, 2, 3, 2): (
        "17b52ae1bdc9d5c1e5301e876ae0adcdb5384d9c47897521552efffb009d1c03",
        "fe371908e9c6c7e7bef343e2dc82dde42ee2c40bae8b89d4393d43b82fa21d81",
        "1ec8cee3db860ac7f26971f38287b9cd8046b0d6227b9b480f06b07999e588db",
    ),
    (3, 3, 3, 3): (
        "d049f5d85546269395ab6e405bde053a3ed5a03fafc7eae1faf7169467590489",
        "24586381ce4970914fdd6a6acb0ef265c31cacf86383aa8dd20bb02ff2326ab7",
        "45a7366375c55edcc4e3ad79eb2ed0848f7edb7f67f230280ff30e80143ea377",
    ),
    (4, 2, 2, 1): (
        "708609fc22b96ad5fe4fa1803e4e8ef751f606ca311a3124813fac4e41daa7ac",
        "628be91b952fb0cdf697488a941d9d4ec82b4203538daa246e72c60d8f6dc4c0",
        "5d75d8c03d4f39c543aa4f71813db4277115614dad3ee94464367a336c244058",
    ),
    (4, 2, 3, 2): (
        "44566ecb52521bb0bb0a38144c703f460283bd20b3b90a39766842e3ad2f32ff",
        "159bb5c6db2412951e319d517f3bb6c8888a8774c90d765bd1d4d97d705abdeb",
        "445980d86d7c0051cf8b7f62c0459bbd1f96a62af009b5806f5e3d6d34ebbd0b",
    ),
    (5, 2, 2, 1): (
        "1b788da41dd3a00d6d608a4604c9bf6952eabd9fe38d3ab26574c07ab420384e",
        "42c576c22fb8685acbb1c5e4f3989b62a1833b3e142e9bedeb0f84117627d16b",
        "fa9f00377cbdda1e0dec3fed22158789e143165038fad2ab98fdfa20275c49d8",
    ),
}


@pytest.mark.parametrize("q,n,m,r", sorted(BALL_STREAMS))
def test_ball_streams_pinned(q, n, m, r):
    F = field_from_q(q)
    center = MatrixWord(tuple(tuple((i + 2 * j) % q for j in range(m)) for i in range(n)), F)
    rng = random.Random(1000 * q + 100 * n + 10 * m + r)
    outputs = (
        [tuple(map(tuple, cols)) for cols in iter_full_colrank(F, n, r)],
        [translate(center, e) for e in ball_words(F, n, m, r)],
        [translate(center, sample_from_ball(F, n, m, r, rng)) for _ in range(300)],
    )
    got = tuple(hashlib.sha256(repr(out).encode()).hexdigest() for out in outputs)
    assert got == BALL_STREAMS[q, n, m, r]


# Each argument check with the error class it raises.
BAD_ARGUMENTS = {
    "stratum-rank-above-min": (lambda: rank_stratum_count(2, 3, 2, 3), ParamError),
    "stratum-rank-negative": (lambda: rank_stratum_count(2, 3, 2, -1), ParamError),
    "bound-tau-zero": (lambda: ball_size_upper_bound(2, 3, 2, 0.0), ParamError),
    "bound-tau-one": (lambda: ball_size_upper_bound(2, 3, 2, 1.0), ParamError),
    # [10, 5]_2 alone is 109,221,651 subspaces.
    "enumerate-over-2^22": (lambda: next(enumerate_ball(F2, 10, 10, 5)), SizeError),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()

import hashlib
import itertools
import math
import operator
import pathlib
import random
import statistics
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    ball_overlaps,
    ball_words,
    code_star_law,
    list_size_law,
    mat_to_vec,
    rank_distribution,
    so_code_law,
    solve_in_span,
    translate,
    vec_to_mat,
    zero_word,
)
from sorank import experiments, linalg
from sorank.balls import ENUM_LIMIT, ball_size_exact, enumerate_ball, gaussian_binomial, iter_rref, sample_from_ball
from sorank.construct import max_so_dimension, so_code, uniform_linear_code
from sorank.errors import ParamError, SizeError
from sorank.experiments import (
    EventEstimate,
    ExperimentConfig,
    dimension_from_rate,
    gv_rate,
    lemma47_event_estimate,
    lemma48_bound,
    lemma48_event_estimate,
    list_size_at,
    max_list_size_experiment,
    span_ball_overlap,
    splitmix64,
    trial_rng,
    trial_seed,
    wilson_interval,
)
from sorank.fields import ExtField, ext_field, field_from_q
from sorank.words import LinearCode, MatrixWord, VectorWord, dual, is_self_orthogonal, rank_distance

F2 = field_from_q(2)


def test_gv_rate_examples():
    assert gv_rate(0.5, 0.5, 0.1) == pytest.approx(0.275)
    assert gv_rate(0.5, 1.0, 0.0) == pytest.approx(0.25)
    with pytest.raises(ParamError):
        gv_rate(0.0, 0.5, 0.1)
    with pytest.raises(ParamError):
        gv_rate(0.5, 0.5, -0.1)


def test_dimension_from_rate():
    assert dimension_from_rate(0.275, 2, 4) == 2  # floor(0.275 * 8)
    assert dimension_from_rate(0.49, 2, 2) == 1  # floor(1.96) = 1 = cap
    assert dimension_from_rate(0.45, 8, 1, repr="vector") == 3
    with pytest.raises(ParamError):
        dimension_from_rate(0.6, 2, 2)
    with pytest.raises(ParamError):
        dimension_from_rate(0.25, 2, 2, repr="weird")
    # k is floor(R * m * n): here that product is 10.999..., while R * 30 is 11.0.
    assert dimension_from_rate(gv_rate(0.2, 5 / 6, 0.3), 5, 6) == 10


def test_trial_streams_are_deterministic_and_distinct():
    assert splitmix64(0) == splitmix64(0)
    seeds = [trial_seed(5, t) for t in range(1000)]
    assert len(set(seeds)) == 1000
    assert trial_rng(5, 3).random() == trial_rng(5, 3).random()


def test_list_size_at_small_oracle():
    # full ambient space code: list size is the whole ball
    full = LinearCode([[1 if i == j else 0 for j in range(4)] for i in range(4)], F2, 2, 2)
    center = [0, 0, 0, 0]
    assert list_size_at(full, center, 1) == 10
    assert list_size_at(full, center, 2) == 16
    zero = LinearCode([], F2, 2, 2)
    assert list_size_at(zero, center, 1) == 1
    assert list_size_at(zero, [1, 0, 0, 1], 1) == 0


# Codes whose list sizes are checked against the code-scan oracle.  Each case
# is (q, n, m, k, ext, ball_radii): ext is None for a matrix code, else the
# extension of a vector code (m = ext.m), and ball_radii are exactly the radii
# at which |C| exceeds the ball, so list_size_at must take the lattice route.
MATRIX_CASES = {
    "GF2-2x3-k5": (2, 2, 3, 5, None, (0, 1)),
    "GF3-2x3-k5": (3, 2, 3, 5, None, (0, 1)),
    "GF4-2x3-k5": (4, 2, 3, 5, None, (0, 1)),
    "GF2-2x2-k0": (2, 2, 2, 0, None, ()),
    "GF2-2x2-full": (2, 2, 2, 4, None, (0, 1)),
    "GF3-2x2-full": (3, 2, 2, 4, None, (0, 1)),
    "GF2-3x4-k11": (2, 3, 4, 11, None, (0, 1, 2)),  # r = 2 reads subspaces of dimension 2
}
VECTOR_CASES = {
    "GF4-n2-k1": (2, 2, 2, 1, ext_field(2, 2), (0,)),
    "GF4-n2-full": (2, 2, 2, 2, ext_field(2, 2), (0, 1)),
    "GF8-n3-k2": (2, 3, 3, 2, ext_field(2, 3), (0, 1)),
    "GF8-n3-full": (2, 3, 3, 3, ext_field(2, 3), (0, 1, 2)),
    "GF9-n2-k1": (3, 2, 2, 1, ext_field(3, 2), (0,)),
    "GF9-n2-full": (3, 2, 2, 2, ext_field(3, 2), (0, 1)),
    "GF8-n2-full": (2, 2, 3, 2, ext_field(2, 3), (0, 1)),
    "GF4-n2-k0": (2, 2, 2, 0, ext_field(2, 2), ()),
}
# The benchmark's ball-route shapes: a 3 x 8 matrix code with k = 11 and a
# GF(32)-linear code of length 5 with k = 2.  Radii whose ball is too large
# to spell out are skipped.
BALL_ROUTE_CASES = {
    "GF2-3x8-k11": (2, 3, 8, 11, None, (0, 1)),
    "GF32-n5-k2": (2, 5, 5, 2, ext_field(2, 5), (0, 1)),
}
# Vector codes longer than m, whose matrix pictures are tall: their balls
# are counted over the row spaces in GF(q)^m, and the last one
# takes the lattice route at radius 1.
TALL_VECTOR_CASES = {
    "GF4-n5-k2": (2, 5, 2, 2, ext_field(2, 2), (0,)),
    "GF9-n4-k1": (3, 4, 2, 1, ext_field(3, 2), (0,)),
    "GF4-n5-k4": (2, 5, 2, 4, ext_field(2, 2), (0, 1)),
}
SPELL_OUT_LIMIT = 5000
# Route-agreement cases with the seeds of the codes each is checked on.
ROUTE_CASES = {
    **{name: (case, (31,)) for name, case in MATRIX_CASES.items()},
    **{name: (case, (31, 32)) for name, case in BALL_ROUTE_CASES.items()},
    **{name: (case, (31,)) for name, case in TALL_VECTOR_CASES.items()},
}
# Every q = 2 shape (n, m, k) of the criterion-4 construction grid, matrix
# and vector, for the packed GF(2) membership test.
GF2_GRID_CASES = {
    **{
        f"grid-GF2-{n}x{m}-k{k}": (2, n, m, k, None, None)
        for n in range(1, 17)
        for m in range(n, 17)
        if n * m <= 16
        for k in range(1, max_so_dimension(n * m) + 1)
    },
    **{
        f"grid-GF{2**m}-n{n}-k{k}": (2, n, m, k, ext_field(2, m), None)
        for m in (2, 3)
        for n in range(1, 9)
        for k in range(1, max_so_dimension(n) + 1)
    },
}


def _random_word(code, rng):
    if code.repr == "matrix":
        rows = tuple(tuple(rng.randrange(code.q) for _ in range(code.m)) for _ in range(code.n))
        return MatrixWord(rows, code.field)
    return VectorWord(tuple(rng.randrange(code.ext.order) for _ in range(code.n)), code.ext)


def _random_code(q, n, m, k, ext, rng):
    """k independent uniform words over the linearity field."""
    return uniform_linear_code(field_from_q(q), n, m, k, rng, repr="matrix" if ext is None else "vector", ext=ext)


def _check_routes_agree(case, monkeypatch, seeds=(31,)):
    """At every radius whose ball has at most SPELL_OUT_LIMIT words,
    list_size_at equals the code scan, and takes the lattice route exactly at
    ``ball_radii``; the ball scan spelled out (enumerate the ball, test
    membership) equals the code scan at the other radii too.  One code per
    seed, four centers per code.  The spy records a ball when its terms are
    first iterated, as a traced run counts a generator call."""
    *params, ball_radii = case
    spans = []

    def spy(field, n, m, radius):
        spans.append(radius)
        yield from enumerate_ball(field, n, m, radius)

    monkeypatch.setattr(experiments, "enumerate_ball", spy)
    for seed in seeds:
        rng = random.Random(seed)
        code = _random_code(*params, rng)
        words = list(code.iter_words())
        radii = [r for r in range(code.n + 1) if ball_size_exact(code.n, code.m, code.q, r) <= SPELL_OUT_LIMIT]
        centers = [_random_word(code, rng) for _ in range(3)] + [rng.choice(words)]
        for c in centers:
            ball_center = vec_to_mat(c) if code.repr == "vector" else c
            y, dists = code.flat(c), [rank_distance(c, w) for w in words]
            for r in radii:
                by_code = sum(d <= r for d in dists)
                spans.clear()
                assert list_size_at(code, y, r) == by_code
                assert (len(words) > ball_size_exact(code.n, code.m, code.q, r)) == (r in ball_radii)
                assert bool(spans) == (r in ball_radii)
                ball = (translate(ball_center, e) for e in ball_words(code.field, code.n, code.m, r))
                by_ball = sum(1 for w in ball if code.contains(MatrixWord(w, code.field)))
                assert by_ball == by_code


def test_list_size_routes_build_no_word_per_scanned_word(monkeypatch):
    """Neither the lattice route (r = 1 here), one linear system per
    subspace, nor the code scan (r = 2) builds a word."""
    rng = random.Random(31)
    codes = [_random_code(*case[:-1], rng) for case in (MATRIX_CASES["GF3-2x3-k5"], VECTOR_CASES["GF8-n3-k2"])]
    centers = [_random_word(code, rng) for code in codes]
    built = []
    for cls in (MatrixWord, VectorWord):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, f=post_init: built.append(self) or f(self))
    for (code, center), r in itertools.product(zip(codes, centers), (1, 2)):
        ball_route = ball_size_exact(code.n, code.m, code.q, r) < code.lin_field().order ** code.k
        assert ball_route == (r == 1)
        list_size_at(code, code.flat(center), r)
        assert len(built) == 0


def test_experiments_build_no_word_per_trial(monkeypatch):
    """A trial hands list_size_at the flat center it drew, and
    span_ball_overlap the zero row: neither builds a word."""
    built = []
    for cls in (MatrixWord, VectorWord):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, f=post_init: built.append(self) or f(self))
    for repr_ in ("matrix", "vector"):
        max_list_size_experiment(ExperimentConfig(2, 2, 4, 0.5, 0.1, 20, seed=3, repr=repr_))
    span_ball_overlap(F2, [((1, 0), (0, 1)), ((0, 1), (1, 1))], 1)
    assert built == []


@pytest.mark.parametrize("case", TALL_VECTOR_CASES.values(), ids=TALL_VECTOR_CASES.keys())
def test_list_size_tall_vector_codes(case):
    *params, _ = case
    rng = random.Random(43)
    code = _random_code(*params, rng)
    words = list(code.iter_words())
    centers = [_random_word(code, rng) for _ in range(6)] + [rng.choice(words)]
    for c in centers:
        dists = [rank_distance(c, w) for w in words]
        for r in range(code.n + 1):
            assert list_size_at(code, code.flat(c), r) == sum(d <= r for d in dists)


PICTURE_CASES = {**MATRIX_CASES, **VECTOR_CASES}


@pytest.mark.parametrize("case", PICTURE_CASES.values(), ids=PICTURE_CASES.keys())
def test_rows_of_and_flat_map_the_pictures(case):
    """For every codeword x, a flat row over the linearity field, ``rows_of``
    gives its matrix picture (``vec_to_mat`` of its word, over the attached
    basis, for a vector code), and ``flat`` gives x back from its word in
    either picture (``mat_to_vec`` over GF(q^m) for a matrix code)."""
    *params, _ = case
    code = _random_code(*params, random.Random(47))
    F, rows = code.lin_field(), code.rows or [(0,) * code.width]
    for coeffs in itertools.product(range(F.order), repeat=code.k):
        x = linalg.combine(F, coeffs, rows)
        w = code.word(x)
        if code.repr == "matrix":
            matrix, other = w, mat_to_vec(w, ext_field(code.q, code.m))
        else:
            matrix = other = vec_to_mat(w)
        assert list(map(tuple, code.rows_of(x))) == list(matrix.entries)
        assert code.flat(w) == code.flat(other) == x


@pytest.mark.parametrize("case", PICTURE_CASES.values(), ids=PICTURE_CASES.keys())
def test_syndrome_is_zero_exactly_on_the_code(case):
    """Over every flat row y, the syndrome vanishes exactly when y is one of
    the codewords, listed by combining the code's rows."""
    *params, _ = case
    code = _random_code(*params, random.Random(53))
    F, rows = code.lin_field(), code.rows or [(0,) * code.width]
    codewords = {tuple(linalg.combine(F, c, rows)) for c in itertools.product(range(F.order), repeat=code.k)}
    for y in itertools.product(range(F.order), repeat=code.width):
        assert (not any(code.syndrome(y))) == (y in codewords), (code.rows, y)


def _span_words(F, words):
    """The distinct words of span{X_1..X_l}, spelled out by combination."""
    flats = [[v for row in w for v in row] for w in words]
    return {tuple(linalg.combine(F, c, flats)) for c in itertools.product(range(F.order), repeat=len(flats))}


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("n,m", ((2, 2), (2, 3), (3, 2)))
def test_span_ball_overlap_counts_distinct_span_words(q, n, m):
    """span_ball_overlap equals the count of distinct span words of rank
    <= r at every radius, for independent draws, dependent draws (one a
    combination of the others, or repeated) and all-zero draws."""
    F, rng = field_from_q(q), random.Random(53 + q)
    zero = tuple((0,) * m for _ in range(n))

    def draw():
        return tuple(tuple(rng.randrange(q) for _ in range(m)) for _ in range(n))

    for _ in range(3):
        X, Y = draw(), draw()
        a = rng.randrange(1, q)
        XaY = tuple(tuple(F.add(x, F.mul(a, y)) for x, y in zip(rx, ry)) for rx, ry in zip(X, Y))
        for words in ([X], [X, Y], [X, Y, XaY], [X, X], [zero], [zero, zero], [zero, X]):
            span = _span_words(F, words)
            for r in range(n + 1):
                want = sum(linalg.rank(F, [w[i * m : (i + 1) * m] for i in range(n)]) <= r for w in span)
                assert span_ball_overlap(F, words, r) == want


@pytest.mark.parametrize("case,seeds", ROUTE_CASES.values(), ids=ROUTE_CASES.keys())
def test_list_size_routes_agree(case, seeds, monkeypatch):
    _check_routes_agree(case, monkeypatch, seeds)


@pytest.mark.parametrize("case", VECTOR_CASES.values(), ids=VECTOR_CASES.keys())
def test_list_size_vector_repr(case, monkeypatch):
    _check_routes_agree(case, monkeypatch)


def _macwilliams_holds(code):
    """The rank-metric MacWilliams identity between the rank distributions A
    of the code and B of its dual (Delsarte 1978; Ravagnani 2016, Thm 31):
    for n <= m (transpose otherwise) and every nu = 0..n,

        q^(m nu) sum_{i <= n - nu} A_i [n - i, nu]_q = |C| sum_{j <= nu} B_j [n - j, nu - j]_q.

    A vector code's dual over GF(q^m) is, in the matrix picture over the dual
    basis, the trace dual of its picture; rank does not depend on the basis."""
    q, (n, m) = code.q, sorted((code.n, code.m))
    A, B = rank_distribution(code), rank_distribution(dual(code))
    return all(
        q ** (m * nu) * sum(A[i] * gaussian_binomial(n - i, nu, q) for i in range(n - nu + 1))
        == sum(A) * sum(B[j] * gaussian_binomial(n - j, nu - j, q) for j in range(nu + 1))
        for nu in range(n + 1)
    )


def _macwilliams_codes():
    """The criterion-6 grid (every GF(2)-linear code of 2 x 2 matrices with
    k <= 2), every GF(8)-linear code of length 3, and one random code of each
    matrix and vector case shape."""
    rng, E8 = random.Random(53), ext_field(2, 3)
    return [
        *(LinearCode(rows, F2, 2, 2) for k in (0, 1, 2) for rows in iter_rref(F2, k, 4)),
        *(LinearCode(rows, F2, 3, 3, E8) for k in range(4) for rows in iter_rref(E8, k, 3)),
        *(_random_code(*case[:-1], rng) for case in (*MATRIX_CASES.values(), *VECTOR_CASES.values())),
    ]


def test_rank_macwilliams_identity():
    codes = _macwilliams_codes()
    assert len(codes) == 51 + 148 + len(MATRIX_CASES) + len(VECTOR_CASES)
    failed = [(code.n, code.m, code.q, code.rows) for code in codes if not _macwilliams_holds(code)]
    assert not failed


def _rank_distribution_codes():
    """The MacWilliams codes, and for each tall vector case shape one random
    code and one self-orthogonal code of dimension min(k, max_so_dimension(n))."""
    rng = random.Random(59)
    tall = [
        code
        for q, n, m, k, ext, _ in TALL_VECTOR_CASES.values()
        for code in (
            _random_code(q, n, m, k, ext, rng),
            so_code(field_from_q(q), n, m, min(k, max_so_dimension(n)), rng, repr="vector", ext=ext),
        )
    ]
    return _macwilliams_codes() + tall


def test_self_orthogonal_rank_distribution_is_below_the_duals():
    # C is inside its dual, so it has at most as many words of each rank.
    codes = [code for code in _rank_distribution_codes() if is_self_orthogonal(code)]
    assert len(codes) == 23 + len(TALL_VECTOR_CASES)  # the tall ones from so_code
    for code in codes:
        A, B = rank_distribution(code), rank_distribution(dual(code))
        assert all(a <= b for a, b in zip(A, B)), (code.n, code.m, code.q, code.rows)


def test_rank_one_words_of_a_vector_code_come_from_its_subfield_subcode():
    # A word of rank 1 is a * v for a nonzero a in GF(q^m) and a nonzero v in
    # GF(q)^n, and v = a^-1 * (a * v) lies in the GF(q^m)-linear code C: in
    # its subfield subcode C cap GF(q)^n, the words whose coordinates are all
    # below q.  a * v = a' * v' exactly when v' = c v and a = c a' for a c in
    # GF(q)*, so A_1 = (q^m - 1) / (q - 1) * (|C cap GF(q)^n| - 1).
    codes = [code for code in _rank_distribution_codes() if code.repr == "vector"]
    with_rank_one = 0
    for code in codes:
        q = code.q
        subcode = sum(all(c < q for c in w.coords) for w in code.iter_words())
        A1 = rank_distribution(code)[1]
        assert A1 == (q**code.m - 1) // (q - 1) * (subcode - 1), (code.n, code.m, q, code.rows)
        with_rank_one += A1 > 0
    assert (len(codes), with_rank_one) == (162, 66)


@pytest.mark.parametrize("bsize", [0, ENUM_LIMIT], ids=["ball-scan", "code-scan"])
def test_rank_distribution_sums_are_list_sizes_at_zero(bsize, monkeypatch):
    """A_0 + ... + A_r is the list size at the zero word, at every radius
    whose ball has at most SPELL_OUT_LIMIT words.  A ball size of 0 sends
    list_size_at to the lattice route, one of ENUM_LIMIT to the code scan;
    each ball's terms are enumerated once and reused, as they depend only on
    q, and recorded when first iterated, as a traced run counts a generator
    call."""
    spans, balls = [], {}

    def spy(field, n, m, radius):
        spans.append(radius)
        key = field.order, n, m, radius
        if key not in balls:
            balls[key] = list(enumerate_ball(field, n, m, radius))
        yield from balls[key]

    monkeypatch.setattr(experiments, "enumerate_ball", spy)
    monkeypatch.setattr(experiments, "ball_size_exact", lambda n, m, q, r: bsize)
    for code in _rank_distribution_codes():
        A, zero = rank_distribution(code), [0] * code.width
        for r in range(code.n + 1):
            if ball_size_exact(code.n, code.m, code.q, r) <= SPELL_OUT_LIMIT:
                spans.clear()
                assert list_size_at(code, zero, r) == sum(A[: r + 1]), (code.n, code.m, code.q, code.rows, r)
                assert bool(spans) == (bsize == 0)


def _forced_ball_route_cases(q, side, limit, rng):
    """Per shape n x m with n, m <= side, tall ones included, a uniform code
    of each dimension k in {0, 1, D // 2, D - 1, D} (D = nm) with its zero,
    codeword and random centers, and the radii whose ball has at most
    ``limit`` words."""
    F = field_from_q(q)
    for n, m in itertools.product(range(1, side + 1), repeat=2):
        radii = [r for r in range(n + 1) if ball_size_exact(n, m, q, r) <= limit]
        D = n * m
        for k in sorted({0, 1, D // 2, D - 1, D}):
            code = uniform_linear_code(F, n, m, k, rng)
            codeword = code.word(linalg.combine(F, [rng.randrange(q) for _ in range(k)], code.rows, [0] * D))
            yield code, [zero_word(F, n, m), codeword, _random_word(code, rng)], radii


def _check_forced_ball_route(q, side, limit, code_scan, monkeypatch):
    """list_size_at on the lattice route (a ball size of 0 sends it there)
    equals the word-by-word syndrome match over the ball's words and
    ``code_scan(code, y)``, a list of the ranks of y - c for the center's
    flat row y over the codewords c (None to skip it); returns the number of
    cases."""
    monkeypatch.setattr(experiments, "ball_size_exact", lambda n, m, q, r: 0)
    rng, words, cases = random.Random(43), {}, 0
    for code, centers, radii in _forced_ball_route_cases(q, side, limit, rng):
        flats = [code.flat(y) for y in centers]
        dists = [code_scan(code, y) for y in flats]
        for r in radii:
            key = code.n, code.m, r
            if key not in words:
                words[key] = list(ball_words(code.field, *key))
            syndromes = [code.syndrome(list(itertools.chain.from_iterable(e))) for e in words[key]]
            for flat, d in zip(flats, dists):
                got = list_size_at(code, flat, r)
                assert got == syndromes.count(code.syndrome(flat)), (code.n, code.m, code.rows, flat, r)
                assert d is None or got == sum(rk <= r for rk in d), (code.n, code.m, code.rows, flat, r)
                cases += 1
    return cases


def _gf2_rank(rows):
    """The rank of rows given as bit masks, by an XOR basis."""
    basis = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        basis += [v] if v else []
    return len(basis)


def test_gf2_ball_route_matches_word_match_and_code_scan(monkeypatch):
    """The lattice route over GF(2), on every shape up to 4 x 4, tall ones
    included, at every radius with a ball of at most 5,000 words: 729 cases.
    The code scan reads the rank of each word, a bit mask (bit i * m + j for
    entry (i, j)), off one table per shape."""
    ranks = {}

    def code_scan(code, flat):
        n, m = code.n, code.m
        if (n, m) not in ranks:
            ranks[n, m] = [_gf2_rank([x >> (i * m) & ((1 << m) - 1) for i in range(n)]) for x in range(1 << n * m)]
        mask = lambda bits: sum(b << j for j, b in enumerate(bits))
        codewords = [0]
        for g in map(mask, code.rows):
            codewords += [c ^ g for c in codewords]
        y = mask(flat)
        return [ranks[n, m][y ^ c] for c in codewords]

    assert _check_forced_ball_route(2, 4, SPELL_OUT_LIMIT, code_scan, monkeypatch) == 729


@pytest.mark.parametrize("q", [3, 4, 9])
def test_odd_and_gf4_ball_route_matches_word_match_and_code_scan(q, monkeypatch):
    """The lattice route over GF(3), GF(4) and GF(9), on every shape up to
    3 x 3 at every radius with a ball of at most 2,000 words, which keeps
    subspaces of dimension 2 (2 x 3 at r = 2 over GF(3), 2 x 2 over GF(4));
    the code scan lists the codes of at most 1,024 words."""
    F = field_from_q(q)

    def code_scan(code, y):
        if q**code.k > 1024:
            return None
        codewords = (linalg.combine(F, c, code.rows, [0] * code.width) for c in itertools.product(range(q), repeat=code.k))
        diffs = ([F.sub(a, b) for a, b in zip(y, c)] for c in codewords)
        return [linalg.rank(F, [d[i * code.m : (i + 1) * code.m] for i in range(code.n)]) for d in diffs]

    assert _check_forced_ball_route(q, 3, 2000, code_scan, monkeypatch) > 0


def test_zero_radius_ball_route_builds_no_row_table():
    """At r = 0 the ball is one term, the zero subspace, so the lattice route
    of a wide code returns at once and builds no table over the 2^m rows.
    m = 20 comes first: such a table would show in the traced peak (8 MB for
    its list alone) while still fitting in memory."""
    rng = random.Random(47)
    for m in (20, 30):
        code = uniform_linear_code(F2, 1, m, 3, rng)
        for center in (_random_word(code, rng), code.basis[0]):
            tracemalloc.start()
            try:
                got = list_size_at(code, code.flat(center), 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == code.contains(center) and peak < 1 << 20, (m, got, peak)


def test_tall_gf2_code_takes_the_ball_route(monkeypatch):
    """4 x 2 codes over GF(2), a matrix code with k = 6 and a GF(4)-linear
    code of length 4 with k = 3, have 64 words against 46 in the radius-1
    ball: list_size_at takes the lattice route, and equals the code scan."""
    spans = []

    def spy(field, n, m, radius):
        spans.append(radius)
        yield from enumerate_ball(field, n, m, radius)

    monkeypatch.setattr(experiments, "enumerate_ball", spy)
    rng = random.Random(53)
    for code in (_random_code(2, 4, 2, 6, None, rng), _random_code(2, 4, 2, 3, ext_field(2, 2), rng)):
        words = list(code.iter_words())
        for center in [_random_word(code, rng) for _ in range(4)] + [rng.choice(words)]:
            spans.clear()
            assert list_size_at(code, code.flat(center), 1) == sum(rank_distance(center, w) <= 1 for w in words)
            assert spans == [1]


MEMBERSHIP_CASES = {**MATRIX_CASES, **VECTOR_CASES, **BALL_ROUTE_CASES, **GF2_GRID_CASES}


@pytest.mark.parametrize("case", MEMBERSHIP_CASES.values(), ids=MEMBERSHIP_CASES.keys())
def test_contains_matches_solve_in_span(case):
    *params, _ = case
    rng = random.Random(37)
    code = _random_code(*params, rng)
    L = code.lin_field()
    words = list(code.iter_words())
    inside = [rng.choice(words) for _ in range(20)]
    outside = [_random_word(code, rng) for _ in range(40)]

    def flat(w):
        return list(w.flatten()) if code.repr == "matrix" else list(w.coords)

    for w in inside + outside:
        expected = solve_in_span(L, code.rows, flat(w)) is not None
        assert code.contains(w) == expected
        if code.repr == "vector":
            assert code.contains(vec_to_mat(w)) == expected
    assert all(code.contains(w) for w in inside)
    # Two words share a syndrome exactly when their difference is a codeword:
    # pairs of random words, and random words each with itself plus a codeword.
    shifted = [code.word([L.add(a, b) for a, b in zip(flat(x), flat(c))]) for x, c in zip(outside, inside)]
    for x, y in [*zip(outside, outside[1:]), *zip(outside, shifted)]:
        diff = [L.sub(a, b) for a, b in zip(flat(x), flat(y))]
        same = code.syndrome(code.flat(x)) == code.syndrome(code.flat(y))
        assert same == (solve_in_span(L, code.rows, diff) is not None)
    with pytest.raises(ParamError):
        code.contains(zero_word(code.field, code.n, code.m + 1))


@pytest.mark.parametrize("case", MEMBERSHIP_CASES.values(), ids=MEMBERSHIP_CASES.keys())
def test_dual_contains_matches_solve_in_span(case):
    # The dual's parity check is read off the code's own rows, not a second
    # elimination; membership must still be membership in the dual's span.
    *params, _ = case
    rng = random.Random(41)
    code = _random_code(*params, rng)
    d = dual(code)
    assert dual(d).rows == code.rows
    L = code.lin_field()
    rows = d.rows or [(0,) * code.width]
    inside = [code.word(linalg.combine(L, [rng.randrange(L.order) for _ in rows], rows)) for _ in range(10)]
    outside = list(code.basis) + [_random_word(code, rng) for _ in range(30)]
    for w in inside + outside:
        target = list(w.flatten()) if code.repr == "matrix" else list(w.coords)
        expected = solve_in_span(L, d.rows, target) is not None
        assert d.contains(w) == expected
        if code.repr == "vector":
            assert d.contains(vec_to_mat(w)) == expected
    assert all(d.contains(w) for w in inside)


def test_dual_and_its_check_run_one_elimination(monkeypatch):
    codes = [
        so_code(field_from_q(3), 2, 3, 2, random.Random(5)),
        so_code(F2, 5, 3, 2, random.Random(5), repr="vector", ext=ext_field(2, 3)),
    ]
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda F, rows: calls.append(rows) or nullspace(F, rows))
    for code in codes:
        calls.clear()
        d = dual(code)
        assert all(d.contains(w) for w in code.basis)
        assert len(calls) == 1


def test_list_size_tall_code_with_a_small_ball():
    # The full GF(4)-linear code of length 12 has 2^24 words, too many to
    # scan; its 12 x 2 ball of radius 1 has 1 + (2^12 - 1) * 3 words, all
    # codewords.  At radius 2 the ball is the whole 2^24-word space too, one
    # lattice term: the whole space GF(2)^2 of row spaces.
    ext = ext_field(2, 2)
    code = LinearCode([[int(i == j) for j in range(12)] for i in range(12)], F2, 12, 2, ext)
    center = [1, 2, 3] * 4
    assert list_size_at(code, center, 1) == ball_size_exact(12, 2, 2, 1) == 12_286
    assert list_size_at(code, center, 2) == 16_777_216


def test_lattice_route_beyond_the_ball_limit(monkeypatch):
    # A GF(2^10)-linear code of length 4 with k = 1: 1,024 words, against
    # more than 2^22 in its 4 x 10 ball of radius 2, which the lattice reads
    # as the 51 subspaces of GF(2)^4 of dimension <= 2.  Forced onto the
    # lattice route, it equals the code scan at the zero word, a codeword and
    # two random centers.
    ext = ext_field(2, 10)
    assert ball_size_exact(4, 10, 2, 2) > ENUM_LIMIT
    rng = random.Random(71)
    code = _random_code(2, 4, 10, 1, ext, rng)
    centers = [[0] * 4, list(code.rows[0]), *(code.flat(_random_word(code, rng)) for _ in range(2))]
    by_code = [list_size_at(code, y, 2) for y in centers]
    monkeypatch.setattr(experiments, "ball_size_exact", lambda n, m, q, r: 0)
    assert [list_size_at(code, y, 2) for y in centers] == by_code
    assert by_code[0] == by_code[1] >= 1  # L(c) = L(0) at a codeword c
    # A 4 x 8 code with 2^23 words, more than ENUM_LIMIT, at r = 4: the
    # whole space, which no longer raises SizeError.
    assert list_size_at(_BIG, [0] * 32, 4) == 2**23


def test_list_size_at_full_radius_is_the_code_size(monkeypatch):
    # At r = n every c_w but the whole space's vanishes, and L = |C| at
    # every center, on the lattice route that a ball size of 0 forces.
    monkeypatch.setattr(experiments, "ball_size_exact", lambda n, m, q, r: 0)
    rng = random.Random(73)
    for code in _rank_distribution_codes():
        assert len(list(enumerate_ball(code.field, code.n, code.m, code.n))) == 1
        size = code.lin_field().order ** code.k
        for y in ([0] * code.width, code.flat(_random_word(code, rng))):
            assert list_size_at(code, y, code.n) == size, (code.n, code.m, code.q, code.rows)


def test_vector_words_read_over_the_code_basis():
    # A vector word may carry another ExtField object for the code's GF(q^m),
    # here GF(8) built apart over the packed GF(2): its coordinates are the
    # same field elements, so membership and list size must not depend on
    # which object the word carries.
    apart = ExtField(ext_field(2, 1), 3)
    pairs = ((ext_field(2, 3), apart), (apart, ext_field(2, 3)))
    for seed, (ext, other) in itertools.product(range(3), pairs):
        rng = random.Random(seed)
        code = _random_code(2, 3, 3, 2, ext, rng)
        words = list(code.iter_words())
        for x in itertools.product(range(8), repeat=3):
            assert code.contains(VectorWord(x, other)) == code.contains(VectorWord(x, ext))
        for _ in range(20):
            c = VectorWord(tuple(rng.randrange(8) for _ in range(3)), other)
            for r in range(4):
                assert list_size_at(code, code.flat(c), r) == sum(1 for w in words if rank_distance(c, w) <= r)


def test_list_size_rejects_a_center_that_does_not_fit():
    gf2 = LinearCode([[1, 0, 1, 1]], F2, 2, 2)
    gf4 = LinearCode([[1, 2]], F2, 2, 2, ext=ext_field(2, 2))
    cases = [
        (gf2, MatrixWord(((1, 0), (1, 1)), field_from_q(3))),
        (gf2, MatrixWord(((1, 0), (1, 3)), field_from_q(4))),
        (gf4, VectorWord((1, 2), ext_field(3, 2))),
        (gf4, VectorWord((1, 2), ext_field(4, 2))),
    ]
    for code, center in cases:
        for r in range(3):
            with pytest.raises(ParamError):
                list_size_at(code, code.flat(center), r)


def test_list_size_reads_a_center_in_either_picture():
    # A center in the other picture is read by ``flat``, as ``contains``
    # reads a word: a matrix center of a vector code and a vector center of a
    # matrix code through the digits of GF(q^m).  Both routes are taken at
    # r = 0..2 (each case's ball radii).
    rng = random.Random(67)
    pairs = [(_random_code(*case[:-1], rng), None) for case in VECTOR_CASES.values()]
    for name, exts in {
        "GF2-2x3-k5": (ext_field(2, 3),),
        "GF3-2x3-k5": (ext_field(3, 3),),
        "GF4-2x3-k5": (ext_field(4, 3),),
        "GF2-2x2-k0": (ext_field(2, 2),),
    }.items():
        code = _random_code(*MATRIX_CASES[name][:-1], rng)
        pairs += [(code, ext) for ext in exts]
    for code, ext in pairs:
        for _ in range(4):
            if ext is None:
                rows = [[rng.randrange(code.q) for _ in range(code.m)] for _ in range(code.n)]
                center = MatrixWord(rows, code.field)
                same = mat_to_vec(center, code.ext)
            else:
                center = VectorWord(tuple(rng.randrange(ext.order) for _ in range(code.n)), ext)
                same = vec_to_mat(center)
            for r in range(3):
                got = list_size_at(code, code.flat(center), r)
                assert got == list_size_at(code, code.flat(same), r), (code.rows, center, r)


def test_experiment_config_validation():
    with pytest.raises(ParamError):
        ExperimentConfig(2, 2, 4, 1.5, 0.1, 10)
    with pytest.raises(ParamError):
        ExperimentConfig(2, 2, 4, 0.5, 0.1, 0)
    with pytest.raises(ParamError):
        ExperimentConfig(2, 2, 4, 0.5, 0.1, 10, ensemble="nope")
    for n, m in ((0, 4), (2, 0), (-1, 4)):
        with pytest.raises(ParamError, match="n and m must be >= 1"):
            ExperimentConfig(2, n, m, 0.5, 0.1, 10)
    cfg = ExperimentConfig(2, 2, 4, 0.5, 0.1, 10, seed=42)
    assert cfg.radius == 1
    assert cfg.dimension() == 2


def test_experiment_reproducible_and_prefix_stable():
    cfg = ExperimentConfig(2, 2, 4, 0.5, 0.1, 30, seed=42)
    r1 = max_list_size_experiment(cfg)
    r2 = max_list_size_experiment(cfg)
    assert r1.to_csv() == r2.to_csv()
    short = max_list_size_experiment(ExperimentConfig(2, 2, 4, 0.5, 0.1, 10, seed=42))
    assert r1.list_sizes[:10] == short.list_sizes


def test_experiment_report_fields():
    cfg = ExperimentConfig(2, 2, 4, 0.5, 0.1, 25, seed=1)
    rep = max_list_size_experiment(cfg)
    assert len(rep.list_sizes) == 25
    assert rep.max_list_size == max(rep.list_sizes)
    assert sum(rep.histogram.values()) == 25
    assert all(0 <= cr <= 2 for cr in rep.center_ranks)
    csv = rep.to_csv()
    assert csv.startswith("trial,list_size,center_rank,code_seed\n")
    assert "# summary " in csv
    assert "wall" not in csv
    hist = rep.histogram_csv()
    assert hist.startswith("list_size,count\n")


# sha256 of to_csv() for 20 trials at seed 7, recorded before the
# construction and code paths were folded onto flat rows; every ensemble in
# both representations, so any change in what a trial draws shows here.
STREAM_CONFIGS = {
    "matrix": dict(q=3, n=2, m=4, tau=0.5, epsilon=0.1),  # k=2, code scan
    "vector": dict(q=2, n=5, m=5, tau=0.2, epsilon=0.2),  # k=2 over GF(32), lattice route
}
STREAM_SHA256 = {
    ("matrix", "self-orthogonal"): "cddbce752ab128fee26874ce2a1a08b9f8887ee474cb0c4bd6b9d9262386900f",
    ("matrix", "code-star"): "8f00cc6425565011ec170570b1702283f7bef8e912e58e9d92a9fa31ccec3bde",
    ("matrix", "uniform-linear"): "d589b8ae677c6b6d894e58938e29b56ea58e7650b18bd9270e4eab328d16413f",
    ("vector", "self-orthogonal"): "7479f42145189d29abf0a6b5e5203d626edaf73aaadb80ed48ddbae1850d6b78",
    ("vector", "code-star"): "17dce2c345c7e94f4c4e1c8707656f169bdd163359468091f577d367228b2b7c",
    ("vector", "uniform-linear"): "96b0e2a38137fb36c8f72b9f23ec381aa821bc8edc92d06bd78dee750e0e9c30",
}


@pytest.mark.parametrize("repr_, ensemble", STREAM_SHA256, ids=["-".join(key) for key in STREAM_SHA256])
def test_experiment_streams_pinned(repr_, ensemble):
    cfg = ExperimentConfig(**STREAM_CONFIGS[repr_], trials=20, seed=7, repr=repr_, ensemble=ensemble)
    assert cfg.dimension() == 2
    csv = max_list_size_experiment(cfg).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == STREAM_SHA256[repr_, ensemble]


# First moment of the random-center list size: each word of a linear code C
# lies within rank distance r of |B_R(0, r)| of the q^(nm) centers, so
# E_y[L] = |C| |B_R(0, r)| / q^(nm) whatever the code.  Sample means are held
# to it at a z bound with the sample SD.  Second moment: L^2 counts the pairs
# of codewords near y, and a pair (c, c') is near |B_R(c, r) cap B_R(c', r)|
# centers, p_i for rank(c - c') = i, so E_y[L^2] = |C| / q^(nm) sum_i A_i p_i
# for C's rank distribution A.  L is heavy-tailed in the vector configs, so
# mean squares are held to the exact moments of the codes' own laws of L.
MEAN_Z_BOUND = 4
GOLDEN_CSV = pathlib.Path(__file__).parent / "golden" / "maxlist_q2n2m4_seed42.csv"
MEAN_CONFIGS = {
    ("matrix", 2): dict(q=2, n=2, m=4, tau=0.5, epsilon=0.1),  # k=2
    ("matrix", 3): dict(q=3, n=2, m=4, tau=0.5, epsilon=0.1),  # k=2
    ("vector", 2): dict(q=2, n=3, m=3, tau=0.34, epsilon=0.1),  # k=1 over GF(8)
    ("vector", 3): dict(q=3, n=3, m=3, tau=0.34, epsilon=0.1),  # k=1 over GF(27)
}


def exact_mean_list_size(cfg):
    code_size = cfg.q ** (cfg.dimension() * (cfg.m if cfg.repr == "vector" else 1))
    return Fraction(code_size * ball_size_exact(cfg.n, cfg.m, cfg.q, cfg.radius), cfg.q ** (cfg.n * cfg.m))


def mean_z(list_sizes, exact):
    return (statistics.fmean(list_sizes) - exact) / (statistics.stdev(list_sizes) / math.sqrt(len(list_sizes)))


def test_golden_csv_mean_matches_first_moment():
    rows = [ln.split(",") for ln in GOLDEN_CSV.read_text().splitlines()[1:] if not ln.startswith("#")]
    list_sizes = [int(row[1]) for row in rows]
    exact = exact_mean_list_size(ExperimentConfig(2, 2, 4, 0.5, 0.1, len(rows), seed=42))
    assert len(list_sizes) == 10_000 and exact == Fraction(4 * 46, 256)
    assert abs(mean_z(list_sizes, exact)) <= MEAN_Z_BOUND


def moments(law):
    """E[L^2] and E[L^4] of a law {L: probability}."""
    return sum(p * L**2 for L, p in law.items()), sum(p * L**4 for L, p in law.items())


def test_golden_csv_mean_square_matches_second_moment():
    # The golden run draws each trial's code from so_code_law(GF(2), 8, 2).
    # The same pass mixes the codes' laws of L into the ensemble's exact law,
    # P[L = l] = sum_C P(C) P[L = l | C], and the CSV's counts of L fit it.
    from scipy import stats

    list_sizes = [int(ln.split(",")[1]) for ln in GOLDEN_CSV.read_text().splitlines()[1:] if not ln.startswith("#")]
    p = ball_overlaps(F2, 2, 4, 1)
    ball = list(ball_words(F2, 2, 4, 1))
    second = fourth = 0
    law = Counter()
    for rows, weight in so_code_law(F2, 8, 2).items():
        code = LinearCode(rows, F2, 2, 4)
        code_law = list_size_law(code, ball)
        m2, m4 = moments(code_law)
        assert m2 == Fraction(4, 256) * sum(map(operator.mul, rank_distribution(code), p))
        second, fourth = second + weight * m2, fourth + weight * m4
        law.update({L: weight * prob for L, prob in code_law.items()})
    assert p == [46, 18, 6] and second == Fraction(213697, 188976)
    z = (statistics.fmean(L * L for L in list_sizes) - second) / math.sqrt((fourth - second**2) / len(list_sizes))
    assert abs(z) <= MEAN_Z_BOUND
    counts = Counter(list_sizes)
    assert sum(law.values()) == 1 and set(counts) <= set(law)
    support = sorted(law)
    expected = [float(len(list_sizes) * law[L]) for L in support]
    assert stats.chisquare([counts[L] for L in support], expected).pvalue >= 0.01


@pytest.mark.parametrize("ensemble", ["self-orthogonal", "code-star", "uniform-linear"])
@pytest.mark.parametrize("repr_, q", MEAN_CONFIGS, ids=[f"{r}-q{q}" for r, q in MEAN_CONFIGS])
def test_experiment_mean_matches_first_moment(repr_, q, ensemble, monkeypatch):
    cfg = ExperimentConfig(**MEAN_CONFIGS[repr_, q], trials=400, seed=1, repr=repr_, ensemble=ensemble)
    assert cfg.dimension() >= 1
    codes = []

    def spy(code, center, r):
        codes.append(code)
        return list_size_at(code, center, r)

    monkeypatch.setattr(experiments, "list_size_at", spy)
    rep = max_list_size_experiment(cfg)
    assert abs(mean_z(rep.list_sizes, exact_mean_list_size(cfg))) <= MEAN_Z_BOUND
    # Given the trials' codes, the sum of L^2 has the sum of their exact
    # means and variances.
    ball = list(ball_words(codes[0].field, cfg.n, cfg.m, rep.radius))
    laws = {}
    second = variance = 0
    for code in codes:
        if code.rows not in laws:
            laws[code.rows] = moments(list_size_law(code, ball))
        m2, m4 = laws[code.rows]
        second, variance = second + m2, variance + m4 - m2 * m2
    assert abs((sum(L * L for L in rep.list_sizes) - second) / math.sqrt(variance)) <= MEAN_Z_BOUND


@pytest.mark.parametrize("ensemble", ["self-orthogonal", "code-star", "uniform-linear"])
def test_all_ensembles_run(ensemble):
    cfg = ExperimentConfig(2, 2, 4, 0.5, 0.1, 10, seed=3, ensemble=ensemble)
    rep = max_list_size_experiment(cfg)
    assert len(rep.list_sizes) == 10


def test_vector_repr_experiment():
    cfg = ExperimentConfig(2, 5, 5, 0.3, 0.1, 5, seed=9, repr="vector")
    rep = max_list_size_experiment(cfg)
    assert len(rep.list_sizes) == 5


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0)
    assert wilson_interval(100, 100)[0] < 1.0
    with pytest.raises(ParamError):
        wilson_interval(0, 0)


def test_span_ball_overlap_oracle():
    X = ((1, 0), (0, 0))
    Y = ((0, 0), (0, 1))
    # span has 4 elements; X, Y, 0 have rank <= 1, X+Y has rank 2
    assert span_ball_overlap(F2, [X, Y], 1) == 3
    assert span_ball_overlap(F2, [X, Y], 2) == 4
    assert span_ball_overlap(F2, [X], 1) == 2
    # dependent draws: each span word is counted once
    assert span_ball_overlap(F2, [X, X], 1) == span_ball_overlap(F2, [X], 1) == 2
    XY = ((1, 0), (0, 1))
    for r in (0, 1, 2):
        assert span_ball_overlap(F2, [X, Y, XY], r) == span_ball_overlap(F2, [X, Y], r)
    F3 = field_from_q(3)
    Z = ((1, 2), (0, 1))
    Z2 = ((2, 1), (0, 2))
    assert span_ball_overlap(F3, [Z, Z2], 1) == span_ball_overlap(F3, [Z], 1) == 1
    assert span_ball_overlap(F3, [Z, Z2], 2) == span_ball_overlap(F3, [Z], 2) == 3


def test_lemma47_estimate():
    est = lemma47_event_estimate(2, 2, 2, 0.5, 2, 1, 200, seed=7)
    assert isinstance(est, EventEstimate)
    assert 0 <= est.ci_low <= est.frequency <= est.ci_high <= 1
    assert est.extra["radius"] == 1
    # manual recount of trial 0 must agree with a single-trial estimate
    rng = trial_rng(7, 0)
    draws = [sample_from_ball(F2, 2, 2, 1, rng) for _ in range(2)]
    manual_hit = span_ball_overlap(F2, draws, 1) >= 2
    one = lemma47_event_estimate(2, 2, 2, 0.5, 2, 1, 1, seed=7)
    assert one.successes == (1 if manual_hit else 0)


def test_lemma47_runs_beyond_2_to_the_20_coefficient_tuples():
    # 2^21 tuples of 21 draws span at most GF(2)^8: the span is a code of
    # dimension <= 8, and its list size needs no scan of the tuples.
    est = lemma47_event_estimate(2, 2, 4, 0.5, 21, 1.0, 1, 0)
    rng = trial_rng(0, 0)
    draws = [sample_from_ball(F2, 2, 4, 1, rng) for _ in range(21)]
    assert est.trials == 1 and est.successes == (span_ball_overlap(F2, draws, 1) >= 21)


def test_lemma47_rejects_bad_ell_and_tau():
    for ell in (0, -1):
        with pytest.raises(ParamError):
            lemma47_event_estimate(2, 2, 2, 0.5, ell, 1, 5, seed=1)
    for tau in (-0.5, 1.5):  # radius floor(tau * n) = -1 and 3, outside 0..2
        with pytest.raises(ParamError):
            lemma47_event_estimate(2, 2, 2, tau, 2, 1, 5, seed=1)


def _anisotropic_containment(q, n, m, k):
    """P(w in C) for a k-dimensional code-star draw C = S + <x> in n x m
    matrices over GF(q) and a fixed word w with <w, w> != 0.  S is totally
    isotropic, so w is outside S, and w lies in S + <x> exactly when x is in
    c * w + S for some c != 0: (q - 1) q^(k-1) of the q^D - q^(k-1) equally
    likely choices of x (D = nm), whatever the law of S."""
    return Fraction(q - 1, q ** (n * m - k + 1) - 1)


def test_frozen_event_frequencies():
    # regression values pinned from seeded 10^4-trial runs
    est = lemma47_event_estimate(2, 2, 2, 0.5, 2, 1, 10_000, seed=7)
    assert (est.successes, est.trials) == (9923, 10_000)
    w = MatrixWord(((1, 0, 0, 0), (0, 0, 0, 0)), F2)
    est = lemma48_event_estimate(2, 2, 4, 3, [w], 10_000, seed=11)
    assert (est.successes, est.trials) == (189, 10_000)
    assert est.extra["bound"] == 32
    # <w, w> = 1, so the exact probability is 1/63.  189/10,000 lies 2.4
    # standard errors above it, outside its own 95% Wilson interval.
    exact = _anisotropic_containment(2, 2, 4, 3)
    assert exact == Fraction(1, 63)
    se = math.sqrt(exact * (1 - exact) / est.trials)
    assert abs(est.frequency - exact) < 3 * se
    assert not est.ci_low <= exact <= est.ci_high


# (q, n, m, k) with the exact containment probability of an anisotropic word.
ANISOTROPIC_CASES = {
    "GF2-2x3-k2": (2, 2, 3, 2, Fraction(1, 31)),
    "GF2-2x4-k2": (2, 2, 4, 2, Fraction(1, 127)),
    "GF3-2x2-k1": (3, 2, 2, 1, Fraction(1, 40)),
    "GF3-2x3-k2": (3, 2, 3, 2, Fraction(1, 121)),
}


# The same cases' exact containment probability of an isotropic word
# (w != 0, <w, w> = 0): about twice the anisotropic one at k = 2, and equal
# to it at k = 1, where S = 0.  lemma48_bound(q, n, m, k, 1) is 4, 1, 1/3
# and 9 here, vacuous for both.
ISOTROPIC_CONTAINMENT = {
    (2, 2, 3, 2): Fraction(61, 961),
    (2, 2, 4, 2): Fraction(253, 16129),
    (3, 2, 2, 1): Fraction(1, 40),
    (3, 2, 3, 2): Fraction(29, 1694),
}


@pytest.mark.parametrize("q, n, m, k, p", ANISOTROPIC_CASES.values(), ids=ANISOTROPIC_CASES.keys())
def test_anisotropic_containment_is_exact_under_the_code_star_law(q, n, m, k, p):
    # Lemma 48's event for one word, summed over the exact law of the code
    # spans sample_code_star draws, for three words w with <w, w> != 0, and
    # for three isotropic words, pinned in ISOTROPIC_CONTAINMENT.
    F, D = field_from_q(q), n * m
    law = code_star_law(F, D, k)

    def containment(w):
        return sum(prob for key, prob in law.items() if solve_in_span(F, key, w) is not None)

    rng = random.Random(59)
    words = [(1,) + (0,) * (D - 1)]
    while len(words) < 3:
        w = tuple(rng.randrange(q) for _ in range(D))
        words += [w] if linalg.dot(F, w, w) else []
    for w in words:
        assert containment(w) == _anisotropic_containment(q, n, m, k) == p, w
    rng, isotropic = random.Random(61), []
    while len(isotropic) < 3:
        w = tuple(rng.randrange(q) for _ in range(D))
        isotropic += [w] if any(w) and not linalg.dot(F, w, w) else []
    for w in isotropic:
        assert containment(w) == ISOTROPIC_CONTAINMENT[q, n, m, k], w


def test_lemma48_bound_and_estimate():
    assert lemma48_bound(2, 2, 4, 3, 1) == 2.0 ** ((3 + 1 - 8 - 2) * 1 + 4 * 3 - 1)
    fixed = [MatrixWord(((1, 0, 0, 0), (0, 0, 0, 0)), F2)]
    est = lemma48_event_estimate(2, 2, 4, 3, fixed, 300, seed=11)
    assert 0 <= est.frequency <= 1
    assert est.extra["bound"] == lemma48_bound(2, 2, 4, 3, 1)
    with pytest.raises(ParamError):
        lemma48_event_estimate(2, 2, 4, 3, [], 10, seed=0)
    with pytest.raises(ParamError):
        lemma48_event_estimate(2, 2, 2, 2, fixed[:1], 10, seed=0)


_CONFIG = dict(q=2, n=2, m=4, tau=0.5, epsilon=0.1, trials=1)
_X = MatrixWord(((1, 0, 0, 0), (0, 0, 0, 0)), F2)
# A 23-dimensional code in 4 x 8 matrices: more codewords than ENUM_LIMIT,
# and a ball of radius 4 (all 2^32 matrices) larger still.
_BIG = LinearCode([[int(i == j) for j in range(32)] for i in range(23)], F2, 4, 8)
# The same in 10 x 10 matrices, where the ball of radius 5 takes more than
# ENUM_LIMIT subspaces of GF(2)^10 too.
_HUGE = LinearCode([[int(i == j) for j in range(100)] for i in range(23)], F2, 10, 10)
# A GF(4)-linear code of length 2.
_VECTOR = LinearCode([[1, 2]], F2, 2, 2, ext=ext_field(2, 2))
# Each argument check with the error class it raises.
BAD_ARGUMENTS = {
    "gv-rho-above-one": (lambda: gv_rate(0.5, 1.5, 0.1), ParamError),
    "list-radius-negative": (lambda: list_size_at(_BIG, [0] * 32, -1), ParamError),
    "list-radius-above-n": (lambda: list_size_at(_BIG, [0] * 32, 5), ParamError),
    "list-code-and-ball-too-large": (lambda: list_size_at(_HUGE, [0] * 100, 5), SizeError),
    "list-center-too-short": (lambda: list_size_at(_BIG, [0] * 31, 1), ParamError),
    "list-center-too-long": (lambda: list_size_at(_BIG, [0] * 33, 1), ParamError),
    "list-center-outside-the-field": (lambda: list_size_at(_BIG, [2] + [0] * 31, 1), ParamError),
    "list-vector-center-outside-the-field": (lambda: list_size_at(_VECTOR, [4, 0], 1), ParamError),
    "config-unknown-repr": (lambda: ExperimentConfig(**_CONFIG, repr="tensor"), ParamError),
    "span-radius-above-n": (lambda: span_ball_overlap(F2, [((1, 0), (0, 0))], 3), ParamError),
    "span-radius-negative": (lambda: span_ball_overlap(F2, [((1, 0), (0, 0))], -1), ParamError),
    "lemma48-dependent-set": (lambda: lemma48_event_estimate(2, 2, 4, 3, [_X, _X], 1, 0), ParamError),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()

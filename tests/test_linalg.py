import random

import pytest

from oracles import solve_in_span
from sorank import linalg
from sorank.fields import ExtField, ext_field, field_from_q, prime_power


def _gf(q):
    """field_from_q(q) as a param labelled Field(GF(p^e)) (Field(GF(p)) for a prime)."""
    p, e = prime_power(q)
    return pytest.param(field_from_q(q), id=f"Field(GF({p}^{e}))" if e > 1 else f"Field(GF({p}))")


# field_from_q(4) is ext_field(2, 2), GF(4) over Field(2).  The ExtField row
# builds GF(4) apart, over the packed GF(2) of ext_field(2, 1), whose
# arithmetic runs through tables: elimination must not notice.
FIELDS = [_gf(2), _gf(3), _gf(4), pytest.param(ExtField(ext_field(2, 1), 2), id="ExtField(GF(2^2)/GF(2))")]


def _random_matrix(F, rows, cols, rng):
    return [[rng.randrange(F.order) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("F", FIELDS)
def test_rank_plus_nullity(F):
    rng = random.Random(11)
    for _ in range(50):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        M = _random_matrix(F, rows, cols, rng)
        r = linalg.rank(F, M)
        assert r == len(linalg.rref(F, M)[1])
        assert r + len(linalg.nullspace(F, M)) == cols


@pytest.mark.parametrize("F", FIELDS)
def test_nullspace_vectors_satisfy_equations(F):
    rng = random.Random(13)
    for _ in range(30):
        M = _random_matrix(F, 3, 5, rng)
        basis = linalg.nullspace(F, M)
        assert linalg.is_independent(F, basis)
        for v in basis:
            for row in M:
                s = 0
                for a, x in zip(row, v):
                    s = F.add(s, F.mul(a, x))
                assert s == 0


@pytest.mark.parametrize("F", FIELDS)
def test_nullspace_of_a_zero_row_is_the_unit_vectors(F):
    # LinearCode.kernel of the zero code passes one zero row for its width.
    for D in range(1, 6):
        assert linalg.nullspace(F, [[0] * D]) == [[int(i == j) for j in range(D)] for i in range(D)]


@pytest.mark.parametrize("F", FIELDS)
def test_solve_in_span_roundtrip(F):
    rng = random.Random(7)
    for _ in range(30):
        basis = _random_matrix(F, 2, 4, rng)
        coeffs = [rng.randrange(F.order) for _ in range(2)]
        target = [0, 0, 0, 0]
        for c, row in zip(coeffs, basis):
            for j in range(4):
                target[j] = F.add(target[j], F.mul(c, row[j]))
        sol = solve_in_span(F, basis, target)
        assert sol is not None
        rebuilt = [0, 0, 0, 0]
        for c, row in zip(sol, basis):
            for j in range(4):
                rebuilt[j] = F.add(rebuilt[j], F.mul(c, row[j]))
        assert rebuilt == target
        assert not linalg.is_independent(F, basis + [target])


def test_solve_in_span_detects_outsiders():
    F = field_from_q(2)
    basis = [[1, 1, 0, 0], [0, 0, 1, 1]]
    assert solve_in_span(F, basis, [1, 0, 0, 0]) is None
    assert solve_in_span(F, [], [0, 0]) == []
    assert solve_in_span(F, [], [1, 0]) is None
    # Differential check of the span test the constructions use: for
    # independent rows, rows + [x] is independent exactly when x lies
    # outside their span.  Covers no rows, the zero word, words inside the
    # span and uniform words.
    rng = random.Random(19)
    for F in [field_from_q(q) for q in (2, 3, 4, 8, 9)]:
        for _ in range(60):
            D = rng.randrange(1, 6)
            rows = []
            for _ in range(rng.randrange(D + 1)):
                v = [rng.randrange(F.order) for _ in range(D)]
                if linalg.is_independent(F, rows + [v]):
                    rows.append(v)
            inside = [linalg.combine(F, [rng.randrange(F.order) for _ in rows], rows)] if rows else []
            for x in [[0] * D, *inside, *([rng.randrange(F.order) for _ in range(D)] for _ in range(5))]:
                assert linalg.is_independent(F, rows + [x]) == (solve_in_span(F, rows, x) is None)


def _rref_cases(F, rng):
    """Matrices of 0-7 rows and 1-9 columns: uniform, with zero rows, and
    with rows that are combinations of the others."""
    for nrows in range(8):
        for ncols in range(1, 10):
            M = _random_matrix(F, nrows, ncols, rng)
            yield M
            if nrows:
                M = [row if rng.randrange(3) else [0] * ncols for row in M]
                yield M
            if nrows >= 2:
                head = M[: rng.randrange(1, nrows)]
                yield head + [linalg.combine(F, [rng.randrange(F.order) for _ in head], head) for _ in range(nrows - len(head))]


@pytest.mark.parametrize("F", FIELDS + [_gf(q) for q in (5, 8, 9)])
def test_rref_is_reduced_and_keeps_the_row_space(F):
    rng = random.Random(29)
    for M in _rref_cases(F, rng):
        R, pivots = linalg.rref(F, M)
        r = len(pivots)
        assert linalg.rank(F, M) == r
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for i, c in enumerate(pivots):
            assert [row[c] for row in R] == [int(j == i) for j in range(len(R))]
        assert len(R) == r
        if M:
            assert linalg.rank(F, R) == r == linalg.rank(F, M + R)


@pytest.mark.parametrize("F", [_gf(q) for q in (2, 3, 4, 9)])
def test_pivots_are_the_pivots_of_rref(F):
    rng = random.Random(31)
    for M in _rref_cases(F, rng):
        assert linalg.pivots(F, M) == linalg.rref(F, M)[1]


@pytest.mark.parametrize("F", [_gf(q) for q in (2, 3, 4, 9)])
def test_extend_rref_is_the_rref_of_the_rows_taken(F):
    # Words are uniform, zero, repeats of a taken row or combinations of the
    # taken rows.  extend_rref takes exactly those outside the span so far,
    # after which (R, pivots) is the RREF of the rows taken, checked against
    # the forward pass: its pivots, unit pivot columns and R spanning the
    # rows taken.  A word inside the span leaves both as they were.
    rng = random.Random(37)
    for _ in range(60):
        D = rng.randrange(1, 8)
        taken, R, pivots = [], [], []
        for _ in range(2 * D + 2):
            kind = rng.randrange(4) if taken else rng.randrange(2)
            if kind == 0:
                x = [rng.randrange(F.order) for _ in range(D)]
            elif kind == 1:
                x = [0] * D
            elif kind == 2:
                x = list(rng.choice(taken))
            else:
                x = linalg.combine(F, [rng.randrange(F.order) for _ in taken], taken)
            inside = solve_in_span(F, taken, x) is not None
            grows = linalg.rank(F, taken + [x]) > linalg.rank(F, taken)
            before = ([list(row) for row in R], list(pivots))
            assert linalg.extend_rref(F, R, pivots, x) is not inside
            assert grows is not inside
            if inside:
                assert (R, pivots) == before
            else:
                taken.append(x)
                assert pivots == linalg.pivots(F, taken)
                for i, c in enumerate(pivots):
                    assert [row[c] for row in R] == [int(j == i) for j in range(len(R))]
                assert linalg.rank(F, taken + R) == len(R)

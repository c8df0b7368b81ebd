import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (
    code_star_law,
    from_full_matrix,
    is_contained_in_dual,
    outside_span_by_rank,
    so_code_law,
    so_flat_vectors_by_nullspace,
    solve_in_span,
    span_key,
    trace_inner_product,
    vector_inner_product,
)
from sorank import construct, linalg, quadforms
from sorank.construct import (
    max_so_dimension,
    sample_code_star,
    so_code,
    so_flat_vectors,
    uniform_linear_code,
)
from sorank.errors import BudgetError, ParamError
from sorank.fields import ext_field, field_from_q
from sorank.words import (
    LinearCode,
    MatrixWord,
    VectorWord,
    dual,
    dump_code,
    flat_space,
    is_self_orthogonal,
)

F2 = field_from_q(2)
F3 = field_from_q(3)
E4 = ext_field(2, 2)


def test_max_so_dimension():
    assert max_so_dimension(4) == 1
    assert max_so_dimension(8) == 3
    assert max_so_dimension(9) == 4


def test_parameter_validation():
    rng = random.Random(0)
    with pytest.raises(ParamError):
        so_flat_vectors(F2, 4, 2, rng)  # limit is (4-1)//2 = 1
    with pytest.raises(ParamError):
        so_flat_vectors(F2, 4, 0, rng)
    with pytest.raises(ParamError):
        sample_code_star(F2, 2, 2, 3, rng)
    with pytest.raises(ParamError):
        sample_code_star(F2, 2, 2, 0, rng)
    with pytest.raises(ParamError):
        construct.uniform_linear_code(F2, 2, 2, 5, rng)
    assert construct.uniform_linear_code(F2, 2, 2, 4, rng).k == 4  # the whole space


def test_flat_vectors_are_orthogonal_and_independent():
    from sorank import linalg

    rng = random.Random(13)
    for F in (F2, F3, ext_field(2, 2)):
        for D in (5, 8, 11):
            k = max_so_dimension(D)
            vecs = so_flat_vectors(F, D, k, rng)
            assert linalg.rank(F, vecs) == k
            for u in vecs:
                for v in vecs:
                    s = 0
                    for a, b in zip(u, v):
                        s = F.add(s, F.mul(a, b))
                    assert s == 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_matrix_codes_self_orthogonal_and_dual_contained(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for seed in range(20):
        code = so_code(field, 2, 4, 3, rng)
        assert code.k == 3
        assert is_self_orthogonal(code)
        assert is_contained_in_dual(code)
        D = dual(code)
        assert D.k == 8 - 3


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3)])
def test_vector_codes_self_orthogonal_and_dual_contained(q, n):
    ext = ext_field(q, 3)
    rng = random.Random(q * 10 + n)
    k = max_so_dimension(n)
    for seed in range(20):
        code = so_code(field_from_q(q), n, 3, k, rng, repr="vector", ext=ext)
        assert code.k == k
        assert is_self_orthogonal(code)
        assert is_contained_in_dual(code)


def test_zero_code():
    code = so_code(F2, 2, 2, 0, random.Random(0))
    assert code.k == 0 and is_self_orthogonal(code)


def test_basis_helpers_match_code_constructor():
    rng = random.Random(7)
    words = so_code(F3, 2, 3, 2, rng).basis
    assert all(trace_inner_product(u, v) == 0 for u in words for v in words)
    E = ext_field(3, 2)
    vecs = so_code(F3, 5, 2, 2, rng, repr="vector", ext=E).basis
    assert all(vector_inner_product(u, v) == 0 for u in vecs for v in vecs)


ENSEMBLES = [so_code, sample_code_star, uniform_linear_code]


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "field,m,kwargs",
    [
        (F2, 3, {"repr": "vector"}),  # no extension field
        (F3, 3, {"repr": "vector", "ext": ext_field(2, 3)}),  # GF(2^3) is not over GF(3)
        (F2, 7, {"repr": "vector", "ext": ext_field(2, 3)}),  # GF(2^3) is not GF(2^7)
        (F2, 3, {"repr": "matrix", "ext": ext_field(2, 3)}),  # a matrix code takes no extension
        (None, 3, {}),  # a matrix code needs its GF(q)
        (None, 3, {"repr": "vector", "ext": ext_field(2, 3)}),  # so does a vector code
    ],
    ids=[
        "vector-without-ext",
        "ext-over-another-q",
        "ext-of-another-m",
        "matrix-with-ext",
        "matrix-without-field",
        "vector-without-field",
    ],
)
def test_inconsistent_representation_arguments_rejected(ensemble, field, m, kwargs):
    with pytest.raises(ParamError):
        ensemble(field, 5, m, 2, random.Random(0), **kwargs)


def test_construction_builds_no_words(monkeypatch):
    built = []
    for cls in (MatrixWord, VectorWord):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, f=post_init: built.append(self) or f(self))
    E = ext_field(2, 2)
    for field, n, m, ext in [(F3, 2, 3, None), (F2, 5, 2, E)]:
        kwargs = {"repr": "matrix" if ext is None else "vector", "ext": ext}
        codes = [ensemble(field, n, m, 2, random.Random(5), **kwargs) for ensemble in ENSEMBLES]
        for code in codes:
            is_self_orthogonal(code)
            is_contained_in_dual(code)
            dump_code(dual(code))
        assert built == []
        code = codes[0]
        assert len(code.basis) == 2 and len(built) == 2
        assert code.basis is code.basis and len(built) == 2
        built.clear()
        assert sum(1 for _ in code.iter_words()) == code.lin_field().order ** 2 == len(built)
        built.clear()


def test_determinism_with_fixed_seed():
    a = so_code(F2, 2, 4, 3, random.Random(42))
    b = so_code(F2, 2, 4, 3, random.Random(42))
    assert a.basis == b.basis


def test_construction_varies_with_seed():
    # Equal codes share the reduced row-echelon form of their basis rows.
    keys = set()
    for s in range(40):
        R, _ = linalg.rref(F2, so_code(F2, 2, 4, 3, random.Random(s)).rows)
        keys.add(tuple(map(tuple, R)))
    assert len(keys) > 1


def test_code_star_structure():
    rng = random.Random(3)
    for _ in range(30):
        code = sample_code_star(F2, 2, 4, 3, rng)
        assert code.k == 3
        sub = LinearCode(code.rows[:-1], F2, 2, 4)
        assert is_self_orthogonal(sub)


def test_code_star_k1_is_any_nonzero_word():
    rng = random.Random(11)
    code = sample_code_star(F2, 2, 2, 1, rng)
    assert code.k == 1


def test_budget_errors_name_their_parameters(monkeypatch):
    monkeypatch.setattr(construct, "STEP_BUDGET", 0)
    monkeypatch.setattr(quadforms, "SAMPLE_BUDGET", 0)
    E8 = ext_field(2, 3)
    cases = [
        (lambda: construct.so_code(F2, 2, 4, 3, random.Random(0)), "step 2:", "(D=8, k=3, field order 2)"),
        (lambda: construct.sample_code_star(F3, 2, 4, 1, random.Random(0)), "step 1:", "(D=8, k=1, field order 3)"),
        (
            lambda: construct.uniform_linear_code(F2, 4, 3, 2, random.Random(0), repr="vector", ext=E8),
            "step 1:",
            "(D=4, k=2, field order 8)",
        ),
    ]
    for build, step, params in cases:
        with pytest.raises(BudgetError) as exc:
            build()
        assert step in str(exc.value) and params in str(exc.value) and "budget 0" in str(exc.value)
    with pytest.raises(BudgetError) as exc:
        quadforms.sample_root(quadforms.sum_of_squares(F3, 4), random.Random(0), nonzero=True, exhaustive_limit=1)
    assert "budget 0" in str(exc.value) and "(nvars=4, field order 3, nonzero=True)" in str(exc.value)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_restricted_form_is_the_folded_gram(q):
    # The form and its lift are read off the RREF of the accepted rows, only
    # the upper triangle of the Gram matrix and in characteristic 2 only its
    # diagonal; folding the full Gram matrix of the nullspace basis must give
    # the same coefficients, and combining that basis the same lift.
    F = field_from_q(q)
    rng = random.Random(q)
    for D in (3, 5, 8, 11):
        for _ in range(5):
            found = so_flat_vectors(F, D, max_so_dimension(D), rng)
            for j in range(1, len(found) + 1):
                B = linalg.nullspace(F, found[:j])
                gram = [[linalg.dot(F, s, t) for t in B] for s in B]
                g, lift = construct._restricted_form(F, *linalg.rref(F, found[:j]))
                assert g.coeffs == from_full_matrix(F, gram).coeffs
                for _ in range(3):
                    y = [rng.randrange(q) for _ in B]
                    assert lift(y) == linalg.combine(F, y, B)


def _criterion_4_points(q):
    """(F, D, k) for every point of the criterion-4 sweep over GF(q): n x m
    matrices with n <= m and nm <= 16, and vectors of length n <= 8 over
    GF(q^2) and GF(q^3), each k from 1 to (D - 1) / 2."""
    field = field_from_q(q)
    spaces = [(field, n * m) for n in range(1, 17) for m in range(n, 17) if n * m <= 16]
    spaces += [(ext_field(q, m), n) for m in (2, 3) for n in range(1, 9)]
    return [(F, D, k) for F, D in spaces for k in range(1, max_so_dimension(D) + 1)]


def _assert_same_draws(build, reference, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert [list(row) for row in build(rng)] == reference(ref)
    assert rng.getstate() == ref.getstate()


BALL_ROUTE_POINTS = [(F2, 24, 11), (ext_field(2, 5), 5, 2)]  # GF(2) 3 x 8, k = 11; GF(32), n = 5, k = 2


@pytest.mark.parametrize(
    "points",
    [pytest.param(_criterion_4_points(q), id=f"criterion-4-q{q}") for q in (2, 3, 4)]
    + [pytest.param(BALL_ROUTE_POINTS, id="ball-route")],
)
def test_so_flat_vectors_match_the_nullspace_step(points):
    # The echelon-basis step against the step it replaced (nullspace basis,
    # full Gram matrix, combine, span check by rank): the same rows from the
    # same draws, on every criterion-4 point and both ball-route shapes.
    for F, D, k in points:
        for seed in range(5):
            _assert_same_draws(
                lambda rng: so_flat_vectors(F, D, k, rng), lambda rng: so_flat_vectors_by_nullspace(F, D, k, rng), seed
            )


def _code_star_by_nullspace(F, D, k, rng):
    rows = so_flat_vectors_by_nullspace(F, D, k - 1, rng) if k >= 2 else []
    rows.append(outside_span_by_rank(F, rows, lambda: [rng.randrange(F.order) for _ in range(D)]))
    return rows


def _uniform_linear_by_rank(F, D, k, rng):
    rows = []
    while len(rows) < k:
        rows.append(outside_span_by_rank(F, rows, lambda: [rng.randrange(F.order) for _ in range(D)]))
    return rows


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "ensemble, reference",
    [(sample_code_star, _code_star_by_nullspace), (uniform_linear_code, _uniform_linear_by_rank)],
    ids=["code-star", "uniform-linear"],
)
def test_ensembles_match_the_span_check_by_rank(ensemble, reference, q):
    # Matrix codes up to half (code-star) or all (uniform) of the ambient
    # dimension, where words inside the span are drawn often, and vector
    # codes over GF(q^2).
    field = field_from_q(q)
    ext = ext_field(q, 2)
    shapes = [(1, 2, None), (2, 2, None), (2, 3, None), (4, 2, ext)]
    for n, m, e in shapes:
        repr = "matrix" if e is None else "vector"
        F, D = flat_space(repr, field, e, n, m)
        top = D // 2 if ensemble is sample_code_star else D
        for k in range(1, top + 1):
            for seed in range(3):
                _assert_same_draws(
                    lambda rng: ensemble(field, n, m, k, rng, repr=repr, ext=e).rows,
                    lambda rng: reference(F, D, k, rng),
                    seed,
                )


def _closed_form_law(F, D, codes):
    """Each code's probability under so_code in characteristic 2, from the
    closed-form step counts N_j = q^(D - j - [1 not in S_j]) - q^j: there
    <v, v> = (sum_i v_i)^2, so the isotropic vectors are the hyperplane
    orthogonal to the all-ones word 1, and all of S_j^perp when 1 is in S_j."""
    q, ones = F.order, (1,) * D

    def weight(code_words, k, basis):
        j = len(basis)
        if j == k:
            return Fraction(1)
        N = q ** (D - j - (solve_in_span(F, basis, ones) is None)) - q**j
        return sum(weight(code_words, k, basis + [v]) for v in code_words if linalg.is_independent(F, basis + [v])) / N

    law = {}
    for key in codes:
        code_words = [linalg.combine(F, c, key) for c in itertools.product(range(q), repeat=len(key))]
        law[key] = weight(code_words, len(key), [])
    return law


def test_so_code_law_in_characteristic_two_is_the_closed_form():
    # q = 2, 2 x 3 matrices, k = 2: 75 self-orthogonal codes, and the codes
    # containing 1 get less mass than under the uniform law.
    D, k = 6, 2
    law = so_code_law(F2, D, k)
    vectors = list(itertools.product(range(2), repeat=D))
    codes = {
        span_key(F2, [u, v])
        for u, v in itertools.product(vectors, repeat=2)
        if linalg.is_independent(F2, [u, v]) and not any(linalg.dot(F2, a, b) for a in (u, v) for b in (u, v))
    }
    assert len(codes) == 75 and set(law) == codes
    assert law == _closed_form_law(F2, D, codes)
    with_ones = [key for key in codes if solve_in_span(F2, key, (1,) * D) is not None]
    assert len(with_ones) == 15
    assert sum(law[key] for key in with_ones) == Fraction(37, 217) < Fraction(15, 75)


def test_so_code_law_in_odd_characteristic_is_uniform():
    # q = 3, 1 x 5 matrices, k = 2: all 40 self-orthogonal codes alike.
    law = so_code_law(F3, 5, 2)
    assert len(law) == 40 and set(law.values()) == {Fraction(1, 40)}


def test_so_code_draws_follow_the_exact_law():
    from scipy import stats

    law = so_code_law(F2, 6, 2)
    rng = random.Random(2026)
    draws = 3000
    counts = Counter(span_key(F2, so_code(F2, 2, 3, 2, rng).rows) for _ in range(draws))
    assert set(counts) <= set(law)
    observed = [counts[key] for key in law]
    assert stats.chisquare(observed, [float(draws * p) for p in law.values()]).pvalue > 0.001
    # Pooled by whether the code contains 1, the same draws fit the exact
    # mass 37/217 and reject the uniform law's 15/75.
    hits = sum(counts[key] for key in law if solve_in_span(F2, key, (1,) * 6) is not None)
    for mass, fits in ((Fraction(37, 217), True), (Fraction(15, 75), False)):
        expected = [float(draws * mass), float(draws * (1 - mass))]
        assert (stats.chisquare([hits, draws - hits], expected).pvalue > 0.001) == fits


def _pooled_chisquare_pvalue(counts, law, draws):
    """The chi-square p-value of the drawn codes' counts against their exact
    law, with the cells whose expected count is below 5 pooled into one."""
    from scipy import stats

    assert set(counts) <= set(law)
    observed, expected = [], []
    pooled = [0, 0.0]
    for key, p in law.items():
        if draws * p < 5:
            pooled[0] += counts[key]
            pooled[1] += float(draws * p)
        else:
            observed.append(counts[key])
            expected.append(float(draws * p))
    if pooled[1]:
        observed.append(pooled[0])
        expected.append(pooled[1])
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize(
    "field, ext, n, draws",
    [(F3, None, 2, 2000), (F2, E4, 4, 3000)],
    ids=["GF3-matrix-2x2", "GF4-vector-n4"],
)
def test_code_star_draws_follow_the_exact_law(field, ext, n, draws):
    # k = 2: a self-orthogonal line, then one uniform word outside it, over
    # GF(3)^4 (2 x 2 matrices) or GF(4)^4 (vectors of length 4).
    repr = "matrix" if ext is None else "vector"
    F, D = flat_space(repr, field, ext, n, 2)
    law = code_star_law(F, D, 2)
    rng = random.Random(2027)
    counts = Counter(span_key(F, sample_code_star(field, n, 2, 2, rng, repr, ext).rows) for _ in range(draws))
    assert _pooled_chisquare_pvalue(counts, law, draws) > 0.001


def test_vector_so_code_draws_follow_the_exact_law():
    # GF(4)-linear codes of length 5, k = 2: all 85 self-orthogonal codes alike.
    law = so_code_law(E4, 5, 2)
    assert len(law) == 85 and set(law.values()) == {Fraction(1, 85)}
    rng = random.Random(2028)
    draws = 1000
    counts = Counter(span_key(E4, so_code(F2, 5, 2, 2, rng, repr="vector", ext=E4).rows) for _ in range(draws))
    assert _pooled_chisquare_pvalue(counts, law, draws) > 0.001

import hashlib
import itertools
import random
import tracemalloc

import pytest

from oracles import count_eliminations, from_full_matrix, iter_roots_brute, rank_of_form_two_matrices, transform
from sorank import construct, linalg, quadforms
from sorank.errors import ParamError, SizeError
from sorank.fields import ExtField, ext_field, field_from_q, prime_power
from sorank.quadforms import (
    QuadraticForm,
    count_roots_brute,
    count_roots_formula,
    diagonal_form,
    iter_roots,
    rank_of_form,
    sample_root,
    sum_of_squares,
)

F2 = field_from_q(2)
F3 = field_from_q(3)
F5 = field_from_q(5)


def _field_params(fields, Ns=None):
    """A param per field, or per field and N in Ns.  An int q stands for
    field_from_q(q), labelled Field(GF(p^e)) (Field(GF(p)) for a prime);
    any other field is labelled by its repr."""
    params = []
    for field in fields:
        label = repr(field)
        if isinstance(field, int):
            p, e = prime_power(field)
            field, label = field_from_q(field), f"Field(GF({p}^{e}))" if e > 1 else f"Field(GF({p}))"
        if Ns is None:
            params.append(pytest.param(field, id=label))
        else:
            params += [pytest.param(field, N, id=f"{label}-{N}") for N in Ns]
    return params


def _random_form(field, N, rng):
    ncoef = N * (N + 1) // 2
    return QuadraticForm(N, tuple(rng.randrange(field.order) for _ in range(ncoef)), field)


def _random_invertible(field, N, rng):
    while True:
        M = [[rng.randrange(field.order) for _ in range(N)] for _ in range(N)]
        if linalg.rank(field, M) == N:
            return M


def test_evaluate_examples():
    f = QuadraticForm(2, (1, 0, 1), F3)  # x1^2 + x2^2
    assert f.evaluate((0, 0)) == 0
    assert f.evaluate((1, 1)) == 2
    with pytest.raises(ParamError):
        f.evaluate((1, 1, 1))


def test_homogeneity():
    rng = random.Random(19)
    for field in (F2, F3, F5, field_from_q(4)):
        for _ in range(500):
            N = rng.randrange(1, 5)
            f = _random_form(field, N, rng)
            lam = rng.randrange(field.order)
            x = tuple(rng.randrange(field.order) for _ in range(N))
            scaled = tuple(field.mul(lam, v) for v in x)
            assert f.evaluate(scaled) == field.mul(field.mul(lam, lam), f.evaluate(x))


def test_rank_examples():
    assert rank_of_form(QuadraticForm(2, (0, 0, 0), F2)) == 0
    # x1^2 + x2^2 = (x1 + x2)^2 over GF(2): rank 1
    f = QuadraticForm(2, (1, 0, 1), F2)
    assert rank_of_form(f) == 1
    # verify the claimed equivalence by exhaustive evaluation
    g = QuadraticForm(2, (1, 0, 0), F2)  # y1^2
    M = [[1, 0], [1, 0]]  # y1 = x1 + x2 embedded as a square substitution
    for x in itertools.product(range(2), repeat=2):
        y = ((x[0] + x[1]) % 2, 0)
        assert f.evaluate(x) == g.evaluate(y)
    # x1 x2 over GF(3): rank 2
    assert rank_of_form(QuadraticForm(2, (0, 1, 0), F3)) == 2
    # symmetric-matrix rank would wrongly give 2 here
    assert rank_of_form(QuadraticForm(2, (1, 0, 1), field_from_q(4))) == 1


@pytest.mark.parametrize("q, max_nvars", [(2, 3), (3, 3), (4, 3), (5, 2), (8, 2), (9, 2)])
def test_rank_of_form_matches_the_two_matrix_rank(q, max_nvars):
    # Every form with at most max_nvars variables: the one matrix A + A^T
    # agrees with the reference that builds one matrix per characteristic.
    field = field_from_q(q)
    for N in range(1, max_nvars + 1):
        for coeffs in itertools.product(range(q), repeat=N * (N + 1) // 2):
            f = QuadraticForm(N, coeffs, field)
            assert rank_of_form(f) == rank_of_form_two_matrices(f), coeffs


def test_rank_of_form_in_characteristic_two_eliminates_once(monkeypatch):
    # The alternating part's rank is N minus the dimension of its radical,
    # so the one elimination that finds the radical gives both; in odd
    # characteristic the rank of A + A^T is one elimination too.
    calls = count_eliminations(monkeypatch)
    rng = random.Random(17)
    for field in (F2, field_from_q(4), field_from_q(8), F3, F5, field_from_q(9)):
        for N in (2, 3, 5):
            f = _random_form(field, N, rng)
            calls.clear()
            rank_of_form(f)
            assert len(calls) == (0 if f.is_zero() else 1)


def test_count_roots_brute_examples():
    assert count_roots_brute(QuadraticForm(3, (0,) * 6, F2)) == 8
    assert count_roots_brute(QuadraticForm(2, (1, 0, 1), F3)) == 1
    assert count_roots_brute(QuadraticForm(2, (1, 0, 1), F5)) == 9


def test_count_roots_formula_examples():
    assert count_roots_formula(QuadraticForm(2, (1, 0, 1), F3)) == (1, 5)
    assert count_roots_formula(QuadraticForm(2, (1, 0, 1), F2)) == (2,)
    assert count_roots_formula(QuadraticForm(2, (1, 0, 1), F5)) == (1, 9)
    assert count_roots_formula(QuadraticForm(2, (0, 0, 0), F3)) == (9,)


@pytest.mark.parametrize("field", _field_params((2, 3, 5, 4)))
def test_formula_matches_brute_force(field, trials=60):
    rng = random.Random(field.order)
    for _ in range(trials):
        N = rng.randrange(1, 5)
        f = _random_form(field, N, rng)
        brute = sum(1 for _ in iter_roots_brute(f))
        assert brute in count_roots_formula(f)


def test_equivalent_forms_share_root_count_and_rank():
    rng = random.Random(29)
    for field in (F2, F3, field_from_q(4)):
        for _ in range(25):
            N = rng.randrange(2, 4)
            f = _random_form(field, N, rng)
            for _ in range(4):
                M = _random_invertible(field, N, rng)
                g = transform(f, M)
                assert count_roots_brute(g) == count_roots_brute(f)
                assert rank_of_form(g) == rank_of_form(f)


def test_transform_is_evaluation_composition():
    rng = random.Random(37)
    field = F3
    f = _random_form(field, 3, rng)
    M = _random_invertible(field, 3, rng)
    g = transform(f, M)
    for x in itertools.product(range(3), repeat=3):
        Mx = tuple(
            field.add(field.add(field.mul(M[i][0], x[0]), field.mul(M[i][1], x[1])), field.mul(M[i][2], x[2]))
            for i in range(3)
        )
        assert g.evaluate(x) == f.evaluate(Mx)


def _forms_for_root_listing(field, N, rng):
    """Random diagonal forms, the zero form, the forms whose only nonzero
    coefficient is the first or the last, random non-diagonal forms, forms
    without the last variable and forms whose last variable has only cross
    terms."""
    ncoef = N * (N + 1) // 2
    last = [i * (2 * N - i + 1) // 2 + N - 1 - i for i in range(N)]  # a_{i,N-1}
    for _ in range(4):
        yield diagonal_form(field, [rng.randrange(field.order) for _ in range(N)])
    yield QuadraticForm(N, (0,) * ncoef, field)
    for k in (0, ncoef - 1):
        yield QuadraticForm(N, tuple(rng.randrange(1, field.order) if t == k else 0 for t in range(ncoef)), field)
    for _ in range(3):
        c = [rng.randrange(field.order) for _ in range(ncoef)]
        if N > 1:
            c[1] = rng.randrange(1, field.order)  # the x_0 x_1 term
        yield QuadraticForm(N, tuple(c), field)
    for _ in range(2):
        c = [rng.randrange(field.order) for _ in range(ncoef)]
        for t in last:
            c[t] = 0  # a = 0 and no a_{i,N-1}: x_{N-1} is absent
        yield QuadraticForm(N, tuple(c), field)
        if N > 1:
            c[last[rng.randrange(N - 1)]] = rng.randrange(1, field.order)  # a = 0, one cross term
            yield QuadraticForm(N, tuple(c), field)


# GF(p) over itself adds through Zech logarithms where Field(p) adds mod p.
# field_from_q(8) is ext_field(2, 3) and field_from_q(16) is ext_field(2, 4),
# both over Field(2); the ExtField rows build GF(8) and GF(16) apart, over the
# packed GF(2) of ext_field(2, 1), which must leave the roots and their order
# as they are.
E8_OVER_PACKED = ExtField(ext_field(2, 1), 3)
E16_OVER_PACKED = ExtField(ext_field(2, 1), 4)
ROOT_LISTING_GRID = (
    _field_params((2, 3, 4, 5, ext_field(3, 1)), range(1, 6))
    + _field_params((8, E8_OVER_PACKED, 9, ext_field(5, 1)), range(1, 5))
    + _field_params((16, E16_OVER_PACKED, ext_field(7, 1)), range(1, 4))
)


def _starts(count):
    """Every start 1..count for at most 64 roots; above that, where listing
    every tail would cost count^2 roots, count - 1, count and 8 starts in
    between, spread so that their digits vary."""
    if count <= 64:
        return range(1, count + 1)
    return sorted({count - 1, count, *range(1, count, count // 8 + 1)})


@pytest.mark.parametrize("field,N", ROOT_LISTING_GRID)
def test_iter_roots_matches_full_scan(field, N):
    # Both listers, the characteristic-2 hyperplane and the last-coordinate
    # solve, must list the roots in the order of the scan that evaluates
    # every point, from the first root and from every start in _starts: the
    # hyperplane lister seeks to the start-th root and goes on in order, the
    # last-coordinate solve skips the roots before it.
    rng = random.Random(field.order * 10 + N)
    for f in _forms_for_root_listing(field, N, rng):
        for nonzero in (False, True):
            brute = list(iter_roots_brute(f, nonzero))
            assert list(iter_roots(f, nonzero)) == brute, (f.coeffs, nonzero)
            for i in _starts(len(brute)):
                assert list(iter_roots(f, nonzero, start=i)) == brute[i:], (f.coeffs, nonzero, i)


def test_iter_roots_rejects_a_negative_start():
    for f in (sum_of_squares(F2, 3), sum_of_squares(F3, 3)):
        with pytest.raises(ParamError):
            next(iter_roots(f, start=-1))


# Characteristic-2 fields with q^N <= 4096, GF(8) and GF(16) also built over
# the packed GF(2).
CHAR2_DIAGONAL_GRID = _field_params((2,), range(1, 13)) + _field_params((4,), range(1, 7))
CHAR2_DIAGONAL_GRID += _field_params((8, E8_OVER_PACKED), range(1, 5))
CHAR2_DIAGONAL_GRID += _field_params((16, E16_OVER_PACKED), range(1, 4))


def _char2_diagonal_forms(field, N, rng):
    """Random diagonal forms, one with every coefficient nonzero, and the zero form."""
    for _ in range(3):
        yield diagonal_form(field, [rng.randrange(field.order) for _ in range(N)])
    yield diagonal_form(field, [rng.randrange(1, field.order) for _ in range(N)])
    yield diagonal_form(field, [0] * N)


@pytest.mark.parametrize("field,N", CHAR2_DIAGONAL_GRID)
def test_iter_roots_seeks_every_root_of_a_char2_diagonal_form(field, N):
    rng = random.Random(field.order * 100 + N)
    for f in _char2_diagonal_forms(field, N, rng):
        for nonzero in (False, True):
            brute = list(iter_roots_brute(f, nonzero))
            assert [next(iter_roots(f, nonzero, start=i)) for i in range(len(brute))] == brute
            assert list(iter_roots(f, nonzero, start=len(brute))) == []


def test_iter_roots_seek_is_linear_in_the_variables():
    # Over GF(2)^40 the roots of the sum of squares are x_39 = x_0 + ... + x_38;
    # the last one has the base-2 digits of 2^39 - 1, all ones, as x_0..x_38.
    N = 40
    f = sum_of_squares(F2, N)
    idx = 2 ** (N - 1) - 1
    free = tuple(idx >> (N - 2 - i) & 1 for i in range(N - 1))
    tracemalloc.start()
    try:
        root = next(iter_roots(f, start=idx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, f"peak {peak} bytes"
    assert root == free + (sum(free) % 2,)


@pytest.mark.parametrize("q", (3, 4, 5))
def test_iter_roots_without_tables_matches_full_scan(q, monkeypatch):
    # Fields too large to keep the last-coordinate tables build one per prefix.
    monkeypatch.setattr(quadforms, "_ROOT_TABLE_LIMIT", 0)
    field = field_from_q(q)
    rng = random.Random(q)
    for N in range(1, 4):
        for f in _forms_for_root_listing(field, N, rng):
            assert list(iter_roots(f, True)) == list(iter_roots_brute(f, True)), f.coeffs


def test_iter_roots_keeps_no_tables_above_the_limit(monkeypatch):
    # x0 x1 + x1^2 over GF(256): kept, the 256 tables of 256 entries take
    # about 4 MB; above the limit each prefix's table is dropped after use.
    monkeypatch.setattr(quadforms, "_ROOT_TABLE_LIMIT", 0)
    f = QuadraticForm(2, (0, 1, 1), field_from_q(256))
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_roots(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"
    assert count == 2 * 256 - 1  # x1 = 0 or x1 = x0


def test_iter_roots_is_lazy():
    # 2^21 roots over GF(2)^22; the first thousand must not build the rest.
    N = 22
    f = QuadraticForm(N, (1,) + (0,) * (N * (N + 1) // 2 - 1), F2)
    tracemalloc.start()
    try:
        first = list(itertools.islice(iter_roots(f), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"
    assert first == list(itertools.islice(iter_roots_brute(f), 1000))


def test_iter_roots_of_a_non_diagonal_form_is_lazy():
    # About 3^13 roots over GF(3)^14, listed by the last-coordinate solve.
    f = _random_form(F3, 14, random.Random(14))
    tracemalloc.start()
    try:
        first = list(itertools.islice(iter_roots(f), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"
    assert first == list(itertools.islice(iter_roots_brute(f), 1000))


def test_iter_roots_never_evaluates_the_form(monkeypatch):
    calls = []
    evaluate = QuadraticForm.evaluate
    monkeypatch.setattr(QuadraticForm, "evaluate", lambda f, x: calls.append(x) or evaluate(f, x))
    forms = [
        QuadraticForm(3, (1, 2, 3, 4, 5, 6), ext_field(2, 4)),
        QuadraticForm(3, (1, 1, 0, 2, 1, 1), F3),
        sum_of_squares(F5, 3),
    ]
    counts = [sum(1 for _ in iter_roots(f)) for f in forms]
    assert calls == []
    assert counts == [sum(1 for _ in iter_roots_brute(f)) for f in forms]


# sha256 of 200 nonzero sum-of-squares roots drawn with random.Random(N) and
# exhaustive_limit=256, recorded while sample_root listed every root by the
# full scan that oracles.iter_roots_brute keeps.
SAMPLE_ROOT_STREAMS = {
    (2, 2): "5194ba0d2daa2f6e1920eb597ac4c4ee33205665dfb182e1097efa194ca6613a",
    (2, 3): "94858cbd3324636d11fd365ea5cbcf7da98e73fc7e87c2d4335a3095fac0d237",
    (2, 4): "850d70aa2bcb00565733844a41ad4f41d4f78269811511f7430d1d1ba299438a",
    (2, 5): "cb8fa85092492892bc20365c630b819e918dcab64a57989f855c1f5bf23414ad",
    (2, 6): "830302860200bea7ab412f3994085404be661f5702e0936b748cdd314a414024",
    (2, 7): "d69fe1d64903d97112d6d156315cfecd85997abbc86b6b0df406d1013a59c28d",
    (2, 8): "f8fbedc5e0ca6a6f8fb679744894b89082d00a901f64dd2c6e5261c85e68e22e",
    (4, 2): "160ddf874f0d168cb07890cf56c9921d2f6f783ef7bf225cfb0688535d24fb37",
    (4, 3): "ee618153a735fe306c3b656a5bbf039da17fca39dd68b59aee18f9aa232e69e5",
    (4, 4): "da6d2b8421fcd860c0316152fa911eb9370ca1b230e4cfb10f7bfdb4a1c07810",
}


@pytest.mark.parametrize("q,N", sorted(SAMPLE_ROOT_STREAMS), ids=str)
def test_sample_root_streams_pinned(q, N):
    f = sum_of_squares(field_from_q(q), N)
    rng = random.Random(N)
    draws = [sample_root(f, rng, nonzero=True, exhaustive_limit=256) for _ in range(200)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == SAMPLE_ROOT_STREAMS[q, N]


CLI_FORM_GF16 = ("GF(16)", (1, 2, 3, 4, 5, 6))  # `sorank roots --q 2 --ext-m 4 --nvars 3`

# The same draws with exhaustive_limit = q^N, for forms outside the
# characteristic-2 diagonal case: odd-q sums of squares and the CLI's
# non-diagonal GF(16) form.  Recorded while such forms were listed by the
# full scan that oracles.iter_roots_brute keeps.
GENERIC_ROOT_STREAMS = {
    (3, 3): "bfffa47dfb915860dd7856baa664d44153b73c85abdc7715abcdcec3a8b51424",
    (3, 4): "5ad44cab7b1aa726c1386ab43f6604a48c6585b1958929d7b799da7afd09cc55",
    (3, 5): "d718b5815be61f7f366abac9ccddde12a46077b968379d055a562422ab3c82da",
    (5, 2): "3499e967383c8c585aef954e46ee63df8ecf475c5521f3d6fb756d6bcbc61a4f",
    (5, 3): "4bada769a78e4c64bf186cfbaf4d249a3e909145b076f780b2d923ca3f980a73",
    (5, 4): "460fa6ce29c5872c852ea9a8a07ca536bf2f837da90f9b378d07eca589efb266",
    (9, 2): "b14d48fe7eefe4d07abe6c8c751ac42c7f9ea838c34dc2532aff3c8644c996f1",
    (9, 3): "335500601127faa71b640dcbd3cc7603e57ea4770d56b60c30fc6240d42e6548",
    CLI_FORM_GF16: "dcc2445c309ce1c80e86fb65396547bccec4276267ccf6be20cf098c6d0d795b",
}


@pytest.mark.parametrize("key", list(GENERIC_ROOT_STREAMS), ids=str)
def test_generic_root_streams_pinned(key):
    if key == CLI_FORM_GF16:
        f = QuadraticForm(3, key[1], ext_field(2, 4))
    else:
        f = sum_of_squares(field_from_q(key[0]), key[1])
    N = f.nvars
    rng = random.Random(N)
    limit = f.field.order**N
    draws = [sample_root(f, rng, nonzero=True, exhaustive_limit=limit) for _ in range(200)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == GENERIC_ROOT_STREAMS[key]


@pytest.mark.parametrize("field,N", CHAR2_DIAGONAL_GRID)
def test_sample_root_of_a_char2_diagonal_form_keeps_the_listing_stream(field, N):
    # Drawn by index, the root and the RNG state afterwards must be those of
    # listing every root and drawing one: the same root or the same error.
    rng = random.Random(field.order * 1000 + N)
    limit = field.order**N
    for f in _char2_diagonal_forms(field, N, rng):
        for nonzero in (False, True):
            roots = list(iter_roots_brute(f, nonzero))
            for seed in range(3):
                new, old = random.Random(seed), random.Random(seed)
                if roots:
                    assert sample_root(f, new, nonzero, exhaustive_limit=limit) == roots[old.randrange(len(roots))]
                else:
                    with pytest.raises(ParamError):
                        sample_root(f, new, nonzero, exhaustive_limit=limit)
                assert new.getstate() == old.getstate(), (f.coeffs, nonzero, seed)


def test_sample_root_calls_iter_roots_once_per_exhaustive_draw(monkeypatch):
    # perfbench reads a sample_root call as exhaustive iff it called
    # iter_roots: once per exhaustive draw, never on the rejection path.
    calls = []
    orig = quadforms.iter_roots
    monkeypatch.setattr(quadforms, "iter_roots", lambda *a, **kw: calls.append(a) or orig(*a, **kw))
    E16 = ext_field(2, 4)
    forms = [
        sum_of_squares(F2, 6),
        diagonal_form(E16, [0, 3, 0]),
        diagonal_form(E16, [0, 0, 0]),
        sum_of_squares(F3, 4),
        QuadraticForm(3, CLI_FORM_GF16[1], E16),
    ]
    rng = random.Random(7)
    for f in forms:
        space = f.field.order**f.nvars
        del calls[:]
        for _ in range(20):
            sample_root(f, rng, nonzero=True, exhaustive_limit=space)
        assert len(calls) == 20, f.coeffs
        del calls[:]
        for _ in range(20):
            sample_root(f, rng, nonzero=True, exhaustive_limit=space - 1)
        assert calls == [], f.coeffs
    # The constructions of the criterion-7 trials (GF(2), 2 x 4 matrices)
    # draw every root exhaustively, those of the GF(2^5)-linear vector codes
    # of length 5 none.
    draws = []
    monkeypatch.setattr(construct, "sample_root", lambda *a, **kw: draws.append(a) or sample_root(*a, **kw))
    for k in (1, 2, 3):
        del calls[:], draws[:]
        construct.so_code(F2, 2, 4, k, rng)
        assert len(calls) == len(draws) >= k
        del calls[:], draws[:]
        construct.so_code(F2, 5, 5, 2, rng, repr="vector", ext=ext_field(2, 5))
        assert calls == [] and len(draws) >= 2


def test_sample_root_examples():
    f2 = QuadraticForm(2, (1, 0, 1), F2)
    assert sample_root(f2, random.Random(0), nonzero=True) == (1, 1)
    f3 = QuadraticForm(2, (1, 0, 1), F3)
    with pytest.raises(ParamError):
        sample_root(f3, random.Random(0), nonzero=True)


def test_sample_root_rejection_path_is_a_root():
    f = sum_of_squares(F2, 8)
    rng = random.Random(5)
    for _ in range(50):
        x = sample_root(f, rng, nonzero=True, exhaustive_limit=16)
        assert f.evaluate(x) == 0 and any(x)


def test_sample_root_roughly_uniform():
    from scipy import stats

    f5 = QuadraticForm(2, (1, 0, 1), F5)
    roots = [r for r in iter_roots(f5, nonzero=True)]
    assert len(roots) == 8
    rng = random.Random(99)
    counts = {r: 0 for r in roots}
    for _ in range(8000):
        counts[sample_root(f5, rng, nonzero=True)] += 1
    p = stats.chisquare(list(counts.values())).pvalue
    assert p > 0.001


def test_brute_force_size_cap():
    with pytest.raises(SizeError):
        count_roots_brute(sum_of_squares(F5, 12))


def test_ext_field_forms():
    E = ext_field(2, 2)
    f = sum_of_squares(E, 3)
    # z1^2 + z2^2 + z3^2 over GF(4); (1, w, w^2) is a root
    assert f.evaluate((1, 2, 3)) == 0
    brute = count_roots_brute(f)
    assert brute in count_roots_formula(f)


def test_from_full_matrix_folds():
    M = [[1, 2], [1, 1]]
    f = from_full_matrix(F3, M)
    assert f.coeffs == (1, 0, 1)  # x1^2 + (2+1) x1 x2 + x2^2


# Each QuadraticForm check with the error class it raises.
BAD_FORMS = {
    "no-variables": ((0, ()), ParamError),
    "wrong-coefficient-count": ((2, (1, 0)), ParamError),
    "coefficient-out-of-range": ((1, (2,)), ParamError),
}


@pytest.mark.parametrize("args, error", BAD_FORMS.values(), ids=BAD_FORMS.keys())
def test_bad_forms_raise(args, error):
    with pytest.raises(error):
        QuadraticForm(*args, F2)

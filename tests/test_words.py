import random

import pytest

from sorank import linalg
from sorank.errors import FormatError, ParamError
from oracles import (
    count_eliminations,
    is_contained_in_dual,
    lemma1_pair_identity,
    mat_to_vec,
    trace_inner_product,
    vec_to_mat,
    vector_inner_product,
    zero_word,
)
from sorank.fields import ext_field, field_from_q, find_self_dual_basis
from sorank.words import (
    LinearCode,
    MatrixWord,
    VectorWord,
    dual,
    dump_code,
    is_self_orthogonal,
    load_code,
    rank_distance,
)

F2 = field_from_q(2)
F3 = field_from_q(3)


def _mw(rows, field=F2):
    return MatrixWord(rows, field)


def _random_mw(field, n, m, rng):
    return MatrixWord(tuple(tuple(rng.randrange(field.order) for _ in range(m)) for _ in range(n)), field)


def _same_code(a, b):
    """Equal codes: same representation and dimension, and stacking one
    basis on the other adds nothing to the rank."""
    return a.repr == b.repr and a.k == b.k and linalg.rank(a.lin_field(), a.rows + b.rows) == a.k


def test_rank_distance_examples():
    X = _mw([[1, 0, 1], [0, 1, 1]])
    assert rank_distance(X, X) == 0
    zero = zero_word(F2, 2, 3)
    eye_pad = _mw([[1, 0, 0], [0, 1, 0]])
    assert rank_distance(zero, eye_pad) == 2
    assert rank_distance(_mw([[1, 0], [0, 0]]), _mw([[0, 0], [0, 1]])) == 2
    with pytest.raises(ParamError):
        rank_distance(X, zero_word(F2, 2, 4))


def test_words_built_from_lists_equal_words_built_from_tuples():
    X = MatrixWord([[1, 0], [0, 1]], F2)
    assert X == MatrixWord(((1, 0), (0, 1)), F2) and hash(X) == hash(MatrixWord(((1, 0), (0, 1)), F2))
    assert X.entries == ((1, 0), (0, 1)) and MatrixWord([(1, 0), [0, 1]], F2) == X
    E = ext_field(2, 2)
    x = VectorWord([1, 2], E)
    assert x == VectorWord((1, 2), E) and hash(x) == hash(VectorWord((1, 2), E)) and x.coords == (1, 2)
    with pytest.raises(ParamError):
        MatrixWord([[1, 0], [0]], F2)
    with pytest.raises(ParamError):
        VectorWord([1, 4], E)


def test_rank_distance_metric_axioms():
    rng = random.Random(23)
    for _ in range(2000):
        X, Y, Z = (_random_mw(F3, 2, 3, rng) for _ in range(3))
        assert rank_distance(X, Y) == rank_distance(Y, X)
        assert (rank_distance(X, Y) == 0) == (X == Y)
        assert rank_distance(X, Z) <= rank_distance(X, Y) + rank_distance(Y, Z)


def test_vector_rank_distance_is_the_distance_of_the_matrix_pictures():
    # The difference is taken over GF(q^m) and expanded once into its digits.
    rng = random.Random(31)
    for ext in (ext_field(2, 3), ext_field(3, 2), ext_field(4, 2), ext_field(2, 4)):
        for n in (1, 2, 3, 5):
            for _ in range(20):
                x, y = (VectorWord([rng.randrange(ext.order) for _ in range(n)], ext) for _ in range(2))
                d = rank_distance(x, y)
                assert d == rank_distance(vec_to_mat(x), vec_to_mat(y))
                assert d == linalg.rank(ext.base, [ext.to_digits(ext.sub(a, b)) for a, b in zip(x.coords, y.coords)])
                assert rank_distance(x, x) == 0


def test_words_over_another_field_are_rejected():
    code = LinearCode([[1, 0, 1, 1]], F2, 2, 2)
    vcode = LinearCode([[1, 2]], F2, 2, 2, ext=ext_field(2, 2))
    foreign = [_mw([[1, 0], [1, 1]], F3), _mw([[1, 0], [1, 3]], field_from_q(4))]
    for w in foreign:
        with pytest.raises(ParamError):
            code.contains(w)
        with pytest.raises(ParamError):
            rank_distance(_mw([[0, 0], [0, 0]]), w)
        with pytest.raises(ParamError):
            rank_distance(w, _mw([[0, 0], [0, 0]]))
    for w in (VectorWord((1, 2), ext_field(3, 2)), VectorWord((1, 2), ext_field(4, 2))):
        with pytest.raises(ParamError):
            vcode.contains(w)
        with pytest.raises(ParamError):
            rank_distance(VectorWord((0, 0), ext_field(2, 2)), w)


def test_trace_inner_product_examples():
    eye2 = _mw([[1, 0], [0, 1]])
    assert trace_inner_product(zero_word(F2, 2, 2), eye2) == 0
    assert trace_inner_product(eye2, eye2) == 0
    eye3 = _mw([[1, 0], [0, 1]], F3)
    assert trace_inner_product(eye3, eye3) == 2


def test_vector_inner_product_examples():
    E4 = ext_field(2, 2)
    w = 2
    x = VectorWord((w, w), E4)
    assert vector_inner_product(x, VectorWord((0, 0), E4)) == 0
    assert vector_inner_product(x, x) == 0  # 2 w^2 = 0 in characteristic 2
    E9 = ext_field(3, 2)
    assert vector_inner_product(VectorWord((1, 2), E9), VectorWord((2, 1), E9)) == 1


def test_bilinearity_of_inner_products():
    rng = random.Random(31)
    E = ext_field(3, 2)
    for _ in range(500):
        a, b = rng.randrange(3), rng.randrange(3)
        X, Y, Z = (_random_mw(F3, 2, 2, rng) for _ in range(3))
        aXbY = MatrixWord([linalg.combine(F3, (a, b), rows) for rows in zip(X.entries, Y.entries)], F3)
        lhs = trace_inner_product(aXbY, Z)
        rhs = F3.add(F3.mul(a, trace_inner_product(X, Z)), F3.mul(b, trace_inner_product(Y, Z)))
        assert lhs == rhs
        c, d = rng.randrange(9), rng.randrange(9)
        u, v, t = (VectorWord(tuple(rng.randrange(9) for _ in range(2)), E) for _ in range(3))
        cudv = VectorWord(tuple(linalg.combine(E, (c, d), (u.coords, v.coords))), E)
        lhs = vector_inner_product(cudv, t)
        rhs = E.add(E.mul(c, vector_inner_product(u, t)), E.mul(d, vector_inner_product(v, t)))
        assert lhs == rhs


def test_mat_to_vec_examples():
    w = 2
    E = ext_field(2, 2)
    x = VectorWord((w, 0), E)
    assert vec_to_mat(x).entries == ((0, 1), (0, 0))
    rng = random.Random(41)
    for _ in range(1000):
        X = _random_mw(F2, 2, 2, rng)
        assert vec_to_mat(mat_to_vec(X, E)) == X


def test_delsarte_dual_examples():
    zero_code = LinearCode([], F2, 2, 2)
    assert dual(zero_code).k == 4
    full = dual(zero_code)
    assert full.repr == "matrix" and dual(full).k == 0
    gen = _mw([[1, 1], [0, 0]])
    C = LinearCode([gen.flatten()], F2, 2, 2)
    D = dual(C)
    assert D.k == 3
    assert D.contains(gen)


def test_vector_dual_examples():
    E4 = ext_field(2, 2)
    C = LinearCode([(1, 1)], F2, 2, 2, ext=E4)
    D = dual(C)
    assert D.repr == "vector" and D.ext is E4
    assert D.k == 1 and D.contains(VectorWord((1, 1), E4))
    E9 = ext_field(3, 2)
    C = LinearCode([(1, 2)], F3, 2, 2, ext=E9)
    D = dual(C)
    assert D.k == 1 and D.contains(VectorWord((1, 1), E9))


@pytest.mark.parametrize("repr_", ["matrix", "vector"])
def test_dual_dimension_and_involution(repr_):
    rng = random.Random(53)
    if repr_ == "matrix":
        ambient, width = F2, 6

        def make(k):
            rows = []
            while len(rows) < k:
                w = _random_mw(F2, 2, 3, rng)
                try:
                    rows = list(LinearCode(rows + [w.flatten()], F2, 2, 3).rows)
                except ParamError:
                    continue
            return LinearCode(rows, F2, 2, 3)

        total = 6
    else:
        E = ext_field(3, 2)

        def make(k):
            rows = []
            while len(rows) < k:
                w = tuple(rng.randrange(9) for _ in range(4))
                try:
                    rows = list(LinearCode(rows + [w], F3, 4, 2, ext=E).rows)
                except ParamError:
                    continue
            return LinearCode(rows, F3, 4, 2, ext=E)

        total = 4
    for k in range(total + 1):
        C = make(k)
        D = dual(C)
        assert C.k + D.k == total
        assert _same_code(dual(D), C)


def test_code_rows_are_checked():
    rows = [[1, 0, 1, 1, 0, 0], (0, 1, 0, 0, 1, 1)]
    C = LinearCode(rows, F2, 2, 3)
    assert C == LinearCode(tuple(tuple(r) for r in rows), F2, 2, 3) and hash(C) == hash(LinearCode(C.rows, F2, 2, 3))
    assert C.rows == ((1, 0, 1, 1, 0, 0), (0, 1, 0, 0, 1, 1)) and C.width == 6 and C.lin_field() is F2
    assert C.repr == "matrix" and C.basis == tuple(MatrixWord((r[:3], r[3:]), F2) for r in rows)
    E = ext_field(2, 2)
    V = LinearCode([(1, 2, 3)], F2, 3, 2, ext=E)
    assert V.rows == ((1, 2, 3),) and V.width == 3 and V.lin_field() is E
    assert V.repr == "vector" and V.basis == (VectorWord((1, 2, 3), E),)
    bad = [
        ([(1, 0, 1, 1, 0, 0, 1)], F2, 2, 3, None),  # one entry too many
        ([(1, 0, 1, 1, 0)], F2, 2, 3, None),  # one entry too few
        ([(1, 0, 2, 1, 0, 0)], F2, 2, 3, None),  # 2 is not in GF(2)
        ([(1, 2, 4)], F2, 3, 2, E),  # 4 is not in GF(4)
        ([rows[0], rows[0]], F2, 2, 3, None),  # dependent
        ([(1, 2), (2, 3)], F2, 2, 2, E),  # dependent over GF(4): (2, 3) = 2 * (1, 2)
        ([(1, 2, 3)], F2, 3, 3, E),  # GF(4) is not GF(2^3)
        ([(1, 2, 3)], F3, 3, 2, E),  # GF(4) is not GF(3^2)
        ([], F2, 0, 2, None),
        ([], F2, 2, 0, None),
        ([], F2, -1, 2, None),
    ]
    for args in bad:
        with pytest.raises(ParamError):
            LinearCode(*args)


def test_dual_containment_eliminates_once_after_the_dual(monkeypatch):
    # One elimination for the kernel, one for the dual's independence check,
    # and one rank of the dual's rows stacked on the code's.
    calls = count_eliminations(monkeypatch)
    E4 = ext_field(2, 2)
    for code, contained in (
        (LinearCode([(1, 1, 0, 0), (0, 0, 1, 1)], F2, 2, 2), True),
        (LinearCode([(1, 0, 0, 0)], F2, 2, 2), False),
        (LinearCode([(1, 1)], F2, 2, 2, ext=E4), True),
        (LinearCode([], F2, 2, 2, ext=E4), True),
        (LinearCode([(1, 0)], F2, 2, 2, ext=E4), False),
    ):
        calls.clear()
        assert is_contained_in_dual(code) == contained
        assert len(calls) == 3


def test_is_self_orthogonal_examples():
    assert is_self_orthogonal(LinearCode([], F2, 2, 2))
    C = LinearCode([(1, 1, 0, 0)], F2, 2, 2)
    assert is_self_orthogonal(C)
    assert is_contained_in_dual(C)
    eye3 = _mw([[1, 0], [0, 1]], F3)
    assert not is_self_orthogonal(LinearCode([eye3.flatten()], F3, 2, 2))


def test_lemma1_pair_identity_examples():
    E = ext_field(2, 2)
    basis = find_self_dual_basis(E)
    z = VectorWord((0, 0), E)
    assert lemma1_pair_identity(z, z, basis) == (0, 0)
    a = VectorWord((2, 0), E)  # (w, 0)
    lhs, rhs = lemma1_pair_identity(a, a, (2, 3))  # w, w^2
    assert lhs == rhs == 1
    with pytest.raises(ParamError):
        lemma1_pair_identity(a, a, E.basis)  # polynomial basis is not self-dual


def test_lemma1_code_level_equivalence():
    E = ext_field(2, 2)
    basis = find_self_dual_basis(E)
    rng = random.Random(61)
    for _ in range(50):
        xs = [VectorWord(tuple(rng.randrange(4) for _ in range(3)), E) for _ in range(2)]
        ys = [VectorWord(tuple(rng.randrange(4) for _ in range(3)), E) for _ in range(2)]
        # Tr(X Y^T) of the matrices over the self-dual basis.
        mat_orth = all(lemma1_pair_identity(x, y, basis)[1] == 0 for x in xs for y in ys)
        vec_zero = all(vector_inner_product(x, y) == 0 for x in xs for y in ys)
        # <C1, C2> = {0}  =>  Tr(C1 C2^T) = {0}; and the traced products
        # always agree pairwise.
        if vec_zero:
            assert mat_orth
        for x in xs:
            for y in ys:
                l, r = lemma1_pair_identity(x, y, basis)
                assert l == r


def test_code_file_roundtrip():
    rng = random.Random(71)
    rows = []
    while len(rows) < 2:
        w = _random_mw(F3, 2, 3, rng)
        try:
            rows = list(LinearCode(rows + [w.flatten()], F3, 2, 3).rows)
        except ParamError:
            continue
    C = LinearCode(rows, F3, 2, 3)
    assert _same_code(load_code(dump_code(C)), C)
    E = ext_field(2, 3)
    V = LinearCode([(1, 2, 4)], F2, 3, 3, ext=E)
    assert _same_code(load_code(dump_code(V)), V)


def test_code_file_errors():
    with pytest.raises(FormatError):
        load_code("")
    with pytest.raises(FormatError):
        load_code("repr=matrix q=2 m=2 n=2 k=1\n1 0 0\n")
    with pytest.raises(FormatError):
        load_code("repr=weird q=2 m=2 n=2 k=0\n")
    with pytest.raises(FormatError):
        load_code("repr=matrix q=2 m=2 n=2 k=2\n1 0 0 0\n")


@pytest.mark.parametrize("n", [0, -1])
def test_load_code_rejects_a_nonpositive_n(n):
    with pytest.raises(ParamError, match=f"n={n}"):
        load_code(f"repr=matrix q=2 m=2 n={n} k=0\n")


# Each argument check with the error class it raises.
BAD_ARGUMENTS = {
    "empty-matrix-word": (lambda: MatrixWord((), F2), ParamError),
    "flat-word-of-wrong-length": (lambda: LinearCode([], F2, 2, 2).word((0, 1, 0)), ParamError),
    "flat-vector-word-of-wrong-length": (lambda: LinearCode([], F2, 2, 2, ext_field(2, 2)).word((1, 2, 3)), ParamError),
    "empty-vector-word": (lambda: VectorWord((), ext_field(2, 2)), ParamError),
    "vector-word-over-a-prime-field": (lambda: VectorWord((1, 2), F3), ParamError),
    "mixed-representations": (
        lambda: rank_distance(zero_word(F2, 2, 2), VectorWord((0, 0), ext_field(2, 2))),
        ParamError,
    ),
    "syndrome-of-a-short-row": (lambda: LinearCode([[1, 0, 1, 1]], F2, 2, 2).syndrome([1]), ParamError),
    "syndrome-of-a-long-row": (lambda: LinearCode([[1, 0, 1, 1]], F2, 2, 2).syndrome([0, 0, 0, 0, 1, 1]), ParamError),
    "syndrome-of-a-row-outside-the-field": (lambda: LinearCode([[1, 0, 1, 1]], F2, 2, 2).syndrome([0, 0, 2, 0]), ParamError),
    "vector-syndrome-of-a-row-outside-the-field": (
        lambda: LinearCode([[1, 2]], F2, 2, 2, ext_field(2, 2)).syndrome([4, 0]),
        ParamError,
    ),
    "bad-header": (lambda: load_code("repr=matrix q=2 m=two n=2 k=1\n1 0 0 1\n"), FormatError),
    "non-integer-entry": (lambda: load_code("repr=matrix q=2 m=2 n=2 k=1\n1 x 0 1\n"), FormatError),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()

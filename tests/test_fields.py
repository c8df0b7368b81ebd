import itertools
import random

import pytest

from oracles import digitwise_add, frobenius_trace, from_coords, schoolbook_mul
from sorank import linalg
from sorank.errors import ParamError
from sorank.fields import (
    ExtField,
    Field,
    ext_field,
    field_from_q,
    find_self_dual_basis,
    self_dual_basis_exists,
)

BASE_QS = [2, 3, 4, 5, 8, 9]
EXT_MS = [1, 2, 3, 4]


def test_modulus_is_deterministic_and_standard():
    assert field_from_q(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_from_q(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert field_from_q(9).modulus == (1, 0, 1)  # x^2 + 1


def test_invalid_parameters_rejected():
    for p in (-3, 0, 1, 4, 9, 15, 221):  # not prime; 221 = 13 * 17
        with pytest.raises(ParamError):
            Field(p)
    with pytest.raises(ParamError):
        field_from_q(6)
    F = Field(257)
    assert F.order == 257 and F.mul(256, 256) == 1 and F.mul(3, F.inv(3)) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_prime_field_is_int_arithmetic_mod_p(p):
    F = Field(p)
    assert (F.order, F.char, F.q) == (p, p, p)
    for a in range(p):
        assert [F.add(a, b) for b in range(p)] == [(a + b) % p for b in range(p)]
        assert [F.sub(a, b) for b in range(p)] == [(a - b) % p for b in range(p)]
        assert [F.mul(a, b) for b in range(p)] == [a * b % p for b in range(p)]
        assert F.neg(a) == -a % p
        if a:
            assert F.inv(a) * a % p == 1
        for k in range(-3, 6):
            if a or k >= 0:
                assert F.pow(a, k) == (a**k % p if k >= 0 else F.inv(a) ** -k % p)
    assert F.pow(0, 0) == 1


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_from_q_of_a_prime_power_is_the_extension(p, e):
    assert field_from_q(p**e) is ext_field(p, e)
    assert field_from_q(p) is ext_field(p, e).base


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_extension_over_the_packed_prime_field_is_the_same_field(p, m):
    # ExtField takes another ExtField as its base: over ext_field(p, 1), whose
    # arithmetic runs through tables, it finds the same modulus and builds
    # the same field as ext_field(p, m) over Field(p).
    E, T = ext_field(p, m), ExtField(ext_field(p, 1), m)
    assert (T.q, T.m, T.modulus, T.basis) == (E.q, E.m, E.modulus, E.basis)
    for a, b in itertools.product(range(E.order), repeat=2):
        assert (T.add(a, b), T.mul(a, b)) == (E.add(a, b), E.mul(a, b))
    assert [T.trace(x) for x in range(T.order)] == [E.trace(x) for x in range(E.order)]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_extension_mul_matches_schoolbook_product(q):
    # A reference without tables pins the packed encoding of GF(p^e)/GF(p).
    F = field_from_q(q)
    assert F.pow(0, 0) == 1
    for a in range(q):
        assert [F.mul(a, b) for b in range(q)] == [schoolbook_mul(F.char, F.modulus, a, b) for b in range(q)]


def test_trace_examples():
    E = ext_field(2, 2)
    w = 2  # the primitive element with w^2 = w + 1
    assert E.trace(0) == 0
    assert E.trace(w) == 1
    assert ext_field(3, 2).trace(1) == 2


@pytest.mark.parametrize("q", BASE_QS)
@pytest.mark.parametrize("m", EXT_MS)
def test_field_axioms_random(q, m):
    E = ext_field(q, m)
    rng = random.Random(q * 100 + m)
    o = E.order
    for _ in range(10_000):
        a, b, c = rng.randrange(o), rng.randrange(o), rng.randrange(o)
        assert E.mul(a, E.mul(b, c)) == E.mul(E.mul(a, b), c)
        assert E.add(a, E.add(b, c)) == E.add(E.add(a, b), c)
        assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
    for a in range(1, o):
        assert E.mul(a, E.inv(a)) == 1
        assert E.add(a, E.neg(a)) == 0


# Odd extension fields, which add through Zech logarithms: (q, m) is
# ext_field(q, m), GF(q^m) over GF(q), towers included, from 3 to 729
# elements.  (q, 1) is GF(q) over itself: for a prime q it adds through Zech
# where Field(q) adds mod p, and for q = p^e its Zech table is read off
# GF(q)'s own, whose every entry its sums reach.
ZECH_FIELDS = [
    (3, 1), (5, 1), (7, 1), (9, 1), (3, 2), (27, 1), (3, 3), (81, 1), (9, 2), (125, 1), (5, 3), (343, 1), (3, 6)
]


@pytest.mark.parametrize("q,m", ZECH_FIELDS)
def test_zech_addition_matches_digitwise_on_every_pair(q, m):
    F = ext_field(q, m)
    p, o = F.char, F.order
    assert [F.neg(a) for a in range(o)] == [digitwise_add(p, 0, a, -1) for a in range(o)]
    for a in range(o):  # b = 0 and b = -a included
        assert [F.add(a, b) for b in range(o)] == [digitwise_add(p, a, b) for b in range(o)]
        assert [F.sub(a, b) for b in range(o)] == [digitwise_add(p, a, b, -1) for b in range(o)]


def test_zech_addition_matches_digitwise_on_random_pairs():
    F = field_from_q(3**9)
    rng = random.Random(9)
    for _ in range(20_000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.add(a, b) == digitwise_add(3, a, b)
        assert F.sub(a, b) == digitwise_add(3, a, b, -1)
        assert F.neg(a) == digitwise_add(3, 0, a, -1)
        assert F.add(a, F.neg(a)) == 0 and F.sub(a, a) == 0


@pytest.mark.parametrize("p,m", [(7, 3), (3, 5), (5, 3)])
def test_extension_build_is_linear_in_the_order(p, m, monkeypatch):
    # A quadratic table would add once per pair of elements; the exp/log and
    # Zech tables add a few times per element.
    base = Field(p)
    calls = 0
    add = base.add

    def counting_add(a, b):
        nonlocal calls
        calls += 1
        return add(a, b)

    monkeypatch.setattr(base, "add", counting_add)
    E = ExtField(base, m)
    assert 0 < calls <= 32 * E.order


# (q, m) of each field the CLI benchmark builds, with m = 1 read as GF(q) over itself.
CLI_FIELDS = [(2, 1), (3, 1), (4, 1), (5, 1), (4, 3), (2, 4), (5, 3), (4, 4)]


@pytest.mark.parametrize("q,m", CLI_FIELDS)
def test_trace_matches_frobenius_sum(q, m):
    E = ext_field(q, m)
    assert [E.trace(x) for x in range(E.order)] == [frobenius_trace(E, x) for x in range(E.order)]


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_trace_is_linear_and_surjective(q, m):
    E = ext_field(q, m)
    base = E.base
    rng = random.Random(17)
    for _ in range(500):
        a, b = rng.randrange(q), rng.randrange(q)
        x, y = rng.randrange(E.order), rng.randrange(E.order)
        lhs = E.trace(E.add(E.mul(a, x), E.mul(b, y)))
        rhs = base.add(base.mul(a, E.trace(x)), base.mul(b, E.trace(y)))
        assert lhs == rhs
    assert {E.trace(x) for x in range(E.order)} == set(range(q))


def test_self_dual_basis_small_cases():
    assert find_self_dual_basis(ext_field(2, 2)) in ((2, 3), (3, 2))
    assert find_self_dual_basis(ext_field(3, 2)) is None
    E = ext_field(3, 3)
    b = find_self_dual_basis(E)
    assert b is not None and E.is_self_dual_basis(b)


@pytest.mark.parametrize(
    "m, q",
    [(m, q) for q in (2, 3, 4, 5, 7, 8, 9) for m in range(1, 13) if q**m <= 4096] + [(13, 2), (5, 8)],
)
def test_self_dual_basis_existence_matches_condition(q, m):
    E = ext_field(q, m)
    b = find_self_dual_basis(E)
    if self_dual_basis_exists(q, m):
        assert b is not None
        G = E.gram(b)
        assert all(G[i][j] == (1 if i == j else 0) for i in range(m) for j in range(m))
        assert linalg.rank(E.base, [E.to_digits(x) for x in b]) == m
    else:
        assert b is None


def test_frobenius():
    # x -> x^q fixes GF(q), and its m-th iterate is the identity.
    E = ext_field(2, 2)
    w = 2
    assert E.pow(w, 2) == 3  # w^2 = w + 1
    assert E.pow(E.pow(w, 2), 2) == w
    E8 = ext_field(2, 3)
    assert [x for x in range(8) if E8.pow(x, 2) == x] == [0, 1]
    rng = random.Random(5)
    for _ in range(100):
        x = rng.randrange(8)
        assert E8.pow(E8.pow(x, 2), 4) == x


def test_digits_roundtrip():
    # The digits of an element are its coordinates over the polynomial basis.
    base = field_from_q(2)
    E = ExtField(base, 3)
    assert linalg.rank(base, [E.to_digits(b) for b in E.basis]) == 3
    for x in range(E.order):
        assert from_coords(E, E.to_digits(x)) == x
    assert [E.to_digits(b) for b in E.basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# Each argument check with the error class it raises.
BAD_ARGUMENTS = {
    "non-prime-characteristic": (lambda: Field(4), ParamError),
    "degree-zero": (lambda: ExtField(Field(2), 0), ParamError),
    "order-over-2^20": (lambda: ExtField(Field(2), 21), ParamError),
    "prime-over-2^20": (lambda: Field(1048583), ParamError),  # the least prime above 2^20
    "inverse-of-zero": (lambda: field_from_q(4).inv(0), ZeroDivisionError),
    "zero-to-a-negative-power": (lambda: field_from_q(4).pow(0, -1), ZeroDivisionError),
    "prime-field-inverse-of-zero": (lambda: Field(5).inv(0), ZeroDivisionError),
    "prime-field-zero-to-a-negative-power": (lambda: Field(5).pow(0, -1), ZeroDivisionError),
    "q-not-a-prime-power": (lambda: field_from_q(6), ParamError),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()

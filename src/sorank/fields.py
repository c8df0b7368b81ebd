"""Arithmetic in GF(p) and in extensions GF(q^m).

Elements are plain ints.  ``Field(p)`` is GF(p): the ints 0..p-1 mod p.
Every other field is an ``ExtField`` GF(q^m) over a field GF(q), GF(p^e)
being GF(p^e)/GF(p); an element packs its GF(q)-coefficients base q into one
int.  An extension multiplies through log/antilog tables built once (a
primitive element is found at construction), so a product is two table
lookups, and adds by XOR in characteristic 2, otherwise through a Zech
logarithm table read off the log/antilog tables.  Every table is linear in
the order, and so is the work of building it.  Irreducible moduli are chosen
deterministically (least packed encoding among monic irreducibles) so
element encodings are reproducible across runs and platforms.

The non-goal ceiling is q^m <= 2^20; construction refuses anything
larger.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from . import linalg
from .errors import ParamError

_MAX_ORDER = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over an abstract scalar field ------------------------
# Polynomials are lists of scalar-encoded coefficients, low degree first.


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, S):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = S.add(out[i + j], S.mul(ai, bj))
    return _poly_trim(out)


def _poly_rem(a, mod, S):
    """Remainder of a modulo a monic polynomial ``mod``."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i in range(d):
                if mod[i]:
                    a[shift + i] = S.sub(a[shift + i], S.mul(lead, mod[i]))
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(mod, S):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(mod) - 1
    if deg == 1:
        return True
    if mod[0] == 0:  # divisible by x
        return False
    s = S.order
    for d in range(1, deg // 2 + 1):
        for t in range(s**d):
            div = _digits(t, s, d) + [1]
            if not _poly_rem(mod, div, S):
                return False
    return True


def _digits(x, base, width):
    out = []
    for _ in range(width):
        out.append(x % base)
        x //= base
    return out


def _undigits(ds, base):
    x = 0
    for d in reversed(ds):
        x = x * base + d
    return x


class Field:
    """GF(p) for a prime p, its elements the ints 0..p-1 under arithmetic mod p."""

    def __init__(self, p):
        if p > _MAX_ORDER:  # checked first: trial division of a large p is slow
            raise ParamError(f"field order {p} exceeds supported limit 2^20")
        if _prime_factors(p) != [p]:
            raise ParamError(f"characteristic {p} is not prime")
        self.order = self.char = self.q = p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: -a % p
        self.mul = lambda a, b: a * b % p

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, p - 2, p)

        def power(a, k):
            if a == 0 and k < 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, k, p)

        self.inv = inv
        self.pow = power

    def __repr__(self):
        return f"Field(GF({self.char}))"


class _PackedField:
    """GF(q^m) over a base field GF(q): packed encoding + tables."""

    def __init__(self, base, m):
        if m < 1:
            raise ParamError("extension degree must be >= 1")
        order = base.order**m
        if order > _MAX_ORDER:
            raise ParamError(f"field order {order} exceeds supported limit 2^20")
        self.base = base
        self.m = m
        self.q = base.order
        self.order = order
        self.char = base.char
        self.modulus = tuple(self._least_irreducible(base, m))
        self._build_tables()

    @staticmethod
    def _least_irreducible(base, m):
        q = base.order
        for t in range(q**m):
            cand = _digits(t, q, m) + [1]
            if _poly_is_irreducible(cand, base):
                return cand
        raise ParamError("no irreducible modulus found")  # pragma: no cover

    # slow-path arithmetic used only while building the tables
    def _raw_mul(self, a, b):
        B, q = self.base, self.q
        pa = _digits(a, q, self.m)
        pb = _digits(b, q, self.m)
        return _undigits(_poly_rem(_poly_mul(pa, pb, B), list(self.modulus), B), q)

    def _raw_pow(self, a, k):
        r = 1
        while k:
            if k & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            k >>= 1
        return r

    def _find_primitive(self):
        o1 = self.order - 1
        if o1 == 1:
            return 1
        factors = _prime_factors(o1)
        for g in range(2, self.order):
            if all(self._raw_pow(g, o1 // f) != 1 for f in factors):
                return g
        raise ParamError("no primitive element found")  # pragma: no cover

    def _build_tables(self):
        order = self.order
        o1 = order - 1
        g = self._find_primitive()
        exp = [0] * (2 * o1)
        log = [0] * order
        x = 1
        for i in range(o1):
            exp[i] = x
            exp[i + o1] = x
            log[x] = i
            x = self._raw_mul(x, g)

        def mul(a, b):
            if a == 0 or b == 0:
                return 0
            return exp[log[a] + log[b]]

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return exp[o1 - log[a]]

        def power(a, k):
            if a == 0:
                if k == 0:
                    return 1
                if k < 0:
                    raise ZeroDivisionError("inverse of zero")
                return 0
            return exp[(log[a] * k) % o1]

        self.mul = mul
        self.inv = inv
        self.pow = power

        # Addition: XOR in characteristic 2, and otherwise Zech logarithms,
        # 1 + g^d = g^zech[d]: then a + b is g^(log a + zech[log b - log a])
        # and -a is g^(log a + o1/2).
        if self.char == 2:
            self.add = self.sub = lambda a, b: a ^ b
            self.neg = lambda a: a
        else:
            B, q, half = self.base, self.q, o1 // 2
            # 1 + x changes only x's constant digit; 1 + g^half = 0 has no log.
            zech = [log[x - x % q + B.add(x % q, 1)] for x in exp[:o1]]
            zech[half] = None

            def add(a, b):
                if a and b:
                    la = log[a]
                    z = zech[log[b] - la]  # a negative index wraps mod o1
                    return 0 if z is None else exp[la + z]
                return a or b

            self.add = add
            self.neg = lambda a: exp[log[a] + half] if a else 0
            self.sub = lambda a, b: add(a, exp[log[b] + half]) if b else a

    def to_digits(self, x):
        return _digits(x, self.q, self.m)


class ExtField(_PackedField):
    """GF(q^m) built on a base field GF(q), a ``Field`` or another ``ExtField``.

    Elements encode their coefficients base q over the polynomial basis
    ``basis`` of the deterministic modulus, which (q, m) alone fixes; an
    element's coordinates are its digits (``to_digits``).
    """

    def __init__(self, base, m):
        super().__init__(base, m)
        self.basis = poly = tuple(self.q**i for i in range(m))
        # tr(b) is the matrix trace of y -> b y: the sum over j of digit j of b x^j.
        self._poly_traces = [
            reduce(base.add, (self.to_digits(self.mul(b, c))[j] for j, c in enumerate(poly))) for b in poly
        ]

    def __repr__(self):
        return f"ExtField(GF({self.q}^{self.m})/GF({self.q}))"

    def trace(self, x):
        """Field trace down to GF(q), a GF(q)-linear functional: the dot of
        x's digits with the traces of the polynomial basis."""
        return linalg.dot(self.base, self.to_digits(x), self._poly_traces)

    def gram(self, basis):
        """Trace Gram matrix [tr(b_i b_j)] over GF(q)."""
        return [[self.trace(self.mul(bi, bj)) for bj in basis] for bi in basis]

    def is_self_dual_basis(self, basis):
        """True iff the m elements of ``basis`` are trace-orthonormal."""
        return self.gram(basis) == [[int(i == j) for j in range(self.m)] for i in range(self.m)]


def self_dual_basis_exists(q, m):
    """Existence condition: q even, or both q and m odd."""
    return q % 2 == 0 or m % 2 == 1


def find_self_dual_basis(ext: ExtField):
    """A basis equal to its trace dual, or None when none exists.

    Greedy scan of y = 1, 2, ... (Seroussi and Lempel, 1980): keep y when
    tr(y^2) = 1, tr(y c) = 0 for each kept c and, in characteristic 2, the
    kept sum plus y is 1 exactly when y would be the m-th element.  Kept
    elements are orthonormal, hence independent.  No backtracking is needed.
    In characteristic 2, Tr(x^2) = Tr(x)^2 makes a self-dual basis sum to 1;
    the sum rule forbids a partial set summing to 1, whose alternating
    complement has no unit vector.  For odd q and m the complement's
    discriminant stays a square, so it has a unit vector.  An element usable
    now was kept when the scan passed it, so all usable ones lie ahead.
    """
    if not self_dual_basis_exists(ext.q, ext.m):
        return None
    char2 = ext.q % 2 == 0
    kept = []
    total = 0
    for y in range(1, ext.order):
        if char2 and (ext.add(total, y) == 1) != (len(kept) == ext.m - 1):
            continue
        if ext.trace(ext.mul(y, y)) != 1 or any(ext.trace(ext.mul(y, c)) for c in kept):
            continue
        kept.append(y)
        if len(kept) == ext.m:
            return tuple(kept)
        total = ext.add(total, y)


def prime_power(q):
    """(p, e) with q = p^e for a prime p; ParamError when q is none."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ParamError(f"{q} is not a prime power")
    p, e = factors[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


@lru_cache(maxsize=None)
def field_from_q(q):
    """The field GF(q), q any prime power: ``Field(q)`` for a prime, and
    otherwise GF(p^e) over GF(p), the same object as ``ext_field(p, e)``."""
    p, e = prime_power(q)
    return Field(p) if e == 1 else ext_field(p, e)


@lru_cache(maxsize=None)
def ext_field(q, m):
    """GF(q^m) over GF(q), deterministic moduli, polynomial basis."""
    return ExtField(field_from_q(q), m)


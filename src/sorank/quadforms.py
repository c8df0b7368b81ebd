"""Quadratic forms over a finite field: evaluation, rank, root counts.

Coefficients are stored upper-triangular (the (i,j) and (j,i) monomials
folded together) so a form has one canonical representation.  The rank
is read off one matrix, A + A^T for the upper-triangular A: in odd
characteristic it is that matrix's rank; in characteristic 2 the matrix
has a zero diagonal and is the alternating part, which alone undercounts
(x1^2 + x2^2 has alternating rank 0 but form rank 1), so the form is
checked on the matrix's radical as well.

Roots are listed lazily in ``itertools.product`` order, from the start-th
on.  A diagonal form in characteristic 2 is the square of a linear form, sum
a_i x_i^2 = (sum sqrt(a_i) x_i)^2, so its roots are a hyperplane: they are
enumerated directly, one coordinate solved from the others, without
evaluating the form, and the idx-th root is built from idx's digits, so
``iter_roots`` seeks to a start in O(N) and ``sample_root`` draws such a
root by its index.  Every other form is a z^2 + l z + c in its last
coordinate z, where l and c depend on the prefix of the other coordinates;
for each prefix the z are read from a table, so no point is evaluated.  The
zero point is every form's first root, so ``nonzero`` starts one root later.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import reduce
from operator import xor

from . import linalg
from .errors import BudgetError, ParamError, SizeError

BRUTE_LIMIT = 1 << 24
EXHAUSTIVE_SAMPLE_LIMIT = 1 << 20
SAMPLE_BUDGET = 100_000
# Most entries the per-l tables of _last_coordinate_roots may hold (o^2).
_ROOT_TABLE_LIMIT = 1 << 16


@dataclass(frozen=True)
class QuadraticForm:
    """sum_{i<=j} a_ij x_i x_j with coefficients in ``field``.

    ``coeffs`` is the flat upper-triangular list, row order:
    a_00..a_0(N-1), a_11..a_1(N-1), ...
    """

    nvars: int
    coeffs: tuple
    field: object = dc_field(repr=False)

    def __post_init__(self):
        N = self.nvars
        if N < 1:
            raise ParamError("form needs at least one variable")
        if len(self.coeffs) != N * (N + 1) // 2:
            raise ParamError("wrong coefficient count")
        o = self.field.order
        if any(not 0 <= c < o for c in self.coeffs):
            raise ParamError("coefficient out of range")
        pairs = itertools.combinations_with_replacement(range(N), 2)
        object.__setattr__(self, "_terms", tuple((i, j, a) for (i, j), a in zip(pairs, self.coeffs) if a))

    def is_zero(self):
        return not self._terms

    def evaluate(self, x):
        if len(x) != self.nvars:
            raise ParamError("point length mismatch")
        F = self.field
        add, mul = F.add, F.mul
        s = 0
        for i, j, a in self._terms:
            xi, xj = x[i], x[j]
            if xi and xj:
                s = add(s, mul(a, mul(xi, xj)))
        return s


def diagonal_form(field, diag):
    """sum_i diag[i] * x_i^2."""
    pairs = itertools.combinations_with_replacement(range(len(diag)), 2)
    return QuadraticForm(len(diag), tuple(diag[i] if i == j else 0 for i, j in pairs), field)


def sum_of_squares(field, N):
    """x_1^2 + ... + x_N^2."""
    return diagonal_form(field, [1] * N)


def rank_of_form(f: QuadraticForm) -> int:
    """Minimum variable count over all equivalent forms (0 for the zero form)."""
    if f.is_zero():
        return 0
    F = f.field
    N = f.nvars
    # S = A + A^T for the upper-triangular A: a at (i, j) plus a at (j, i),
    # so the diagonal gets 2a.
    S = [[0] * N for _ in range(N)]
    for i, j, a in f._terms:
        S[i][j] = a
        S[j][i] = F.add(S[j][i], a)
    if F.char != 2:
        return linalg.rank(F, S)
    # Characteristic 2: S has a zero diagonal and is the alternating part,
    # whose rank is N minus the dimension of its radical; the form
    # restricted to the radical is additive in each basis vector, and it
    # contributes one more to the rank iff it is not identically zero.
    radical = linalg.nullspace(F, S)
    extra = 1 if any(f.evaluate(w) for w in radical) else 0
    return N - len(radical) + extra


def count_roots_brute(f: QuadraticForm) -> int:
    """Exact root count by exhaustive enumeration (space capped at 2^24)."""
    space = f.field.order**f.nvars
    if space > BRUTE_LIMIT:
        raise SizeError(f"search space {space} exceeds 2^24")
    return sum(1 for _ in iter_roots(f))


def count_roots_formula(f: QuadraticForm):
    """Closed-form root-count candidates as a tuple.

    One candidate when the rank determines the count (rank 0 or odd), two
    when the rank is even and the form's type picks the sign; the caller
    disambiguates against the brute-force oracle or accepts either.
    """
    Q = f.field.order
    N = f.nvars
    r = rank_of_form(f)
    if r == 0:
        return (Q**N,)
    if r % 2 == 1:
        return (Q ** (N - 1),)
    spread = (Q - 1) * Q ** (N - r // 2 - 1)
    return tuple(sorted((Q ** (N - 1) - spread, Q ** (N - 1) + spread)))


def iter_roots(f: QuadraticForm, nonzero=False, start=0):
    """The roots of f (optionally without the zero point) from the start-th
    on, lazily, in ``itertools.product`` order."""
    if start < 0:
        raise ParamError(f"start {start} is negative")
    start += nonzero  # the zero point is the first root of every form
    if _is_hyperplane_form(f):
        yield from _diagonal_char2_roots(f, start)
    else:
        yield from itertools.islice(_last_coordinate_roots(f), start, None)


def _is_hyperplane_form(f):
    """A diagonal form in characteristic 2, whose roots are a hyperplane."""
    return f.field.char == 2 and all(i == j for i, j, _ in f._terms)


def _hyperplane(f):
    """(p, w) for f = sum a_i x_i^2 = (sum sqrt(a_i) x_i)^2 != 0 in
    characteristic 2: its roots are the hyperplane x_p = sum_{i<p} w_i x_i,
    for p the last index with a_p != 0 and w_i = sqrt(a_i / a_p)."""
    F = f.field
    p, _, ap = f._terms[-1]
    c, w = F.inv(ap), [0] * p
    for i, _, a in f._terms[:-1]:
        w[i] = F.pow(F.mul(a, c), F.order // 2)
    return p, w


def _product_from(o, n, idx):
    """``itertools.product(range(o), repeat=n)`` from its idx-th tuple on:
    the tuple of idx's base-o digits, then, for each position from the last
    up, the tuples that raise that digit and run every later one from 0."""
    digits = [idx // o**k % o for k in reversed(range(n))]
    if idx < o**n:
        yield tuple(digits)
        for k in reversed(range(n)):
            yield from itertools.product(*zip(digits[:k]), range(digits[k] + 1, o), *[range(o)] * (n - 1 - k))


def _diagonal_char2_roots(f, start):
    """The roots of a diagonal form in characteristic 2 from the start-th on:
    every point when f = 0, else the hyperplane of ``_hyperplane``, whose x_p
    depends only on earlier coordinates.  So in product order the idx-th root
    is idx's base-o digits over the other coordinates with x_p solved, and a
    seek costs O(N); addition in characteristic 2 is XOR of the encodings.
    """
    F = f.field
    o, N = F.order, f.nvars
    if f.is_zero():
        return _product_from(o, N, start)
    p, w = _hyperplane(f)
    return (x[:p] + (reduce(xor, map(F.mul, w, x), 0),) + x[p:] for x in _product_from(o, N - 1, start))


def _last_coordinate_roots(f):
    """Roots of f = a z^2 + l(x') z + c(x'), z the last coordinate and x' the
    prefix: for each x' in ``itertools.product`` order, x' + (z,) for the z
    in T[l][c], where T[l][v] lists in ascending order the z with
    a z^2 + l z + v = 0.  So the roots come in the order of the full product
    scan.  T[l] is built on the first prefix with that l, one pass over z.
    Fields whose o^2 table entries exceed _ROOT_TABLE_LIMIT keep no tables:
    T[l] is built again for each prefix.
    """
    F = f.field
    add, mul, neg = F.add, F.mul, F.neg
    free = range(F.order)
    keep = F.order**2 <= _ROOT_TABLE_LIMIT
    p = f.nvars - 1
    a = next((aij for i, _, aij in f._terms if i == p), 0)
    cross = [(i, aij) for i, j, aij in f._terms if i < j == p]
    head = [term for term in f._terms if term[1] < p]
    tables = {}
    for x in itertools.product(free, repeat=p):
        l = c = 0
        for i, aij in cross:
            l = add(l, mul(aij, x[i]))
        for i, j, aij in head:
            c = add(c, mul(aij, mul(x[i], x[j])))
        t = tables.get(l)
        if t is None:
            t = {}
            for z in free:
                t.setdefault(neg(mul(add(mul(a, z), l), z)), []).append(z)
            if keep:
                tables[l] = t
        for z in t.get(c, ()):
            yield x + (z,)


def sample_root(f, rng, nonzero=False, exhaustive_limit=EXHAUSTIVE_SAMPLE_LIMIT):
    """A uniformly random (optionally nonzero) root of f.

    Small spaces are sampled exactly, by one draw over the root count (a
    hyperplane's drawn root is sought, the others' listed); larger ones use
    rejection sampling on uniform points, uniform over the root set.
    """
    o = f.field.order
    space = o**f.nvars
    if space <= exhaustive_limit:
        if _is_hyperplane_form(f):
            count = o ** (f.nvars - (not f.is_zero())) - nonzero
            if not count:
                raise ParamError("no root exists" + (" (nonzero)" if nonzero else ""))
            return next(iter_roots(f, nonzero, start=rng.randrange(count)))
        roots = list(iter_roots(f, nonzero=nonzero))
        if not roots:
            raise ParamError("no root exists" + (" (nonzero)" if nonzero else ""))
        return roots[rng.randrange(len(roots))]
    randrange, N = rng.randrange, f.nvars
    for _ in range(SAMPLE_BUDGET):
        x = tuple([randrange(o) for _ in range(N)])
        if nonzero and not any(x):
            continue
        if f.evaluate(x) == 0:
            return x
    raise BudgetError(
        f"root sampling budget {SAMPLE_BUDGET} exhausted (nvars={f.nvars}, field order {o}, nonzero={nonzero})"
    )


"""Rank-metric balls: exact sizes, Gaussian binomials, enumeration, sampling.

All counts use exact integer arithmetic (they overflow 64 bits quickly);
floats appear only in the log-domain upper bound.  Enumeration and uniform
sampling both go through the factorization X = A * B of a rank-i matrix
into a full-column-rank n x i factor and the RREF basis B of its row
space, which is a bijection onto the rank-i stratum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import linalg
from .errors import ParamError, SizeError
from .words import MatrixWord

ENUM_LIMIT = 1 << 22


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n, exact."""
    if not 0 <= k <= n:
        raise ParamError(f"k={k} out of range 0..{n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


def rank_stratum_count(n, m, q, i):
    """Number of n x m matrices over GF(q) of rank exactly i."""
    if not 0 <= i <= min(n, m):
        raise ParamError(f"rank {i} out of range")
    c = gaussian_binomial(n, i, q)
    for j in range(i):
        c *= q**m - q**j
    return c


def ball_size_exact(n, m, q, r):
    """Number of n x m matrices of rank <= r."""
    if not 0 <= r <= n <= m:
        raise ParamError(f"need 0 <= r <= n <= m, got r={r}, n={n}, m={m}")
    return sum(rank_stratum_count(n, m, q, i) for i in range(r + 1))


def ball_size_upper_bound(n, m, q, tau):
    """log_q of the bound 4 q^{mn(tau + tau*rho - tau^2*rho)}, rho = n/m."""
    if not 0 < tau < 1:
        raise ParamError("tau must lie in (0, 1)")
    rho = n / m
    return math.log(4, q) + m * n * (tau + tau * rho - tau * tau * rho)


@dataclass(frozen=True)
class BallSpec:
    """A rank-metric ball: center word and integer radius."""

    center: MatrixWord
    radius: int

    def __post_init__(self):
        if not 0 <= self.radius <= self.center.n:
            raise ParamError(f"radius {self.radius} out of range 0..{self.center.n}")

    @property
    def params(self):
        return (self.center.field.order, self.center.n, self.center.m)

    def size(self):
        q, n, m = self.params
        return ball_size_exact(n, m, q, self.radius)


def iter_rref(field, i, m):
    """All i x m matrices in reduced row-echelon form of rank i."""
    q = field.order
    if i == 0:
        yield []
        return
    for pivots in itertools.combinations(range(m), i):
        pivot_set = set(pivots)
        free_cells = [
            (t, j) for t in range(i) for j in range(pivots[t] + 1, m) if j not in pivot_set
        ]
        template = [[0] * m for _ in range(i)]
        for t, p in enumerate(pivots):
            template[t][p] = 1
        for values in itertools.product(range(q), repeat=len(free_cells)):
            rows = [row[:] for row in template]
            for (t, j), v in zip(free_cells, values):
                rows[t][j] = v
            yield rows


def iter_full_colrank(field, n, i):
    """All n x i matrices of rank i, as lists of i columns (length n)."""
    q = field.order
    add, mul = field.add, field.mul
    all_vecs = list(itertools.product(range(q), repeat=n))

    def extend_span(span, v):
        out = set(span)
        for s in span:
            for c in range(1, q):
                out.add(tuple(add(a, mul(c, b)) for a, b in zip(s, v)))
        return out

    def rec(cols, span):
        if len(cols) == i:
            yield cols
            return
        for v in all_vecs:
            if v in span:
                continue
            yield from rec(cols + [v], extend_span(span, v))

    zero = tuple([0] * n)
    yield from rec([], {zero})


def _assemble(field, cols, rref_rows, center):
    """The word center + A * B, A given by columns, B by RREF rows."""
    add, mul = field.add, field.mul
    i = len(cols)
    n, m = center.n, center.m
    out = [list(row) for row in center.entries]
    for t in range(i):
        col = cols[t]
        brow = rref_rows[t]
        for r in range(n):
            a = col[r]
            if not a:
                continue
            orow = out[r]
            for c in range(m):
                if brow[c]:
                    orow[c] = add(orow[c], mul(a, brow[c]))
    return MatrixWord(tuple(tuple(row) for row in out), field)


def enumerate_ball(spec: BallSpec):
    """Yield every word at rank distance <= radius from the center, once."""
    q, n, m = spec.params
    if spec.size() > ENUM_LIMIT:
        raise SizeError(f"ball size {spec.size()} exceeds 2^22")
    center = spec.center
    field = center.field
    for i in range(spec.radius + 1):
        col_sets = list(iter_full_colrank(field, n, i))
        for rref_rows in iter_rref(field, i, m):
            for cols in col_sets:
                yield _assemble(field, cols, rref_rows, center)


def _sample_rref(field, i, m, rng):
    """Uniform rank-i RREF matrix: pivot set weighted by its free-cell count."""
    q = field.order
    if i == 0:
        return []
    combos = list(itertools.combinations(range(m), i))
    weights = []
    for pivots in combos:
        pivot_set = set(pivots)
        nfree = sum(
            1 for t in range(i) for j in range(pivots[t] + 1, m) if j not in pivot_set
        )
        weights.append(q**nfree)
    total = sum(weights)
    t = rng.randrange(total)
    acc = 0
    for pivots, w in zip(combos, weights):
        acc += w
        if t < acc:
            break
    pivot_set = set(pivots)
    rows = [[0] * m for _ in range(i)]
    for r, p in enumerate(pivots):
        rows[r][p] = 1
        for j in range(p + 1, m):
            if j not in pivot_set:
                rows[r][j] = rng.randrange(q)
    return rows


def sample_from_ball(spec: BallSpec, rng) -> MatrixWord:
    """Uniform word from the ball: rank stratum by exact count, then
    uniform column-space factor and uniform full-column-rank coefficients."""
    q, n, m = spec.params
    field = spec.center.field
    counts = [rank_stratum_count(n, m, q, i) for i in range(spec.radius + 1)]
    t = rng.randrange(sum(counts))
    acc = 0
    for i, c in enumerate(counts):
        acc += c
        if t < acc:
            break
    rref_rows = _sample_rref(field, i, m, rng)
    while True:
        cols = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(i)]
        if linalg.rank(field, [list(c) for c in cols]) == i:
            break
    return _assemble(field, cols, rref_rows, spec.center)

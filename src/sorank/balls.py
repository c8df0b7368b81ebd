"""Rank-metric balls: exact sizes, Gaussian binomials, enumeration, sampling.

A ball is B_R(0, r) in the n x m matrices over GF(q), of any shape: a
linear code's list size at y counts its words e with He = Hy.  All counts
use exact integer arithmetic (they overflow 64 bits quickly); floats appear
only in the log-domain upper bound.  Enumeration and uniform sampling both
go through the factorization X = A * B of a rank-i matrix into a
full-column-rank n x i factor A and the RREF basis B of its row space,
which is a bijection onto the rank-i stratum; strata above min(n, m) are
empty.  ``enumerate_ball`` yields factor blocks, each B with the list of
every A of its rank, so a caller can work per block rather than per word;
``sample_from_ball`` returns a word as a tuple of n row tuples.
"""

from __future__ import annotations

import itertools
import math

from . import linalg
from .errors import ParamError, SizeError

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
    """Number of n x m matrices over GF(q) of rank exactly i: zero for i > m."""
    if not 0 <= i <= n:
        raise ParamError(f"rank {i} out of range")
    c = gaussian_binomial(n, i, q)
    for j in range(i):
        c *= q**m - q**j
    return c


def ball_size_exact(n, m, q, r):
    """Number of n x m matrices of rank <= r."""
    if not 0 <= r <= n:
        raise ParamError(f"radius {r} out of range 0..{n}")
    return sum(rank_stratum_count(n, m, q, i) for i in range(r + 1))


def ball_size_upper_bound(n, m, q, tau):
    """log_q of the bound 4 q^{mn(tau + tau*rho - tau^2*rho)}, rho = n/m."""
    if not 0 < tau < 1:
        raise ParamError("tau must lie in (0, 1)")
    rho = n / m
    return math.log(4, q) + m * n * (tau + tau * rho - tau * tau * rho)


def _rref_shapes(i, m):
    """Each pivot set of a rank-i RREF with m columns, in
    ``itertools.combinations`` order, with its free cells (t, j): the
    entries right of row t's pivot that lie outside the pivot columns."""
    for pivots in itertools.combinations(range(m), i):
        free = [(t, j) for t, p in enumerate(pivots) for j in range(p + 1, m) if j not in pivots]
        yield pivots, free


def _rref_rows(pivots, free, values, m):
    """The RREF matrix of this shape with ``values`` in its free cells."""
    rows = [[0] * m for _ in pivots]
    for t, p in enumerate(pivots):
        rows[t][p] = 1
    for (t, j), v in zip(free, values):
        rows[t][j] = v
    return rows


def iter_rref(field, i, m):
    """All i x m matrices in reduced row-echelon form of rank i."""
    for pivots, free in _rref_shapes(i, m):
        for values in itertools.product(range(field.order), repeat=len(free)):
            yield _rref_rows(pivots, free, values, m)


def iter_full_colrank(field, n, i):
    """All n x i matrices of rank i, as tuples of i columns (each a tuple of
    length n), in ``itertools.product`` order of the columns."""
    columns = list(itertools.product(range(field.order), repeat=n))
    for cols in itertools.product(columns, repeat=i):
        if linalg.rank(field, cols) == i:
            yield cols


def enumerate_ball(field, n, m, radius):
    """Yield the n x m matrices over ``field`` of rank <= radius as factor
    blocks (B, factors): one per RREF matrix B of rank i <= min(radius, m),
    in ``iter_rref`` order, with B's i rows and the list of every
    full-column-rank n x i factor A (``iter_full_colrank``), one list shared
    by all blocks of rank i.  The block's words are A * B for each A in
    turn, row o being (row o of A) * B; flattening the blocks gives every
    matrix of rank <= radius once."""
    size = ball_size_exact(n, m, field.order, radius)
    if size > ENUM_LIMIT:
        raise SizeError(f"ball size {size} exceeds 2^22")
    for i in range(min(radius, m) + 1):
        factors = list(iter_full_colrank(field, n, i))
        for rows in iter_rref(field, i, m):
            yield rows, factors


def _weighted_index(weights, rng):
    """Index t with probability weights[t] / sum(weights): one randrange."""
    x = rng.randrange(sum(weights))
    for t, w in enumerate(weights):
        if x < w:
            return t
        x -= w


def _sample_rref(field, i, m, rng):
    """Uniform rank-i RREF matrix: pivot set weighted by its free-cell count."""
    if i == 0:
        return []  # no draw at all, not even the randrange(1) of one shape
    q = field.order
    shapes = list(_rref_shapes(i, m))
    pivots, free = shapes[_weighted_index([q ** len(free) for _, free in shapes], rng)]
    return _rref_rows(pivots, free, [rng.randrange(q) for _ in free], m)


def sample_from_ball(field, n, m, radius, rng):
    """The rows of a uniform n x m matrix over ``field`` of rank <= radius:
    rank stratum by exact count, then uniform column-space factor and
    uniform full-column-rank coefficients."""
    if not 0 <= radius <= n:
        raise ParamError(f"radius {radius} out of range 0..{n}")
    q = field.order
    i = _weighted_index([rank_stratum_count(n, m, q, i) for i in range(radius + 1)], rng)
    rref_rows = _sample_rref(field, i, m, rng)
    while True:
        cols = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(i)]
        if linalg.rank(field, cols) == i:
            break
    zero = [0] * m
    return tuple(tuple(linalg.combine(field, [col[o] for col in cols], rref_rows, zero)) for o in range(n))

"""Rank-metric balls: exact sizes, Gaussian binomials, subspace terms, sampling.

A ball is B_R(0, r) in the n x m matrices over GF(q), of any shape: a
linear code's list size at y counts its words e with He = Hy.  All counts
use exact integer arithmetic (they overflow 64 bits quickly); floats appear
only in the log-domain upper bound.  ``enumerate_ball`` lists the ball as
signed subspace terms, whose indicators sum to the ball's.
``sample_from_ball`` draws through the factorization X = A * B of a rank-i
matrix into a full-column-rank n x i factor A and the RREF basis B of its
row space, a bijection onto the rank-i stratum, and returns a word as a
tuple of n row tuples.
"""

from __future__ import annotations

import bisect
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


def enumerate_ball(field, n, m, radius):
    """Yield the ball B_R(0, radius) in the n x m matrices over ``field`` as
    terms (W, c_W), W a subspace of GF(q)^s, s = min(n, m), given by its RREF
    rows in ``iter_rref`` order, of each dimension w <= r' = min(radius, s)
    with c_w nonzero: rank X <= radius exactly when sum_W c_W [space(X) in W]
    is 1, space(X) being X's column space (its row space when m < n).  By
    Moebius inversion over the subspace lattice, mu(W, U) = (-1)^d q^(d(d-1)/2)
    with d = dim U - dim W (Stanley, Enumerative Combinatorics I, 3.10),
    c_w = sum_{d=0}^{r'-w} (-1)^d q^(d(d-1)/2) [s-w, d]_q; at r' = s only
    W = GF(q)^s is left.  SizeError if more than ENUM_LIMIT W would be listed."""
    if not 0 <= radius <= n:
        raise ParamError(f"radius {radius} out of range 0..{n}")
    q, s = field.order, min(n, m)
    r = min(radius, s)
    coeffs = [
        sum((-1) ** d * q ** (d * (d - 1) // 2) * gaussian_binomial(s - w, d, q) for d in range(r - w + 1))
        for w in range(r + 1)
    ]
    count = sum(gaussian_binomial(s, w, q) for w, c in enumerate(coeffs) if c)
    if count > ENUM_LIMIT:
        raise SizeError(f"{count} subspaces exceed 2^22")
    for w, c in enumerate(coeffs):
        if c:
            for rows in iter_rref(field, w, s):
                yield rows, c


def _weighted_index(weights, rng):
    """Index t with probability weights[t] / sum(weights): one randrange."""
    return bisect.bisect(list(itertools.accumulate(weights)), rng.randrange(sum(weights)))


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

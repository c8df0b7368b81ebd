"""Randomized construction of self-orthogonal rank-metric codes.

Both representations reduce to the same flat problem: find linearly
independent vectors v_1..v_k over a field F (F = GF(q) on mn coordinates,
or F = GF(q^m) on n coordinates) with all standard dot products
<v_i, v_j> = 0, for k up to the cap (D-1)/2 of ambient dimension D.  The
first vector is a nonzero root of the sum-of-squares form.  The rows found
so far are kept as one echelon basis, their RREF, and each later step reads
off it the sum of squares restricted to their orthogonal complement (its
Gram matrix is the free columns' dot products), samples a nonzero root of
that form, lifts it into F^D and rejects it if it lies in the current span.

The three ensembles the experiments compare (self-orthogonal codes, the
code-star ensemble and uniform GF(q)-linear codes) all grow their rows
the same way, through ``_outside_span`` and that echelon basis.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import xor

from . import linalg
from .errors import BudgetError, ParamError
from .quadforms import QuadraticForm, diagonal_form, sample_root, sum_of_squares
from .words import LinearCode, flat_space

STEP_BUDGET = 10_000
# Root sampling inside the construction uses a small exhaustive cutoff;
# rejection sampling is equally uniform and far cheaper per call here.
_ROOT_EXHAUSTIVE_LIMIT = 256
_sum_of_squares = lru_cache(maxsize=128)(sum_of_squares)  # one per field object and D


def max_so_dimension(D: int) -> int:
    return (D - 1) // 2


def _outside_span(F, D, k, R, pivots, draw):
    """The first of up to STEP_BUDGET words ``draw()`` returns outside the
    span of the rows with RREF ``(R, pivots)``, folded into that echelon basis
    by ``linalg.extend_rref``.  Explicit span rejection: the counting argument
    is asymptotic and collisions do occur at tiny parameters."""
    for _ in range(STEP_BUDGET):
        x = draw()
        if linalg.extend_rref(F, R, pivots, x):
            return x
    raise BudgetError(
        f"step {len(pivots) + 1}: budget {STEP_BUDGET} exhausted without a word outside the span "
        f"(D={D}, k={k}, field order {F.order}); rerun with the same seed to reproduce"
    )


def _restricted_form(F, R, pivots):
    """(g, lift): the sum of squares on the orthogonal complement of the
    rows whose RREF is ``(R, pivots)``, and the map of g's points into F^D.

    The complement has the basis v_f = e_f - sum_i R[i][f] e_(p_i) over the
    free columns f, so the Gram matrix is G_st = [s = t] + sum_i R[i][s] R[i][t]
    and g's coefficients are G_ss and 2 G_st (s < t).  In characteristic 2
    only the diagonal is built, 1 + (sum_i R[i][s])^2 with XOR for the sum.
    y lifts to y on the free columns and -sum_f R[i][f] y_f at pivot p_i.
    """
    D = len(R[0])
    free = [c for c in range(D) if c not in pivots]
    rows = [[row[c] for c in free] for row in R]
    cols = list(zip(*rows))
    if F.char == 2:
        g = diagonal_form(F, [1 ^ F.mul(s, s) for s in (reduce(xor, col, 0) for col in cols)])
    else:
        two, pairs = F.add(1, 1), itertools.combinations_with_replacement(range(len(free)), 2)
        dots = ((s == t, linalg.dot(F, cols[s], cols[t])) for s, t in pairs)
        g = QuadraticForm(len(free), tuple(F.add(1, G) if diag else F.mul(two, G) for diag, G in dots), F)

    def lift(y):
        x = [0] * D
        for c, v in zip(free + pivots, (*y, *(F.neg(linalg.dot(F, row, y)) for row in rows))):
            x[c] = v
        return x

    return g, lift


def so_flat_vectors(F, D, k, rng):
    """k pairwise- and self-orthogonal independent vectors in F^D."""
    if not 1 <= k <= max_so_dimension(D):
        raise ParamError(f"k={k} outside 1..{max_so_dimension(D)} for ambient dimension {D}")
    found = [list(sample_root(_sum_of_squares(F, D), rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT))]
    R, pivots = linalg.rref(F, found) if k > 1 else ([], [])
    while len(found) < k:
        g, lift = _restricted_form(F, R, pivots)

        def draw():
            return lift(sample_root(g, rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT))

        found.append(_outside_span(F, D, k, R, pivots, draw))
    return found


def so_code(field, n, m, k, rng, repr="matrix", ext=None) -> LinearCode:
    """A k-dimensional self-orthogonal code (k = 0 gives the zero code)."""
    F, D = flat_space(repr, field, ext, n, m)
    rows = so_flat_vectors(F, D, k, rng) if k else []
    return LinearCode(rows, field, n, m, ext)


def sample_code_star(field, n, m, k, rng, repr="matrix", ext=None) -> LinearCode:
    """A k-dimensional code containing a (k-1)-dimensional self-orthogonal subcode.

    Ensemble behind the containment-probability experiments: build the
    self-orthogonal part, then adjoin one uniformly random word outside
    its span.
    """
    F, D = flat_space(repr, field, ext, n, m)
    if k < 1:
        raise ParamError("k must be >= 1")
    if 2 * k > D:
        raise ParamError(f"k={k} exceeds half the ambient dimension {D}")
    rows = so_flat_vectors(F, D, k - 1, rng) if k >= 2 else []
    rows.append(_outside_span(F, D, k, *linalg.rref(F, rows), lambda: [rng.randrange(F.order) for _ in range(D)]))
    return LinearCode(rows, field, n, m, ext)


def uniform_linear_code(field, n, m, k, rng, repr="matrix", ext=None) -> LinearCode:
    """A uniformly random k-dimensional code: k uniform words, each outside
    the span of those before it (the baseline of Guruswami and Resch, 2017)."""
    F, D = flat_space(repr, field, ext, n, m)
    if not 0 <= k <= D:
        raise ParamError(f"k={k} outside 0..{D}, the ambient dimension")
    rows, R, pivots = [], [], []
    while len(rows) < k:
        rows.append(_outside_span(F, D, k, R, pivots, lambda: [rng.randrange(F.order) for _ in range(D)]))
    return LinearCode(rows, field, n, m, ext)

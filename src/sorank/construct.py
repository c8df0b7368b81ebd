"""Randomized construction of self-orthogonal rank-metric codes.

Both representations reduce to the same flat problem: find linearly
independent vectors v_1..v_k over a field F (F = GF(q) on mn coordinates,
or F = GF(q^m) on n coordinates) with all standard dot products
<v_i, v_j> = 0.  The first vector is a nonzero root of the sum-of-squares
form; each later step parameterizes the solution space of the accumulated
linear orthogonality equations by a nullspace basis, substitutes it into
the sum-of-squares form (whose coefficients come from the upper triangle of
the basis's Gram matrix, one expression for every characteristic), samples
a root of the reduced form and maps it back, rejecting candidates that fall
inside the current span.  The
dimension cap is (D-1)/2 for ambient dimension D.

The three ensembles the experiments compare (self-orthogonal codes, the
code-star ensemble and uniform GF(q)-linear codes) all grow their rows
the same way, through ``_outside_span``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import linalg
from .errors import BudgetError, ParamError
from .quadforms import QuadraticForm, sample_root, sum_of_squares
from .words import LinearCode, flat_space

STEP_BUDGET = 10_000
# Root sampling inside the construction uses a small exhaustive cutoff;
# rejection sampling is equally uniform and far cheaper per call here.
_ROOT_EXHAUSTIVE_LIMIT = 256
_sum_of_squares = lru_cache(maxsize=128)(sum_of_squares)  # one per field object and D


def max_so_dimension(D: int) -> int:
    return (D - 1) // 2


def _outside_span(F, D, k, rows, draw):
    """The first of up to STEP_BUDGET words ``draw()`` returns that lies
    outside the span of the independent ``rows``; the zero word never does.

    Explicit span rejection: the counting argument is asymptotic and
    collisions do occur at tiny parameters.
    """
    for _ in range(STEP_BUDGET):
        x = draw()
        if linalg.is_independent(F, rows + [x]):
            return x
    raise BudgetError(
        f"step {len(rows) + 1}: budget {STEP_BUDGET} exhausted without a word outside the span "
        f"(D={D}, k={k}, field order {F.order}); rerun with the same seed to reproduce"
    )


def _restricted_form(F, null_basis):
    """Sum-of-squares pulled back along y -> sum y_t * null_basis[t].

    With G_st = <v_s, v_t> the Gram matrix of the null basis, the
    coefficient of y_s^2 is G_ss and that of y_s y_t (s < t) is
    G_st + G_ts = 2 G_st.  Only this upper triangle is computed, and in
    characteristic 2, where 2 = 0, only its diagonal.
    """
    two = F.add(1, 1)

    def coeff(s, t):
        if s == t:
            return linalg.dot(F, null_basis[s], null_basis[s])
        return F.mul(two, linalg.dot(F, null_basis[s], null_basis[t])) if two else 0

    d = len(null_basis)
    return QuadraticForm(d, tuple(coeff(s, t) for s, t in itertools.combinations_with_replacement(range(d), 2)), F)


def so_flat_vectors(F, D, k, rng):
    """k pairwise- and self-orthogonal independent vectors in F^D."""
    if not 1 <= k <= max_so_dimension(D):
        raise ParamError(f"k={k} outside 1..{max_so_dimension(D)} for ambient dimension {D}")
    found = [list(sample_root(_sum_of_squares(F, D), rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT))]
    while len(found) < k:
        null_basis = linalg.nullspace(F, found)
        g = _restricted_form(F, null_basis)

        def draw():
            y = sample_root(g, rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT)
            return linalg.combine(F, y, null_basis)

        found.append(_outside_span(F, D, k, found, draw))
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
    rows.append(_outside_span(F, D, k, rows, lambda: [rng.randrange(F.order) for _ in range(D)]))
    return LinearCode(rows, field, n, m, ext)


def uniform_linear_code(field, n, m, k, rng, repr="matrix", ext=None) -> LinearCode:
    """A uniformly random k-dimensional code: k uniform words, each outside
    the span of those before it (the baseline of Guruswami and Resch, 2017)."""
    F, D = flat_space(repr, field, ext, n, m)
    if not 0 <= k <= D:
        raise ParamError(f"k={k} outside 0..{D}, the ambient dimension")
    rows = []
    while len(rows) < k:
        rows.append(_outside_span(F, D, k, rows, lambda: [rng.randrange(F.order) for _ in range(D)]))
    return LinearCode(rows, field, n, m, ext)

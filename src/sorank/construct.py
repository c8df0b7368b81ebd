"""Randomized construction of self-orthogonal rank-metric codes.

Both representations reduce to the same flat problem: find linearly
independent vectors v_1..v_k over a field F (F = GF(q) on mn coordinates,
or F = GF(q^m) on n coordinates) with all standard dot products
<v_i, v_j> = 0.  The first vector is a nonzero root of the sum-of-squares
form; each later step parameterizes the solution space of the accumulated
linear orthogonality equations by a nullspace basis, substitutes it into
the sum-of-squares form, samples a root of the reduced form and maps it
back, rejecting candidates that fall inside the current span.  The
dimension cap is (D-1)/2 for ambient dimension D.
"""

from __future__ import annotations

from . import linalg
from .errors import BudgetError, ParamError
from .quadforms import QuadraticForm, _index_pairs, sample_root, sum_of_squares
from .words import LinearCode, flat_space

STEP_BUDGET = 10_000
# Root sampling inside the construction uses a small exhaustive cutoff;
# rejection sampling is equally uniform and far cheaper per call here.
_ROOT_EXHAUSTIVE_LIMIT = 256


def max_so_dimension(D: int) -> int:
    return (D - 1) // 2


def _restricted_form(F, null_basis):
    """Sum-of-squares pulled back along y -> sum y_t * null_basis[t]."""
    d = len(null_basis)
    gram = [[linalg.dot(F, null_basis[s], null_basis[t]) for t in range(d)] for s in range(d)]
    coeffs = []
    for i, j in _index_pairs(d):
        coeffs.append(gram[i][i] if i == j else F.add(gram[i][j], gram[j][i]))
    return QuadraticForm(d, tuple(coeffs), F)


def so_flat_vectors(F, D, k, rng):
    """k pairwise- and self-orthogonal independent vectors in F^D."""
    if not 1 <= k <= max_so_dimension(D):
        raise ParamError(f"k={k} outside 1..{max_so_dimension(D)} for ambient dimension {D}")
    form = sum_of_squares(F, D)
    found = [list(sample_root(form, rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT))]
    for step in range(2, k + 1):
        null_basis = linalg.nullspace(F, found)
        g = _restricted_form(F, null_basis)
        for _ in range(STEP_BUDGET):
            y = sample_root(g, rng, nonzero=True, exhaustive_limit=_ROOT_EXHAUSTIVE_LIMIT)
            x = linalg.combine(F, y, null_basis)
            # Explicit span rejection: the counting argument is asymptotic
            # and collisions do occur at tiny parameters.
            if linalg.solve_in_span(F, found, x) is None:
                found.append(x)
                break
        else:
            raise BudgetError(
                f"step {step} budget {STEP_BUDGET} exhausted (D={D}, k={k}); rerun with the same seed to reproduce"
            )
    return found


def so_code(field, n, m, k, rng, repr="matrix", ext=None) -> LinearCode:
    """A k-dimensional self-orthogonal code (k = 0 gives the zero code)."""
    F, D = flat_space(repr, field, ext, n, m)
    rows = so_flat_vectors(F, D, k, rng) if k else []
    return LinearCode.from_rows(rows, field, n, m, repr, ext)


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
    if k >= 2 and k - 1 > max_so_dimension(D):
        raise ParamError(f"k-1={k - 1} exceeds the construction limit {max_so_dimension(D)}")
    base = so_flat_vectors(F, D, k - 1, rng) if k >= 2 else []
    for _ in range(STEP_BUDGET):
        x = [rng.randrange(F.order) for _ in range(D)]
        if not any(x):
            continue
        if linalg.solve_in_span(F, base, x) is None:
            base = base + [x]
            break
    else:  # pragma: no cover
        raise BudgetError("could not extend the self-orthogonal part")
    return LinearCode.from_rows(base, field, n, m, repr, ext)

"""Dense linear algebra over an arbitrary finite field.

All routines take a field object ``F`` exposing ``add``, ``sub``, ``mul``,
``inv`` on integer-encoded elements, and matrices as lists (or tuples) of
rows of such integers.  There are two eliminations, plain Gauss at desk
scale: the forward pass ``pivots`` answers rank and pivot questions, and
``extend_rref`` grows a reduced basis a row at a time, ``rref`` being its
fold.  Both stay: with no scaling or clearing above, the forward pass is
the cheaper way to the ranks that the code scans and the lattice route take.
"""

from __future__ import annotations

import bisect


def dot(F, u, v):
    """sum_i u_i v_i over F, for equal-length sequences."""
    add, mul = F.add, F.mul
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s = add(s, mul(a, b))
    return s


def combine(F, coeffs, rows, start=None):
    """start + sum_i coeffs[i] * rows[i] over F, as a new list.  Without
    ``start`` the sum starts from the zero row and needs at least one row."""
    add, mul = F.add, F.mul
    out = [0] * len(rows[0]) if start is None else list(start)
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                if v:
                    out[j] = add(out[j], mul(c, v))
    return out


def pivots(F, rows):
    """The pivot columns of ``rows``, which are ``rref``'s, by a forward
    pass: each pivot is cleared below, but neither scaled nor cleared above.
    Input is not modified."""
    sub, mul, inv = F.sub, F.mul, F.inv
    M = [list(r) for r in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if M[i][c]:
                break
        else:
            continue
        M[r], M[i] = M[i], M[r]
        row_r = M[r]
        piv_inv = inv(row_r[c])
        for i in range(r + 1, nrows):
            if M[i][c]:
                f = mul(M[i][c], piv_inv)
                row_i = M[i]
                for j in range(c, ncols):
                    if row_r[j]:
                        row_i[j] = sub(row_i[j], mul(f, row_r[j]))
        pivots.append(c)
    return pivots


def rref(F, rows):
    """Reduced row-echelon form, ``(R, pivot_cols)``: the nonzero rows of the
    RREF of ``rows``, folded in one at a time by ``extend_rref``.  Input is
    not modified."""
    R, pivot_cols = [], []
    for x in rows:
        extend_rref(F, R, pivot_cols, x)
    return R, pivot_cols


def extend_rref(F, R, pivots, x):
    """Fold x into ``(R, pivots)``, the RREF of independent rows, in place.
    x lies in their span iff its residual x - sum_i x[p_i] R[i] is zero:
    then False, with both unchanged.  Otherwise the residual, scaled to 1 at
    its first nonzero column c, is cleared from column c of the other rows
    and inserted in pivot order, so that ``(R, pivots)`` is the RREF of the
    rows and x, a row space's RREF being unique; True."""
    sub, mul = F.sub, F.mul
    r = list(x)
    ncols = len(r)
    for p, row in zip(pivots, R):
        f = r[p]
        if f:
            for j in range(p, ncols):
                if row[j]:
                    r[j] = sub(r[j], mul(f, row[j]))
    c = next((j for j, v in enumerate(r) if v), None)
    if c is None:
        return False
    piv = F.inv(r[c])
    if piv != 1:
        r = [mul(piv, v) for v in r]
    for row in R:
        f = row[c]
        if f:
            for j in range(c, ncols):
                if r[j]:
                    row[j] = sub(row[j], mul(f, r[j]))
    at = bisect.bisect(pivots, c)
    R.insert(at, r)
    pivots.insert(at, c)
    return True


def rank(F, rows):
    """Rank: the pivot count of the forward pass."""
    return len(pivots(F, rows))


def is_independent(F, rows):
    return rank(F, rows) == len(rows)


def nullspace(F, rows):
    """Basis of the right kernel {x : rows . x = 0}.

    ``rows`` are equation coefficient vectors; with no equations the
    kernel is the full space, so the caller must pass at least one row
    (possibly zero) to fix the ambient dimension.
    """
    neg = F.neg
    ncols = len(rows[0])
    R, pivots = rref(F, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(R[i][fc])
        basis.append(v)
    return basis


"""Codeword representations, rank distance, duals and self-orthogonality.

A rank-metric codeword lives either as an n x m matrix over GF(q)
(linearity over GF(q)) or as a length-n vector over GF(q^m) (linearity
over GF(q^m)).  The two pictures are glued by expanding each vector
coordinate over a basis of the extension; with a self-dual basis the trace
inner product of matrices and the traced vector inner product agree
pairwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from . import linalg
from .errors import FormatError, ParamError
from .fields import ExtField, Field, ext_field, field_from_q


@dataclass(frozen=True)
class MatrixWord:
    """An n x m matrix over GF(q).

    The usual convention takes n <= m (transpose first otherwise), but the
    type allows any shape: coordinate matrices of short vectors over a
    large extension are naturally tall.  Counting routines that rely on
    n <= m enforce it themselves.
    """

    entries: tuple
    field: Field = dc_field(repr=False)

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise ParamError("empty matrix word")
        m = len(self.entries[0])
        q = self.field.order
        for row in self.entries:
            if len(row) != m or any(not 0 <= v < q for v in row):
                raise ParamError("malformed matrix word")

    @property
    def n(self):
        return len(self.entries)

    @property
    def m(self):
        return len(self.entries[0])

    def flatten(self):
        return tuple(v for row in self.entries for v in row)

    @classmethod
    def from_flat(cls, flat, field, n, m):
        if len(flat) != n * m:
            raise ParamError(f"flat word of length {len(flat)} for a {n} x {m} matrix")
        rows = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
        return cls(rows, field)

    @classmethod
    def zero(cls, field, n, m):
        return cls(tuple((0,) * m for _ in range(n)), field)


@dataclass(frozen=True)
class VectorWord:
    """A length-n vector over GF(q^m)."""

    coords: tuple
    field: ExtField = dc_field(repr=False)

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ParamError("empty vector word")
        o = self.field.order
        if any(not 0 <= v < o for v in self.coords):
            raise ParamError("malformed vector word")

    @property
    def n(self):
        return len(self.coords)

    def flatten(self):
        return self.coords


def _base_rows(w):
    """(GF(q), rows of an n x m matrix over GF(q) with the rank of w).  A
    vector word's coordinates give their polynomial-basis digits: cheaper
    than ``vec_to_mat``'s expansion, and rank does not depend on the basis."""
    if isinstance(w, MatrixWord):
        return w.field, w.entries
    ext = w.field
    return ext.base, [ext.to_digits(c) for c in w.coords]


def word_rank(w):
    return linalg.rank(*_base_rows(w))


def rank_distance(X, Y):
    """rank(X - Y) over GF(q); also accepts vector words."""
    if isinstance(X, MatrixWord) != isinstance(Y, MatrixWord):
        raise ParamError("mixed representations")
    F, xs = _base_rows(X)
    G, ys = _base_rows(Y)
    if F.order != G.order:
        raise ParamError(f"words over {X.field!r} and {Y.field!r}")
    if (len(xs), len(xs[0])) != (len(ys), len(ys[0])):
        raise ParamError("dimension mismatch")
    return linalg.rank(F, [[F.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(xs, ys)])


def trace_inner_product(X: MatrixWord, Y: MatrixWord):
    """Tr(X Y^T) = sum of entrywise products, an element of GF(q)."""
    if (X.n, X.m) != (Y.n, Y.m):
        raise ParamError("dimension mismatch")
    return linalg.dot(X.field, X.flatten(), Y.flatten())


def vector_inner_product(x: VectorWord, y: VectorWord):
    """<x, y> = sum x_i y_i in GF(q^m)."""
    if x.n != y.n:
        raise ParamError("length mismatch")
    return linalg.dot(x.field, x.coords, y.coords)


def mat_to_vec(X: MatrixWord, ext: ExtField) -> VectorWord:
    """Row i of X holds the attached-basis coordinates of vector coordinate i."""
    if X.m != ext.m or X.field.order != ext.q:
        raise ParamError("matrix shape does not match the extension")
    coords = tuple(ext.from_coords(row) for row in X.entries)
    return VectorWord(coords, ext)


def vec_to_mat(x: VectorWord) -> MatrixWord:
    ext = x.field
    rows = tuple(ext.coords(c) for c in x.coords)
    return MatrixWord(rows, ext.base)


def flat_space(repr, field, ext, n, m):
    """(F, D): a code in this representation is spanned by rows of length D
    over F with the standard dot product.  'matrix' codes are GF(q)-linear
    on row-major n x m matrices (F = field, D = nm); 'vector' codes are
    GF(q^m)-linear on length-n vectors (F = ext, D = n)."""
    if repr == "matrix":
        return field, n * m
    if repr == "vector":
        return ext, n
    raise ParamError(f"unknown representation {repr!r}")


@dataclass(frozen=True)
class LinearCode:
    """A code given by an explicit linearly independent basis of words.

    ``repr`` is 'matrix' (GF(q)-linear) or 'vector' (GF(q^m)-linear).
    ``k == 0`` is the zero code; the ambient (n, m) then comes from the
    stored parameters.  Code-level operations read the basis as flat
    ``rows`` over ``lin_field()`` (see ``flat_space``); words are built only
    for the basis and for what ``iter_words`` and ``dual`` return.
    """

    repr: str
    basis: tuple
    field: Field = dc_field(repr=False)  # GF(q)
    ext: object = dc_field(repr=False)  # ExtField for vector repr, else None
    n: int = 0
    m: int = 0

    def __post_init__(self):
        F, D = self._space
        if any(w.n != self.n or len(row) != D for w, row in zip(self.basis, self.rows)):
            raise ParamError(f"basis word does not fit a {self.repr} code of width {D}")
        if self.k > D:
            raise ParamError(f"dimension {self.k} exceeds {D}")
        if self.rows and not linalg.is_independent(F, self.rows):
            raise ParamError(f"basis is linearly dependent over {F!r}")

    @property
    def k(self):
        return len(self.basis)

    @property
    def q(self):
        return self.field.order

    @classmethod
    def from_rows(cls, rows, field, n, m, repr="matrix", ext=None):
        """The code with these independent basis rows (see ``flat_space``);
        a vector code takes GF(q) and m from ``ext``."""
        if repr == "vector":
            return cls(repr, tuple(VectorWord(tuple(v), ext) for v in rows), ext.base, ext, n, ext.m)
        return cls(repr, tuple(MatrixWord.from_flat(v, field, n, m) for v in rows), field, None, n, m)

    @cached_property
    def _space(self):
        return flat_space(self.repr, self.field, self.ext, self.n, self.m)

    @cached_property
    def rows(self):
        """The basis as flat rows over ``lin_field()``, each of length ``width``."""
        return tuple(w.flatten() for w in self.basis)

    @property
    def width(self):
        return self._space[1]

    def lin_field(self):
        """The field over which the code is linear."""
        return self._space[0]

    def _word(self, row):
        if self.repr == "matrix":
            return MatrixWord.from_flat(row, self.field, self.n, self.m)
        return VectorWord(tuple(row), self.ext)

    def iter_words(self):
        """All |F|^k codewords (desk scale only), in ``itertools.product``
        order of their basis coefficients."""
        F, rows = self.lin_field(), self.rows
        if not rows:
            yield self._word([0] * self.width)
            return
        for coeffs in itertools.product(range(F.order), repeat=len(rows)):
            yield self._word(linalg.combine(F, coeffs, rows))

    @cached_property
    def parity_check(self):
        """Rows over GF(q) whose dot products with the flattened (row-major)
        n x m matrix X all vanish exactly when X lies in the code.

        A vector code is read in its matrix picture over the attached basis
        beta_1..beta_m, the one ``vec_to_mat`` expands over: x_i is
        sum_j X_ij beta_j.  For each row h of its GF(q^m) parity-check
        matrix, h . x = sum_ij X_ij (h_i beta_j) vanishes iff each of its m
        base-q digits does, and digit t gives the GF(q) row
        [digit_t(h_i beta_j)]_ij.  This needs one elimination over GF(q^m)
        on n columns instead of one over GF(q) on nm columns.
        """
        H = linalg.nullspace(self.lin_field(), self.rows or [[0] * self.width])
        if self.repr == "matrix":
            return tuple(tuple(h) for h in H)
        ext = self.ext
        rows = []
        for h in H:
            digits = [ext.to_digits(ext.mul(hi, b)) for hi in h for b in ext.basis]
            rows.extend(tuple(d[t] for d in digits) for t in range(self.m))
        return tuple(rows)

    def matrix_rows(self, word):
        """The n x m rows over GF(q) that ``parity_check`` reads for a word in
        either representation: a matrix word's entries, or a vector word's
        coordinates over the code's attached basis (over the word's own for a
        matrix code).  A word over another GF(q) or GF(q^m), or of another
        shape, raises ParamError."""
        if isinstance(word, MatrixWord):
            if word.field.order != self.field.order:
                raise ParamError(f"word over {word.field!r} for a code over GF({self.q})")
            rows = word.entries
        else:
            if (word.field.q, word.field.m) != (self.q, self.m):
                raise ParamError(f"word over {word.field!r} for a code over GF({self.q}^{self.m})")
            rows = [(self.ext or word.field).coords(c) for c in word.coords]
        if (len(rows), len(rows[0])) != (self.n, self.m):
            raise ParamError("dimension mismatch")
        return rows

    def contains(self, word):
        """Membership by syndrome against ``parity_check``, of the word's
        ``matrix_rows``."""
        x = [v for row in self.matrix_rows(word) for v in row]
        F = self.field
        return not any(linalg.dot(F, h, x) for h in self.parity_check)


def dual(code: LinearCode) -> LinearCode:
    """Dual under the standard dot product over the linearity field:
    Tr(C X^T) = 0 for matrix codes, <g, x> = 0 over GF(q^m) for vector codes."""
    ns = linalg.nullspace(code.lin_field(), code.rows or [[0] * code.width])
    return LinearCode.from_rows(ns, code.field, code.n, code.m, code.repr, code.ext)


def is_self_orthogonal(code: LinearCode) -> bool:
    """True iff all basis pairs (including self-pairs) are orthogonal."""
    F, rows = code.lin_field(), code.rows
    return not any(linalg.dot(F, rows[i], rows[j]) for i in range(len(rows)) for j in range(i, len(rows)))


def is_contained_in_dual(code: LinearCode) -> bool:
    """C subseteq dual(C), with the dual computed by the linear-algebra path."""
    return linalg.spans_contain(code.lin_field(), dual(code).rows, code.rows)


# -- code file format --------------------------------------------------------
# header: repr=<matrix|vector> q=<q> m=<m> n=<n> k=<k>
# then one basis word per line, integer entries, row-major for matrices.


def dump_code(code: LinearCode) -> str:
    lines = [f"repr={code.repr} q={code.q} m={code.m} n={code.n} k={code.k}"]
    lines += [" ".join(str(v) for v in row) for row in code.rows]
    return "\n".join(lines) + "\n"


def load_code(text: str) -> LinearCode:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty code file")
    try:
        hdr = dict(tok.split("=", 1) for tok in lines[0].split())
        rep = hdr["repr"]
        q, m, n, k = (int(hdr[x]) for x in ("q", "m", "n", "k"))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad code header: {lines[0]!r}") from exc
    if rep not in ("matrix", "vector"):
        raise FormatError(f"unknown repr {rep!r}")
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} basis lines, found {len(lines) - 1}")
    base = field_from_q(q)
    try:
        rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError("non-integer entry in code file") from exc
    ext = ext_field(q, m) if rep == "vector" else None
    D = flat_space(rep, base, ext, n, m)[1]
    if any(len(vals) != D for vals in rows):
        raise FormatError(f"wrong entry count for {rep} word")
    return LinearCode.from_rows(rows, base, n, m, rep, ext)

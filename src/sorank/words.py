"""Codeword representations, rank distance, duals and self-orthogonality.

A rank-metric codeword lives either as an n x m matrix over GF(q)
(linearity over GF(q)) or as a length-n vector over GF(q^m) (linearity
over GF(q^m)).  The two pictures are glued by expanding each vector
coordinate over a basis of the extension; with a self-dual basis the trace
inner product of matrices and the traced vector inner product agree
pairwise.
"""

from __future__ import annotations

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


def word_add(a, b):
    if isinstance(a, MatrixWord):
        F = a.field
        rows = tuple(
            tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
        )
        return MatrixWord(rows, F)
    F = a.field
    return VectorWord(tuple(F.add(x, y) for x, y in zip(a.coords, b.coords)), F)


def word_scale(c, a):
    """Scale by c in the linearity field (GF(q) resp. GF(q^m))."""
    F = a.field
    if isinstance(a, MatrixWord):
        rows = tuple(tuple(F.mul(c, x) for x in row) for row in a.entries)
        return MatrixWord(rows, F)
    return VectorWord(tuple(F.mul(c, x) for x in a.coords), F)


def coords_rows(x: VectorWord):
    """Polynomial-basis coordinate matrix of a vector word (n x m over GF(q))."""
    ext = x.field
    return [list(ext.to_digits(c)) for c in x.coords]


def word_rank(w):
    if isinstance(w, MatrixWord):
        return linalg.rank(w.field, w.entries)
    return linalg.rank(w.field.base, coords_rows(w))


def rank_distance(X, Y):
    """rank(X - Y) over GF(q); also accepts vector words."""
    if isinstance(X, MatrixWord) != isinstance(Y, MatrixWord):
        raise ParamError("mixed representations")
    if isinstance(X, MatrixWord):
        if (X.n, X.m) != (Y.n, Y.m):
            raise ParamError("dimension mismatch")
        F = X.field
        diff = [[F.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(X.entries, Y.entries)]
        return linalg.rank(F, diff)
    if X.n != Y.n:
        raise ParamError("length mismatch")
    F = X.field
    d = VectorWord(tuple(F.sub(a, b) for a, b in zip(X.coords, Y.coords)), F)
    return word_rank(d)


def _dot(F, xs, ys):
    """sum x_i y_i over F, for equal-length sequences."""
    add, mul = F.add, F.mul
    s = 0
    for a, b in zip(xs, ys):
        if a and b:
            s = add(s, mul(a, b))
    return s


def trace_inner_product(X: MatrixWord, Y: MatrixWord):
    """Tr(X Y^T) = sum of entrywise products, an element of GF(q)."""
    if (X.n, X.m) != (Y.n, Y.m):
        raise ParamError("dimension mismatch")
    F = X.field
    add, mul = F.add, F.mul
    s = 0
    for ra, rb in zip(X.entries, Y.entries):
        for a, b in zip(ra, rb):
            if a and b:
                s = add(s, mul(a, b))
    return s


def vector_inner_product(x: VectorWord, y: VectorWord):
    """<x, y> = sum x_i y_i in GF(q^m)."""
    if x.n != y.n:
        raise ParamError("length mismatch")
    return _dot(x.field, x.coords, y.coords)


def word_inner(a, b):
    """Representation-appropriate inner product."""
    if isinstance(a, MatrixWord):
        return trace_inner_product(a, b)
    return vector_inner_product(a, b)


def mat_to_vec(X: MatrixWord, ext: ExtField, basis=None) -> VectorWord:
    """Row i of X holds the basis coordinates of vector coordinate i."""
    basis = ext.basis if basis is None else tuple(basis)
    if X.m != ext.m or X.field.order != ext.q:
        raise ParamError("matrix shape does not match the extension")
    coords = tuple(ext.from_coords(row, basis) for row in X.entries)
    return VectorWord(coords, ext)


def vec_to_mat(x: VectorWord, basis=None) -> MatrixWord:
    ext = x.field
    basis = ext.basis if basis is None else tuple(basis)
    rows = tuple(ext.coords(c, basis) for c in x.coords)
    return MatrixWord(rows, ext.base)


def lemma1_pair_identity(a: VectorWord, b: VectorWord, basis):
    """(tr<a,b>, Tr(A B^T)) under a self-dual basis; the two must agree."""
    ext = a.field
    basis = tuple(basis)
    if not ext.is_self_dual_basis(basis):
        raise ParamError("basis is not self-dual")
    lhs = ext.trace(vector_inner_product(a, b))
    rhs = trace_inner_product(vec_to_mat(a, basis), vec_to_mat(b, basis))
    return lhs, rhs


@dataclass(frozen=True)
class LinearCode:
    """A code given by an explicit linearly independent basis of words.

    ``repr`` is 'matrix' (GF(q)-linear) or 'vector' (GF(q^m)-linear).
    ``k == 0`` is the zero code; the ambient (n, m) then comes from the
    stored parameters.
    """

    repr: str
    basis: tuple
    field: Field = dc_field(repr=False)  # GF(q)
    ext: object = dc_field(repr=False)  # ExtField for vector repr, else None
    n: int = 0
    m: int = 0

    def __post_init__(self):
        if self.repr not in ("matrix", "vector"):
            raise ParamError(f"unknown representation {self.repr!r}")
        if self.repr == "matrix":
            if self.k > self.n * self.m:
                raise ParamError("dimension exceeds nm")
            rows = [list(w.flatten()) for w in self.basis]
            if rows and not linalg.is_independent(self.field, rows):
                raise ParamError("basis is linearly dependent over GF(q)")
        else:
            if self.k > self.n:
                raise ParamError("dimension exceeds n")
            rows = [list(w.coords) for w in self.basis]
            if rows and not linalg.is_independent(self.ext, rows):
                raise ParamError("basis is linearly dependent over GF(q^m)")

    @property
    def k(self):
        return len(self.basis)

    @property
    def q(self):
        return self.field.order

    @classmethod
    def from_matrix_words(cls, words, field, n, m):
        words = tuple(words)
        for w in words:
            if (w.n, w.m) != (n, m):
                raise ParamError("inconsistent word dimensions")
        return cls("matrix", words, field, None, n, m)

    @classmethod
    def from_vector_words(cls, words, ext, n):
        words = tuple(words)
        for w in words:
            if w.n != n:
                raise ParamError("inconsistent word lengths")
        return cls("vector", words, ext.base, ext, n, ext.m)

    def lin_field(self):
        """The field over which the code is linear."""
        return self.field if self.repr == "matrix" else self.ext

    def flat_basis(self):
        if self.repr == "matrix":
            return [list(w.flatten()) for w in self.basis]
        return [list(w.coords) for w in self.basis]

    def iter_words(self):
        """All |F|^k codewords (desk scale only)."""
        F = self.lin_field()
        k = self.k
        if k == 0:
            yield self._zero_word()
            return
        import itertools

        for coeffs in itertools.product(range(F.order), repeat=k):
            w = self._zero_word()
            for c, b in zip(coeffs, self.basis):
                if c:
                    w = word_add(w, word_scale(c, b))
            yield w

    def _zero_word(self):
        if self.repr == "matrix":
            return MatrixWord.zero(self.field, self.n, self.m)
        return VectorWord((0,) * self.n, self.ext)

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
        L = self.lin_field()
        H = linalg.nullspace(L, self.flat_basis() or [[0] * self._width()])
        if self.repr == "matrix":
            return tuple(tuple(h) for h in H)
        ext = self.ext
        rows = []
        for h in H:
            digits = [ext.to_digits(ext.mul(hi, b)) for hi in h for b in ext.basis]
            rows.extend(tuple(d[t] for d in digits) for t in range(self.m))
        return tuple(rows)

    def contains(self, word):
        """Membership by syndrome against ``parity_check``.  Takes a matrix
        word in either representation; a vector word goes through
        ``vec_to_mat`` first."""
        if isinstance(word, VectorWord):
            word = vec_to_mat(word)
        if (word.n, word.m) != (self.n, self.m):
            raise ParamError("dimension mismatch")
        x = word.flatten()
        F = self.field
        return not any(_dot(F, h, x) for h in self.parity_check)

    def canonical_key(self):
        """RREF of the flattened basis; equal codes share this key."""
        R, pivots = linalg.rref(self.lin_field(), self.flat_basis() or [[0] * self._width()])
        return tuple(tuple(R[i]) for i in range(len(pivots)))

    def _width(self):
        return self.n * self.m if self.repr == "matrix" else self.n


def codes_equal(c1: LinearCode, c2: LinearCode) -> bool:
    return c1.repr == c2.repr and c1.canonical_key() == c2.canonical_key()


def delsarte_dual(code: LinearCode) -> LinearCode:
    """Dual under Tr(C X^T) = 0, via one nullspace computation."""
    if code.repr != "matrix":
        raise ParamError("delsarte_dual needs the matrix representation")
    nm = code.n * code.m
    eqs = code.flat_basis() or [[0] * nm]
    ns = linalg.nullspace(code.field, eqs)
    words = [MatrixWord.from_flat(v, code.field, code.n, code.m) for v in ns]
    return LinearCode.from_matrix_words(words, code.field, code.n, code.m)


def vector_dual(code: LinearCode) -> LinearCode:
    """Dual under <g_i, x> = 0 over GF(q^m)."""
    if code.repr != "vector":
        raise ParamError("vector_dual needs the vector representation")
    eqs = code.flat_basis() or [[0] * code.n]
    ns = linalg.nullspace(code.ext, eqs)
    words = [VectorWord(tuple(v), code.ext) for v in ns]
    return LinearCode.from_vector_words(words, code.ext, code.n)


def dual(code: LinearCode) -> LinearCode:
    return delsarte_dual(code) if code.repr == "matrix" else vector_dual(code)


def is_self_orthogonal(code: LinearCode) -> bool:
    """True iff all basis pairs (including self-pairs) are orthogonal."""
    b = code.basis
    for i in range(len(b)):
        for j in range(i, len(b)):
            if word_inner(b[i], b[j]) != 0:
                return False
    return True


def is_contained_in_dual(code: LinearCode) -> bool:
    """C subseteq dual(C), with the dual computed by the linear-algebra path."""
    d = dual(code)
    return linalg.spans_contain(code.lin_field(), d.flat_basis(), code.flat_basis())


def rate(code: LinearCode) -> float:
    """log_q |C| / (mn)."""
    if code.repr == "matrix":
        return code.k / (code.n * code.m)
    return code.k * code.m / (code.n * code.m)


# -- code file format --------------------------------------------------------
# header: repr=<matrix|vector> q=<q> m=<m> n=<n> k=<k>
# then one basis word per line, integer entries, row-major for matrices.


def dump_code(code: LinearCode) -> str:
    lines = [f"repr={code.repr} q={code.q} m={code.m} n={code.n} k={code.k}"]
    for w in code.basis:
        vals = w.flatten() if code.repr == "matrix" else w.coords
        lines.append(" ".join(str(v) for v in vals))
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
    if rep == "matrix":
        words = []
        for vals in rows:
            if len(vals) != n * m:
                raise FormatError("wrong entry count for matrix word")
            words.append(MatrixWord.from_flat(vals, base, n, m))
        return LinearCode.from_matrix_words(words, base, n, m)
    ext = ext_field(q, m)
    words = []
    for vals in rows:
        if len(vals) != n:
            raise FormatError("wrong entry count for vector word")
        words.append(VectorWord(tuple(vals), ext))
    return LinearCode.from_vector_words(words, ext, n)

"""Codeword representations, rank distance, duals and self-orthogonality.

A rank-metric codeword lives either as an n x m matrix over GF(q)
(linearity over GF(q)) or as a length-n vector over GF(q^m) (linearity
over GF(q^m)).  A vector word's matrix picture expands each coordinate
into its digits (``to_digits``), the extension's one coordinate map.  A
``LinearCode`` is its k flat rows over the field it is linear over.  A word
enters a code one way, as its flat row over that field (``flat``, the
inverse of ``word``), and is checked one way, by its ``syndrome`` against
the code's ``kernel`` over that field; ``check_row`` rejects a row of
another width or field, and ``rows_of`` reads a flat row as n x m rows over
GF(q) wherever a rank is taken.  Word objects are built only for single
words (``word``): the caller's, the basis and ``iter_words``.  ``dual``,
``syndrome`` and ``parity_check`` read one kernel, computed once per code.
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
    type allows any shape: coordinate matrices of vectors longer than the
    degree m of their extension are naturally tall.
    """

    entries: tuple
    field: Field | ExtField = dc_field(repr=False)  # GF(q), as field_from_q(q) builds it

    def __post_init__(self):
        # Rows as tuples, so equal words hash alike; tuple() keeps a tuple row.
        entries = tuple(map(tuple, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) == 0:
            raise ParamError("empty matrix word")
        m = len(entries[0])
        q = self.field.order
        for row in entries:
            if len(row) != m or (m and (min(row) < 0 or max(row) >= q)):
                raise ParamError("malformed matrix word")

    @property
    def n(self):
        return len(self.entries)

    @property
    def m(self):
        return len(self.entries[0])

    def flatten(self):
        return tuple(v for row in self.entries for v in row)


@dataclass(frozen=True)
class VectorWord:
    """A length-n vector over GF(q^m)."""

    coords: tuple
    field: ExtField = dc_field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not isinstance(self.field, ExtField):
            raise ParamError(f"vector word over {self.field!r}, which is no extension field")
        if len(self.coords) == 0:
            raise ParamError("empty vector word")
        o = self.field.order
        if any(not 0 <= v < o for v in self.coords):
            raise ParamError("malformed vector word")

    @property
    def n(self):
        return len(self.coords)


def rank_distance(X, Y):
    """rank(X - Y) over GF(q); also accepts vector words, subtracted over
    GF(q^m) and their difference expanded once into its digits."""
    matrix = isinstance(X, MatrixWord)
    if matrix != isinstance(Y, MatrixWord):
        raise ParamError("mixed representations")
    F = X.field
    if (F.q, F.order) != (Y.field.q, Y.field.order):
        raise ParamError(f"words over {F!r} and {Y.field!r}")
    if X.n != Y.n or (matrix and X.m != Y.m):
        raise ParamError("dimension mismatch")
    if matrix:
        return linalg.rank(F, [[F.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(X.entries, Y.entries)])
    return linalg.rank(F.base, [F.to_digits(F.sub(a, b)) for a, b in zip(X.coords, Y.coords)])


def flat_space(repr, field, ext, n, m):
    """(F, D): a code in this representation is spanned by rows of length D
    over F with the standard dot product: GF(q)-linear 'matrix' codes on
    row-major n x m matrices (F = field, D = nm, no ``ext``), GF(q^m)-linear
    'vector' codes on length-n vectors over ``ext`` (F = ext, D = n).
    ``field`` is GF(q) in both."""
    if repr not in ("matrix", "vector") or (ext is None) != (repr == "matrix") or field is None:
        raise ParamError(f"representation {repr!r} with field {field!r} and extension field {ext!r}")
    return (field, n * m) if ext is None else (ext, n)


@dataclass(frozen=True)
class LinearCode:
    """A code given by k linearly independent rows (tuples) over its
    linearity field.  ``field`` is GF(q).  A matrix code (``ext`` None) is
    GF(q)-linear, each row a row-major n x m matrix; a vector code is
    GF(q^m)-linear over ``ext``, each row a length-n vector.  ``k == 0`` is
    the zero code.  Words are built on demand only: ``basis`` on first use.
    ``flat`` reads a word in either picture as its flat row, ``syndrome``
    maps a flat row to its dot products with the ``kernel``, zero exactly on
    the code, and ``contains`` tests a word by it."""

    rows: tuple
    field: Field | ExtField = dc_field(repr=False)  # GF(q), as field_from_q(q) builds it
    n: int
    m: int
    ext: ExtField | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParamError(f"a code needs n >= 1 and m >= 1, not n={self.n}, m={self.m}")
        if self.ext is not None and (self.ext.q, self.ext.m) != (self.q, self.m):
            raise ParamError(f"{self.ext!r} for a vector code over GF({self.q}) with m={self.m}")
        rows = tuple(map(tuple, self.rows))
        for row in rows:
            self.check_row(row, "basis row")
        object.__setattr__(self, "rows", rows)
        if rows and not linalg.is_independent(self.lin_field(), rows):
            raise ParamError(f"basis is linearly dependent over {self.lin_field()!r}")

    @property
    def repr(self):
        """'matrix' (GF(q)-linear) or 'vector' (GF(q^m)-linear)."""
        return "matrix" if self.ext is None else "vector"

    @property
    def k(self):
        return len(self.rows)

    @property
    def q(self):
        return self.field.order

    @property
    def width(self):
        """D, the length of each row: nm for a matrix code, n for a vector code."""
        return self.n * self.m if self.ext is None else self.n

    def lin_field(self):
        """The field over which the code is linear."""
        return self.field if self.ext is None else self.ext

    def check_row(self, row, what="flat row"):
        """ParamError unless ``row`` has the code's width and entries in the linearity field."""
        F, D = self.lin_field(), self.width
        if len(row) != D or min(row) < 0 or max(row) >= F.order:  # D >= 1, as n, m >= 1
            raise ParamError(f"{what} does not fit a {self.repr} code of width {D} over {F!r}")

    def word(self, row):
        """The word whose flat row over the linearity field is ``row``."""
        self.check_row(row, "flat word")
        if self.ext is None:
            return MatrixWord(self.rows_of(row), self.field)
        return VectorWord(row, self.ext)

    def rows_of(self, flat):
        """The n x m rows over GF(q) of the word whose flat row over the
        linearity field is ``flat``: its row-major slices for a matrix code,
        each coordinate's digits for a vector code."""
        if self.ext is None:
            return [flat[i * self.m : (i + 1) * self.m] for i in range(self.n)]
        return [self.ext.to_digits(c) for c in flat]

    def flat(self, word):
        """The flat row over the linearity field of a word in either picture,
        the inverse of ``word``: a vector word's coordinates for a vector
        code, and otherwise its n x m rows over GF(q) (a vector word's
        digits), joined for a matrix code or each dotted with ``ext.basis``.
        Another field or shape raises ParamError."""
        if isinstance(word, MatrixWord):
            if word.field.order != self.q:
                raise ParamError(f"word over {word.field!r} for a code over GF({self.q})")
            if (word.n, word.m) != (self.n, self.m):
                raise ParamError("dimension mismatch")
            rows = word.entries
        else:
            if (word.field.q, word.field.m) != (self.q, self.m):
                raise ParamError(f"word over {word.field!r} for a code over GF({self.q}^{self.m})")
            if word.n != self.n:
                raise ParamError("dimension mismatch")
            if self.ext is not None:
                return list(word.coords)
            rows = [word.field.to_digits(c) for c in word.coords]
        if self.ext is None:
            return [v for row in rows for v in row]
        return [linalg.dot(self.ext, row, self.ext.basis) for row in rows]

    @cached_property
    def basis(self):
        """The k basis words, built on first use."""
        return tuple(self.word(row) for row in self.rows)

    def iter_words(self):
        """All |F|^k codewords (desk scale only), in ``itertools.product``
        order of their basis coefficients."""
        F, rows = self.lin_field(), self.rows or [(0,) * self.width]  # k = 0: the zero word
        for coeffs in itertools.product(range(F.order), repeat=self.k):
            yield self.word(linalg.combine(F, coeffs, rows))

    @cached_property
    def kernel(self):
        """Rows spanning the dual over the linearity field; ``dual`` gives
        the code it returns the original code's rows here."""
        return tuple(map(tuple, linalg.nullspace(self.lin_field(), self.rows or [[0] * self.width])))

    @cached_property
    def parity_check(self):
        """Rows over GF(q) whose dot products with a word's row-major n x m
        rows over GF(q) (``rows_of``) all vanish exactly when it lies in the
        code, for the lattice route's row spaces (m < n); ``syndrome`` reads
        the kernel.  That is the kernel for a matrix code.  For a vector
        code, x_i is sum_j X_ij beta_j over the polynomial basis, and h . x =
        sum_ij X_ij (h_i beta_j) vanishes iff each of its m base-q digits
        does: digit t of kernel row h gives the row [digit_t(h_i beta_j)]_ij."""
        if self.ext is None:
            return self.kernel
        ext = self.ext
        rows = []
        for h in self.kernel:
            digits = [ext.to_digits(ext.mul(hi, b)) for hi in h for b in ext.basis]
            rows.extend(tuple(d[t] for d in digits) for t in range(self.m))
        return tuple(rows)

    def syndrome(self, flat):
        """The syndrome of a flat row over the linearity field (ParamError for
        one that does not fit), the tuple of its ``kernel`` dot products over
        that field: equal for two words iff their difference is in the code."""
        self.check_row(flat)
        F = self.lin_field()
        return tuple([linalg.dot(F, h, flat) for h in self.kernel])

    def contains(self, word):
        """Membership of a word in either picture: a zero syndrome."""
        return not any(self.syndrome(self.flat(word)))


def dual(code: LinearCode) -> LinearCode:
    """Dual under the standard dot product over the linearity field:
    Tr(C X^T) = 0 for matrix codes, <g, x> = 0 over GF(q^m) for vector codes.
    Its kernel is the code's rows, as (C^perp)^perp = C, so its
    ``parity_check`` needs no elimination and ``dual(dual(C))`` has C's rows."""
    d = LinearCode(code.kernel, code.field, code.n, code.m, code.ext)
    d.__dict__["kernel"] = code.rows  # the cached_property's slot
    return d


def is_self_orthogonal(code: LinearCode) -> bool:
    """True iff all basis pairs (including self-pairs) are orthogonal."""
    F, rows = code.lin_field(), code.rows
    return not any(linalg.dot(F, rows[i], rows[j]) for i in range(len(rows)) for j in range(i, len(rows)))


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
    return LinearCode(rows, base, n, m, ext)

"""Reference implementations the tests compare the package against.

Nothing in the package calls these.  Each one computes its answer the
direct way (an identity checked term by term, an explicit change of
variables, an augmented linear system), so a faster path in ``sorank`` can
be checked against it.
"""

import itertools
import operator
from collections import Counter
from fractions import Fraction

from sorank import construct, linalg
from sorank.balls import ENUM_LIMIT, ball_size_exact, gaussian_binomial, iter_rref
from sorank.errors import BudgetError, ParamError, SizeError
from sorank.quadforms import QuadraticForm, sample_root, sum_of_squares
from sorank.words import MatrixWord, VectorWord, dual


def gb_recurrence_holds(n, k, q):
    """Pascal-type identity [n k] = [n-1 k-1] + q^k [n-1 k]."""
    if k == 0 or k == n:
        return gaussian_binomial(n, k, q) == 1
    return gaussian_binomial(n, k, q) == gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)


def check_gb_bounds(n, k, q):
    """q^{k(n-k)} <= [n k]_q <= 4 q^{k(n-k)}."""
    v = gaussian_binomial(n, k, q)
    lo = q ** (k * (n - k))
    return lo <= v <= 4 * lo


def from_full_matrix(field, M):
    """The form x^T M x, folded upper-triangular: a_ii = M_ii and
    a_ij = M_ij + M_ji for i < j."""
    N = len(M)
    pairs = itertools.combinations_with_replacement(range(N), 2)
    coeffs = tuple(M[i][i] if i == j else field.add(M[i][j], M[j][i]) for i, j in pairs)
    return QuadraticForm(N, coeffs, field)


def transform(f: QuadraticForm, M):
    """The equivalent form g(y) = f(M y); M must be N x N over f.field."""
    F = f.field
    N = f.nvars
    G = [[0] * N for _ in range(N)]
    add, mul = F.add, F.mul
    for i, j, a in f._terms:
        Mi, Mj = M[i], M[j]
        for s in range(N):
            if not Mi[s]:
                continue
            am = mul(a, Mi[s])
            row = G[s]
            for t in range(N):
                if Mj[t]:
                    row[t] = add(row[t], mul(am, Mj[t]))
    return from_full_matrix(F, G)


def zero_word(field, n, m):
    """The n x m zero matrix over ``field``."""
    return MatrixWord(tuple((0,) * m for _ in range(n)), field)


def translate(center: MatrixWord, rows):
    """The rows of center + X, as a tuple of row tuples, for the rows of an
    n x m matrix X: a word of the ball around zero (or a draw from it) moved
    to the ball around ``center``."""
    F = center.field
    return tuple(tuple(map(F.add, crow, row)) for crow, row in zip(center.entries, rows))


def iter_full_colrank(field, n, i):
    """All n x i matrices of rank i, as tuples of i columns (each a tuple of
    length n), in ``itertools.product`` order of the columns."""
    columns = list(itertools.product(range(field.order), repeat=n))
    for cols in itertools.product(columns, repeat=i):
        if linalg.rank(field, cols) == i:
            yield cols


def ball_words(field, n, m, r):
    """The words of B_R(0, r), each a tuple of n row tuples, through the
    factorization X = A * B of a rank-i matrix: for each rank i <= min(r, m),
    each RREF matrix B in ``iter_rref`` order, and each full-column-rank
    factor A in ``iter_full_colrank`` order, the word whose row o combines
    B's rows with row o of A."""
    if ball_size_exact(n, m, field.order, r) > ENUM_LIMIT:  # also rejects r outside 0..n
        raise SizeError(f"ball B_R(0, {r}) in {n} x {m} matrices exceeds 2^22 words")
    zero = [0] * m
    for i in range(min(r, m) + 1):
        factors = list(iter_full_colrank(field, n, i))
        for B in iter_rref(field, i, m):
            for A in factors:
                yield tuple(tuple(linalg.combine(field, [col[o] for col in A], B, zero)) for o in range(n))


def is_contained_in_dual(code):
    """C subseteq dual(C), with the dual computed by the linear-algebra path:
    C's rows stacked on the dual's independent rows add nothing to the rank."""
    d = dual(code)
    return linalg.rank(code.lin_field(), d.rows + code.rows) == d.k


def rank_distribution(code):
    """[A_0, ..., A_min(n, m)]: A_i codewords of rank i, by listing every
    codeword (desk scale only)."""
    counts = [0] * (min(code.n, code.m) + 1)
    for w in code.iter_words():
        counts[linalg.rank(code.field, code.rows_of(code.flat(w)))] += 1
    return counts


def ball_overlaps(field, n, m, r):
    """[p_0, ..., p_min(n, m)]: p_i = |B_R(0, r) cap B_R(c, r)| for an n x m
    matrix c of rank i (it depends on the rank alone), counted over the
    words e of B_R(0, r) with rank(c - e) <= r for c = the first i unit
    diagonal entries."""
    words = list(ball_words(field, n, m, r))
    out = []
    for i in range(min(n, m) + 1):
        c = [[int(a == b < i) for b in range(m)] for a in range(n)]
        out.append(sum(linalg.rank(field, [list(map(field.sub, cr, er)) for cr, er in zip(c, e)]) <= r for e in words))
    return out


def list_size_law(code, ball):
    """The law of L(y) = |B_R(y, r) cap code| for a uniform n x m center y
    over a prime field GF(p), as {L: Fraction}, given the words of B_R(0, r)
    as ``ball_words`` lists them.  y - e is a codeword exactly when e has
    y's syndrome, so L(y) is the number of ball words with that syndrome,
    and the syndrome of a uniform y is uniform over the p^(rows of
    ``parity_check``) syndromes.  Syndromes are int dot products mod p."""
    p, H = code.q, code.parity_check
    if code.field.char != p:
        raise ParamError(f"list_size_law needs a prime field, not GF({p})")
    flats = [tuple(itertools.chain.from_iterable(e)) for e in ball]
    hist = Counter(tuple([sum(map(operator.mul, h, x)) % p for h in H]) for x in flats)
    syndromes = p ** len(H)
    law = {L: Fraction(count, syndromes) for L, count in Counter(hist.values()).items()}
    law[0] = Fraction(syndromes - len(hist), syndromes)
    return law


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


def from_coords(ext, cs):
    """The element of ``ext`` with these digits: the inverse of ``to_digits``."""
    return linalg.dot(ext, cs, ext.basis)


def mat_to_vec(X: MatrixWord, ext) -> VectorWord:
    """Row i of X holds the digits of vector coordinate i."""
    if X.m != ext.m or X.field.order != ext.q:
        raise ParamError("matrix shape does not match the extension")
    return VectorWord(tuple(from_coords(ext, row) for row in X.entries), ext)


def vec_to_mat(x: VectorWord) -> MatrixWord:
    """Each coordinate expanded into its digits."""
    return MatrixWord(tuple(x.field.to_digits(c) for c in x.coords), x.field.base)


def lemma1_pair_identity(a: VectorWord, b: VectorWord, basis):
    """(tr<a,b>, Tr(A B^T)), with A and B the matrices of a and b over
    ``basis``, which must be a self-dual basis of the words' extension:
    coordinate j of x is tr(x b_j), exact for a self-dual basis.  The two
    must agree."""
    ext = a.field
    if not ext.is_self_dual_basis(basis):
        raise ParamError("basis is not self-dual")
    A, B = (MatrixWord([[ext.trace(ext.mul(c, bj)) for bj in basis] for c in w.coords], ext.base) for w in (a, b))
    return ext.trace(vector_inner_product(a, b)), trace_inner_product(A, B)


def digitwise_add(p, a, b, sign=1):
    """a + sign*b in any field of characteristic p with the packed encoding:
    an element's base-p digits are its coefficients over GF(p) (through
    every tower level), and addition is coefficientwise mod p."""
    out, place = 0, 1
    while a or b:
        out += (a % p + sign * (b % p)) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def schoolbook_mul(p, modulus, a, b):
    """a * b in GF(p^e) = GF(p)[x] / modulus (monic, coefficients low degree
    first) with the packed encoding: the product of the base-p digit
    polynomials of a and b, coefficient by coefficient, then reduced by
    long division, all in int arithmetic mod p."""
    e = len(modulus) - 1
    da, db = ([x // p**i % p for i in range(e)] for x in (a, b))
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] += ai * bj
    for d in range(2 * e - 2, e - 1, -1):  # cancel x^d by prod[d] x^(d-e) * modulus
        lead = prod[d] % p
        for i in range(e + 1):
            prod[d - e + i] -= lead * modulus[i]
    return sum(c % p * p**i for i, c in enumerate(prod[:e]))


def frobenius_trace(ext, x):
    """tr(x) as the sum of its m Frobenius conjugates x, x^q, ..., x^(q^(m-1))."""
    s = 0
    for _ in range(ext.m):
        s = ext.add(s, x)
        x = ext.pow(x, ext.q)
    if s >= ext.q:  # encodes a non-constant polynomial
        raise ParamError(f"trace left the base field of {ext!r}")
    return s


def count_eliminations(monkeypatch):
    """Patch ``linalg.pivots`` and ``linalg.rref``, the two public
    eliminations that ``rank``, ``is_independent`` and ``nullspace`` reach
    too, to record the rows of each call in the list returned."""
    calls = []
    for name in ("pivots", "rref"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda F, rows, fn=fn: calls.append(rows) or fn(F, rows))
    return calls


def solve_in_span(F, basis_rows, target):
    """Coefficients c with sum_i c_i * basis_rows[i] == target, or None."""
    if not basis_rows:
        return [] if not any(target) else None
    k = len(basis_rows)
    ncols = len(target)
    # Augmented system: columns are the basis vectors, last column the target.
    aug = [[basis_rows[i][j] for i in range(k)] + [target[j]] for j in range(ncols)]
    R, pivots = linalg.rref(F, aug)
    if k in pivots:
        return None
    coeffs = [0] * k
    for i, pc in enumerate(pivots):
        coeffs[pc] = R[i][k]
    return coeffs


def rank_of_form_two_matrices(f: QuadraticForm):
    """The rank of f split by characteristic: in odd characteristic the
    rank of the symmetrized matrix (diagonal 2a); in characteristic 2 the
    rank of the alternating part B, built without the diagonal, plus one
    when f is nonzero on B's radical."""
    F, N = f.field, f.nvars
    if f.is_zero():
        return 0
    M = [[0] * N for _ in range(N)]
    for (i, j), a in zip(itertools.combinations_with_replacement(range(N), 2), f.coeffs):
        if i != j:
            M[i][j] = M[j][i] = a
        elif F.char != 2:
            M[i][i] = F.add(a, a)
    if F.char != 2:
        return linalg.rank(F, M)
    radical = linalg.nullspace(F, M)
    return N - len(radical) + (1 if any(f.evaluate(w) for w in radical) else 0)


def iter_roots_brute(f: QuadraticForm, nonzero=False):
    """The roots of f in ``itertools.product`` order, by evaluating f at
    every point of the space."""
    o = f.field.order
    for x in itertools.product(range(o), repeat=f.nvars):
        if nonzero and not any(x):
            continue
        if f.evaluate(x) == 0:
            yield x


def span_key(F, rows):
    """The RREF rows of span(rows): one key per subspace."""
    R, _ = linalg.rref(F, rows)
    return tuple(tuple(row) for row in R)


def so_code_law(F, D, k):
    """The exact law of the span of ``so_flat_vectors(F, D, k)`` at desk
    scale, as {span_key: Fraction}.  Each step draws uniformly among the
    N_j nonzero isotropic vectors orthogonal to those drawn so far and
    outside their span, so every ordered basis this can draw has weight
    prod_j 1 / N_j; a code's probability sums its ordered bases."""
    isotropic = [v for v in itertools.product(range(F.order), repeat=D) if any(v) and not linalg.dot(F, v, v)]
    law = {}

    def extend(basis, weight):
        if len(basis) == k:
            key = span_key(F, basis)
            law[key] = law.get(key, 0) + weight
            return
        candidates = [
            v
            for v in isotropic
            if not any(linalg.dot(F, v, b) for b in basis) and linalg.is_independent(F, basis + [v])
        ]
        for v in candidates:
            extend(basis + [v], weight / len(candidates))

    extend([], Fraction(1))
    return law


def code_star_law(F, D, k):
    """The exact law of the span of ``sample_code_star``'s rows at desk
    scale, as {span_key: Fraction}: a (k-1)-dimensional code S drawn with
    the law ``so_code_law`` gives, then one word drawn uniformly among the
    |F|^D - |S| words outside S."""
    Q = F.order
    law = {}
    for key, p in so_code_law(F, D, k - 1).items():
        step = p / (Q**D - Q ** (k - 1))
        for x in itertools.product(range(Q), repeat=D):
            rows = list(key) + [x]
            if linalg.is_independent(F, rows):
                code = span_key(F, rows)
                law[code] = law.get(code, 0) + step
    return law


def outside_span_by_rank(F, rows, draw):
    """The first word ``draw()`` returns that lies outside the span of the
    independent ``rows``, tested by the rank of rows + [x]: a forward
    elimination of every row per candidate, with the construction's budget."""
    for _ in range(construct.STEP_BUDGET):
        x = draw()
        if linalg.is_independent(F, rows + [x]):
            return x
    raise BudgetError(f"step {len(rows) + 1}: budget exhausted")


def so_flat_vectors_by_nullspace(F, D, k, rng):
    """``construct.so_flat_vectors`` step by step from the accepted rows
    alone: each step takes the ``nullspace`` basis B of those rows, folds the
    full Gram matrix of B into the restricted form, maps a nonzero root y of
    it back as ``combine(y, B)`` and checks the span by rank.  The draws are
    those of the construction, so the rows and the RNG state must agree."""
    limit = construct._ROOT_EXHAUSTIVE_LIMIT
    found = [list(sample_root(sum_of_squares(F, D), rng, nonzero=True, exhaustive_limit=limit))]
    while len(found) < k:
        B = linalg.nullspace(F, found)
        g = from_full_matrix(F, [[linalg.dot(F, s, t) for t in B] for s in B])

        def draw():
            return linalg.combine(F, sample_root(g, rng, nonzero=True, exhaustive_limit=limit), B)

        found.append(outside_span_by_rank(F, found, draw))
    return found

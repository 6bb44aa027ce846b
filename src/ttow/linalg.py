"""Exact dense linear algebra: RREF, nullspaces, span arithmetic.

Matrices are lists of rows of field scalars.  Over prime fields the
elimination runs on numpy int64 arrays (all products of two residues fit a
machine word for the primes we admit).  Over the rationals it is
multimodular: each row is scaled to coprime integers, eliminated modulo
word-size primes with the same numpy kernel, and the RREF is lifted by CRT
and rational reconstruction (Wang 1981; Monagan, ISSAC 2004).  The lift is
certified exactly over ZZ before it is returned, so the result is the RREF
over QQ, not a probable one.  `_rref_generic` eliminates over any field
with the field's own scalars; it is the reference the tests compare with.
"""

import math
from fractions import Fraction
from itertools import count

import numpy as np

from .errors import DimensionMismatch
from .fields import QQ, PrimeField, _is_prime


def _np_ok(field, inner=1):
    # products a*b with a,b < p and sums of `inner` of them must fit int64
    return isinstance(field, PrimeField) and (field.p - 1) ** 2 * max(inner, 1) < (1 << 62)


def np_rref(A, p):
    """RREF of an int64 numpy array mod p.  Returns (R, pivot_cols)."""
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, col]), p - 2, p)) % p
        rows = np.nonzero(A[:, col])[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows] = (A[rows] - np.outer(A[rows, col], A[r])) % p
        pivots.append(col)
        r += 1
    return A[:r], pivots


def np_nullspace(A, p):
    """Right-kernel basis of an int64 numpy matrix mod p, as numpy rows.

    Same canonical form as nullspace(): one vector per free column.
    """
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[1]
    R, pivots = np_rref(A, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for row, fc in enumerate(free):
        basis[row, fc] = 1
        if pivots:
            basis[row, pivots] = (-R[: len(pivots), fc]) % p
    return basis


def _rref_generic(rows, field):
    rows = [list(r) for r in rows]
    rows = [r for r in rows if any(not field.is_zero(x) for x in r)]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for col in range(n):
        if r >= len(rows):
            break
        cands = [i for i in range(r, len(rows)) if not field.is_zero(rows[i][col])]
        if not cands:
            continue
        piv = cands[0]
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            c = rows[i][col]
            if field.is_zero(c):
                continue
            rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], lead)]
        pivots.append(col)
        r += 1
    rows = [row for row in rows if any(not field.is_zero(x) for x in row)]
    return rows, pivots


# Word-size primes for the multimodular QQ kernel, in descending order from
# 2**31 - 1: the largest primes whose residue products np_rref keeps exact.
_PRIMES = []


def _prime(i):
    """The i-th prime of the fixed multimodular sequence (cached)."""
    while len(_PRIMES) <= i:
        n = _PRIMES[-1] - 2 if _PRIMES else (1 << 31) - 1
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[i]


def _integer_rows(rows):
    """The distinct nonzero rows of a rational matrix, each scaled by a
    positive rational to coprime integers (same row space, same RREF), and
    the largest bit length of an entry."""
    out = {}
    bits = 0
    for row in rows:
        den = 1
        for x in row:
            d = x.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = math.gcd(*ints)
        if g == 0:
            continue
        if g != 1:
            ints = [v // g for v in ints]
        out[tuple(ints)] = None
        bits = max(bits, max(ints).bit_length(), min(ints).bit_length())
    return list(out), bits


def _rational_reconstruct(u, m, bound):
    """(a, b) with a/b = u mod m, |a| <= bound, 0 < b <= bound, or None."""
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _lift(X, m):
    """Rational reconstruction of every residue of X mod m, as rows of
    (numerator, denominator) pairs, or None if one fails."""
    bound = math.isqrt(m // 2)
    out = []
    for row in X.tolist():
        lifted = [_rational_reconstruct(u, m, bound) for u in row]
        if None in lifted:
            return None
        out.append(lifted)
    return out


def _certified(A, bits, pivots, free, fracs):
    """Whether every row a of the integer matrix A satisfies
    a[free] == a[pivots] @ fracs exactly, i.e. row(A) lies in the row space
    of the candidate RREF.  Each column of fracs is brought to a common
    denominator d and the check made as d * a[free] == a[pivots] @ numerators:
    in int64 when the bound 2**(bits + max(numerator bits + rank bits,
    denominator bits)) on both sides stays below 2**62, otherwise in Python
    ints."""
    dens = [1] * len(free)
    for row in fracs:
        for j, (_, b) in enumerate(row):
            dens[j] = dens[j] * b // math.gcd(dens[j], b)
    nums = [[a * (dens[j] // b) for j, (a, b) in enumerate(row)] for row in fracs]
    nbits = max(abs(a).bit_length() for row in nums for a in row)
    dbits = max(dens).bit_length()
    dtype = object
    if bits + max(nbits + len(pivots).bit_length(), dbits) < 62:
        dtype = np.int64
    A = A.astype(dtype, copy=False)
    N = np.array(nums, dtype=dtype)
    D = np.array(dens, dtype=dtype)
    return np.array_equal(A[:, free] * D, A[:, pivots] @ N)


def _rref_rational(rows):
    """RREF over QQ by word-size primes, CRT and rational reconstruction.

    A prime whose rank is below, or whose pivot columns come
    lexicographically after, those of another prime is unlucky and is
    dropped.  Rational reconstruction is tried only when the number of
    combined primes reaches 1, 2, 4, 8, ...: each try costs time quadratic
    in the size of the modulus, so trying after every prime would make the
    whole lift cubic in the number of primes.  The lift R is returned only
    once every input row a satisfies a[free] = a[pivots] R[:, free] over
    ZZ: then row(A) ⊆ row(R), and rank R = rank_p A <= rank_QQ A, so R is
    the RREF of A.  Until then more primes are added.
    """
    Z, bits = _integer_rows(rows)
    if not Z:
        return [], []
    n = len(Z[0])
    A = np.array(Z, dtype=np.int64 if bits < 64 else object)
    best = None  # (-rank, pivots) of the primes combined so far: least is best
    for p in map(_prime, count()):
        R, pivots = np_rref(A % p, p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivset = set(pivots)
        free = [c for c in range(n) if c not in pivset]
        Rf = R[:, free].astype(object)
        if key != best:
            best = key
            X, m, k = Rf, p, 1
        else:
            X = X + m * ((Rf - X) * pow(m, -1, p) % p)
            m *= p
            k += 1
        if k & (k - 1):
            continue
        fracs = _lift(X, m)
        # with no free column the check is empty: rank n forces R = I
        if fracs is not None and (not free or _certified(A, bits, pivots, free, fracs)):
            break
    out = []
    for i, pcol in enumerate(pivots):
        row = [QQ.zero] * n
        row[pcol] = QQ.one
        for c, (a, b) in zip(free, fracs[i]):
            if a:
                row[c] = Fraction(a, b)
        out.append(row)
    return out, pivots


def rref(rows, field):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = list(rows)
    if not rows:
        return [], []
    if _np_ok(field):
        R, pivots = np_rref([[int(x) for x in r] for r in rows], field.p)
        return [[int(x) for x in r] for r in R], pivots
    if field.characteristic == 0:
        return _rref_rational(rows)
    return _rref_generic(rows, field)


def rank(rows, field):
    return len(rref(rows, field)[0])


def nullspace(rows, ncols, field):
    """Canonical basis of the right kernel {x : Mx = 0}.

    Derived from the RREF: one vector per free column, set to 1 there and
    solved on the pivot columns, in free-column order.
    """
    R, pivots = rref(rows, field)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for i, pcol in enumerate(pivots):
            vec[pcol] = field.neg(R[i][free])
        basis.append(vec)
    return basis


def transpose(rows, ncols, field):
    if not rows:
        return [[] for _ in range(ncols)] if ncols else []
    return [[row[j] for row in rows] for j in range(ncols)]


def left_nullspace(rows, ncols, field):
    """Basis of {y : yM = 0}; the cokernel of M as row vectors."""
    nrows = len(rows)
    if nrows == 0:
        return []
    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return nullspace(cols, nrows, field)


def row_basis(rows, field):
    """Canonical (RREF) basis of the row span."""
    return rref(rows, field)[0]


def reduce_against(vec, basis, pivots, field):
    """Reduce vec modulo an RREF basis; zero iff vec is in the span."""
    vec = list(vec)
    for row, pcol in zip(basis, pivots):
        c = vec[pcol]
        if field.is_zero(c):
            continue
        vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, row)]
    return vec


def in_span(vec, basis, pivots, field):
    red = reduce_against(vec, basis, pivots, field)
    return all(field.is_zero(x) for x in red)


def spans_equal(rows1, rows2, field):
    b1, p1 = rref(rows1, field)
    b2, p2 = rref(rows2, field)
    return b1 == b2 and p1 == p2


def identity_matrix(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(A, B, field):
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch("matrix product shape mismatch")
    n = len(B[0]) if B else 0
    out = []
    for row in A:
        # a row of A B is the combination of the rows of B its entries weigh
        acc = [field.zero] * n
        for a, brow in zip(row, B):
            if not field.is_zero(a):
                acc = [field.add(x, field.mul(a, y)) for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_inv(A, field):
    """Inverse of a square matrix, or None if singular."""
    n = len(A)
    aug = [list(A[i]) + identity_matrix(n, field)[i] for i in range(n)]
    R, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def mat_transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def kernel_restrict(basis, constraint_cols, field):
    """Restrict a solution-space basis by new constraints.

    basis: list of flat vectors spanning the current space.
    constraint_cols: for each basis vector, the image under the constraint
    map (stacked as columns of M).  Returns the sub-basis spanning the
    kernel of the constraint map restricted to the span.
    """
    if not basis:
        return []
    m = len(constraint_cols[0])
    rows = [[constraint_cols[j][i] for j in range(len(basis))] for i in range(m)]
    K = nullspace(rows, len(basis), field)
    out = []
    for coeffs in K:
        vec = [field.zero] * len(basis[0])
        for c, b in zip(coeffs, basis):
            if field.is_zero(c):
                continue
            for j, y in enumerate(b):
                if not field.is_zero(y):
                    vec[j] = field.add(vec[j], field.mul(c, y))
        out.append(vec)
    return out

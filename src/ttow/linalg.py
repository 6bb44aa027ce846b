"""Exact dense linear algebra: RREF, nullspaces, span arithmetic.

Matrices are lists of rows of field scalars.  Over a prime field the
elimination runs on numpy arrays of residues: int64 where products of two
fit a machine word, Python ints (object arrays) above that.  Over the
rationals it is multimodular: each row is scaled to coprime integers,
eliminated modulo word-size primes with the same numpy kernel, and the RREF
is lifted by CRT and rational reconstruction (Wang 1981; Monagan, ISSAC
2004) in `_multimodular_rref`, which galois.ten_closure shares.  The lift
is certified exactly before it is returned, so the result is the RREF over
QQ, not a probable one.  `_rref_generic` eliminates over any field with
the field's own scalars; it is the reference the tests compare with.
"""

import math
from fractions import Fraction
from itertools import count

import numpy as np

from .errors import DimensionMismatch
from .fields import QQ, _is_prime


def _dtype(p, inner=1):
    # int64 where sums of `inner` products of two residues mod p fit
    return np.int64 if (p - 1) ** 2 * inner < 1 << 62 else object


def np_rref(A, p):
    """RREF of an integer matrix mod p, as a numpy array of residues.
    Returns (R, pivot_cols)."""
    A = np.array(A, dtype=_dtype(p)) % p
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
    """Right-kernel basis of an integer matrix mod p, as numpy rows.

    Same canonical form as nullspace(): one vector per free column.
    """
    R, pivots = np_rref(A, p)
    n = R.shape[1]
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=R.dtype)
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


def _integer_scaled(values):
    """Rationals times the lcm of their denominators (ints: unchanged)."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def _integer_rows(rows):
    """The distinct nonzero rows of a rational matrix, each scaled by a
    positive rational to coprime integers (same row space, same RREF), and
    the largest bit length of an entry."""
    out = {}
    bits = 0
    for row in rows:
        ints = _integer_scaled(row)
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


def _multimodular_rref(n, reduce, certify, sign):
    """(rows, pivots): the RREF over QQ of a space of n-vectors, from its
    RREFs mod the primes of `_prime`, which reduce(p) returns as np_rref
    does, or None for a prime to skip.  Mod p the pivots can only move
    right and the dimension only drop (sign -1: a row space) or grow
    (sign +1: a kernel), so a prime whose (sign * dimension, pivots)
    exceeds another's is unlucky and dropped.  Reconstruction is tried
    when the number of combined primes reaches 1, 2, 4, 8, ...: each try
    is quadratic in the modulus, so trying at every prime would make the
    lift cubic.  The lift is returned once certify(rows, pivots) holds.
    """
    best = None  # key of the primes combined so far: least is best
    for p in map(_prime, count()):
        reduced = reduce(p)
        if reduced is None:
            continue
        R, pivots = reduced
        key = (sign * len(pivots), pivots)
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
        if fracs is None:
            continue
        rows = [[QQ.zero] * n for _ in pivots]
        for row, pcol, lifted in zip(rows, pivots, fracs):
            row[pcol] = QQ.one
            for c, (a, b) in zip(free, lifted):
                if a:
                    row[c] = Fraction(a, b)
        if certify(rows, pivots):
            return rows, pivots


def _certified(A, rows, pivots, p=None):
    """Per row a of the integer matrix A, whether a lies in the row space of
    the RREF R (rows, pivots): a[free] == a[pivots] @ R[:, free], mod p, or
    with p None over QQ as d * a[free] == a[pivots] @ numerators, with d the
    common denominator of each free column.  In int64 while the products
    and their sums stay below 2**62, otherwise in Python ints."""
    pivset = set(pivots)
    free = [c for c in range(A.shape[1]) if c not in pivset]
    if not free:
        return np.ones(len(A), dtype=bool)  # rank n forces R = I
    if p is not None:
        dtype = _dtype(p, len(pivots))
        A = (A % p).astype(dtype)
        N = np.array([[row[c] for c in free] for row in rows], dtype=dtype)
        N = N.reshape(len(rows), len(free))
        return ((A[:, pivots] @ N - A[:, free]) % p == 0).all(axis=1)
    dens = [math.lcm(*(row[c].denominator for row in rows)) for c in free]
    nums = [[row[c].numerator * (d // row[c].denominator) for c, d in zip(free, dens)]
            for row in rows]
    bits = int(np.abs(A).max(initial=0)).bit_length()
    nbits = max((abs(a).bit_length() for row in nums for a in row), default=0)
    dbits = max(dens).bit_length()
    dtype = object
    if bits + max(nbits + len(pivots).bit_length(), dbits) < 62:
        dtype = np.int64
    A = A.astype(dtype, copy=False)
    N = np.array(nums, dtype=dtype).reshape(len(rows), len(free))
    D = np.array(dens, dtype=dtype)
    return (A[:, free] * D == A[:, pivots] @ N).all(axis=1)


def _rref_rational(rows):
    """RREF over QQ by word-size primes, CRT and rational reconstruction
    (`_multimodular_rref`).  The lift R is certified once every input row
    a satisfies a[free] = a[pivots] R[:, free] over ZZ: then
    row(A) ⊆ row(R), and rank R = rank_p A <= rank_QQ A, so R is the RREF
    of A.
    """
    Z, bits = _integer_rows(rows)
    if not Z:
        return [], []
    A = np.array(Z, dtype=np.int64 if bits < 64 else object)
    return _multimodular_rref(
        A.shape[1],
        lambda p: np_rref(A % p, p),
        lambda R, pivots: _certified(A, R, pivots).all(),
        sign=-1,
    )


def rref(rows, field):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = list(rows)
    if not rows:
        return [], []
    if field.characteristic == 0:
        return _rref_rational(rows)
    R, pivots = np_rref([[int(x) for x in r] for r in rows], field.p)
    return [[int(x) for x in r] for r in R], pivots


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


def left_nullspace(rows, ncols, field):
    """Basis of {y : yM = 0}; the cokernel of M as row vectors."""
    return nullspace(mat_transpose(rows), len(rows), field) if rows else []


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

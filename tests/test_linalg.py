import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttow import QQ, PrimeField
from ttow.linalg import (
    _dtype,
    _matmul_mod,
    _prime,
    _rref_generic,
    identity_matrix,
    in_span,
    left_nullspace,
    mat_inv,
    mat_mul,
    nullspace,
    np_nullspace,
    np_rref,
    reduce_against,
    rref,
    row_basis,
    spans_equal,
)

F101 = PrimeField(101)
# residues mod these primes are held as Python ints in object arrays
LARGE_PRIMES = ((1 << 61) - 1, (1 << 62) - 57)


def _rand_matrix(rng, rows, cols, field):
    return [[field.random(rng) for _ in range(cols)] for _ in range(rows)]


def test_rref_pivots_and_rank():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    R, piv = rref(A, QQ)
    assert piv == [0, 1]
    assert R[0] == [Fraction(1), Fraction(0)]
    assert R[1] == [Fraction(0), Fraction(1)]


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(3)
    for field in (QQ, F101):
        for _ in range(10):
            A = _rand_matrix(rng, 3, 5, field)
            for v in nullspace(A, 5, field):
                for row in A:
                    s = field.zero
                    for x, y in zip(row, v):
                        s = field.add(s, field.mul(x, y))
                    assert s == field.zero


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(10):
        A = _rand_matrix(rng, 4, 6, F101)
        rank = len(row_basis(A, F101))
        assert rank + len(nullspace(A, 6, F101)) == 6


def test_left_nullspace_kills_matrix():
    rng = random.Random(11)
    A = _rand_matrix(rng, 5, 3, QQ)
    vs = left_nullspace(A, 3, QQ)
    assert vs  # 5 rows in QQ^3 always have a left relation
    for v in vs:
        prod = mat_mul([v], A, QQ)[0]
        assert all(x == QQ.zero for x in prod)


def test_np_rref_matches_generic():
    rng = random.Random(13)
    for _ in range(10):
        A = _rand_matrix(rng, 4, 5, F101)
        R1, p1 = rref(A, F101)
        import numpy as np

        R2, p2 = np_rref(np.array(A, dtype=np.int64), 101)
        assert list(p2) == p1
        assert [[int(x) for x in row] for row in R2[: len(R1)]] == R1


def test_np_nullspace_matches_generic():
    import numpy as np

    rng = random.Random(17)
    for _ in range(10):
        A = _rand_matrix(rng, 3, 6, F101)
        N1 = nullspace(A, 6, F101)
        N2 = np_nullspace(np.array(A, dtype=np.int64), 101)
        assert spans_equal(N1, [list(map(int, r)) for r in N2], F101)


def test_mat_inv_round_trip():
    rng = random.Random(19)
    for field in (QQ, F101):
        while True:
            A = _rand_matrix(rng, 3, 3, field)
            if len(row_basis(A, field)) == 3:
                break
        Ainv = mat_inv(A, field)
        assert mat_mul(A, Ainv, field) == identity_matrix(3, field)


def test_in_span_and_reduce_against():
    rows, piv = rref([[Fraction(1), Fraction(0), Fraction(1)]], QQ)
    assert in_span([Fraction(2), Fraction(0), Fraction(2)], rows, piv, QQ)
    assert not in_span([Fraction(1), Fraction(1), Fraction(0)], rows, piv, QQ)


# -- the multimodular QQ kernel against Fraction elimination ------------------


def _same_rref(rows):
    R, piv = rref(rows, QQ)
    G, gpiv = _rref_generic(rows, QQ)
    assert (R, piv) == (G, gpiv)
    assert all(type(x) is Fraction for row in R for x in row)
    return R, piv


def _fractions(num_bits, den_bits):
    num = st.integers(-(1 << num_bits), 1 << num_bits)
    den = st.integers(1, 1 << den_bits)
    return st.one_of(st.just(0), st.integers(-3, 3), st.builds(Fraction, num, den))


@st.composite
def _rational_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    scalars = _fractions(draw(st.sampled_from([4, 40, 100])), draw(st.sampled_from([0, 8, 70])))
    if draw(st.booleans()):
        # rank at most k < min(m, n), as a product of m x k and k x n factors
        k = draw(st.integers(0, min(m, n) - 1))
        B = draw(st.lists(st.lists(scalars, min_size=k, max_size=k), min_size=m, max_size=m))
        C = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [[sum((B[i][t] * C[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
                for i in range(m)]
    else:
        rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return [
        [Fraction(0) if i in zero_rows or j in zero_cols else Fraction(x) for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_multimodular_rref_matches_fraction_elimination(rows):
    _same_rref(rows)


def test_multimodular_rref_lifts_entries_wider_than_64_bits():
    big = (1 << 90) + 7
    rows = [[Fraction(3), Fraction(big, 5), Fraction(1)], [Fraction(6), Fraction(1), Fraction(-big)]]
    R, _ = _same_rref(rows)
    # an entry whose numerator and denominator both exceed 2**64 needs
    # a CRT modulus above 2**129, i.e. more than four 31-bit primes
    assert any(x.numerator > 1 << 64 and x.denominator > 1 << 64 for row in R for x in row)


def test_multimodular_rref_reconstructs_at_doubling_prime_counts(monkeypatch):
    # reconstruction is tried after 1, 2, 4, 8, ... primes, not after each
    # one, so its cost stays quadratic in the number of primes
    from ttow import linalg

    primes_seen, tried_at = [], []
    np_rref_, lift_ = linalg.np_rref, linalg._lift

    def counting_rref(A, p):
        primes_seen.append(p)
        return np_rref_(A, p)

    def counting_lift(X, m):
        tried_at.append(len(primes_seen))
        return lift_(X, m)

    monkeypatch.setattr(linalg, "np_rref", counting_rref)
    monkeypatch.setattr(linalg, "_lift", counting_lift)
    rng = random.Random(31)
    rows = [[Fraction(rng.getrandbits(120) - (1 << 119), rng.randint(1, 1 << 70)) for _ in range(6)]
            for _ in range(4)]
    _same_rref(rows)
    assert len(primes_seen) > 8
    assert tried_at == [1 << i for i in range(len(tried_at))]
    assert tried_at[-1] == len(primes_seen)


def test_multimodular_rref_discards_an_unlucky_first_prime():
    p = _prime(0)
    rank_drop = [[1, 1], [1, 1 + p]]  # det = p: rank 1 mod p, 2 over QQ
    pivot_shift = [[p, 1, 0], [0, 0, 1]]  # pivots (1, 2) mod p, (0, 2) over QQ
    for rows, qq_pivots in ((rank_drop, [0, 1]), (pivot_shift, [0, 2])):
        _, modp_pivots = np_rref(np.array(rows, dtype=np.int64), p)
        assert modp_pivots != qq_pivots
        _, piv = _same_rref([[Fraction(x) for x in row] for row in rows])
        assert piv == qq_pivots


def test_matmul_mod_is_exact_for_large_admitted_primes():
    # inner * (p - 1)**2 is far above 2**63 at p = 500000003, so an int64
    # A @ B would wrap; p = 101 takes one float64 chunk, and 500000003 and
    # the primes above 2**31 multiply Python ints
    rng = random.Random(23)
    for p in (101, 500000003) + LARGE_PRIMES:
        A = [[rng.randrange(p) for _ in range(4096)] for _ in range(2)]
        B = [[rng.randrange(p) for _ in range(2)] for _ in range(4096)]
        want = [[sum(A[i][k] * B[k][j] for k in range(4096)) % p for j in range(2)]
                for i in range(2)]
        got = _matmul_mod(np.array(A, dtype=_dtype(p)), np.array(B, dtype=_dtype(p)), p)
        assert got.tolist() == want


# -- primes above the int64 range of the kernel ------------------------------


def _modp_matrices(p, seed):
    rng = random.Random(seed)
    F = PrimeField(p)
    mats = [_rand_matrix(rng, 5, 7, F), _rand_matrix(rng, 7, 4, F)]
    for m, n, k in ((6, 8, 3), (7, 5, 2), (4, 6, 0)):
        B, C = _rand_matrix(rng, m, k, F), _rand_matrix(rng, k, n, F)
        mats.append(mat_mul(B, C, F) if k else [[0] * n for _ in range(m)])
    return F, mats


def test_rref_and_nullspace_at_large_primes_match_generic_elimination():
    for seed, p in enumerate(LARGE_PRIMES):
        F, mats = _modp_matrices(p, seed)
        for A in mats:
            n = len(A[0])
            R, piv = rref(A, F)
            assert (R, piv) == _rref_generic(A, F)
            rank = len(R)
            N = nullspace(A, n, F)
            assert len(N) == n - rank
            assert spans_equal(N, [list(map(int, r)) for r in np_nullspace(A, p)], F)
            for v in N:
                assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)
        # the rank-deficient products have the rank of their inner dimension
        assert [len(rref(A, F)[0]) for A in mats[2:]] == [3, 2, 0]

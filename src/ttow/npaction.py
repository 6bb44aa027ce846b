"""The numpy action of transverse operators on tensors, for every field.

Tensors are numpy arrays of shape dims, stacks of them carry one leading
axis.  Over a prime field the entries are residues mod p: int64 where the
sums of products that a step forms stay below 2**62, Python ints in object
arrays above that (`linalg._dtype`).  Over QQ (p None) they are exact
Python ints in object arrays, with no modulus: a tensor is scaled by the
lcm of its denominators, and axis a of every operator of a family by D_a,
the lcm of the axis-a denominators across the family.  For the polynomial
action that is the substitution x_a -> x_a / D_a, which the callers undo
on the coefficients they read off.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from .linalg import _dtype, _integer_scaled
from .operators import TransverseOperator
from .polys import MultiPoly


def _residue(x, p):
    """An int or Fraction scalar mod p (p must not divide its denominator),
    or with p None an integral one as an int."""
    if p is None:
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return x.numerator
    return x.numerator * pow(x.denominator, -1, p) % p


def _np_mats(omega, a, k, p):
    """ω_a^k as an array: residues mod p, or (p None) integers."""
    return np.array(
        [[_residue(x, p) for x in row] for row in omega.power(a, k)],
        dtype=object if p is None else _dtype(p),
    )


def _matmul_mod(A, B, p):
    """Exact A @ B mod p, for every prime that PrimeField admits.  Integer
    matmul in numpy bypasses BLAS; when every inner product fits a float64
    mantissa we reduce, multiply as floats, and round back, which is an
    order of magnitude faster on large matrices.  Otherwise B is split into
    16-bit halves, so that an int64 product of A with either half stays
    below 2**63 over `step` inner columns (2**16 at p near 2**31): two
    products a chunk, recombined as (A @ hi mod p) * 2**16 + A @ lo.
    Python ints in object arrays multiply directly."""
    if _dtype(p) is object:
        return (A @ B) % p
    sq = (p - 1) ** 2
    if A.shape[1] * sq < 2**53:
        prod = (A % p).astype(np.float64) @ (B % p).astype(np.float64)
        return np.rint(prod % p).astype(np.int64) % p
    A = (A % p).astype(np.int64)
    B = (B % p).astype(np.int64)
    lo, hi = B & 0xFFFF, B >> 16
    step = (2**63 - 1) // ((p - 1) * 0xFFFF)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(0, A.shape[1], step):
        Ak = A[:, k : k + step]
        part = ((Ak @ hi[k : k + step] % p) << 16) + Ak @ lo[k : k + step] % p
        out = (out + part) % p
    return out


def _contract_mod(cur, axis, mat, p):
    """Axis `axis` of cur contracted with the rows of mat, mod p, or exactly
    for p None.  An int64 tensordot overflows once sums of len(mat) residue
    products pass 2**63, as at the word-size primes of the QQ closures;
    there _matmul_mod."""
    if p is None or cur.dtype == object or _dtype(p, len(mat)) is np.int64:
        out = np.tensordot(cur, mat, axes=([axis], [0]))
        return np.moveaxis(out if p is None else out % p, -1, axis)
    moved = np.moveaxis(cur, axis, -1)
    out = _matmul_mod(moved.reshape(-1, len(mat)), mat, p)
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def _np_apply_poly(delta, poly, B, dims, p):
    """poly(delta) applied to a stack of flat tensors (rows of B), mod p, or
    exactly for p None (integral delta, poly and B)."""
    k = B.shape[0]
    out = np.zeros_like(B)
    for e, c in poly.terms.items():
        cur = B.reshape((k,) + dims)
        for a, ka in enumerate(e):
            if ka == 0:
                continue
            mat = _np_mats(delta, a, ka, p)
            cur = _contract_mod(cur, a + 1, mat.T if a == 0 else mat, p)
        out = out + _residue(c, p) * cur.reshape(B.shape)
        if p is not None:
            out %= p
    return out


def axis_scales(ops):
    """D_a, the lcm of the denominators of the axis-a matrices of ops."""
    return [
        math.lcm(*(x.denominator for op in ops for row in op.mats[a] for x in row))
        for a in range(len(ops[0].mats))
    ]


def operator_stacks(ops, p):
    """(stacks, scales): per axis a, the (k, d_a, d_a) array of the axis-a
    matrices of the k operators, and D_a.  Mod p the stacks hold residues
    and every D_a is 1; over QQ (p None) axis a is scaled by D_a
    (axis_scales) to integers."""
    naxes = len(ops[0].mats)
    if p is None:
        scales = axis_scales(ops)
        mats = [
            [[[x.numerator * (D // x.denominator) for x in row] for row in op.mats[a]] for op in ops]
            for a, D in enumerate(scales)
        ]
        return [np.array(m, dtype=object) for m in mats], scales
    dtype = _dtype(p, max(ops[0].frame.dims))
    stacks = [
        np.array([[[_residue(x, p) for x in row] for row in op.mats[a]] for op in ops], dtype=dtype)
        for a in range(naxes)
    ]
    return stacks, [1] * naxes


def random_span_members(ops, count, seed):
    """Seeded random linear combinations of a spanning set (one variance):
    a (count, k) coefficient matrix, drawn sample by sample, times the
    flattened per-axis stacks of the k operators."""
    if not ops:
        return []
    frame = ops[0].frame
    field = frame.field
    rng = random.Random(seed)
    p = field.characteristic or None
    coeffs = [[_residue(field.random(rng), p) for _ in ops] for _ in range(count)]
    C = np.array(coeffs, dtype=object if p is None else _dtype(p)).reshape(count, len(ops))
    stacks, scales = operator_stacks(ops, p)
    per_axis = []
    for S, D, d in zip(stacks, scales, frame.dims):
        flat = S.reshape(len(ops), d * d)
        if p is None:
            prod = [[Fraction(x, D) for x in row] for row in (C @ flat).tolist()]
        else:
            prod = _matmul_mod(C, flat, p).tolist()
        per_axis.append([[row[i * d : (i + 1) * d] for i in range(d)] for row in prod])
    return [TransverseOperator(frame, list(mats), ops[0].variance) for mats in zip(*per_axis)]


def tensor_array(t, p, dtype):
    """t as an array of shape dims: residues mod p, or (p None) scaled by the
    lcm of its denominators to integers."""
    if p is None:
        coeffs = _integer_scaled(t.coeffs)
    else:
        coeffs = [_residue(x, p) for x in t.coeffs]
    return np.array(coeffs, dtype=dtype).reshape(t.frame.dims)


def box_action(T, stacks, bounds, p):
    """The monomial actions ω^e·T = ω_0^{e_0} <T| ω_1^{e_1} ... ω_v^{e_v} of
    k operators at once, over the exponent box 0 <= e_a <= bounds[a] in
    `groebner.box_exponents` order: an (n_exps, k * N) array whose row e
    holds the k flattened tensors ω^e·T, operator by operator.

    Each exponent is one batched matmul, of the (k, d_a, d_a) stack of its
    last nonzero axis a, from its predecessor e - 1_a, whose row is already
    built.  Axis 0 acts from the left, so its stack is transposed.  Mod p,
    or exactly for p None."""
    dims = T.shape
    k = stacks[0].shape[0]
    mats = [stacks[0].transpose(0, 2, 1)] + list(stacks[1:])
    sizes = [b + 1 for b in bounds]
    strides = [math.prod(sizes[a + 1 :]) for a in range(len(sizes))]
    out = np.empty((math.prod(sizes), k) + dims, dtype=T.dtype)
    out[0] = T
    exps = product(*map(range, sizes))
    next(exps)  # the zero exponent: T itself
    for i, e in enumerate(exps, 1):
        a = max(b for b, x in enumerate(e) if x)
        cur = np.moveaxis(out[i - strides[a]], a + 1, -1)
        step = np.matmul(cur.reshape(k, -1, dims[a]), mats[a]).reshape(cur.shape)
        out[i] = np.moveaxis(step if p is None else step % p, -1, a + 1)
    return out.reshape(len(out), -1)


def integral_constraint(delta, poly):
    """(δ', q) with integer entries and coefficients, and q(δ') = c·poly(δ)
    for a nonzero integer c, so that both have the same kernel: axis a of δ
    is scaled by D_a (axis_scales), and the term x^e of poly by
    L · ∏ D_a^(m_a - e_a), with L the lcm of the coefficient denominators
    and m_a the largest exponent of x_a in poly."""
    scales = axis_scales([delta])
    mats = [[[x * D for x in row] for row in m] for m, D in zip(delta.mats, scales)]
    scaled = TransverseOperator(delta.frame, mats, delta.variance)
    L = math.lcm(*(c.denominator for c in poly.terms.values()))
    top = [max(e[a] for e in poly.terms) for a in range(len(scales))]
    terms = {
        e: c * L * math.prod(D ** (m - k) for D, m, k in zip(scales, top, e))
        for e, c in poly.terms.items()
    }
    return scaled, MultiPoly(poly.field, poly.nvars, terms)

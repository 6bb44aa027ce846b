"""The batched numpy action against the per-tensor pure-Python action it
replaced: box rows, joint annihilators, sampled operator families, exact
closure certificates and the modular product."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ttow import QQ, Frame, Ideal, PrimeField, Subframe, Tensor, TransverseOperator
from ttow.annihilator import joint_annihilator
from ttow.groebner import box_exponents
from ttow.linalg import _matmul_mod, _prime, left_nullspace
from ttow.npaction import (
    _np_apply_poly,
    box_action,
    integral_constraint,
    operator_stacks,
    tensor_array,
)
from ttow.operators import apply_monomial, apply_polynomial
from ttow.polys import GREVLEX, MultiPoly, poly_from_string
from ttow.singularity import omega_UV_spanning, random_span_members, scaled_projections

F101 = PrimeField(101)
F_BIG = PrimeField((1 << 61) - 1)  # above the int64 range: object arrays
FIELDS = [QQ, F101, F_BIG]
# a different denominator on each axis of the QQ operators
AXIS_DENS = (2, 3, 5)


def _box_rows(t, omega, bounds):
    """The per-tensor box rows: apply_monomial over the exponent box, each
    exponent one contraction away from a cached predecessor."""
    exps = box_exponents(bounds)
    cache = {(0,) * len(bounds): t}
    rows = []
    for e in exps:
        if e not in cache:
            a = max(i for i, k in enumerate(e) if k > 0)
            prev = list(e)
            prev[a] -= 1
            unit = [0] * len(bounds)
            unit[a] = 1
            cache[e] = apply_monomial(omega, unit, cache[tuple(prev)])
        rows.append(cache[e].coeffs)
    return exps, rows


def _old_random_span_members(ops, count, seed):
    """Seeded random combinations, entry by entry in field arithmetic."""
    frame = ops[0].frame
    field = frame.field
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mats = [[[field.zero] * d for _ in range(d)] for d in frame.dims]
        for op in ops:
            c = field.random(rng)
            for a in range(len(frame.dims)):
                for i, row in enumerate(op.mats[a]):
                    for j, x in enumerate(row):
                        mats[a][i][j] = field.add(mats[a][i][j], field.mul(c, x))
        out.append(TransverseOperator(frame, mats))
    return out


def _scalar(field, rng, den=1):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), den)
    return field.random(rng)


def _random_case(field, seed, ntensors=2, nops=3):
    rng = random.Random(seed)
    dims = tuple(rng.randint(1, 3) for _ in range(3))
    frame = Frame(dims, field)
    tensors = [
        Tensor(frame, [_scalar(field, rng, 7) for _ in range(frame.size)])
        for _ in range(ntensors)
    ]
    ops = []
    for _ in range(nops):
        variance = tuple(rng.choice((1, -1)) for _ in dims)
        mats = [
            [[_scalar(field, rng, den) for _ in range(d)] for _ in range(d)]
            for d, den in zip(dims, AXIS_DENS)
        ]
        ops.append(TransverseOperator(frame, mats, variance))
    return frame, tensors, ops


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_box_action_matches_per_tensor_rows(field):
    for seed in range(6):
        frame, tensors, ops = _random_case(field, seed)
        p = field.characteristic or None
        stacks, scales = operator_stacks(ops, p)
        if p is None:
            assert scales == [math.lcm(*(x.denominator for op in ops for row in op.mats[a]
                                         for x in row)) for a in range(3)]
        bounds = list(frame.dims)
        N = frame.size
        for t in tensors:
            rows = box_action(tensor_array(t, p, stacks[0].dtype), stacks, bounds, p)
            assert rows.shape == (math.prod(d + 1 for d in bounds), len(ops) * N)
            lcm_t = math.lcm(*(x.denominator for x in t.coeffs)) if p is None else 1
            for o, omega in enumerate(ops):
                exps, want = _box_rows(t, omega, bounds)
                for e, got, row in zip(exps, rows[:, o * N : (o + 1) * N].tolist(), want):
                    scale = lcm_t * math.prod(D**k for D, k in zip(scales, e))
                    assert got == [x * scale for x in row]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_joint_annihilator_matches_the_per_tensor_cokernel(field):
    for seed in range(6):
        # one tensor and two operators, or two and one: the box has more
        # exponents than the stacked rows have columns, so a cokernel
        frame, tensors, ops = _random_case(field, 100 + seed, 1 + seed % 2, 2 - seed % 2)
        bounds = list(frame.dims)
        stacked = None
        exps = None
        for t in tensors:
            for omega in ops:
                exps, rows = _box_rows(t, omega, bounds)
                stacked = rows if stacked is None else [a + b for a, b in zip(stacked, rows)]
        coker = left_nullspace(stacked, len(stacked[0]), field)
        want = [MultiPoly(field, 3, dict(zip(exps, vec))) for vec in coker]
        got = joint_annihilator(tensors, ops, bounds=bounds)
        # the same canonical cokernel vectors, so the same generators
        assert [g.terms for g in got.gens] == [g.terms for g in want]
        assert got == (Ideal(want, GREVLEX) if want else Ideal.zero(field, 3))


def _family(field):
    """A spanning set of Ω(U,V) with the projection witnesses, and over QQ
    two operators with a different denominator on each axis."""
    frame = Frame((2, 3, 2), field)
    one, zero = field.one, field.zero
    U = Subframe(frame, [[[one, zero]], [[zero, one, one]], [[one, one]]])
    ops = omega_UV_spanning(U) + scaled_projections(U)
    if field is QQ:
        rng = random.Random(5)
        for _ in range(2):
            ops.append(TransverseOperator(frame, [
                [[Fraction(rng.randint(-4, 4), den) for _ in range(d)] for _ in range(d)]
                for d, den in zip(frame.dims, AXIS_DENS)
            ]))
    return ops


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_span_members_match_the_entrywise_loop(field):
    ops = _family(field)
    for seed in range(5):
        got = random_span_members(ops, 6, seed)
        assert got == _old_random_span_members(ops, 6, seed)
        for op in got:
            assert all(type(x) is type(field.zero) for m in op.mats for row in m for x in row)
    assert random_span_members(ops, 0, 1) == []


def test_integral_constraint_is_an_exact_multiple():
    rng = random.Random(3)
    frame = Frame((2, 3, 2), QQ)
    delta = TransverseOperator(frame, [
        [[Fraction(rng.randint(-5, 5), den) for _ in range(d)] for _ in range(d)]
        for d, den in zip(frame.dims, (4, 9, 5))
    ])
    poly = poly_from_string("1/2*x0^2 - 3/4*x1*x2 + x2 - 2/3", 3, QQ)
    tensors = [Tensor(frame, [Fraction(rng.randint(-5, 5), 3) for _ in range(frame.size)])
               for _ in range(3)]
    scaled, q = integral_constraint(delta, poly)
    assert all(x.denominator == 1 for m in scaled.mats for row in m for x in row)
    assert all(c.denominator == 1 for c in q.terms.values())
    # q(δ') = L ∏ D_a^{m_a} poly(δ) with L = 12 and (D, m) = (4, 2), (9, 1), (5, 1)
    factor = 12 * 4**2 * 9 * 5
    B = np.array([[x * 3 for x in t.coeffs] for t in tensors], dtype=object)
    got = _np_apply_poly(scaled, q, B, frame.dims, None)
    for row, t in zip(got.tolist(), tensors):
        want = apply_polynomial(delta, poly, t).coeffs
        assert row == [x * 3 * factor for x in want]


@pytest.mark.parametrize("p", [_prime(0), 94906249, 94906297])
def test_matmul_mod_float64_chunks_match_python_ints(p):
    # A float64 chunk sums step = (2**53 - p) // (p - 1)**2 products: 8192
    # at _prime(0), one at 94906249, the last prime with a chunk, and none at
    # 94906297, the first prime on Python ints.  Row 0 of A and column 0 of B
    # hold p - 2, whose odd products round in a chunk one column longer; the
    # high random residues round in one twice as long.
    step = (2**53 - p) // (p - 1) ** 2
    inner = 3 * step + 5
    rng = np.random.default_rng(6)
    A = rng.integers(p - 256, p, size=(4, inner), dtype=np.int64)
    B = rng.integers(p - 256, p, size=(inner, 4), dtype=np.int64)
    A[0], B[:, 0] = p - 2, p - 2
    want = (A.astype(object) @ B.astype(object)) % p
    assert np.array_equal(_matmul_mod(A, B, p), want)

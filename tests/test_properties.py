"""Seeded property suites: the singularity theorem over random data, the
Galois connection, closure and transformation laws, and an independent
completeness oracle for the annihilator pipeline."""

import random
import time

import pytest

from ttow import Frame, PrimeField, QQ, Subframe, Tensor
from ttow.annihilator import ann_operator
from ttow.cli import named_fixture
from ttow.galois import (
    ProductLaw,
    check_product_closure,
    conjugation_relation_holds,
    densor,
    named_algebra,
    op_space_linear,
    ten_closure,
    torus_relation_holds,
)
from ttow.groebner import box_exponents, normal_form
from ttow.linalg import mat_inv, nullspace, rref, spans_equal
from ttow.operators import TransverseOperator, apply_monomial, apply_polynomial
from ttow.polys import GREVLEX, MultiPoly, derivation_poly
from ttow.singularity import verify_singularity_theorem
from ttow.tensors import TensorSpace

F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)


def _rand_tensor(frame, rng):
    field = frame.field
    return Tensor(frame, [field.random(rng) for _ in range(frame.size)])


def _rand_operator(frame, rng):
    field = frame.field
    mats = [
        [[field.random(rng) for _ in range(d)] for _ in range(d)]
        for d in frame.dims
    ]
    return TransverseOperator(frame, mats)


def _rand_invertible(frame, rng):
    field = frame.field
    mats = []
    for d in frame.dims:
        while True:
            m = [[field.random(rng) for _ in range(d)] for _ in range(d)]
            if mat_inv(m, field) is not None:
                mats.append(m)
                break
    return TransverseOperator(frame, mats)


def _rand_basis(field, d, k, rng):
    while True:
        vecs = [[field.random(rng) for _ in range(d)] for _ in range(k)]
        _, piv = rref(vecs, field)
        if len(piv) == k:
            return vecs


def _is_zero_tensor(t):
    field = t.frame.field
    return all(field.is_zero(x) for x in t.coeffs)


# ------------------------------------------------- singularity theorem suite


def test_singularity_theorem_on_fifty_random_seeds():
    start = time.time()
    for seed in range(50):
        rng = random.Random(seed)
        dims = [rng.randint(2, 3) for _ in range(3)]
        frame = Frame(tuple(dims), F101)
        t = _rand_tensor(frame, rng)
        axes = []
        for a, d in enumerate(dims):
            hi = d - 1 if a == 0 else d
            axes.append(_rand_basis(F101, d, rng.randint(1, hi), rng))
        U = Subframe(frame, axes)
        report = verify_singularity_theorem(t, U, sample_count=40, seed=seed)
        assert report["holds"], f"seed {seed}: {report['ideal'].gb}"
    assert time.time() - start < 120


# -------------------------------------------------- Galois connection suite


def test_galois_connection_three_way_equivalence_100_seeds():
    """The three membership statements of the correspondence agree on
    random (tensor set, linear polynomial set, operator set) triples."""
    start = time.time()
    for seed in range(100):
        rng = random.Random(seed)
        valence = rng.randint(1, 2)
        dims = tuple(rng.randint(1, 3) for _ in range(valence + 1))
        frame = Frame(dims, F7)
        nvars = valence + 1
        S = [_rand_tensor(frame, rng) for _ in range(rng.randint(1, 2))]
        P = []
        for _ in range(rng.randint(1, 2)):
            while True:
                terms = {}
                for a in range(nvars):
                    c = F7.random(rng)
                    if not F7.is_zero(c):
                        e = [0] * nvars
                        e[a] = 1
                        terms[tuple(e)] = c
                if terms:
                    P.append(MultiPoly(F7, nvars, terms))
                    break
        space = op_space_linear(S, P)
        Delta = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5 and space.basis:
                # a span member: all three statements should come out true
                vec = None
                op = None
                mats = [
                    [[F7.zero] * d for _ in range(d)] for d in dims
                ]
                for b in space.basis:
                    c = F7.random(rng)
                    for a in range(nvars):
                        for i in range(dims[a]):
                            for j in range(dims[a]):
                                mats[a][i][j] = F7.add(
                                    mats[a][i][j], F7.mul(c, b.mats[a][i][j])
                                )
                op = TransverseOperator(frame, mats)
                Delta.append(op)
            else:
                Delta.append(_rand_operator(frame, rng))
        in_id = all(
            _is_zero_tensor(apply_polynomial(delta, p, t))
            for t in S
            for p in P
            for delta in Delta
        )
        in_ten = ten_closure(P, Delta, frame).contains_space(TensorSpace(frame, S))
        in_op = all(space.contains(delta) for delta in Delta)
        assert in_id == in_ten == in_op, f"seed {seed}"
    assert time.time() - start < 60


def test_galois_antitone_laws_on_random_chains():
    for seed in range(10):
        rng = random.Random(seed)
        frame = Frame((2, 2, 2), F7)
        t1, t2 = _rand_tensor(frame, rng), _rand_tensor(frame, rng)
        d = derivation_poly(2, F7)
        small = op_space_linear([t1], [d])
        large = op_space_linear([t1, t2], [d])
        assert all(small.contains(b) for b in large.basis)


# ------------------------------------------------------- closure-law suite


def test_derivations_lie_closed_on_all_fixtures():
    for name in ("ghz", "w", "sl2", "truncpoly-3", "cplx", "upper-triangular"):
        t = named_fixture(name, QQ)["tensor"]
        space = named_algebra([t], "derivations")
        law = ProductLaw.lie(QQ, len(t.frame.dims))
        ok, pair = check_product_closure(space, law)
        assert ok, (name, pair)


def test_centroid_and_nuclei_associative_and_unital():
    for name, kind, axes in (
        ("truncpoly-3", "centroid", None),
        ("ghz", "centroid", None),
        ("cplx", "centroid", None),
        ("matmul-2", "nucleus", (1, 2)),
        ("dotprod-3", "adjoint", None),
    ):
        t = named_fixture(name, QQ)["tensor"]
        space = named_algebra([t], kind, axes=axes)
        law = ProductLaw.associative(QQ, space.variance)
        ok, pair = check_product_closure(space, law)
        assert ok, (name, pair)
        ident = TransverseOperator(
            t.frame,
            [
                [[QQ.one if i == j else QQ.zero for j in range(d)] for i in range(d)]
                for d in t.frame.dims
            ],
            space.variance,
        )
        assert space.contains(ident)


def test_torus_identity_on_twenty_seeds():
    start = time.time()
    for seed in range(20):
        rng = random.Random(seed)
        valence = rng.randint(1, 2)
        dims = tuple(rng.randint(2, 3) for _ in range(valence + 1))
        frame = Frame(dims, F7)
        S = [_rand_tensor(frame, rng)]
        p = derivation_poly(valence, F7)
        tau = [F7.random_nonzero(rng) for _ in range(valence + 1)]
        assert torus_relation_holds(S, [p], tau), f"seed {seed}"
    assert time.time() - start < 60


def test_conjugation_identity_on_twenty_seeds():
    start = time.time()
    for seed in range(20):
        rng = random.Random(seed)
        valence = rng.randint(1, 2)
        dims = tuple(rng.randint(2, 3) for _ in range(valence + 1))
        frame = Frame(dims, F7)
        S = [_rand_tensor(frame, rng)]
        p = derivation_poly(valence, F7)
        omega = _rand_invertible(frame, rng)
        assert conjugation_relation_holds(S, [p], omega), f"seed {seed}"
    assert time.time() - start < 60


# ------------------------------------------- annihilator completeness oracle


def _naive_box_annihilators(t, omega):
    """Independent oracle: act monomial by monomial without the pipeline's
    incremental caching, then solve for all annihilating box polynomials."""
    frame = t.frame
    field = frame.field
    bounds = list(frame.dims)
    exps = list(box_exponents(bounds))
    rows = []
    for e in exps:
        cur = t
        for a, k in enumerate(e):
            unit = [0] * len(bounds)
            unit[a] = 1
            for _ in range(k):
                cur = apply_monomial(omega, tuple(unit), cur)
        rows.append(cur.coeffs)
    # kernel of the transpose: coefficient vectors over the box monomials
    cols = list(zip(*rows))
    ker = nullspace([list(c) for c in cols], len(exps), field)
    return exps, ker


def _ideal_box_slice(I, exps):
    """All box polynomials lying in the ideal, via normal forms of the box
    monomials against the reduced basis."""
    field = I.field
    nf = []
    support = set()
    for e in exps:
        p = normal_form(MultiPoly.monomial(field, I.nvars, e), I)
        nf.append(p)
        support.update(p.terms)
    support = sorted(support)
    pos = {m: i for i, m in enumerate(support)}
    rows = []
    for p in nf:
        row = [field.zero] * len(support)
        for m, c in p.terms.items():
            row[pos[m]] = c
        rows.append(row)
    cols = list(zip(*rows)) if support else []
    if not cols:
        # every monomial reduces to zero: the whole box is in the ideal
        n = len(exps)
        return [
            [field.one if i == j else field.zero for j in range(n)]
            for i in range(n)
        ]
    return nullspace([list(c) for c in cols], len(exps), field)


def test_annihilator_completeness_oracle_25_seeds():
    start = time.time()
    for seed in range(25):
        rng = random.Random(seed)
        valence = rng.randint(1, 2)
        dims = tuple(rng.randint(1, 3) for _ in range(valence + 1))
        frame = Frame(dims, F5)
        t = _rand_tensor(frame, rng)
        omega = _rand_operator(frame, rng)
        I = ann_operator(t, omega)
        exps, oracle = _naive_box_annihilators(t, omega)
        slice_ = _ideal_box_slice(I, exps)
        assert spans_equal(
            [list(v) for v in oracle], [list(v) for v in slice_], F5
        ), f"seed {seed}"
    assert time.time() - start < 120


# ------------------------------------------------------------ smoke runtime


def test_densor_of_random_8x8x8_under_60s():
    rng = random.Random(0)
    frame = Frame((8, 8, 8), F101)
    t = _rand_tensor(frame, rng)
    start = time.time()
    space = densor([t])
    elapsed = time.time() - start
    assert space.contains(t)
    assert elapsed < 60

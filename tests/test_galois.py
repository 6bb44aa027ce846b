import random
from fractions import Fraction

import pytest

from ttow import (
    QQ,
    Frame,
    PrimeField,
    Tensor,
    TensorSpace,
    TransverseOperator,
    apply_polynomial,
    check_product_closure,
    densor,
    generic_points,
    is_trait,
    named_algebra,
    op_space_equations,
    op_space_linear,
    ten_closure,
    torus_transform,
)
from ttow.errors import ZeroTorusEntry
from ttow.fixtures import dotprod, ghz, matmul, sl_bracket, trunc_poly, w_state
from ttow.galois import ProductLaw, torus_relation_holds, torus_scale_space
from ttow.polys import centroid_polys, derivation_poly, poly_from_string

F101 = PrimeField(101)


def P(text, nvars, field=QQ):
    return poly_from_string(text, nvars, field)


# -- named operator algebras ------------------------------------------------


def test_derivation_dimensions():
    assert named_algebra([ghz(QQ)], "derivations").dimension == 4
    assert named_algebra([w_state(QQ)], "derivations").dimension == 5


def test_centroid_dimensions():
    assert named_algebra([trunc_poly(3)], "centroid").dimension == 3
    assert named_algebra([ghz(QQ)], "centroid").dimension == 2


def test_adjoints_of_dot_product():
    # pairs (omega, omega^T) on the two input axes: one matrix algebra M_3
    space = named_algebra([dotprod(3, QQ)], "adjoint")
    assert space.dimension == 9


def test_nucleus_of_matrix_multiplication():
    space = named_algebra([matmul(2, QQ)], "nucleus", axes=(1, 2))
    assert space.dimension == 4


def test_every_derivation_satisfies_the_leibniz_trait():
    d = derivation_poly(2)
    for t in (ghz(QQ), w_state(QQ), trunc_poly(3)):
        for delta in named_algebra([t], "derivations").basis:
            assert is_trait(d, t, delta)


def test_centroid_satisfies_both_traits():
    t = trunc_poly(3)
    for p in centroid_polys(2):
        for omega in named_algebra([t], "centroid").basis:
            assert is_trait(p, t, omega)


# -- product closure ---------------------------------------------------------


def test_derivations_are_lie_closed():
    space = named_algebra([ghz(QQ)], "derivations")
    ok, counter = check_product_closure(space, ProductLaw.lie(QQ, 3))
    assert ok and counter is None


def test_centroid_is_associative_and_unital():
    space = named_algebra([trunc_poly(3)], "centroid")
    ok, _ = check_product_closure(space, ProductLaw.associative(QQ, space.variance))
    assert ok
    assert space.contains(TransverseOperator.identity(space.frame, space.variance))


def test_sl2_derivations_not_associatively_closed():
    space = named_algebra([sl_bracket(2, QQ)], "derivations")
    ok, counter = check_product_closure(space, ProductLaw.associative(QQ, space.variance))
    assert not ok and counter is not None


# -- linear operator spaces --------------------------------------------------


def test_op_space_scalar_solutions():
    # scalar triples (a, b, c)I with a = b + c always satisfy the Leibniz trait
    t = ghz(QQ)
    space = op_space_linear([t], [derivation_poly(2)])

    def scalar_triple(a, b, c):
        f = QQ

        def diag(c_):
            return [[c_ if i == j else f.zero for j in range(2)] for i in range(2)]

        return TransverseOperator(t.frame, [diag(a), diag(b), diag(c)])

    assert space.contains(scalar_triple(Fraction(5), Fraction(2), Fraction(3)))
    assert not space.contains(scalar_triple(Fraction(1), Fraction(1), Fraction(1)))


def test_op_space_shrinks_with_more_tensors():
    d = [derivation_poly(2)]
    big = op_space_linear([ghz(QQ)], d)
    small = op_space_linear([ghz(QQ), w_state(QQ)], d)
    assert small.dimension <= big.dimension
    for omega in small.basis:
        assert big.contains(omega)


# -- tensor closures and densors ---------------------------------------------


def test_ten_closure_empty_operator_set_is_everything():
    frame = Frame((2, 2, 2), QQ)
    space = ten_closure([derivation_poly(2)], [], frame)
    assert space.dimension == 8


def test_ten_closure_single_slot_pattern():
    # delta = (0, E12, 0): the condition zeroes the slices hit by E12
    frame = Frame((2, 2, 2), QQ)
    z, o = QQ.zero, QQ.one
    E12 = [[z, o], [z, z]]
    zero = [[z, z], [z, z]]
    delta = TransverseOperator(frame, [zero, E12, zero])
    space = ten_closure([derivation_poly(2)], [delta], frame)
    # condition: slice with axis-1 index picking up E12's image must vanish
    assert space.dimension == 4
    for b in space.basis:
        assert apply_polynomial(delta, derivation_poly(2), b).is_zero()


def test_ten_closure_of_diagonal_operators_on_a_4096_frame():
    # With diagonal matrices diag(a), diag(b), diag(c) on the three axes, the
    # derivation trait acts on the unit tensor e_ijk by a_i - b_j - c_k, so
    # Ten is spanned by the e_ijk with a_i = b_j + c_k for every operator.
    n = 16
    frame = Frame((n, n, n), F101)
    weights = [
        ([i % 7 for i in range(n)], [j % 3 for j in range(n)], [k % 5 for k in range(n)]),
        ([i % 4 for i in range(n)], [0] * n, [k % 4 for k in range(n)]),
    ]

    def diag(w):
        return [[w[i] if i == j else 0 for j in range(n)] for i in range(n)]

    Delta = [TransverseOperator(frame, [diag(w) for w in ws]) for ws in weights]
    space = ten_closure([derivation_poly(2, F101)], Delta, frame)
    units = [
        Tensor.from_entries(frame, {idx: 1})
        for idx in frame.indices()
        if all(a[idx[0]] == b[idx[1]] + c[idx[2]] for a, b, c in weights)
    ]
    assert space == TensorSpace(frame, units)
    assert space.dimension == 153


def test_densor_contains_its_input():
    for t in (ghz(QQ), w_state(QQ), trunc_poly(2), matmul(2, QQ)):
        assert densor([t]).contains(t)


def test_densor_dimensions_small_fixtures():
    assert densor([ghz(QQ)]).dimension == 2
    assert densor([w_state(QQ)]).dimension == 1
    assert densor([sl_bracket(2, QQ)]).dimension == 1
    assert densor([sl_bracket(3, F101)]).dimension == 2
    assert densor([matmul(2, F101)]).dimension == 1


def test_ghz_densor_span():
    space = densor([ghz(QQ)])
    e000 = Tensor.from_entries(space.frame, {(0, 0, 0): Fraction(1)})
    e111 = Tensor.from_entries(space.frame, {(1, 1, 1): Fraction(1)})
    assert space.contains(e000) and space.contains(e111)


def test_densor_is_idempotent():
    space = densor([ghz(QQ)])
    again = densor(list(space.basis))
    assert again.dimension == space.dimension
    for b in space.basis:
        assert again.contains(b)


# -- symbolic systems ---------------------------------------------------------


def test_symbolic_system_accepts_known_points():
    t = ghz(QQ)
    sys_lin = op_space_equations([t], [P("x0 - x1*x2", 3)])
    ident = TransverseOperator.identity(t.frame)
    assert sys_lin.verify_point(ident)
    z, o = QQ.zero, QQ.one
    swap = [[z, o], [o, z]]
    assert sys_lin.verify_point(TransverseOperator(t.frame, [swap, swap, swap]))


def test_symbolic_system_rejects_non_solutions():
    t = ghz(QQ)
    sys_lin = op_space_equations([t], [P("x0 - x1*x2", 3)])
    z, o = QQ.zero, QQ.one
    swap = [[z, o], [o, z]]
    ident = [[o, z], [z, o]]
    assert not sys_lin.verify_point(TransverseOperator(t.frame, [swap, swap, ident]))


# -- generic points -----------------------------------------------------------


def test_generic_points_satisfy_the_constraints():
    space = op_space_linear([ghz(QQ)], [derivation_poly(2)])
    pts = generic_points(space, seed=3)
    assert len(pts) == 2 + 2  # 2 + valence
    for omega in pts:
        assert is_trait(derivation_poly(2), ghz(QQ), omega)


def test_generic_points_deterministic():
    space = op_space_linear([ghz(QQ)], [derivation_poly(2)])
    assert generic_points(space, seed=7) == generic_points(space, seed=7)


# -- torus action -------------------------------------------------------------


def test_torus_transform_signs():
    d = derivation_poly(2)
    out = torus_transform([d], [Fraction(1), Fraction(-1), Fraction(-1)])
    assert out[0] == P("x0 + x1 + x2", 3)


def test_torus_identity_fixes():
    d = derivation_poly(2)
    out = torus_transform([d], [Fraction(1)] * 3)
    assert out[0] == d


def test_torus_rejects_zero():
    with pytest.raises(ZeroTorusEntry):
        torus_transform([derivation_poly(2)], [Fraction(0), Fraction(1), Fraction(1)])


def test_torus_relation_on_ghz():
    tau = [Fraction(2), Fraction(1), Fraction(1)]
    assert torus_relation_holds([ghz(QQ)], [derivation_poly(2)], tau)

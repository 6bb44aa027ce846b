"""Homotopism categories: verification, composition, shuffles, and the
composability verdict pipeline."""

import pytest

from ttow import QQ, PrimeField
from ttow.categories import (
    ComposabilityVerdict,
    Homotopism,
    TensorCategory,
    compose_homotopisms,
    composability_verdict,
    shuffle_category,
    verify_homotopism,
)
from ttow.cli import named_fixture
from ttow.errors import CertificationFailed, NotComposable, ShapeMismatch
from ttow.linalg import identity_matrix, mat_mul, mat_transpose
from ttow.polys import poly_from_string


def _p(text, nvars):
    return poly_from_string(text, nvars, QQ)


SWAP = [[QQ.zero, QQ.one], [QQ.one, QQ.zero]]
ID2 = [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]


# ---------------------------------------------------------------- categories


def test_category_variance_validation():
    cat = TensorCategory(2)
    assert cat.variance == (1, 1, 1)
    with pytest.raises(Exception):
        TensorCategory(2, (1, 2, 1))
    with pytest.raises(Exception):
        TensorCategory(2, (1, 1))


def test_shuffle_identity_permutation_is_noop():
    cat = TensorCategory(2, (1, -1, 0))
    assert shuffle_category(cat, [0, 1, 2]) == cat


def test_shuffle_valence_one_swap_flips_both():
    cat = TensorCategory(1, (1, 1))
    assert shuffle_category(cat, [1, 0]).variance == (-1, -1)


def test_shuffle_three_branch_formula():
    cat = TensorCategory(3, (1, 1, 1, 1))
    assert shuffle_category(cat, [1, 0, 3, 2]).variance == (-1, -1, 1, 1)


def test_shuffle_involution_restores_category():
    cat = TensorCategory(3, (1, -1, 1, -1))
    pi = [2, 0, 3, 1]
    inv = [pi.index(a) for a in range(4)]
    assert shuffle_category(shuffle_category(cat, pi), inv) == cat


def test_shuffle_rejects_non_permutation():
    with pytest.raises(ShapeMismatch):
        shuffle_category(TensorCategory(2), [0, 0, 1])


# --------------------------------------------------------------- homotopisms


def test_identity_maps_verify():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    assert verify_homotopism(t, t, [ID2, ID2, ID2], cat)


def test_ghz_triple_swap_is_an_autotopism():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    assert verify_homotopism(t, t, [SWAP, SWAP, SWAP], cat)


def test_ghz_partial_swap_fails():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    assert not verify_homotopism(t, t, [SWAP, SWAP, ID2], cat)


def test_homotopism_certified_at_construction():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    with pytest.raises(CertificationFailed):
        Homotopism(t, t, [SWAP, SWAP, ID2], cat)


def test_compose_with_identity():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    f = Homotopism(t, t, [SWAP, SWAP, SWAP], cat)
    e = Homotopism.identity(t, cat)
    g = compose_homotopisms(f, e)
    assert g.maps == f.maps


def test_swap_autotopism_squares_to_identity():
    t = named_fixture("ghz", QQ)["tensor"]
    cat = TensorCategory(2)
    f = Homotopism(t, t, [SWAP, SWAP, SWAP], cat)
    assert compose_homotopisms(f, f).maps == [ID2, ID2, ID2]


def test_adjoint_category_morphisms_compose_by_transpose():
    # dot-product tensor: (omega, omega^T) on the two input axes is a
    # morphism in the (0, +1, -1) category; composition multiplies the
    # covariant components in order and the contravariant in reverse,
    # matching (omega tau, (omega tau)^T).
    t = named_fixture("dotprod-3", QQ)["tensor"]
    cat = TensorCategory(2, (0, 1, -1))
    om = [[QQ.from_int(k) for k in row] for row in [[1, 2, 0], [0, 1, 3], [1, 0, 1]]]
    ta = [[QQ.from_int(k) for k in row] for row in [[2, 0, 1], [1, 1, 0], [0, 1, 1]]]
    f = Homotopism(t, t, [None, om, mat_transpose(om)], cat)
    g = Homotopism(t, t, [None, ta, mat_transpose(ta)], cat)
    h = compose_homotopisms(f, g)
    prod = mat_mul(om, ta, QQ)
    assert h.maps[1] == prod
    assert h.maps[2] == mat_transpose(prod)


def test_compose_rejects_category_mismatch():
    t = named_fixture("ghz", QQ)["tensor"]
    f = Homotopism.identity(t, TensorCategory(2))
    g = Homotopism.identity(t, TensorCategory(2, (1, 1, -1)))
    with pytest.raises(NotComposable):
        compose_homotopisms(f, g)


def test_constant_axis_requires_equal_dims_and_no_map():
    s = named_fixture("dotprod-3", QQ)["tensor"]
    cat = TensorCategory(2, (0, 1, 1))
    eye3 = identity_matrix(3, QQ)
    assert verify_homotopism(s, s, [None, eye3, eye3], cat)


# ------------------------------------------------------ composability verdict


def test_verdict_single_splitting_binomial():
    v = composability_verdict([_p("x0 - x1*x2", 3)])
    assert v.outcome == "composable"
    assert set(v.A) >= {0} and set(v.B) >= {1, 2}
    assert ((1, 0, 0), (0, 1, 1)) in v.witnesses


def test_verdict_adjoint_relation():
    v = composability_verdict([_p("x1 - x2", 3)])
    assert v.outcome == "composable"
    assert v.A == [1] and v.B == [2]


def test_verdict_even_axis_projection_blocks():
    v = composability_verdict([_p("x0^2 - x1", 2)])
    assert v.outcome == "not_composable"
    assert "projection" in v.reason


def test_verdict_nontrivial_character_blocks():
    v = composability_verdict([_p("x0 - 2*x1", 2)])
    assert v.outcome == "not_composable"
    assert "character" in v.reason


def test_verdict_undecided_lattice_is_unknown():
    v = composability_verdict([_p("x0 - x1*x2", 3), _p("x0*x1 - x2", 3)])
    assert v.outcome == "unknown"


def test_verdict_monomial_in_saturation_blocks():
    v = composability_verdict([_p("x0*x1", 2)])
    assert v.outcome == "not_composable"


def test_verdict_non_binomial_blocks():
    v = composability_verdict([_p("x0 + x1 + x2 - 1", 3)])
    assert v.outcome == "not_composable"


def test_verdict_zero_ideal_trivially_composable():
    v = composability_verdict([])
    assert v.outcome == "composable" and v.witnesses == []


def test_composable_witnesses_have_disjoint_01_supports():
    for polys, n in [
        (["x0 - x1*x2"], 3),
        (["x1 - x2"], 3),
        (["x0 - x1", "x1 - x2"], 3),
    ]:
        v = composability_verdict([_p(s, n) for s in polys])
        assert v.outcome == "composable"
        for e, f in v.witnesses:
            assert set(e) <= {0, 1} and set(f) <= {0, 1}
            assert all(not (a and b) for a, b in zip(e, f))
            assert all(a == 0 for i, a in enumerate(e) if i not in v.A)
            assert all(b == 0 for i, b in enumerate(f) if i not in v.B)


def test_verdict_works_over_prime_fields():
    F = PrimeField(7)
    p = poly_from_string("x0 - x1*x2", 3, F)
    v = composability_verdict([p])
    assert v.outcome == "composable"

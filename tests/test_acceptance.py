"""Acceptance suite: the headline results the package must reproduce.

Each test states an exact expected value and a time budget.  The heavy
property runs live in test_properties; this module invokes them so the
acceptance criteria are checked end to end from one place.
"""

import time

import pytest

from test_properties import (
    test_annihilator_completeness_oracle_25_seeds,
    test_centroid_and_nuclei_associative_and_unital,
    test_conjugation_identity_on_twenty_seeds,
    test_densor_of_random_8x8x8_under_60s,
    test_derivations_lie_closed_on_all_fixtures,
    test_galois_connection_three_way_equivalence_100_seeds,
    test_singularity_theorem_on_fifty_random_seeds,
    test_torus_identity_on_twenty_seeds,
)

from ttow import QQ, PrimeField, Subframe, TensorSpace, TransverseOperator
from ttow.annihilator import ann_operator
from ttow.categories import composability_verdict
from ttow.cli import named_fixture
from ttow.galois import densor, named_algebra, ten_closure
from ttow.groebner import Ideal
from ttow.polys import derivation_poly, poly_from_string
from ttow.singularity import nabla_complex, verify_singularity_theorem


def _gb_equals(I, expected_strings, nvars):
    expected = Ideal([poly_from_string(s, nvars, I.field) for s in expected_strings])
    return I == expected


def unit(n, i):
    return [QQ.one if j == i else QQ.zero for j in range(n)]


# criterion 1 ---------------------------------------------------------------


def test_acceptance_1_annihilator_fixtures():
    start = time.time()
    cases = [
        ("fig1a", ["x0^2 - x0", "x1^2 - x1", "x0*x1"], 2),
        ("fig1b", ["x0^2", "x0*x1 - x1^2", "x1^3"], 2),
        (
            "ghz-swap",
            ["x^2 - 1", "y^2 - 1", "z^2 - 1", "x*y - z", "x - y*z", "y - x*z"],
            3,
        ),
        ("w-swap", ["x^2 - 1", "y^2 - 1", "z^2 - 1"], 3),
    ]
    for name, expected, nvars in cases:
        t0 = time.time()
        data = named_fixture(name, QQ)
        I = ann_operator(data["tensor"], data["operator"])
        assert _gb_equals(I, expected, nvars), name
        assert time.time() - t0 < 1.0, name
    assert time.time() - start < 5.0


# criterion 2 ---------------------------------------------------------------


def test_acceptance_2_operator_algebra_dimensions():
    cases = [
        ("ghz", "derivations", 4),
        ("w", "derivations", 5),
        ("truncpoly-3", "centroid", 3),
        ("ghz", "centroid", 2),
    ]
    for name, kind, dim in cases:
        t0 = time.time()
        t = named_fixture(name, QQ)["tensor"]
        assert named_algebra([t], kind).dimension == dim, (name, kind)
        assert time.time() - t0 < 1.0


# criterion 3 ---------------------------------------------------------------


def test_acceptance_3_densor_dimensions():
    start = time.time()
    cases = [("ghz", 2), ("w", 1), ("sl2", 1), ("sl3", 2), ("matmul-2", 1)]
    for name, dim in cases:
        t = named_fixture(name, QQ)["tensor"]
        assert densor([t]).dimension == dim, name
    assert time.time() - start < 30.0


def test_acceptance_3_densor_truncated_polynomial_algebras():
    """The densor of A = K[x]/(x^n) is the line through the product tensor t.

    The densor is Ten(d, Der(t)) with d = x_0 - x_1 - x_2.  Der(t) splits
    as the multiplication triples (L_u, L_u, 0) and (L_u, 0, L_u), 2n of
    them, plus the classical triples (D, D, D) for the n - 1 derivations
    with D(x) in x*K[x]; so dim Der = 3n - 1.  Closing under the
    multiplication triples alone leaves the n-dimensional family
    (u, v) -> u*v*c, i.e. A (x)_A A = A.  The Euler triple (E, E, E),
    E = diag(0, 1, ..., n-1) (the derivation x*d/dx), then forces c to
    be a scalar, so the densor is spanned by t and has dimension 1.

    The multiplication triples are built from the centroid basis
    (c_0, c_1, c_2) as (c_0, c_1, 0) and (c_0, 0, c_2): the centroid
    satisfies x_0 - x_1 and x_0 - x_2, so both satisfy d whatever the
    per-axis action convention.  Each step runs over QQ (multimodular closure)
    and over F_101 (numpy closure).
    """
    for field in (QQ, PrimeField(101)):
        for n in (2, 3, 4):
            t = named_fixture(f"truncpoly-{n}", field)["tensor"]
            frame = t.frame
            der = named_algebra([t], "derivations")
            assert der.dimension == 3 * n - 1, (field, n)

            zero = [[field.zero] * n for _ in range(n)]
            mult = []
            for c0, c1, c2 in (c.mats for c in named_algebra([t], "centroid").basis):
                mult.append(TransverseOperator(frame, [c0, c1, zero]))
                mult.append(TransverseOperator(frame, [c0, zero, c2]))
            assert all(der.contains(m) for m in mult), (field, n)
            d = derivation_poly(frame.valence, field)
            assert ten_closure([d], mult, frame).dimension == n, (field, n)

            E = [
                [field.from_int(i) if i == j else field.zero for j in range(n)]
                for i in range(n)
            ]
            assert der.contains(TransverseOperator(frame, [E, E, E])), (field, n)

            D = densor([t])
            assert D.dimension == 1, (field, n, D.dimension)
            assert D == TensorSpace(frame, [t]), (field, n)


# criterion 4 ---------------------------------------------------------------


def test_acceptance_4_octonion_densor():
    start = time.time()
    t = named_fixture("octonion", PrimeField(101))["tensor"]
    assert densor([t]).dimension == 1
    assert time.time() - start < 300.0


# criterion 5 ---------------------------------------------------------------


def test_acceptance_5_singularity_theorem_suite():
    start = time.time()
    # the three algebra examples with their exact complexes
    t = named_fixture("cplx", QQ)["tensor"]
    U = Subframe(t.frame, [[unit(2, 0)]] * 3)
    cx = nabla_complex([t], U)
    assert sorted(map(tuple, map(sorted, cx.facets()))) == [(0, 1), (0, 2), (1, 2)]
    assert verify_singularity_theorem(t, U, sample_count=8, seed=3)["holds"]

    t = named_fixture("matmul-2", QQ)["tensor"]
    top = [unit(4, 0), unit(4, 1)]
    U = Subframe(t.frame, [top, top, top])
    cx = nabla_complex([t], U)
    assert sorted(map(tuple, map(sorted, cx.facets()))) == [(0, 2), (1, 2)]
    assert verify_singularity_theorem(t, U, sample_count=8, seed=3)["holds"]

    t = named_fixture("upper-triangular", QQ)["tensor"]
    su = [unit(3, 1)]
    U = Subframe(t.frame, [su, su, su])
    cx = nabla_complex([t], U)
    assert sorted(map(tuple, map(sorted, cx.facets()))) == [(0,), (1,), (2,)]
    assert verify_singularity_theorem(t, U, sample_count=8, seed=3)["holds"]

    # fifty seeded random pairs over F101
    test_singularity_theorem_on_fifty_random_seeds()
    assert time.time() - start < 120.0


# criterion 6 ---------------------------------------------------------------


def test_acceptance_6_composability_verdicts():
    start = time.time()

    def P(text, n):
        return poly_from_string(text, n, QQ)

    v = composability_verdict([P("x0 - x1*x2", 3)])
    assert v.outcome == "composable" and set(v.A) >= {0} and set(v.B) >= {1, 2}
    v = composability_verdict([P("x1 - x2", 3)])
    assert v.outcome == "composable" and v.A == [1] and v.B == [2]
    v = composability_verdict([P("x0^2 - x1", 2)])
    assert v.outcome == "not_composable" and "projection" in v.reason
    v = composability_verdict([P("x0 - 2*x1", 2)])
    assert v.outcome == "not_composable" and "character" in v.reason
    v = composability_verdict([P("x0 - x1*x2", 3), P("x0*x1 - x2", 3)])
    assert v.outcome == "unknown"
    assert time.time() - start < 1.0


# criterion 7 ---------------------------------------------------------------


def test_acceptance_7_galois_connection_suite():
    test_galois_connection_three_way_equivalence_100_seeds()


# criterion 8 ---------------------------------------------------------------


def test_acceptance_8_closure_law_suite():
    start = time.time()
    test_derivations_lie_closed_on_all_fixtures()
    test_centroid_and_nuclei_associative_and_unital()
    test_torus_identity_on_twenty_seeds()
    test_conjugation_identity_on_twenty_seeds()
    assert time.time() - start < 60.0


# criterion 9 ---------------------------------------------------------------


def test_acceptance_9_annihilator_completeness_oracle():
    test_annihilator_completeness_oracle_25_seeds()


# smoke benchmark ------------------------------------------------------------


def test_acceptance_densor_smoke_benchmark():
    test_densor_of_random_8x8x8_under_60s()

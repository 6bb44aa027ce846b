import random
from fractions import Fraction

import pytest

from ttow import (
    GREVLEX,
    QQ,
    Frame,
    Ideal,
    PrimeField,
    Tensor,
    TransverseOperator,
    apply_polynomial,
)
from ttow.annihilator import ann_operator, ann_set, joint_annihilator, min_poly_axis
from ttow.cli import named_fixture
from ttow.errors import DimensionMismatch
from ttow.operators import random_operator
from ttow.polys import poly_from_string

F101 = PrimeField(101)


def P(text, nvars, field=QQ):
    return poly_from_string(text, nvars, field)


def expect_gb(texts, nvars, field=QQ):
    return Ideal([P(t, nvars, field) for t in texts], GREVLEX).gb


def test_two_axis_idempotent_pair():
    data = named_fixture("fig1a", QQ)
    I = ann_operator(data["tensor"], data["operator"])
    assert I.gb == expect_gb(["x^2 - x", "y^2 - y", "x*y"], 2)


def test_two_axis_nilpotent_pair():
    data = named_fixture("fig1b", QQ)
    I = ann_operator(data["tensor"], data["operator"])
    assert I.gb == expect_gb(["x^2", "x*y - y^2", "y^3"], 2)


def test_ghz_swap_annihilator():
    data = named_fixture("ghz-swap", QQ)
    I = ann_operator(data["tensor"], data["operator"])
    assert I.gb == expect_gb(
        ["x^2 - 1", "y^2 - 1", "z^2 - 1", "x*y - z", "x - y*z", "y - x*z"], 3
    )


def test_w_swap_annihilator():
    data = named_fixture("w-swap", QQ)
    I = ann_operator(data["tensor"], data["operator"])
    assert I.gb == expect_gb(["x^2 - 1", "y^2 - 1", "z^2 - 1"], 3)


def test_every_gb_member_annihilates():
    rng = random.Random(0)
    for _ in range(5):
        frame = Frame((2, 2, 2), F101)
        t = Tensor(frame, [F101.random(rng) for _ in range(frame.size)])
        omega = random_operator(frame, (1, 1, 1), rng)
        I = ann_operator(t, omega)
        for g in I.gb:
            assert apply_polynomial(omega, g, t).is_zero()


def test_ann_set_intersects():
    # annihilator of a set is contained in the annihilator of each member
    data_a = named_fixture("ghz-swap", QQ)
    data_b = named_fixture("w-swap", QQ)
    t = data_a["tensor"]
    I = ann_set([t, data_b["tensor"]], [data_a["operator"]])
    Ia = ann_operator(t, data_a["operator"])
    assert Ia.contains_ideal(I)
    for g in I.gb:
        assert apply_polynomial(data_b["operator"], g, data_b["tensor"]).is_zero()


def test_identity_operator_annihilator():
    # identity on every axis: x_a - 1 annihilates axiswise, so x - 1 and y - 1 generate
    data = named_fixture("fig1a", QQ)
    t = data["tensor"]
    omega = TransverseOperator.identity(t.frame)
    I = ann_operator(t, omega)
    assert I.gb == expect_gb(["x - 1", "y - 1"], 2)


def test_min_poly_axis_idempotent():
    data = named_fixture("fig1a", QQ)
    # axis-0 matrix of fig1a's operator is idempotent and nonzero on the tensor
    p = min_poly_axis(data["tensor"], data["operator"], 0)
    assert p == P("x0^2 - x0", 2)


def test_min_poly_axis_is_monic_annihilator():
    rng = random.Random(9)
    frame = Frame((3, 2), F101)
    t = Tensor(frame, [F101.random(rng) for _ in range(frame.size)])
    omega = random_operator(frame, (1, 1), rng)
    for a in range(2):
        p = min_poly_axis(t, omega, a)
        assert apply_polynomial(omega, p, t).is_zero()
        lead_e, lead_c = p.lead(GREVLEX)
        assert lead_c == F101.one
        assert sum(lead_e) == lead_e[a]  # univariate in x_a


def test_min_poly_axis_constant_axis_and_zero_tensor():
    rng = random.Random(3)
    for field in (QQ, F101):
        frame = Frame((2, 3, 2), field)
        omega = random_operator(frame, (1, 0, -1), rng)
        zero = Tensor(frame, [field.zero] * frame.size)
        with pytest.raises(DimensionMismatch):
            min_poly_axis(zero, omega, 1)
        for a in (0, 2):
            assert min_poly_axis(zero, omega, a) == P("1", 3, field)


def test_degree_bounds_cap_the_box():
    data = named_fixture("fig1a", QQ)
    I_full = ann_operator(data["tensor"], data["operator"])
    I_capped = ann_operator(data["tensor"], data["operator"], bounds=[2, 3])
    assert I_capped.gb == I_full.gb


def test_joint_annihilator_of_one_pair_is_ann_operator():
    # a constant axis (variance 0) carries no variable in either
    rng = random.Random(11)
    frame = Frame((2, 2, 2), F101)
    t = Tensor(frame, [F101.random(rng) for _ in range(frame.size)])
    for variance in [(1, 0, -1)] * 4 + [(0, 1, 1), (1, -1, 0), (0, 0, 1)]:
        omega = random_operator(frame, variance, rng)
        I = joint_annihilator([t], [omega])
        assert I == ann_operator(t, omega)
        constant = [a for a, s in enumerate(variance) if s == 0]
        assert all(e[a] == 0 for g in I.gb for e in g.terms for a in constant)
    for field in (QQ, F101):
        for name in ("fig1a", "fig1b", "ghz-swap", "w-swap"):
            data = named_fixture(name, field)
            t, omega = data["tensor"], data["operator"]
            assert joint_annihilator([t], [omega]) == ann_operator(t, omega)

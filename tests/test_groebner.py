import random
from itertools import product

import pytest

from ttow import GREVLEX, LEX, QQ, Ideal, PrimeField, buchberger, intersect, saturate
from ttow.groebner import (
    _embed,
    box_exponents,
    contains_monomial,
    is_monomial_ideal,
    monomial_generators,
    monomial_primary_decomposition,
    normal_form,
)
from ttow.polys import Block, MultiPoly, poly_from_string

F101 = PrimeField(101)


def P(text, nvars=3, field=QQ):
    return poly_from_string(text, nvars, field)


def ideal(texts, nvars=3, field=QQ, order=GREVLEX):
    return Ideal([P(t, nvars, field) for t in texts], order)


def test_buchberger_textbook_pair():
    # x^2 - y, x^3 - z over grevlex: GB adds xy - z, y^2 - xz
    I = ideal(["x^2 - y", "x^3 - z"])
    assert I.contains(P("x*y - z"))
    assert I.contains(P("y^2 - x*z"))
    assert not I.contains(P("x - 1"))


def test_reduced_gb_is_unique_under_generator_shuffle():
    rng = random.Random(1)
    gens = [P("x^2 - y"), P("x*y - z"), P("y^2 - x*z")]
    base = Ideal(gens).gb
    for _ in range(5):
        rng.shuffle(gens)
        scaled = [g.scale(QQ.from_int(rng.choice([1, 2, 3]))) for g in gens]
        assert Ideal(scaled).gb == base


def test_normal_form_is_zero_iff_member():
    I = ideal(["x^2 - x", "y^2 - y", "x*y"], nvars=2)
    p = P("x^3*y + x^2 - x", nvars=2)
    assert normal_form(p, I).is_zero() == I.contains(p)
    assert I.contains(P("x^2*y", nvars=2))


def test_zero_and_unit_ideals():
    Z = Ideal.zero(QQ, 3)
    assert Z.is_zero_ideal()
    assert not Z.contains(P("x"))
    U = ideal(["x", "x - 1"], nvars=1)
    assert U.is_unit()


def test_intersect_principal_ideals():
    # (x) ∩ (y) = (xy) in QQ[x, y]
    I = ideal(["x"], nvars=2)
    J = ideal(["y"], nvars=2)
    K = intersect(I, J)
    assert K.gb == Ideal([P("x*y", nvars=2)]).gb


def test_intersect_with_overlap():
    I = ideal(["x*y - 1"], nvars=2)
    J = ideal(["x*y - 1", "x^2"], nvars=2)
    K = intersect(I, J)
    assert K.gb == I.gb  # J contains I's generator so I ∩ J = I


def test_saturate_strips_monomial_factors():
    # (x^2*y - x^2) : (xy)^inf = (y - 1)
    I = ideal(["x^2*y - x^2"], nvars=2)
    S = saturate(I)
    assert S.gb == ideal(["y - 1"], nvars=2).gb


def test_saturate_unit_when_monomial_member():
    I = ideal(["x*y"], nvars=2)
    assert saturate(I).is_unit()


def test_contains_monomial():
    I = ideal(["x^2 - x*y", "y^3"], nvars=2)
    found = contains_monomial(I)
    assert found is not None
    e = found
    assert I.contains(MultiPoly.monomial(QQ, 2, e))
    assert contains_monomial(ideal(["x - y"], nvars=2)) is None


def test_monomial_ideal_detection_and_generators():
    I = ideal(["x*y", "y^2"], nvars=2)
    assert is_monomial_ideal(I)
    gens = set(monomial_generators(I))
    assert gens == {(1, 1), (0, 2)}
    assert not is_monomial_ideal(ideal(["x - y"], nvars=2))


def test_monomial_primary_decomposition_covers():
    # (xy, xz) = (x) ∩ (y, z)
    I = ideal(["x*y", "x*z"])
    components, primes = monomial_primary_decomposition(I)
    # (xy, xz) = (x) ∩ (y, z); both components are prime here
    comp_supports = sorted(
        tuple(sorted({e.index(max(e)) for e in monomial_generators(c)})) for c in components
    )
    assert comp_supports == [(0,), (1, 2)]
    prime_supports = sorted(
        tuple(sorted({e.index(max(e)) for e in monomial_generators(c)})) for c in primes
    )
    assert prime_supports == [(0,), (1, 2)]
    # the intersection of the components reproduces the ideal
    inter = components[0]
    for c in components[1:]:
        inter = intersect(inter, c)
    assert inter.gb == I.gb


def test_box_exponents_inclusive():
    exps = list(box_exponents([1, 2]))
    assert len(exps) == 6
    assert (1, 2) in exps and (0, 0) in exps


def test_gb_over_prime_field():
    I = ideal(["x^2 - y", "x^3 - z"], field=F101)
    assert I.contains(P("x*y - z", field=F101))


def test_lex_elimination():
    # lex GB of (x - y^2, x*y - 1) eliminates x into y^3 - 1
    I = Ideal([P("x - y^2", 2), P("x*y - 1", 2)], LEX)
    assert any(g.degree_in(0) == 0 for g in I.gb)


# -- differential test of the one-run eliminations ---------------------------
#
# The oracle eliminates the slow way: one saturation per variable, each a
# Buchberger run under a block order that compares the kept variables by
# grevlex, then a fresh Buchberger of the t-free part in the ideal's order.


def _oracle_eliminate(gens, field, n, order):
    gb_aux = buchberger(gens, Block({0}, GREVLEX))
    free = [
        MultiPoly(field, n, {e[1:]: c for e, c in g.terms.items()})
        for g in gb_aux
        if all(e[0] == 0 for e in g.terms)
    ]
    return Ideal.from_gb(field, n, buchberger(free, order), order)


def _oracle_saturate(I):
    field, n, cur = I.field, I.nvars, I
    for a in range(n):
        e = [0] * (n + 1)
        e[0] = e[a + 1] = 1
        t_xa = MultiPoly(field, n + 1, {tuple(e): field.one, (0,) * (n + 1): field.neg(field.one)})
        cur = _oracle_eliminate([_embed(g, field, n, 0) for g in cur.gb] + [t_xa], field, n, I.order)
    return cur


def _oracle_intersect(I, J):
    field, n = I.field, I.nvars
    gens = [_embed(g, field, n, 1) for g in I.gb]
    gens += [_embed(h, field, n, 0).sub(_embed(h, field, n, 1)) for h in J.gb]
    return _oracle_eliminate(gens, field, n, I.order)


def _random_binomial_system(rng, field, order, count=(2, 3)):
    # count[0] to count[1] binomials x^a - c*x^b in 4 variables, of degree <= 3
    def monomial():
        e = [0] * 4
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(4)] += 1
        return tuple(e)

    gens = []
    for _ in range(rng.randint(*count)):
        a, b = monomial(), monomial()
        while b == a:
            b = monomial()
        c = field.from_int(rng.choice([1, 1, 1, -1, 2]))
        gens.append(MultiPoly(field, 4, {a: field.one, b: field.neg(c)}))
    return Ideal(gens, order)


def _random_small_ideal(rng, field, order, count=(1, 2)):
    # count[0] to count[1] polynomials in 3 variables, 2-3 terms of degree <= 2
    monomials = [e for e in product(range(3), repeat=3) if sum(e) <= 2]
    gens = []
    for _ in range(rng.randint(*count)):
        terms = {e: field.from_int(rng.choice([-2, -1, 1, 1, 3])) for e in rng.sample(monomials, rng.randint(2, 3))}
        gens.append(MultiPoly(field, 3, terms))
    return Ideal(gens, order)


ORDERS_FIELDS = [(o, f) for o in (GREVLEX, LEX) for f in (QQ, F101)]
ORDERS_FIELDS_IDS = [f"{o.name}-{'QQ' if f is QQ else 'F101'}" for o, f in ORDERS_FIELDS]


@pytest.mark.parametrize("order, field", ORDERS_FIELDS, ids=ORDERS_FIELDS_IDS)
def test_saturate_matches_per_variable_oracle(order, field):
    rng = random.Random(7)
    ideals = [_random_binomial_system(rng, field, order) for _ in range(25)]
    ideals += [_random_small_ideal(rng, field, order) for _ in range(10)]
    for I in ideals:
        assert saturate(I).gb == _oracle_saturate(I).gb, I


@pytest.mark.parametrize("order, field", ORDERS_FIELDS, ids=ORDERS_FIELDS_IDS)
def test_intersect_matches_reeliminating_oracle(order, field):
    # each ideal meets a principal one: the lex intersection of two ideals
    # with two generators each can run for minutes
    rng = random.Random(11)
    pairs = [
        (_random_binomial_system(rng, field, order), _random_binomial_system(rng, field, order, (1, 1)))
        for _ in range(5)
    ]
    pairs += [
        (_random_small_ideal(rng, field, order), _random_small_ideal(rng, field, order, (1, 1)))
        for _ in range(8)
    ]
    for I, J in pairs:
        assert intersect(I, J).gb == _oracle_intersect(I, J).gb, (I, J)

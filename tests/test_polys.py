from fractions import Fraction
from itertools import product

import pytest

from ttow import GREVLEX, LEX, QQ, MultiPoly, poly_from_string, poly_to_string
from ttow.polys import (
    Block,
    axis_difference_poly,
    centroid_polys,
    derivation_poly,
    order_from_name,
)


def P(text, nvars=3, field=QQ):
    return poly_from_string(text, nvars, field)


def test_parse_and_print_round_trip():
    for text in ("x0^2 - x1", "x^2 - 2*x*y + y^2", "x0*x1*x2 - 1", "3/2*x1 + 1"):
        p = P(text)
        assert P(poly_to_string(p)) == p


def test_aliases():
    assert P("x*y - z") == P("x0*x1 - x2")


def test_arithmetic():
    p, q = P("x0 + x1"), P("x0 - x1")
    assert p.mul(q) == P("x0^2 - x1^2")
    assert p.add(q) == P("2*x0")
    assert p.sub(p).is_zero()


def test_evaluate():
    p = P("x0^2*x1 - 3")
    assert p.evaluate([Fraction(2), Fraction(5), Fraction(0)]) == Fraction(17)


def test_linear_coeffs():
    d = derivation_poly(2)
    assert d == P("x0 - x1 - x2")
    assert d.is_linear_homogeneous()
    assert d.linear_coeffs() == [Fraction(1), Fraction(-1), Fraction(-1)]
    assert not P("x0 - x1*x2").is_linear_homogeneous()


def test_named_constraint_polys():
    assert centroid_polys(2) == [P("x0 - x1"), P("x0 - x2")]
    assert axis_difference_poly(1, 2, 3) == P("x1 - x2")


def test_grevlex_vs_lex_leading():
    # grevlex prefers the higher total degree; lex prefers the earlier variable
    p = P("x0*x1^2 + x0^2")
    assert p.lead(GREVLEX)[0] == (1, 2, 0)
    assert p.lead(LEX)[0] == (2, 0, 0)


def test_grevlex_tie_break():
    # equal total degree: the monomial avoiding the last variable wins
    p = P("x0*x2 + x1^2")
    assert p.lead(GREVLEX)[0] == (0, 2, 0)


@pytest.mark.parametrize("rest", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_block_order_eliminates_first_block(rest):
    # any monomial containing an eliminated variable beats all those without it
    order = Block([0], rest)
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    # monomials free of the eliminated variable compare exactly as rest does
    free = [(0,) + e for e in product(range(3), repeat=3)]
    for a, b in product(free, repeat=2):
        assert (order.key(a) < order.key(b)) == (rest.key(a[1:]) < rest.key(b[1:]))


def test_order_from_name():
    assert order_from_name("grevlex") is GREVLEX
    assert order_from_name("lex") is LEX
    with pytest.raises(Exception):
        order_from_name("mystery")

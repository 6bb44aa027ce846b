from fractions import Fraction
import random

import pytest

from ttow import QQ, PrimeField
from ttow.errors import DivisionByZero, ValidationError
from ttow.fields import _is_prime, field_from_json


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.parse("-7/3") == Fraction(-7, 3)
    assert QQ.fmt(Fraction(5, 4)) == "5/4"
    assert QQ.from_int(-2) == Fraction(-2)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    assert F.pow(3, 6) == 1
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == F.one


def test_prime_field_rejects_composite():
    with pytest.raises(ValidationError):
        PrimeField(6)
    with pytest.raises(ValidationError):
        PrimeField(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        PrimeField(5).inv(0)


def test_field_json_round_trip():
    for field in (QQ, PrimeField(101)):
        assert field_from_json(field.to_json()) == field


def test_random_nonzero_is_nonzero():
    rng = random.Random(0)
    F = PrimeField(5)
    for _ in range(50):
        assert F.random_nonzero(rng) != 0
        assert QQ.random_nonzero(rng) != 0


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _trial_division_is_prime(n)
    ]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    # 561 and 41041 are Carmichael numbers; 3215031751 is a strong
    # pseudoprime to bases 2, 3, 5 and 7; 3825123056546413051 to every
    # prime base up to 23
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_is_prime_accepts_the_largest_admitted_primes():
    for p in ((1 << 61) - 1, (1 << 62) - 57):
        assert _is_prime(p)
        assert PrimeField(p).p == p
    with pytest.raises(ValidationError):
        PrimeField((1 << 62) + 135)  # prime, but above the admitted range

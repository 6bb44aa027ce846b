"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
and canonical residues ``0 <= r < p`` (ints) over a prime field.  All
arithmetic goes through the field object so generic code works over either.
"""

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, UnsupportedParams


# Miller–Rabin with the first twelve primes as bases is exact below
# 318665857834031151167461 (about 3.2 * 10**23), the least strong
# pseudoprime to all of them (Sorenson and Webster 2015), so for every
# n < 2**62 that PrimeField admits.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; concrete subclasses below."""

    def pow(self, a, k):
        k = int(k)
        if k < 0:
            a = self.inv(a)
            k = -k
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def is_zero(self, a):
        return a == self.zero

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def __eq__(self, other):
        return isinstance(other, Field) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(str(self.to_json()))


class RationalField(Field):
    kind = "rational"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return a / b

    def parse(self, text):
        if isinstance(text, (int, Fraction)):
            return Fraction(text)
        return Fraction(str(text))

    def fmt(self, a):
        return str(a)

    def random(self, rng, lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi))

    def random_nonzero(self, rng, lo=-9, hi=9):
        while True:
            x = self.random(rng, lo, hi)
            if x != 0:
                return x

    def to_json(self):
        return {"type": "rational"}

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        p = int(p)
        if not _is_prime(p):
            raise UnsupportedParams(f"{p} is not prime")
        if p >= 1 << 62:
            raise UnsupportedParams("prime too large for machine-word arithmetic")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text):
        if isinstance(text, int):
            return text % self.p
        text = str(text)
        if "/" in text:
            num, den = text.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def fmt(self, a):
        return str(a % self.p)

    def random(self, rng, lo=None, hi=None):
        return rng.randrange(self.p)

    def random_nonzero(self, rng, lo=None, hi=None):
        return rng.randrange(1, self.p)

    def to_json(self):
        return {"type": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_json(spec):
    if isinstance(spec, Field):
        return spec
    if not isinstance(spec, dict) or "type" not in spec:
        raise FieldMismatch(f"bad field spec: {spec!r}")
    if spec["type"] == "rational":
        return QQ
    if spec["type"] == "prime":
        return PrimeField(spec["p"])
    raise FieldMismatch(f"unknown field kind: {spec['type']}")

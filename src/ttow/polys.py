"""Multivariate polynomials in x_0..x_v as exponent-vector term maps,
with grevlex / lex / block elimination orders and a small string parser.
"""

import re

from .errors import DimensionMismatch, NonLinearIdeal
from .fields import QQ


def _grevlex_key(e):
    return (sum(e),) + tuple(-e[i] for i in range(len(e) - 1, -1, -1))


class MonomialOrder:
    def key(self, e):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class Grevlex(MonomialOrder):
    name = "grevlex"

    def key(self, e):
        return _grevlex_key(e)


class Lex(MonomialOrder):
    name = "lex"

    def key(self, e):
        return tuple(e)


class Block(MonomialOrder):
    """Eliminates the variables in elim (compared grevlex first), then
    compares the remaining variables by the order rest."""

    name = "block"

    def __init__(self, elim, rest):
        self.elim = frozenset(int(a) for a in elim)
        self.rest = rest

    def key(self, e):
        left = tuple(e[i] for i in sorted(self.elim))
        right = tuple(e[i] for i in range(len(e)) if i not in self.elim)
        return _grevlex_key(left) + self.rest.key(right)


GREVLEX = Grevlex()
LEX = Lex()


def order_from_name(name):
    if name == "grevlex":
        return GREVLEX
    if name == "lex":
        return LEX
    raise DimensionMismatch(f"unknown order {name!r}")


class MultiPoly:
    """terms: dict exponent-tuple -> nonzero scalar."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        for e, c in terms.items():
            if not field.is_zero(c):
                clean[tuple(int(x) for x in e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, a, coeff=None):
        e = [0] * nvars
        e[a] = 1
        return cls(field, nvars, {tuple(e): coeff if coeff is not None else field.one})

    @classmethod
    def monomial(cls, field, nvars, e, coeff=None):
        return cls(field, nvars, {tuple(e): coeff if coeff is not None else field.one})

    def is_zero(self):
        return not self.terms

    def lead(self, order):
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, a):
        return max((e[a] for e in self.terms), default=0)

    def add(self, other):
        terms = dict(self.terms)
        f = self.field
        for e, c in other.terms.items():
            terms[e] = f.add(terms.get(e, f.zero), c)
        return MultiPoly(f, self.nvars, terms)

    def sub(self, other):
        terms = dict(self.terms)
        f = self.field
        for e, c in other.terms.items():
            terms[e] = f.sub(terms.get(e, f.zero), c)
        return MultiPoly(f, self.nvars, terms)

    def neg(self):
        f = self.field
        return MultiPoly(f, self.nvars, {e: f.neg(c) for e, c in self.terms.items()})

    def scale(self, c):
        f = self.field
        return MultiPoly(f, self.nvars, {e: f.mul(c, x) for e, x in self.terms.items()})

    def mul_term(self, e, c):
        f = self.field
        e = tuple(e)
        return MultiPoly(
            f,
            self.nvars,
            {tuple(a + b for a, b in zip(e, m)): f.mul(c, x) for m, x in self.terms.items()},
        )

    def mul(self, other):
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = f.add(out.get(e, f.zero), f.mul(c1, c2))
        return MultiPoly(f, self.nvars, out)

    def monic(self, order):
        if self.is_zero():
            return self
        _, c = self.lead(order)
        return self.scale(self.field.inv(c))

    def evaluate(self, point):
        f = self.field
        acc = f.zero
        for e, c in self.terms.items():
            term = c
            for a, k in enumerate(e):
                if k:
                    term = f.mul(term, f.pow(point[a], k))
            acc = f.add(acc, term)
        return acc

    def is_linear_homogeneous(self):
        return all(sum(e) == 1 for e in self.terms)

    def linear_coeffs(self):
        """Coefficient per variable for a linear homogeneous polynomial."""
        if not self.is_linear_homogeneous():
            raise NonLinearIdeal("polynomial is not linear homogeneous")
        out = [self.field.zero] * self.nvars
        for e, c in self.terms.items():
            out[e.index(1)] = c
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return poly_to_string(self)


def poly_to_string(p, names=None):
    if p.is_zero():
        return "0"
    f = p.field
    parts = []
    for e in sorted(p.terms, key=_grevlex_key, reverse=True):
        c = p.terms[e]
        factors = []
        for a, k in enumerate(e):
            name = names[a] if names else f"x{a}"
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        cs = f.fmt(c)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors and cs == "-1":
            body = "-" + "*".join(factors)
        elif factors:
            body = cs + "*" + "*".join(factors)
        else:
            body = cs
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}
_TOKEN = re.compile(r"\s*([+-]|\*|\^|\d+/\d+|\d+|[A-Za-z]\d*)")


def poly_from_string(text, nvars, field=QQ):
    """Parse e.g. "x0^2 - 2*x1*x2" (x,y,z,w alias x0..x3)."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DimensionMismatch(f"cannot parse polynomial near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    def var_index(tok):
        if tok in _ALIASES:
            return _ALIASES[tok]
        if tok[0] == "x" and tok[1:].isdigit():
            return int(tok[1:])
        raise DimensionMismatch(f"unknown variable {tok!r}")

    terms = {}
    i = 0
    sign = field.one
    first = True
    while i < len(tokens):
        tok = tokens[i]
        if tok in "+-":
            sign = field.one if tok == "+" else field.neg(field.one)
            i += 1
        elif not first:
            raise DimensionMismatch("expected + or - between terms")
        coeff = sign
        exp = [0] * nvars
        expect_factor = True
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                i += 1
                continue
            if re.fullmatch(r"\d+(/\d+)?", tok):
                coeff = field.mul(coeff, field.parse(tok))
                i += 1
            else:
                a = var_index(tok)
                if a >= nvars:
                    raise DimensionMismatch(f"variable x{a} out of range")
                k = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == "^":
                    k = int(tokens[i + 1])
                    i += 2
                elif i < len(tokens) and tokens[i] == "^":
                    raise DimensionMismatch("dangling ^")
                exp[a] += k
            expect_factor = False
        if expect_factor and not first:
            raise DimensionMismatch("empty term")
        e = tuple(exp)
        terms[e] = field.add(terms.get(e, field.zero), coeff)
        sign = field.one
        first = False
    return MultiPoly(field, nvars, terms)


def derivation_poly(valence, field=QQ):
    """d = x_0 - x_1 - ... - x_v."""
    n = valence + 1
    terms = {}
    for a in range(n):
        e = [0] * n
        e[a] = 1
        terms[tuple(e)] = field.one if a == 0 else field.neg(field.one)
    return MultiPoly(field, n, terms)


def centroid_polys(valence, field=QQ):
    """x_0 - x_a for each input axis a."""
    n = valence + 1
    out = []
    for a in range(1, n):
        e0 = [0] * n
        e0[0] = 1
        ea = [0] * n
        ea[a] = 1
        out.append(MultiPoly(field, n, {tuple(e0): field.one, tuple(ea): field.neg(field.one)}))
    return out


def axis_difference_poly(a, b, nvars, field=QQ):
    """x_a - x_b."""
    ea = [0] * nvars
    ea[a] = 1
    eb = [0] * nvars
    eb[b] = 1
    return MultiPoly(field, nvars, {tuple(ea): field.one, tuple(eb): field.neg(field.one)})

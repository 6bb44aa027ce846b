"""Buchberger Groebner bases, ideals, intersection, saturation, monomial
detection, and monomial-ideal primary decomposition.
"""

from itertools import combinations, product

from .errors import NotMonomial, OrderMismatch
from .polys import GREVLEX, Block, MultiPoly, _grevlex_key


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def normal_form_list(p, gens, order):
    """Remainder of p on division by a list of polynomials."""
    f = p.field
    leads = [(g.lead(order)) for g in gens]
    rem = {}
    work = p
    while not work.is_zero():
        e, c = work.lead(order)
        reduced = False
        for g, (lg, cg) in zip(gens, leads):
            if _divides(lg, e):
                factor_e = tuple(a - b for a, b in zip(e, lg))
                factor_c = f.div(c, cg)
                work = work.sub(g.mul_term(factor_e, factor_c))
                reduced = True
                break
        if not reduced:
            rem[e] = c
            work = work.sub(MultiPoly(f, p.nvars, {e: c}))
    return MultiPoly(f, p.nvars, rem)


def _s_poly(g1, g2, order):
    f = g1.field
    (e1, c1), (e2, c2) = g1.lead(order), g2.lead(order)
    l = _lcm(e1, e2)
    t1 = tuple(a - b for a, b in zip(l, e1))
    t2 = tuple(a - b for a, b in zip(l, e2))
    return g1.mul_term(t1, f.inv(c1)).sub(g2.mul_term(t2, f.inv(c2)))


def buchberger(gens, order=GREVLEX):
    """Reduced Groebner basis of the given generators.

    Normal selection strategy (minimal lcm degree, ties by smallest lcm),
    with the coprime-lead and chain pair-discard criteria.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field = gens[0].field
    nvars = gens[0].nvars
    G = []
    for g in sorted(gens, key=lambda g: order.key(g.lead(order)[0])):
        r = normal_form_list(g, G, order)
        if not r.is_zero():
            G.append(r.monic(order))
    pairs = set(combinations(range(len(G)), 2))
    done = set()
    leads = [g.lead(order)[0] for g in G]
    while pairs:
        best = min(
            pairs, key=lambda ij: (sum(_lcm(leads[ij[0]], leads[ij[1]])), _lcm(leads[ij[0]], leads[ij[1]]))
        )
        pairs.discard(best)
        i, j = best
        li, lj = leads[i], leads[j]
        l = _lcm(li, lj)
        done.add((i, j))
        # coprime leads: S-polynomial reduces to zero
        if all(a + b == c for a, b, c in zip(li, lj, l)):
            continue
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(leads[k], l):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form_list(_s_poly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(r.monic(order))
        leads.append(r.lead(order)[0])
        new = len(G) - 1
        for k in range(new):
            pairs.add((k, new))
    # minimalize: drop any g whose lead is divisible by another kept lead
    minimal = []
    for i, g in enumerate(G):
        li = leads[i]
        redundant = False
        for j in range(len(G)):
            if j == i:
                continue
            lj = leads[j]
            if _divides(lj, li) and (lj != li or j < i):
                redundant = True
                break
        if not redundant:
            minimal.append(g)
    # reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form_list(g, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.lead(order)[0]))
    return reduced


class Ideal:
    """An ideal carried as a reduced Groebner basis."""

    def __init__(self, gens, order=GREVLEX, _gb=None):
        gens = list(gens)
        if not gens:
            raise OrderMismatch("need at least the ambient ring data; use Ideal.zero")
        self.field = gens[0].field
        self.nvars = gens[0].nvars
        self.order = order
        self.gens = gens
        self.gb = tuple(_gb) if _gb is not None else tuple(buchberger(gens, order))

    @classmethod
    def zero(cls, field, nvars, order=GREVLEX):
        obj = cls.__new__(cls)
        obj.field = field
        obj.nvars = nvars
        obj.order = order
        obj.gens = []
        obj.gb = ()
        return obj

    @classmethod
    def from_gb(cls, field, nvars, gb, order=GREVLEX):
        if not gb:
            return cls.zero(field, nvars, order)
        obj = cls.__new__(cls)
        obj.field = field
        obj.nvars = nvars
        obj.order = order
        obj.gens = list(gb)
        obj.gb = tuple(gb)
        return obj

    def is_zero_ideal(self):
        return not self.gb

    def is_unit(self):
        return len(self.gb) == 1 and self.gb[0].total_degree() == 0

    def contains(self, p):
        return normal_form(p, self).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gb)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.nvars == other.nvars
            and self.field == other.field
            and list(self.gb) == list(other.gb)
        )

    def __repr__(self):
        return "Ideal(" + ", ".join(map(str, self.gb)) + ")"


def normal_form(p, ideal):
    if p.nvars != ideal.nvars:
        raise OrderMismatch("variable counts differ")
    return normal_form_list(p, list(ideal.gb), ideal.order)


def _embed(p, field, nvars, aux_exp):
    """Shift p into a ring with one auxiliary variable prepended, multiplied
    by t^aux_exp."""
    return MultiPoly(
        field, nvars + 1, {(aux_exp,) + e: c for e, c in p.terms.items()}
    )


def _eliminate_aux(gb_aux, field, nvars, order):
    out = []
    for g in gb_aux:
        if all(e[0] == 0 for e in g.terms):
            out.append(MultiPoly(field, nvars, {e[1:]: c for e, c in g.terms.items()}))
    # GB property under the block order restricts; interreduce for safety
    return buchberger(out, order) if out else []


def intersect(I, J):
    """I ∩ J via the auxiliary variable: eliminate t from t*I + (1-t)*J."""
    if I.nvars != J.nvars:
        raise OrderMismatch("variable counts differ")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal.zero(I.field, I.nvars, I.order)
    field, n = I.field, I.nvars
    gens = []
    for g in I.gb:
        gens.append(_embed(g, field, n, 1))
    for h in J.gb:
        th = _embed(h, field, n, 1)
        gens.append(_embed(h, field, n, 0).sub(th))
    gb_aux = buchberger(gens, Block({0}))
    return Ideal.from_gb(field, n, _eliminate_aux(gb_aux, field, n, I.order), I.order)


def saturate(I, variables=None):
    """(I : x_{a1}^inf : x_{a2}^inf : ...) for the listed variables
    (default: all), one elimination per variable."""
    if I.is_zero_ideal():
        return I
    field, n = I.field, I.nvars
    if variables is None:
        variables = range(n)
    cur = I
    for a in variables:
        gens = [_embed(g, field, n, 0) for g in cur.gb]
        e = [0] * (n + 1)
        e[0] = 1
        e[a + 1] = 1
        gens.append(
            MultiPoly(
                field,
                n + 1,
                {tuple(e): field.one, (0,) * (n + 1): field.neg(field.one)},
            )
        )
        gb_aux = buchberger(gens, Block({0}))
        cur = Ideal.from_gb(field, n, _eliminate_aux(gb_aux, field, n, I.order), I.order)
    return cur


def _monomials_of_degree(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _monomials_of_degree(nvars - 1, total - first):
            yield (first,) + rest


def contains_monomial(I, bounds=None, max_degree=40):
    """A monomial of I if one exists (tested via saturation by all
    variables), searching by total degree for a witness."""
    if I.is_zero_ideal():
        return None
    sat = saturate(I)
    if not sat.is_unit():
        return None
    start = sum(bounds) if bounds else max_degree
    cap = max(start, max_degree)
    for total in range(cap + 1):
        for e in _monomials_of_degree(I.nvars, total):
            if I.contains(MultiPoly.monomial(I.field, I.nvars, e)):
                return e
    raise NotMonomial("saturation is the unit ideal but no witness within degree cap")


def is_monomial_ideal(I):
    return all(len(g.terms) == 1 for g in I.gb)


def monomial_generators(I):
    if not is_monomial_ideal(I):
        raise NotMonomial("not a monomial ideal")
    return [next(iter(g.terms)) for g in I.gb]


def _minimalize_monomials(exps):
    exps = sorted(set(exps), key=_grevlex_key)
    out = []
    for e in exps:
        if not any(_divides(m, e) for m in out):
            out.append(e)
    return out


def _monomial_ideal(field, nvars, exps, order):
    exps = _minimalize_monomials(exps)
    gb = sorted(
        (MultiPoly.monomial(field, nvars, e) for e in exps),
        key=lambda g: order.key(next(iter(g.terms))),
    )
    return Ideal.from_gb(field, nvars, gb, order)


def _is_monomial_primary(exps, nvars):
    pure = {e.index(next(x for x in e if x)) if sum(1 for x in e if x) == 1 else None for e in exps}
    pure.discard(None)
    support = set()
    for e in exps:
        support.update(a for a in range(nvars) if e[a])
    return support <= pure


def monomial_primary_decomposition(I):
    """Primary decomposition of a monomial ideal, plus its minimal primes.

    Splits a mixed generator m = x_i^a * rest into (I + x_i^a) ∩ (I + rest)
    until every component is primary, then prunes redundant components.
    """
    if not is_monomial_ideal(I):
        raise NotMonomial("primary decomposition implemented for monomial ideals only")
    field, n, order = I.field, I.nvars, I.order
    work = [tuple(monomial_generators(I))]
    primary = []
    while work:
        exps = _minimalize_monomials(work.pop(0))
        if _is_monomial_primary(exps, n):
            if exps not in primary:
                primary.append(exps)
            continue
        split = None
        for e in sorted(exps, key=_grevlex_key):
            vars_in = [a for a in range(n) if e[a]]
            if len(vars_in) < 2:
                continue
            pure_vars = {
                m.index(next(x for x in m if x))
                for m in exps
                if sum(1 for x in m if x) == 1
            }
            cands = [a for a in vars_in if a not in pure_vars]
            if cands:
                split = (e, cands[0])
                break
        if split is None:
            # mixed generators but all variables have pure powers: primary
            if exps not in primary:
                primary.append(exps)
            continue
        e, a = split
        part1 = tuple(e[b] if b == a else 0 for b in range(n))
        part2 = tuple(0 if b == a else e[b] for b in range(n))
        work.append(tuple(exps) + (part1,))
        work.append(tuple(exps) + (part2,))
    components = [_monomial_ideal(field, n, exps, order) for exps in primary]
    # prune components containing the intersection of the others
    changed = True
    while changed:
        changed = False
        for i in range(len(components)):
            others = components[:i] + components[i + 1 :]
            if not others:
                break
            inter = others[0]
            for c in others[1:]:
                inter = intersect(inter, c)
            if components[i].contains_ideal(inter):
                components.pop(i)
                changed = True
                break
    # minimal primes: minimal covers of the generator supports
    supports = [frozenset(a for a in range(n) if e[a]) for e in monomial_generators(I)]
    covers = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(s & sup for sup in supports):
                if not any(set(c) <= s for c in covers):
                    covers.append(subset)
    primes = []
    for cover in covers:
        exps = []
        for a in cover:
            e = [0] * n
            e[a] = 1
            exps.append(tuple(e))
        primes.append(_monomial_ideal(field, n, exps, order))
    return components, primes


def box_exponents(bounds):
    """All exponent tuples e with 0 <= e_a <= bounds_a."""
    return list(product(*(range(b + 1) for b in bounds)))

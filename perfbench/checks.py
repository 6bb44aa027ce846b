"""Checks of every job's `ttow/1` output against theory or against
computations made here, apart from ttow.

The tensor algebra below (axis action, rank, the singularity complex, the
integer lattices) is this file's own; saturations come from sympy.  ttow is
used only to print the named fixtures that jobs take as input.
"""

import io
import re
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from math import gcd
import json

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- theory values ------------------------------------------------------------


def der_dim(name):
    """dim Der(t) for the algebra tensors, from the classification."""
    family, n = re.fullmatch(r"([a-z]+?)-?(\d*)", name).groups()
    if name == "ghz":
        return 4
    if name == "w":
        return 5
    if name == "octonion":
        return 30  # so(8) (triality triples) plus two scalar directions
    if name == "sl2":
        # In a suitable basis the sl2 bracket is the cross product, and
        # (Ax) x y + x x (Ay) = (tr(A) - A^T)(x x y) for every A in gl3:
        # nine dimensions, plus the scalar (c, c, 0).
        return 10
    if family == "sl":
        return int(n) ** 2 + 1  # ad(sl_n) plus the two scalar directions
    if family == "matmul":
        return 3 * int(n) ** 2 - 1
    if family == "truncpoly":
        return 3 * int(n) - 1
    raise KeyError(name)


def densor_dim(name):
    """dim of the densor Ten(x0 - x1 - x2, Der(t))."""
    if name == "ghz":
        return 2
    if name.startswith("sl") and name != "sl2":
        return 2  # dim Hom_g(g (x) g, g) for g = sl_n, n >= 3
    return 1


# -- scalars, arrays, the action ----------------------------------------------


def scalar(v, p):
    x = Fraction(v) if isinstance(v, int) else Fraction(str(v))
    if p is None:
        return x
    return x.numerator * pow(x.denominator, p - 2, p) % p


def to_array(nested, p):
    if p is None:
        return np.array(nested, dtype=object)
    return np.array(nested, dtype=np.int64) % p


def tensor_from_wire(obj):
    p = obj["field"]["p"] if obj["field"]["type"] == "prime" else None
    t = np.zeros(obj["dims"], dtype=np.int64 if p else object)
    if p is None:
        t[...] = Fraction(0)
    for e in obj["entries"]:
        t[tuple(e["idx"])] = scalar(e["val"], p)
    return t, p


def act(M, t, a, p):
    """x_a acting on t: the output axis (a = 0) by left multiplication,
    input axes by contraction new_j = sum_i t_i M[i][j]."""
    if a == 0:
        out = np.tensordot(M, t, axes=(1, 0))
    else:
        out = np.moveaxis(np.tensordot(t, M, axes=(a, 0)), -1, a)
    return out % p if p else out


def is_zero(x):
    return not np.any(x != 0)


def derivation_residual(mats, t, p):
    r = act(mats[0], t, 0, p) - act(mats[1], t, 1, p) - act(mats[2], t, 2, p)
    return r % p if p else r


def apply_poly(terms, ops, t, p):
    """sum_e c_e * omega^e t for terms {exp: coeff}."""
    acc = None
    for e, c in terms.items():
        cur = t
        for a, k in enumerate(e):
            for _ in range(k):
                cur = act(ops[a], cur, a, p)
        cur = cur * c
        acc = cur if acc is None else acc + cur
    return acc % p if p else acc


def rank(rows, p):
    """Rank of a list of rows, by Gaussian elimination over QQ or F_p."""
    if not len(rows):
        return 0
    if p is None:
        A = [[Fraction(x) for x in r] for r in rows]
        r = 0
        for c in range(len(A[0])):
            piv = next((i for i in range(r, len(A)) if A[i][c]), None)
            if piv is None:
                continue
            A[r], A[piv] = A[piv], A[r]
            for i in range(r + 1, len(A)):
                if A[i][c]:
                    f = A[i][c] / A[r][c]
                    A[i] = [x - f * y for x, y in zip(A[i], A[r])]
            r += 1
            if r == len(A):
                break
        return r
    A = np.array(rows, dtype=np.int64) % p
    r = 0
    for c in range(A.shape[1]):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        A[r + 1:] = (A[r + 1:] - np.outer(A[r + 1:, c], A[r])) % p
        r += 1
        if r == A.shape[0]:
            break
    return r


def flat_rows(arrays):
    return [list(np.asarray(x).reshape(-1)) for x in arrays]


# -- complexes ----------------------------------------------------------------


def subsets(n):
    for k in range(n + 1):
        yield from combinations(range(n), k)


def nabla_faces(t, bases, p):
    """∇(t;U) by brute force: A is a face unless restricting the input axes
    in A to U_a sends everything to 0 (0 not in A) or into U_0 (0 in A)."""
    n = t.ndim
    U = [to_array(b, p) if b else None for b in bases]
    faces = set()
    for A in subsets(n):
        r = t
        for a in A:
            if a:
                r = act(U[a].T, r, a, p)
        if 0 in A:
            fibers = r.reshape(r.shape[0], -1).T
            u0 = [list(x) for x in bases[0]]
            face = rank(u0 + [list(f) for f in fibers], p) > rank(u0, p)
        else:
            face = not is_zero(r)
        if face:
            faces.add(frozenset(A))
    return faces


def facets(faces):
    return {tuple(sorted(f)) for f in faces if not any(f < g for g in faces)}


def minimal_nonfaces(faces, n):
    return {
        tuple(int(a in s) for a in range(n))
        for s in map(frozenset, subsets(n))
        if s and s not in faces and all(frozenset(x) in faces for x in combinations(s, len(s) - 1))
    }


def monomial_exps(ideal):
    """Exponents of an ideal basis whose members are all monic monomials."""
    exps = set()
    for g in ideal["basis"]:
        require(len(g["terms"]) == 1 and g["terms"][0]["coeff"] == 1, "ideal is not monomial")
        exps.add(tuple(g["terms"][0]["exp"]))
    return exps


def complex_facets(cx):
    return {tuple(f) for f in cx["facets"]}


# -- integer lattices ---------------------------------------------------------


def hnf(rows):
    """Hermite normal form (echelon rows, positive pivots, reduced above)."""
    A = [list(map(int, r)) for r in rows if any(r)]
    n = len(A[0]) if A else 0
    out = []
    for c in range(n):
        while True:
            nz = [r for r in A if r[c]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda r: abs(r[c]))
            for r in nz:
                if r is not piv:
                    q = r[c] // piv[c]
                    r[:] = [x - q * y for x, y in zip(r, piv)]
        nz = [r for r in A if r[c]]
        if nz:
            piv = nz[0]
            A.remove(piv)
            out.append(piv if piv[c] > 0 else [-x for x in piv])
            for prev in out[:-1]:
                q = prev[c] // out[-1][c]
                prev[:] = [x - q * y for x, y in zip(prev, out[-1])]
        A = [r for r in A if any(r)]
    return out


def in_lattice(v, H):
    return hnf(H + [list(v)]) == H


# -- ideals via sympy ---------------------------------------------------------


def sympy_ctx(nvars):
    import sympy

    xs = sympy.symbols(f"x0:{nvars}")
    names = {f"x{i}": x for i, x in enumerate(xs)}
    names.update({k: names[f"x{i}"] for i, k in enumerate("xyzw") if i < nvars})
    return sympy, xs, names


def sympy_poly(text, nvars):
    sympy, xs, names = sympy_ctx(nvars)
    return sympy.sympify(text.replace("^", "**"), locals=names)


def wire_poly(g, xs):
    import sympy

    expr = 0
    for term in g["terms"]:
        mono = sympy.Rational(str(term["coeff"]))
        for x, k in zip(xs, term["exp"]):
            mono *= x ** k
        expr += mono
    return expr


def reduced_gb(polys, xs):
    import sympy

    if not polys:
        return set()
    G = sympy.groebner(polys, *xs, order="grevlex")
    return {sympy.expand(g) for g in G.exprs}


def saturation(polys, nvars):
    """(I : (x0...x_{n-1})^inf) by eliminating t from I + (t*x0...x_{n-1} - 1)."""
    sympy, xs, _ = sympy_ctx(nvars)
    t = sympy.Symbol("t_sat")
    gens = [sympy_poly(p, nvars) for p in polys] + [t * sympy.prod(xs) - 1]
    G = sympy.groebner(gens, t, *xs, order="lex")
    kept = [g for g in G.exprs if not g.has(t)]
    return sympy.groebner(kept, *xs, order="grevlex") if kept else None, xs


# -- the checker --------------------------------------------------------------


class Checker:
    """Checks job outputs; caches input tensors and cross-job facts."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.inputs = {}
        self.der = {}  # (tensor, field) -> operator bases, filled by der checks

    def tensor(self, name, p):
        """The job's input tensor (and operator): the one written to its --in
        file, or the named fixture as `ttow fixtures` prints it."""
        key = (name, p)
        if key not in self.inputs:
            if name in self.workload.tensors:
                self.inputs[key] = (to_array(self.workload.tensors[name], p), None)
            else:
                argv = ["fixtures", "--fixture", name]
                if p:
                    argv += ["--field", f"prime:{p}"]
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = self.cli_main(argv)
                require(rc == 0, f"fixtures {name} exited {rc}")
                obj = json.loads(buf.getvalue())
                t, _ = tensor_from_wire(obj["tensor"])
                ops = None
                if "operator" in obj:
                    ops = [to_array([[scalar(x, p) for x in row] for row in m], p)
                           for m in obj["operator"]["matrices"]]
                self.inputs[key] = (t, ops)
        return self.inputs[key]

    def check(self, job, out):
        require(out.get("schema") == "ttow/1", "missing schema tag")
        getattr(self, "check_" + job["kind"])(job, out)

    def check_der(self, job, out):
        name, p = job["tensor"], job["field"]
        t, _ = self.tensor(name, p)
        require(out["dimension"] == der_dim(name), f"Der({name}) has dimension {out['dimension']}")
        require(len(out["basis"]) == out["dimension"], "basis length differs from dimension")
        ops = []
        for op in out["basis"]:
            mats = [to_array([[scalar(x, p) for x in row] for row in m], p) for m in op["matrices"]]
            require(is_zero(derivation_residual(mats, t, p)), f"a Der({name}) member is no derivation")
            ops.append(mats)
        require(rank(flat_rows([np.concatenate([m.reshape(-1) for m in o]) for o in ops]), p) == len(ops),
                f"Der({name}) basis is dependent")
        self.der[(name, p)] = ops

    def check_densor(self, job, out):
        name, p = job["tensor"], job["field"]
        t, _ = self.tensor(name, p)
        require(out["dimension"] == densor_dim(name), f"densor({name}) has dimension {out['dimension']}")
        require(len(out["basis"]) == out["dimension"], "basis length differs from dimension")
        members = [tensor_from_wire(b)[0] for b in out["basis"]]
        rows = flat_rows(members)
        require(rank(rows, p) == len(rows), f"densor({name}) basis is dependent")
        require(rank(rows + flat_rows([t]), p) == len(rows), f"t is not in densor({name})")
        # Every member is a tensor of the derivations; where no der job ran
        # on this tensor the densor is one-dimensional, so it is the line
        # through t, which Der(t) annihilates by definition.
        for mats in self.der.get((name, p), []):
            for s in members:
                require(is_zero(derivation_residual(mats, s, p)),
                        f"a densor({name}) member fails a derivation")

    def check_singularity(self, job, out):
        name, p = job["tensor"], job["field"]
        t, _ = self.tensor(name, p)
        n = t.ndim
        faces = nabla_faces(t, job["subframe"], p)
        sr = minimal_nonfaces(faces, n)
        require(out["holds"] is True, f"singularity theorem reported false on {name}")
        require(out["complex"]["ground"] == n, "complex has the wrong ground set")
        require(complex_facets(out["complex"]) == facets(faces), f"∇(t;U) of {name} differs")
        require(monomial_exps(out["sr_ideal"]) == sr, f"SR ideal of {name} differs")
        require(monomial_exps(out["ideal"]) == sr, f"Id(t, Ω(U,V)) of {name} is not the SR ideal")

    def check_ann(self, job, out):
        name = job["tensor"]
        t, ops = self.tensor(name, None)
        expected, nvars = ANN_EXPECTED[name]
        _, xs, _ = sympy_ctx(nvars)
        got = [wire_poly(g, xs) for g in out["ideal"]["basis"]]
        require(out["ideal"]["nvars"] == nvars, "wrong variable count")
        require(reduced_gb(got, xs) == reduced_gb([sympy_poly(e, nvars) for e in expected], xs),
                f"Ann({name}) differs from Figure 1")
        for g in out["ideal"]["basis"]:
            terms = {tuple(x["exp"]): Fraction(str(x["coeff"])) for x in g["terms"]}
            require(is_zero(apply_poly(terms, ops, t, None)), f"a generator of Ann({name}) is no trait")

    def check_probe(self, job, out):
        name = job["tensor"]
        t, ops = self.tensor(name, None)
        e = out["monomial"]
        if e is None:
            # no monomial trait exists when every omega_a is invertible and t != 0
            require(not is_zero(t) and all(rank(flat_rows(m), None) == len(m) for m in ops),
                    f"probe({name}) found no monomial but one may exist")
            return
        require(is_zero(apply_poly({tuple(e): 1}, ops, t, None)), f"probe({name}) monomial is no trait")
        n = len(e)
        supp = frozenset(a for a in range(n) if e[a])
        faces = {frozenset(s) for s in subsets(n) if not supp <= frozenset(s)}
        require(out["complex"]["ground"] == n and complex_facets(out["complex"]) == facets(faces),
                f"probe({name}) complex differs")

    def check_composable(self, job, out):
        v = out["verdict"]
        expected = composability(job["polys"], job["nvars"])
        require(v["outcome"] == expected["outcome"], f"verdict {v['outcome']} != {expected['outcome']}")
        if v["outcome"] == "not_composable":
            require(v["reason"] == expected["reason"], f"reason {v['reason']!r} != {expected['reason']!r}")
        if v["outcome"] != "composable":
            return
        H, n = expected["lattice"], job["nvars"]
        ms, A, B = [], set(), set()
        for w in v["witnesses"]:
            e, f = w["e"], w["f"]
            require(all(x in (0, 1) for x in e + f) and not any(x and y for x, y in zip(e, f)),
                    "witness is not a pair of disjoint 0/1 vectors")
            ms.append([x - y for x, y in zip(e, f)])
            A |= {a for a in range(n) if e[a]}
            B |= {a for a in range(n) if f[a]}
        require(all(in_lattice(m, H) for m in ms), "a witness lies outside the lattice")
        require(hnf(ms) == H, "witnesses do not generate the lattice")
        require(not A & B and sorted(A) == v["A"] and sorted(B) == v["B"], "A, B do not match the witnesses")


ANN_EXPECTED = {
    "fig1a": (["x0^2 - x0", "x1^2 - x1", "x0*x1"], 2),
    "fig1b": (["x0^2", "x0*x1 - x1^2", "x1^3"], 2),
    "ghz-swap": (["x^2 - 1", "y^2 - 1", "z^2 - 1", "x*y - z", "x - y*z", "y - x*z"], 3),
    "w-swap": (["x^2 - 1", "y^2 - 1", "z^2 - 1"], 3),
}


def composability(polys, nvars):
    """The verdict the saturation implies, with the lattice of the binomials.

    The necessary conditions are tested in ttow's order of report: a unit
    saturation, a non-binomial one, a nontrivial character, an axis
    projection kZ with k >= 2.  Then the sign-vector search: some tau in
    {±1}^n whose compatible lattice members in {-1,0,1}^n generate L."""
    sat, xs = saturation(polys, nvars)
    exprs = list(sat.exprs) if sat is not None else []
    if exprs == [1]:
        return {"outcome": "not_composable", "reason": "saturation contains a monomial"}
    vecs, trivial = [], True
    for g in exprs:
        terms = g.as_poly(*xs).terms()
        if len(terms) != 2:
            return {"outcome": "not_composable", "reason": "saturation is not generated by binomials"}
        (a, ca), (b, cb) = terms
        vecs.append([x - y for x, y in zip(a, b)])
        trivial &= cb == -ca
    if not trivial:
        return {"outcome": "not_composable", "reason": "binomial character is nontrivial"}
    H = hnf(vecs)
    for a in range(nvars):
        k = 0
        for row in H:
            k = gcd(k, row[a])
        if k >= 2:
            return {"outcome": "not_composable", "reason": f"axis {a} projection is {k}Z"}
    members = [m for m in product((-1, 0, 1), repeat=nvars) if any(m) and in_lattice(m, H)]
    for tau in product((1, -1), repeat=nvars):
        W = [list(m) for m in members if all(s * x in (0, 1) for s, x in zip(tau, m))]
        if W and hnf(W) == H:
            return {"outcome": "composable", "lattice": H}
    return {"outcome": "unknown", "lattice": H}


# -- self-test ----------------------------------------------------------------


def corruptions(kind, out):
    """Copies of a correct output with one fault each, for the self-test."""
    def copy():
        return json.loads(json.dumps(out))

    bad = []
    if kind == "der" and out["basis"]:
        c = copy()
        m = c["basis"][0]["matrices"][1]
        m[0][0] = str(scalar(m[0][0], None) + 1)
        bad.append(("basis entry changed", c))
    if kind == "densor":
        c = copy()
        b = c["basis"][0]
        used = {tuple(e["idx"]) for e in b["entries"]}
        idx = next(i for i in product(*map(range, b["dims"])) if i not in used)
        b["entries"].append({"idx": list(idx), "val": 1})
        bad.append(("basis entry changed", c))
    if kind in ("singularity", "ann") and out["ideal"]["basis"]:
        c = copy()
        c["ideal"]["basis"].pop()
        bad.append(("generator dropped", c))
    if kind in ("singularity", "probe") and out.get("complex"):
        c = copy()
        cx = c["complex"]
        n = cx["ground"]
        # a subset of the ground set outside every facet, else a new vertex
        new = next((list(s) for s in subsets(n)
                    if not any(set(s) <= set(f) for f in cx["facets"])), [n])
        cx["facets"].append(new)
        bad.append(("facet added", c))
    if kind == "composable":
        c = copy()
        v = c["verdict"]
        if v["outcome"] == "composable":
            v["B"] = v["B"] + v["A"][:1]
        else:
            v["outcome"] = "composable"
        bad.append(("verdict changed", c))
    return bad


def self_test(checker, records):
    """Every checker kind present rejects each corrupted copy of one output.

    records: (job, parsed output) pairs that already passed.  Returns the
    list of (kind, fault) pairs that were rejected; raises if one passed."""
    seen = []
    for job, out in records:
        kind = job["kind"]
        if kind in {k for k, _ in seen}:
            continue
        cases = corruptions(kind, out)
        for fault, bad in cases:
            try:
                checker.check(job, bad)
            except CheckFailed:
                seen.append((kind, fault))
                continue
            raise CheckFailed(f"self-test: {kind} checker accepted an output with {fault}")
    return seen

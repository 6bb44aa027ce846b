"""The three workloads: their job lists and the inputs they are built from.

Every input is a pure function of the workload seed.  Tensors that the
`ttow` fixture registry does not provide (truncpoly-5, sl4, truncpoly-12,
matmul-4) are
built here from their structure constants, without `ttow.fixtures`.
"""

import json
import os
import random
from itertools import product

import numpy as np

P = 101  # the prime of every F_p job

# Acceptance criterion 5: the three algebra examples and their subframes,
# as row bases per axis.
SING_QQ = [
    ("cplx", [[[1, 0]]] * 3),
    ("matmul-2", [[[1, 0, 0, 0], [0, 1, 0, 0]]] * 3),
    ("upper-triangular", [[[0, 1, 0]]] * 3),
]

# Acceptance criterion 6: the five composability systems, with their variable count.
COMPOSABLE_FIXED = [
    (["x0 - x1*x2"], 3),
    (["x1 - x2"], 3),
    (["x0^2 - x1"], 2),
    (["x0 - 2*x1"], 2),
    (["x0 - x1*x2", "x0*x1 - x2"], 3),
]

OPERATOR_FIXTURES = ["fig1a", "fig1b", "ghz-swap", "w-swap"]

N_BINOMIAL_SYSTEMS = 60


# -- structure constants ------------------------------------------------------


def algebra_tensor(n, products):
    """t[k, i, j] = coefficient of e_k in e_i * e_j, as a nested int list.

    products: iterable of (i, j, k, c)."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in products:
        t[k][i][j] += c
    return t


def sl_products(n):
    """sl_n in the basis H_1..H_{n-1} (H_i = E_ii - E_{i+1,i+1}), then E_ij, i != j."""
    labels = [("H", i) for i in range(n - 1)]
    labels += [("E", i, j) for i in range(n) for j in range(n) if i != j]

    def matrix(lab):
        M = [[0] * n for _ in range(n)]
        if lab[0] == "H":
            M[lab[1]][lab[1]] = 1
            M[lab[1] + 1][lab[1] + 1] = -1
        else:
            M[lab[1]][lab[2]] = 1
        return M

    def coords(M):
        # a traceless diagonal diag(d) is sum_i c_i H_i with c_i = d_1 + ... + d_i
        out, acc = [], 0
        for i in range(n - 1):
            acc += M[i][i]
            out.append(acc)
        out += [M[i][j] for i in range(n) for j in range(n) if i != j]
        return out

    mats = [matrix(lab) for lab in labels]
    prods = []
    for a, X in enumerate(mats):
        for b, Y in enumerate(mats):
            B = [
                [sum(X[i][k] * Y[k][j] - Y[i][k] * X[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            prods += [(a, b, k, c) for k, c in enumerate(coords(B)) if c]
    return len(mats), prods


def matmul_products(n):
    """Matrix units E_ij (index i*n + j): E_ij E_jl = E_il."""
    return n * n, [(i * n + j, j * n + l, i * n + l, 1) for i, j, l in product(range(n), repeat=3)]


def truncpoly_products(n):
    """K[x]/(x^n) in the basis 1, x, ..., x^{n-1}."""
    return n, [(i, j, i + j, 1) for i in range(n) for j in range(n) if i + j < n]


BUILDERS = {"sl4": lambda: sl_products(4), "truncpoly-12": lambda: truncpoly_products(12),
            "matmul-4": lambda: matmul_products(4)}


def rescaled_algebra(name, rng):
    """The algebra `name` over F_p in the basis s_i e_i, s_i random nonzero:
    an isomorphic algebra, so every theory value stays, with seeded entries."""
    n, prods = BUILDERS[name]()
    s = [rng.randrange(1, P) for _ in range(n)]
    return algebra_tensor(
        n, [(i, j, k, c * s[i] * s[j] * pow(s[k], P - 2, P) % P) for i, j, k, c in prods]
    )


def tensor_json(t, p=P):
    """ttow/1 wire form of a nested-list integer tensor over F_p, or over QQ
    where p is None."""
    a = np.array(t) % p if p else np.array(t)
    field = {"type": "prime", "p": p} if p else {"type": "rational"}
    return {"field": field, "dims": list(a.shape),
            "entries": [{"idx": [int(i) for i in idx], "val": int(a[idx])} for idx in zip(*np.nonzero(a))]}


def subframe_json(bases):
    return {"axes": [{"axis": a, "basis": rows} for a, rows in enumerate(bases)]}


# -- random small inputs ------------------------------------------------------


def _monomial_text(e):
    parts = [f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
    return "*".join(parts)


# The many-small inputs have shapes drawn once from this fixed seed: the
# exponent vectors of each binomial system, and the zero blocks of each
# singularity tensor.  Shapes set most of a job's time (Buchberger time grows
# steeply with the exponents, the box matrix with the frame), so drawing them
# from the run seed made the workload's total move by 15 % from seed to seed.
# The run seed draws the rest: a variable relabelling and the coefficients
# of every system, the entries of every tensor and the coordinates that
# span every subframe.
SHAPE_SEED = 5


def binomial_exponents(rng, nvars=4):
    """(a, b) for x^a - c*x^b: deg a in 1..3, deg b in 1..2, exponents <= 2.

    Degrees stay this low because with every exponent up to 2 (degree up to
    8) a few systems take seconds and the rest milliseconds."""
    while True:
        a, b = [0] * nvars, [0] * nvars
        for v in rng.sample(range(nvars), rng.randint(1, 2)):
            a[v] += 1
        if rng.random() < 0.5:
            a[rng.randrange(nvars)] += 1
        for v in rng.choices(range(nvars), k=rng.randint(1, 2)):
            b[v] += 1
        if a != b:
            return a, b


def binomial_system(shape, rng):
    """The system `shape` with its variables relabelled and, for each
    binomial, c drawn from {1, 1, 1, -1, 2}."""
    perm = rng.sample(range(len(shape[0][0])), len(shape[0][0]))
    polys = []
    for a, b in shape:
        lhs = _monomial_text([a[v] for v in perm])
        rhs = _monomial_text([b[v] for v in perm])
        c = rng.choice([1, 1, 1, -1, 2])
        polys.append(f"{lhs} + {rhs}" if c == -1 else f"{lhs} - {rhs}" if c == 1 else f"{lhs} - {c}*{rhs}")
    return polys


# Frame shapes and subframe dimensions of the singularity jobs, one per job.
SINGULAR_FRAMES = [
    ((2, 2, 2), (1, 1, 1)), ((2, 2, 3), (0, 2, 1)), ((2, 3, 2), (1, 1, 2)),
    ((3, 2, 2), (2, 1, 1)), ((2, 3, 3), (1, 2, 2)), ((3, 2, 3), (1, 1, 2)),
    ((3, 3, 2), (2, 2, 1)), ((3, 3, 3), (1, 2, 1)), ((3, 3, 3), (2, 1, 2)),
    ((2, 2, 2), (0, 2, 1)), ((3, 2, 2), (1, 2, 2)), ((2, 3, 3), (1, 3, 1)),
]


def shapes():
    """(binomial system shapes, singularity shapes), from SHAPE_SEED."""
    rng = random.Random(SHAPE_SEED)
    systems = [[binomial_exponents(rng) for _ in range(2 + n % 2)] for n in range(N_BINOMIAL_SYSTEMS)]
    singular = []
    for dims, ks in SINGULAR_FRAMES:
        # block (b0, b1, b2): b_a says whether the index lies in U_a's span;
        # one block that holds entries stays nonzero, so that t != 0
        blocks = [blk for blk in product((0, 1), repeat=3)
                  if all(k > 0 if b else k < d for b, k, d in zip(blk, ks, dims))]
        keep = rng.choice(blocks)
        singular.append((dims, ks, {blk for blk in blocks if blk != keep and rng.random() < 0.7}))
    return systems, singular


def singular_pair(dims, ks, zero_blocks, rng):
    """A tensor on the frame `dims`, zero on `zero_blocks` and random nonzero
    elsewhere, and a subframe of dimensions `ks` spanned by standard vectors
    at random coordinates.  The zero blocks make the singularity complex
    other than the full simplex."""
    coords = [rng.sample(range(d), d) for d in dims]
    inside = [set(c[:k]) for c, k in zip(coords, ks)]
    t = [[[0] * dims[2] for _ in range(dims[1])] for _ in range(dims[0])]
    for i, j, k in product(*(range(d) for d in dims)):
        if (int(i in inside[0]), int(j in inside[1]), int(k in inside[2])) not in zero_blocks:
            t[i][j][k] = rng.randrange(1, P)
    bases = [[[int(m == c) for m in range(d)] for c in cs[:k]] for cs, k, d in zip(coords, ks, dims)]
    return t, bases


# -- workloads ----------------------------------------------------------------


COMMANDS = {"der": "der", "densor": "densor", "singularity": "verify-singularity",
            "ann": "ann", "probe": "probe"}


class Workload:
    """A job list plus the files its jobs read, built from one seed."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.jobs = []  # dicts: argv, kind, and what the checker needs
        self.tensors = {}  # name -> nested list, for the tensors built here
        self.files = {}  # name -> the --in file of a tensor built here
        getattr(self, "_build_" + name.replace("-", "_"))(random.Random(seed))

    def _file(self, name, obj):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _add_tensor(self, name, t, p=P):
        self.tensors[name] = t
        self.files[name] = self._file(name, tensor_json(t, p))

    def _job(self, kind, name, p, extra=(), **meta):
        """A job on a named fixture, or on a tensor built here (as --in)."""
        if name in self.files:
            src = ["--in", self.files[name]]  # the file names its field
        else:
            src = ["--fixture", name] + (["--field", f"prime:{p}"] if p else [])
        self.jobs.append(dict(kind=kind, argv=[COMMANDS[kind]] + src + list(extra),
                              tensor=name, field=p, **meta))

    def _singularity(self, name, bases, p, samples, seed=None):
        extra = ["--subframe", self._file("U-" + name, subframe_json(bases)), "--samples", str(samples)]
        if seed is not None:
            extra += ["--seed", str(seed)]
        self._job("singularity", name, p, extra, subframe=bases)

    def _composable(self, polys, nvars):
        argv = ["composable", "--nvars", str(nvars)]
        for poly in polys:
            argv += ["--poly", poly]
        self.jobs.append(dict(kind="composable", argv=argv, polys=polys, nvars=nvars))

    # Each workload also runs a few jobs of well under a second through the
    # layers that its main jobs leave alone ("every layer" below), so that
    # every per-layer figure is measured on every workload and a prediction
    # of "unchanged" there is held against a figure, not against zero.

    def _build_exact_qq(self, rng):
        # A round is kept to a few seconds, so that a run holds several and
        # reports their median: the sl3 densor over QQ (13-19 s alone) and
        # the matmul-2 check with 8 samples (8-11 s) made a round of about
        # 30 s, one sample of the host's speed a run.  The densor of
        # truncpoly-5, built here over QQ from its structure constants, takes
        # the place of sl3 on the same path (Der, then the generic per-tensor
        # action and Fraction elimination of the closure); it is the line
        # through t, so it is checked without a der job.
        for name in ["ghz", "w", "sl2", "matmul-2", "truncpoly-4"]:
            self._job("der", name, None)
            self._job("densor", name, None)
        self._add_tensor("truncpoly-5", algebra_tensor(*truncpoly_products(5)), None)
        self._job("densor", "truncpoly-5", None)
        # acceptance criterion 5's sample seed: the sampled members of
        # Omega(U,V) set the size of the Fraction entries the matmul-2 check
        # eliminates, so they stay fixed and the named fixtures fix the rest.
        # matmul-2 draws 4 samples, the fewest with which `holds` is true at
        # this seed (with 3 the sampled annihilator is larger than the SR
        # ideal); the check takes 3-4 s with 4, 8-11 s with 8.
        for name, bases in SING_QQ:
            self._singularity(name, bases, None, 4 if name == "matmul-2" else 8, 3)
        # every layer: a closure pair over F_101, and the composability systems
        self._job("der", "sl3", P)
        self._job("densor", "sl3", P)
        for polys, nvars in COMPOSABLE_FIXED:
            self._composable(polys, nvars)

    def _build_modp_frames(self, rng):
        for name in ["sl3", "octonion"]:
            self._job("der", name, P)
            self._job("densor", name, P)
        for name in ["sl4", "truncpoly-12", "matmul-4"]:
            self._add_tensor(name, rescaled_algebra(name, rng))
        self._job("der", "sl4", P)
        for name in ["sl4", "truncpoly-12", "matmul-4"]:
            self._job("densor", name, P)
        # every layer: a small singularity check, a composability system, der over QQ
        self._singularity(*SING_QQ[0], P, 8, rng.randrange(1000))
        self._composable(*COMPOSABLE_FIXED[0])
        self._job("der", "ghz", None)

    def _build_many_small(self, rng):
        system_shapes, singular_shapes = shapes()
        for polys, nvars in COMPOSABLE_FIXED + [(binomial_system(sh, rng), 4) for sh in system_shapes]:
            self._composable(polys, nvars)
        for name in OPERATOR_FIXTURES:
            self._job("ann", name, None)
            self._job("probe", name, None)
        for n, (dims, ks, zero_blocks) in enumerate(singular_shapes):
            t, bases = singular_pair(dims, ks, zero_blocks, rng)
            self._add_tensor(f"rand-{n}", t)
            self._singularity(f"rand-{n}", bases, P, 40)
        # every layer: the closure pipelines on the two smallest tensors
        for name in ["ghz", "w"]:
            self._job("der", name, None)
            self._job("densor", name, None)

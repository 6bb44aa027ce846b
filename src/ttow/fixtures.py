"""Named tensor fixtures: quantum states, algebra multiplication tensors,
and the worked matrix examples.
"""

from itertools import product

from .errors import UnsupportedParams, ValidationError
from .fields import QQ
from .operators import TransverseOperator
from .tensors import Frame, Tensor


def unit_tensor(v, field=QQ):
    """<1|: K^v -> K, the v-fold product of scalars."""
    frame = Frame((1,) * (v + 1), field)
    return Tensor(frame, [field.one])


def ghz(field=QQ):
    frame = Frame((2, 2, 2), field)
    return Tensor.from_entries(
        frame, {(0, 0, 0): field.one, (1, 1, 1): field.one}
    )


def w_state(field=QQ):
    frame = Frame((2, 2, 2), field)
    return Tensor.from_entries(
        frame, {(1, 0, 0): field.one, (0, 1, 0): field.one, (0, 0, 1): field.one}
    )


def algebra_tensor(structure, field=QQ):
    """Multiplication tensor of an algebra from structure constants.

    structure[i][j] is the coordinate list of (basis_i * basis_j).
    """
    n = len(structure)
    frame = Frame((n, n, n), field)
    t = Tensor.zero(frame)
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(structure[i][j]):
                c = field.parse(c)
                if not field.is_zero(c):
                    t.coeffs[frame.flat((k, i, j))] = c
    return t


def trunc_poly(n, field=QQ):
    """Multiplication tensor of K[x]/(x^n) in the basis 1, x, ..., x^{n-1}."""
    structure = [
        [
            [field.one if (i + j) == k else field.zero for k in range(n)]
            if i + j < n
            else [field.zero] * n
            for j in range(n)
        ]
        for i in range(n)
    ]
    return algebra_tensor(structure, field)


def _sl_basis(n):
    """Basis of sl_n: E_ij (i != j) in row order, then H_i = E_ii - E_{i+1,i+1}."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append(("E", i, j))
    for i in range(n - 1):
        basis.append(("H", i))
    return basis


def _sl_coords(mat, n, field):
    """Coordinates of a traceless matrix in the _sl_basis ordering."""
    coords = []
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(mat[i][j])
    acc = field.zero
    for i in range(n - 1):
        acc = field.add(acc, mat[i][i])
        coords.append(acc)
    return coords


def sl_bracket(n, field=QQ):
    """The bracket tensor of sl_n: <t|X, Y> = [X, Y]."""
    if field.characteristic in (2, 3):
        raise UnsupportedParams("sl_n bracket fixture needs char != 2, 3")
    if n < 2:
        raise UnsupportedParams("n >= 2 required")
    labels = _sl_basis(n)
    mats = []
    for lab in labels:
        M = [[field.zero] * n for _ in range(n)]
        if lab[0] == "E":
            M[lab[1]][lab[2]] = field.one
        else:
            i = lab[1]
            M[i][i] = field.one
            M[i + 1][i + 1] = field.neg(field.one)
        mats.append(M)
    dim = len(labels)
    frame = Frame((dim, dim, dim), field)
    t = Tensor.zero(frame)
    for p, X in enumerate(mats):
        for q, Y in enumerate(mats):
            B = [
                [
                    field.sub(
                        field.sum(field.mul(X[i][k], Y[k][j]) for k in range(n)),
                        field.sum(field.mul(Y[i][k], X[k][j]) for k in range(n)),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for r, c in enumerate(_sl_coords(B, n, field)):
                if not field.is_zero(c):
                    t.coeffs[frame.flat((r, p, q))] = c
    return t


def matmul(n, field=QQ):
    """n x n matrix multiplication, frame dims (n^2, n^2, n^2)."""
    frame = Frame((n * n, n * n, n * n), field)
    t = Tensor.zero(frame)
    for i, j, k in product(range(n), repeat=3):
        t.coeffs[frame.flat((i * n + j, i * n + k, k * n + j))] = field.one
    return t


def dotprod(n, field=QQ):
    """The dot-product form on K^n, frame dims (1, n, n)."""
    frame = Frame((1, n, n), field)
    t = Tensor.zero(frame)
    for i in range(n):
        t.coeffs[frame.flat((0, i, i))] = field.one
    return t


def cplx_as_real(field=QQ):
    """C as a 2-dimensional algebra over the base field, basis {1, i}."""
    one, zero = field.one, field.zero
    m1 = field.neg(one)
    structure = [
        [[one, zero], [zero, one]],
        [[zero, one], [m1, zero]],
    ]
    return algebra_tensor(structure, field)


def upper_triangular(field=QQ):
    """Upper-triangular 2x2 matrices, basis {E11, E12, E22}."""
    one, zero = field.one, field.zero
    z = [zero, zero, zero]
    structure = [
        [[one, zero, zero], [zero, one, zero], z],
        [z, z, [zero, one, zero]],
        [z, z, [zero, zero, one]],
    ]
    return algebra_tensor(structure, field)


# Fano-plane lines giving e_a e_b = e_c cyclically (1-based imaginary units)
_FANO = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)]


def _octonion_table():
    """table[i][j] = (k, sign) with e_i e_j = sign * e_k, indices 0..7."""
    table = [[None] * 8 for _ in range(8)]
    for i in range(8):
        table[0][i] = (i, 1)
        table[i][0] = (i, 1)
    for i in range(1, 8):
        table[i][i] = (0, -1)
    for a, b, c in _FANO:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    return table


_OCT = _octonion_table()


def octonion_mul(x, y, field):
    """Multiply octonions given as coordinate lists of length 8."""
    out = [field.zero] * 8
    for i in range(8):
        if field.is_zero(x[i]):
            continue
        for j in range(8):
            if field.is_zero(y[j]):
                continue
            k, s = _OCT[i][j]
            term = field.mul(x[i], y[j])
            if s < 0:
                term = field.neg(term)
            out[k] = field.add(out[k], term)
    return out


def octonion_conj(x, field):
    return [x[0]] + [field.neg(c) for c in x[1:]]


def octonions(field=QQ):
    """Octonion multiplication tensor, dims (8, 8, 8)."""
    structure = [[None] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            e_i = [field.one if a == i else field.zero for a in range(8)]
            e_j = [field.one if a == j else field.zero for a in range(8)]
            structure[i][j] = octonion_mul(e_i, e_j, field)
    return algebra_tensor(structure, field)


def albert(field):
    """The 27-dimensional Albert Jordan algebra H_3(O), A o B = (AB + BA)/2.

    Basis: three diagonal idempotents, then for each off-diagonal position
    (r,s) with r < s the eight octonion units (entry u at (r,s), conj(u) at
    (s,r)).  Needs characteristic != 2.
    """
    if field.characteristic == 2:
        raise UnsupportedParams("Albert fixture needs char != 2")
    zero_o = [field.zero] * 8
    units = [[field.one if a == i else field.zero for a in range(8)] for i in range(8)]

    def basis_matrix(idx):
        M = [[list(zero_o) for _ in range(3)] for _ in range(3)]
        if idx < 3:
            M[idx][idx] = list(units[0])
            return M
        k = idx - 3
        pos = k // 8
        u = units[k % 8]
        r, s = [(0, 1), (0, 2), (1, 2)][pos]
        M[r][s] = list(u)
        M[s][r] = octonion_conj(u, field)
        return M

    def jordan(A, B):
        C = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = list(zero_o)
                for k in range(3):
                    for term in (
                        octonion_mul(A[i][k], B[k][j], field),
                        octonion_mul(B[i][k], A[k][j], field),
                    ):
                        acc = [field.add(a, b) for a, b in zip(acc, term)]
                C[i][j] = acc
        half = field.inv(field.from_int(2))
        return [[[field.mul(half, c) for c in C[i][j]] for j in range(3)] for i in range(3)]

    def coords(M):
        out = [M[0][0][0], M[1][1][0], M[2][2][0]]
        for r, s in ((0, 1), (0, 2), (1, 2)):
            out.extend(M[r][s])
        return out

    mats = [basis_matrix(i) for i in range(27)]
    structure = [[coords(jordan(mats[i], mats[j])) for j in range(27)] for i in range(27)]
    return algebra_tensor(structure, field)


def fig1_tensor(field=QQ):
    """The 2x3 matrix M of the worked annihilator example, as a valence-1 tensor."""
    frame = Frame((2, 3), field)
    vals = [1, 2, 3, 2, 3, 0]
    return Tensor(frame, [field.from_int(x) for x in vals])


def _swap2(field):
    z, o = field.zero, field.one
    return [[z, o], [o, z]]


def _fig1_ops(field, primed):
    z, o = field.zero, field.one
    if primed:
        X = [[z, o], [z, z]]
        Y = [[z, z, z], [o, z, z], [z, o, z]]
    else:
        X = [[z, z], [z, o]]
        Y = [[z, z, z], [z, z, z], [z, z, o]]
    return X, Y


def named_fixture(name, field):
    """The bundled example corpus: tensor plus, where relevant, the
    operator the example pairs with it."""
    if name in ("fig1a", "fig1b"):
        t = fig1_tensor(field)
        X, Y = _fig1_ops(field, name == "fig1b")
        return {"tensor": t, "operator": TransverseOperator(t.frame, [X, Y])}
    if name in ("ghz-swap", "w-swap"):
        t = ghz(field) if name == "ghz-swap" else w_state(field)
        s = _swap2(field)
        return {"tensor": t, "operator": TransverseOperator(t.frame, [s, s, s])}
    plain = {
        "ghz": lambda: ghz(field),
        "w": lambda: w_state(field),
        "sl2": lambda: sl_bracket(2, field),
        "sl3": lambda: sl_bracket(3, field),
        "truncpoly-2": lambda: trunc_poly(2, field),
        "truncpoly-3": lambda: trunc_poly(3, field),
        "truncpoly-4": lambda: trunc_poly(4, field),
        "matmul-2": lambda: matmul(2, field),
        "dotprod-3": lambda: dotprod(3, field),
        "cplx": lambda: cplx_as_real(field),
        "upper-triangular": lambda: upper_triangular(field),
        "octonion": lambda: octonions(field),
        "unit-2": lambda: unit_tensor(2, field),
    }
    if name not in plain:
        raise ValidationError(f"unknown fixture: {name}")
    return {"tensor": plain[name]()}


FIXTURE_NAMES = [
    "fig1a", "fig1b", "ghz", "ghz-swap", "w", "w-swap", "sl2", "sl3",
    "truncpoly-2", "truncpoly-3", "truncpoly-4", "matmul-2", "dotprod-3",
    "cplx", "upper-triangular", "octonion", "unit-2",
]

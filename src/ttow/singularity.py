"""Subframes, the singularity complex ∇(t;U), its Stanley-Reisner ideal,
the restricted-operator space Ω(U,V), and an executable check that the
annihilator of Ω(U,V) on t equals the Stanley-Reisner ideal of ∇(t;U).
"""

from itertools import combinations, product

from .annihilator import ann_operator, joint_annihilator
from .complexes import SimplicialComplex, complex_of, stanley_reisner
from .errors import FrameMismatch, InvalidSubframe, UnsupportedParams
from .groebner import Ideal, contains_monomial
from .linalg import (
    identity_matrix,
    in_span,
    mat_inv,
    mat_mul,
    mat_transpose,
    nullspace,
    rank,
    rref,
)
from .npaction import random_span_members
from .operators import TransverseOperator
from .polys import GREVLEX, MultiPoly
from .tensors import Tensor, evaluate


class Subframe:
    """Per-axis subspaces U_a <= V_a, given by basis vectors (rows)."""

    def __init__(self, frame, bases):
        dims = frame.dims
        if len(bases) != len(dims):
            raise InvalidSubframe("one basis per axis required")
        field = frame.field
        cleaned = []
        for a, (rows, d) in enumerate(zip(bases, dims)):
            rows = [list(r) for r in rows]
            for r in rows:
                if len(r) != d:
                    raise InvalidSubframe(f"axis {a} vectors must have length {d}")
            if rows and rank(rows, field) != len(rows):
                raise InvalidSubframe(f"axis {a} basis is dependent")
            cleaned.append(rows)
        if len(cleaned[0]) >= dims[0]:
            raise InvalidSubframe("U_0 must be a proper subspace of V_0")
        for a in range(1, len(dims)):
            if not cleaned[a]:
                raise InvalidSubframe(f"U_{a} must be nonzero")
        self.frame = frame
        self.bases = cleaned

    def dims(self):
        return tuple(len(b) for b in self.bases)


def _u0_reduced(U):
    field = U.frame.field
    return rref(U.bases[0], field) if U.bases[0] else ([], [])


def nabla_complex(S, U):
    """The singularity complex: A is a face when the subframe picture is
    not perpendicular on A (output lands outside U_0, or is nonzero)."""
    if not S:
        raise FrameMismatch("empty tensor set")
    frame = S[0].frame
    for t in S:
        if t.frame != frame:
            raise FrameMismatch("tensors live in different frames")
    if U.frame != frame:
        raise InvalidSubframe("subframe frame differs from the tensors")
    field = frame.field
    dims = frame.dims
    n = len(dims)
    u0_rows, u0_piv = _u0_reduced(U)
    std = [identity_matrix(d, field) for d in dims]
    faces = set()
    for r in range(n + 1):
        for A in combinations(range(n), r):
            Aset = frozenset(A)
            arg_choices = []
            for a in range(1, n):
                arg_choices.append(U.bases[a] if a in Aset else std[a])
            is_face = False
            for t in S:
                for args in product(*arg_choices):
                    vec = evaluate(t, list(args))
                    if 0 in Aset:
                        if not in_span(vec, u0_rows, u0_piv, field):
                            is_face = True
                            break
                    else:
                        if any(not field.is_zero(x) for x in vec):
                            is_face = True
                            break
                if is_face:
                    break
            if is_face:
                faces.add(Aset)
    # downward closure is a theorem for these tests; the constructor asserts it
    return SimplicialComplex(n, faces, check=True)


def sr_ideal_of_subframe(t, U, order=GREVLEX):
    cx = nabla_complex([t] if isinstance(t, Tensor) else list(t), U)
    return stanley_reisner(cx, U.frame.field, order)


def omega_UV_spanning(U):
    """Spanning set of the restricted-operator right ideal Ω(U,V).

    Input axes a >= 1 carry {ω_a : image(ω_a) ≤ U_a}.  The output axis acts
    through the dual, so its component is {ω_0 : ω_0(U_0) = 0} — rank-one
    blocks v⊗φ with φ ranging over a basis of the annihilator of U_0.
    One rank-one block per axis slot, zero matrices elsewhere."""
    frame = U.frame
    field = frame.field
    dims = frame.dims
    out = []

    def rank_one_op(a, col, row):
        mats = []
        for b, db in enumerate(dims):
            if b == a:
                mats.append(
                    [[field.mul(col[i], row[j]) for j in range(db)] for i in range(db)]
                )
            else:
                mats.append([[field.zero] * db for _ in range(db)])
        return TransverseOperator(frame, mats)

    d0 = dims[0]
    u0_perp = nullspace(U.bases[0], d0, field) if U.bases[0] else identity_matrix(d0, field)
    for i in range(d0):
        e = [field.one if k == i else field.zero for k in range(d0)]
        for phi in u0_perp:
            out.append(rank_one_op(0, e, phi))
    for a in range(1, len(dims)):
        d = dims[a]
        for u in U.bases[a]:
            for m in range(d):
                e = [field.one if k == m else field.zero for k in range(d)]
                out.append(rank_one_op(a, list(u), e))
    return out


def _projection_matrix(basis_rows, d, field):
    """Projection of K^d onto the row-span, along a standard-vector
    complement, as a matrix acting by columns."""
    cols = [list(r) for r in basis_rows]
    chosen = list(cols)
    piv_rows, pivots = rref(chosen, field) if chosen else ([], [])
    for j in range(d):
        if len(chosen) == d:
            break
        e = [field.one if i == j else field.zero for i in range(d)]
        if not in_span(e, piv_rows, pivots, field):
            chosen.append(e)
            piv_rows, pivots = rref(chosen, field)
    C = mat_transpose(chosen)  # columns: U basis then completion
    Cinv = mat_inv(C, field)
    k = len(basis_rows)
    D = [[field.one if (i == j and i < k) else field.zero for j in range(d)] for i in range(d)]
    return mat_mul(mat_mul(C, D, field), Cinv, field)


def scaled_projections(U):
    """Idempotent witnesses: on input axes the projection onto U_a; on the
    output axis the complementary idempotent killing U_0; plus a copy with
    each axis block scaled by a distinct nonzero constant."""
    frame = U.frame
    field = frame.field
    dims = frame.dims
    n = len(dims)
    if isinstance(field.characteristic, int) and 0 < field.characteristic <= n:
        raise UnsupportedParams("field too small to scale the projections")
    projs = [_projection_matrix(U.bases[a], d, field) for a, d in enumerate(dims)]
    ident0 = identity_matrix(dims[0], field)
    projs[0] = [
        [field.sub(ident0[i][j], projs[0][i][j]) for j in range(dims[0])]
        for i in range(dims[0])
    ]
    ops = [TransverseOperator(frame, projs)]
    scales = [field.from_int(a + 1) for a in range(n)]
    mats = [
        [[field.mul(scales[a], x) for x in row] for row in projs[a]] for a in range(n)
    ]
    ops.append(TransverseOperator(frame, mats))
    return ops


def verify_singularity_theorem(t, U, degree_bound=None, sample_count=40, seed=0, order=GREVLEX):
    """Check Id(t, Ω(U,V)) = SR(∇(t;U)) on the spanning set, the scaled
    projection witnesses, and seeded random span members."""
    cx = nabla_complex([t], U)
    sr = stanley_reisner(cx, t.frame.field, order)
    ops = omega_UV_spanning(U)
    ops.extend(scaled_projections(U))
    ops.extend(random_span_members(ops[: len(ops)], sample_count, seed))
    ideal = joint_annihilator([t], ops, bounds=degree_bound, order=order)
    holds = ideal == sr
    return {"holds": holds, "ideal": ideal, "sr_ideal": sr, "complex": cx}


def monomial_trait_probe(t, omega, max_degree=40):
    """A monomial trait of (t, ω) if one exists, with the simplicial
    complex of its squarefree support as a decomposition hint."""
    ideal = ann_operator(t, omega)
    e = contains_monomial(ideal, bounds=t.frame.dims, max_degree=max_degree)
    if e is None:
        return None
    n = ideal.nvars
    sq = tuple(1 if k else 0 for k in e)
    hint_ideal = Ideal.from_gb(
        ideal.field, n, [MultiPoly.monomial(ideal.field, n, sq)], ideal.order
    )
    return e, complex_of(hint_ideal)

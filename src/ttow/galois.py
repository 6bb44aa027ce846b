"""Operator spaces Op(S,P), named algebras, tensor closures Ten(P,Δ),
densors, symbolic defining equations, generic points, torus transforms.

Both legs are exact nullspace computations on one numpy engine for every
field: Op(S,P) for linear homogeneous P is a stacked Sylvester-type system
in the operator entries; Ten(P,Δ) is the joint kernel of the maps
s ↦ p(δ)·s, linear in s for any P, computed mod p, and over QQ mod
word-size primes, lifted and certified.

A named algebra is checked for closure under its product law on numpy
too: the k² products of a basis come from one batched matmul per axis,
and every one of them is tested against the span's RREF in one exact
membership test (linalg._certified), mod p or on integers over QQ.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    ClosureCheckFailed,
    DimensionMismatch,
    FrameMismatch,
    NonLinearIdeal,
    UnsupportedParams,
    VarianceMismatch,
    ZeroTorusEntry,
)
from .linalg import (
    _certified,
    _dtype,
    _integer_scaled,
    _multimodular_rref,
    identity_matrix,
    in_span,
    mat_mul,
    np_nullspace,
    np_rref,
    nullspace,
    rref,
    spans_equal,
)
from .npaction import (
    _matmul_mod,
    _np_apply_poly,
    _np_mats,
    _residue,
    integral_constraint,
    operator_stacks,
    random_span_members,
)
from .operators import (
    TransverseOperator,
    active_axes,
    all_covariant,
    op_flat,
    op_from_flat,
)
from .polys import (
    MultiPoly,
    axis_difference_poly,
    centroid_polys,
    derivation_poly,
)
from .tensors import Tensor, TensorSpace


class OperatorSpace:
    """Finite basis of the solution space Op(S,P) for linear homogeneous P."""

    def __init__(self, frame, variance, basis, provenance=None):
        self.frame = frame
        self.variance = tuple(variance)
        self.basis = list(basis)
        self.provenance = provenance
        rows, pivots = rref([op_flat(b) for b in self.basis], frame.field)
        self._rows = rows
        self._pivots = pivots

    @property
    def dimension(self):
        return len(self._rows)

    def contains(self, omega):
        return in_span(op_flat(omega), self._rows, self._pivots, self.frame.field)

    def __repr__(self):
        return (
            f"OperatorSpace(dims={self.frame.dims}, "
            f"variance={self.variance}, dimension={self.dimension})"
        )


class ProductLaw:
    """Per-axis bullet product ω •_a τ = λ_a ω_a τ_a + ρ_a τ_a ω_a."""

    def __init__(self, pairs, variance=None):
        self.pairs = [tuple(pr) for pr in pairs]
        if variance is not None:
            for a, s in enumerate(variance):
                lam, rho = self.pairs[a]
                if s != 0 and lam == rho == 0:
                    raise UnsupportedParams(f"law is (0,0) on active axis {a}")

    @classmethod
    def lie(cls, field, naxes):
        one = field.one
        return cls([(one, field.neg(one))] * naxes)

    @classmethod
    def associative(cls, field, variance):
        """(1,0) on covariant axes, (0,1) on contravariant: the algebra
        product as seen through the stored plain-action matrices."""
        one, zero = field.one, field.zero
        pairs = []
        for s in variance:
            pairs.append((zero, one) if s == -1 else (one, zero))
        return cls(pairs, variance)


def _check_poly_axes(p, variance):
    for e in p.terms:
        for a, k in enumerate(e):
            if k and variance[a] == 0:
                raise VarianceMismatch(f"polynomial touches constant axis {a}")


def _op_unknown_layout(frame, variance):
    axes = active_axes(variance)
    offsets = {}
    pos = 0
    for a in axes:
        offsets[a] = pos
        pos += frame.dims[a] ** 2
    return axes, offsets, pos


def _sylvester_rows_np(t, lams, axes):
    """Constraint block for one (tensor, integer-scaled linear poly) pair:
    mod p, or over QQ on t scaled to integers (the trait is linear in t).
    Entry (y, (i, j)) of the axis-a block is lam_a t[y with y_a -> i] when
    y_a = j, for the unknown ω_a[i][j]: the outer product of lam_a t with
    the identity, axis a moved next to its column.  Axis 0 acts from the
    left, so there the unknown is ω_0[j][i]."""
    frame = t.frame
    p = frame.field.characteristic
    dims = frame.dims
    dtype = _dtype(p) if p else object
    T = np.array(_integer_scaled(t.coeffs), dtype=dtype).reshape(dims)
    blocks = []
    for a in axes:
        d = dims[a]
        block = np.swapaxes(np.multiply.outer(lams[a] * T, np.eye(d, dtype=dtype)), a, -2)
        if a == 0:
            block = np.swapaxes(block, -2, -1)
        blocks.append(block.reshape(frame.size, d * d))
    M = np.hstack(blocks)
    return M % p if p else M


def op_space_linear(S, P, variance=None):
    """Basis of {ω : apply_polynomial(ω, p, t) = 0 for all t ∈ S, p ∈ P},
    solved as one exact stacked linear system over the operator entries."""
    if not S:
        raise FrameMismatch("empty tensor set")
    frame = S[0].frame
    for t in S:
        if t.frame != frame:
            raise FrameMismatch("tensors live in different frames")
    if variance is None:
        variance = all_covariant(frame.valence)
    variance = tuple(variance)
    field = frame.field
    axes, _, nunk = _op_unknown_layout(frame, variance)
    lam_rows = []
    for p in P:
        if not p.is_linear_homogeneous():
            raise NonLinearIdeal("op_space_linear needs linear homogeneous P")
        _check_poly_axes(p, variance)
        # scaling one trait by a constant keeps its solutions
        lam_rows.append(_integer_scaled(p.linear_coeffs()))
    if not P or all(t.is_zero() for t in S):
        vecs = identity_matrix(nunk, field)
    else:
        big = np.vstack([
            _sylvester_rows_np(t, lams, axes)
            for t in S
            for lams in lam_rows
        ])
        if field.characteristic:
            vecs = [[int(x) for x in row] for row in np_nullspace(big, field.p)]
        else:
            vecs = nullspace(big.tolist(), nunk, field)
    basis = [op_from_flat(frame, variance, v) for v in vecs]
    return OperatorSpace(frame, variance, basis, provenance=(list(S), list(P)))


def named_algebra(S, kind, axes=None, verify=True):
    """Derivations, centroid, nucleus(a,b), or adjoints of a tensor set.

    Derivations are checked for Lie closure, centroid and nuclei for
    associative closure and unitality, raising ClosureCheckFailed on
    violation (these are theorems; a failure means corrupted input).
    """
    if not S:
        raise FrameMismatch("empty tensor set")
    frame = S[0].frame
    v = frame.valence
    if v < 1:
        raise DimensionMismatch("named algebras need valence >= 1")
    field = frame.field
    n = v + 1
    if kind == "derivations":
        P = [derivation_poly(v, field)]
        variance = all_covariant(v)
        space = op_space_linear(S, P, variance)
        law = ProductLaw.lie(field, n)
    elif kind == "centroid":
        P = centroid_polys(v, field)
        variance = all_covariant(v)
        space = op_space_linear(S, P, variance)
        law = ProductLaw.associative(field, variance)
    elif kind == "nucleus":
        a, b = axes
        if not (0 <= a < b <= v):
            raise DimensionMismatch("nucleus axes must satisfy 0 <= a < b <= v")
        P = [axis_difference_poly(a, b, n, field)]
        variance = tuple(-1 if c == a else (1 if c == b else 0) for c in range(n))
        space = op_space_linear(S, P, variance)
        law = ProductLaw.associative(field, variance)
    elif kind == "adjoint":
        if v < 2:
            raise DimensionMismatch("adjoints need valence >= 2")
        P = [axis_difference_poly(1, 2, n, field)]
        variance = tuple(-1 if c == 1 else (1 if c == 2 else 0) for c in range(n))
        space = op_space_linear(S, P, variance)
        law = None
    else:
        raise UnsupportedParams(f"unknown algebra kind: {kind}")
    if verify and law is not None:
        ok, pair = check_product_closure(space, law)
        if not ok:
            raise ClosureCheckFailed(f"{kind} basis is not closed under its product")
        if kind in ("centroid", "nucleus"):
            if not space.contains(TransverseOperator.identity(frame, variance)):
                raise ClosureCheckFailed(f"{kind} does not contain the identity")
    return space


def check_product_closure(space, law):
    """(True, None) iff every pairwise law-product of basis members stays in
    the span; otherwise (False, (ω, τ)) for the first offending pair in
    row-major order.

    All k² products are formed at once: per active axis a, one batched
    matmul of the (k, d_a, d_a) stack gives every ω_a τ_a, combined with
    (λ_a, ρ_a).  Over QQ axis a of the stack carries D_a (operator_stacks),
    so each block is scaled to the common integer multiple M of the true
    products, M the lcm of D_a² and the law's denominators.  The k² rows
    are tested against the span's own RREF in one exact membership test
    (linalg._certified), mod p or on integers.
    """
    ops = space.basis
    if not ops:
        return True, None
    p = space.frame.field.characteristic or None
    stacks, scales = operator_stacks(ops, p)
    axes = active_axes(space.variance)
    M = 1
    if p is None:
        M = math.lcm(*(
            scales[a] ** 2 * math.lcm(*(Fraction(c).denominator for c in law.pairs[a]))
            for a in axes
        ))
    k = len(ops)
    blocks = []
    for a in axes:
        S = stacks[a]
        prods = np.matmul(S[:, None], S[None, :])  # [i, j] = ω_i ω_j on axis a
        if p is not None:
            prods %= p
        lam, rho = (_residue(Fraction(M, scales[a] ** 2) * c, p) for c in law.pairs[a])
        block = lam * prods + rho * prods.swapaxes(0, 1)
        blocks.append(block.reshape(k * k, -1))
    A = np.hstack(blocks)
    closed = _certified(A, space._rows, space._pivots, p)
    if closed.all():
        return True, None
    i, j = divmod(int(np.argmin(closed)), k)
    return False, (ops[i], ops[j])


# bytes (8 * N**2 on an N-entry frame) above which p(δ) is not built
_POLY_MATRIX_BUDGET = 1 << 30


def _np_poly_matrix(delta, poly, dims, p):
    """poly(delta) mod p as an explicit matrix on flat coordinates: a sum of
    Kronecker products, one per term, accumulated in place."""
    N = math.prod(dims)
    if 8 * N * N > _POLY_MATRIX_BUDGET:
        raise BudgetExceeded(f"dense p(δ) on {N} tensor entries exceeds 1 GiB")
    dtype = _dtype(p)
    C = np.zeros((N, N), dtype=dtype)
    for e, c in poly.terms.items():
        fac = np.full((1, 1), _residue(c, p), dtype=dtype)
        for a, ka in enumerate(e):
            m = _np_mats(delta, a, ka, p)
            fac = np.kron(fac, m if a == 0 else m.T)
            np.remainder(fac, p, out=fac)
        C += fac
        np.remainder(C, p, out=C)
    return C


def _closure_modp(constraints, dims, p):
    """Ten(P,Δ) mod p as numpy rows (no denominator of Δ or P divisible by
    p).  The first constraint's kernel seeds the basis; every further
    constraint is applied to the whole basis at once and cuts it down to
    the kernel of that batch."""
    B = np_nullspace(_np_poly_matrix(*constraints[0], dims, p), p)
    for delta, poly in constraints[1:]:
        if B.shape[0] == 0:
            break
        applied = _np_apply_poly(delta, poly, B, dims, p)
        coeffs = np_nullspace(applied.T, p)
        B = _matmul_mod(coeffs, B, p)
    return B


def ten_closure(P, Delta, frame):
    """Basis of Ten(P,Δ) = {s : apply_polynomial(δ, p, s) = 0 ∀δ,p}.

    Over QQ, _closure_modp runs mod word-size primes that divide no
    denominator of Δ or P and linalg._multimodular_rref lifts the result.
    The lift is certified once every lifted tensor satisfies every
    constraint exactly: it spans a subspace of Ten over QQ, of dimension
    dim Ten mod p >= dim Ten over QQ, so it spans Ten.  The check runs on
    integers, with no modulus (npaction.integral_constraint).
    """
    field = frame.field
    for delta in Delta:
        if delta.frame != frame:
            raise FrameMismatch("operator frame differs from the closure frame")
    constraints = [(d, p) for d in Delta for p in P if not p.is_zero()]
    if not constraints:
        basis = identity_matrix(frame.size, field)
        return TensorSpace(frame, [Tensor(frame, b) for b in basis])
    if field.characteristic:
        B = _closure_modp(constraints, frame.dims, field.p)
        return TensorSpace(frame, [Tensor(frame, [int(x) for x in row]) for row in B])
    dens = [c.denominator for _, poly in constraints for c in poly.terms.values()]
    for delta in Delta:
        dens.extend(x.denominator for m in delta.mats if m is not None for row in m for x in row)
    den = math.lcm(*dens)

    def reduce(p):
        if den % p == 0:
            return None
        return np_rref(_closure_modp(constraints, frame.dims, p), p)

    integral = [integral_constraint(delta, poly) for delta, poly in constraints]

    def certify(rows, pivots):
        B = np.array([_integer_scaled(row) for row in rows], dtype=object)
        B = B.reshape(len(rows), frame.size)
        return not any(
            _np_apply_poly(delta, poly, B, frame.dims, None).any() for delta, poly in integral
        )

    rows, _ = _multimodular_rref(frame.size, reduce, certify, sign=1)
    return TensorSpace(frame, [Tensor(frame, row) for row in rows])


def densor(S, der=None):
    """⟨⟨S⟩⟩ = Ten(d, Der(S)), the derivation closure of a tensor set."""
    if not S:
        raise FrameMismatch("empty tensor set")
    frame = S[0].frame
    if der is None:
        der = named_algebra(S, "derivations", verify=False)
    d = derivation_poly(frame.valence, frame.field)
    return ten_closure([d], der.basis, frame)


class SymbolicSystem:
    """Defining equations of Op(S,P) in the operator entry variables."""

    def __init__(self, frame, variance, labels, equations):
        self.frame = frame
        self.variance = tuple(variance)
        self.labels = list(labels)
        self.equations = list(equations)

    def verify_point(self, omega):
        if omega.frame != self.frame:
            raise FrameMismatch("operator frame differs")
        point = op_flat(omega)
        f = self.frame.field
        return all(f.is_zero(eq.evaluate(point)) for eq in self.equations)

    def __repr__(self):
        return f"SymbolicSystem(vars={len(self.labels)}, equations={len(self.equations)})"


_EQUATION_BUDGET = 200_000


def op_space_equations(S, P, variance=None):
    """Polynomial equations in Σ d_a² entry variables cutting out Op(S,P);
    works for P of any degree, with a budget guard on the symbolic size."""
    if not S:
        raise FrameMismatch("empty tensor set")
    frame = S[0].frame
    field = frame.field
    if variance is None:
        variance = all_covariant(frame.valence)
    variance = tuple(variance)
    axes, offsets, nunk = _op_unknown_layout(frame, variance)
    labels = []
    for a in axes:
        d = frame.dims[a]
        labels.extend(f"w{a}_{i}_{j}" for i in range(d) for j in range(d))
    maxdeg = max((p.total_degree() for p in P), default=0)
    if frame.size * max(len(S) * len(P), 1) * max(maxdeg, 1) > _EQUATION_BUDGET:
        raise BudgetExceeded("symbolic system too large")
    equations = []
    for t in S:
        for p in P:
            _check_poly_axes(p, variance)
            acc = [MultiPoly.zero(field, nunk) for _ in range(frame.size)]
            for e, c in p.terms.items():
                cur = [
                    MultiPoly.constant(field, nunk, x) for x in t.coeffs
                ]
                for a, ka in enumerate(e):
                    for _ in range(ka):
                        cur = _symbolic_contract(cur, frame, a, offsets[a], nunk, field)
                for i in range(frame.size):
                    acc[i] = acc[i].add(cur[i].scale(c))
            equations.extend(q for q in acc if not q.is_zero())
    return SymbolicSystem(frame, variance, labels, equations)


def _symbolic_contract(cur, frame, a, offset, nunk, field):
    """One symbolic contraction of a polynomial-entried tensor with the
    variable matrix of axis a."""
    dims = frame.dims
    d = dims[a]
    pre = 1
    for b in range(a):
        pre *= dims[b]
    post = 1
    for b in range(a + 1, len(dims)):
        post *= dims[b]

    def var(i, j):
        e = [0] * nunk
        e[offset + i * d + j] = 1
        return tuple(e)

    out = [MultiPoly.zero(field, nunk)] * (pre * d * post)
    for pi in range(pre):
        for j in range(d):
            for po in range(post):
                acc = MultiPoly.zero(field, nunk)
                for i in range(d):
                    src = cur[pi * d * post + i * post + po]
                    if src.is_zero():
                        continue
                    # axis 0 is output convention: weight w[j][i]; inputs w[i][j]
                    v = var(j, i) if a == 0 else var(i, j)
                    acc = acc.add(src.mul_term(v, field.one))
                out[pi * d * post + j * post + po] = acc
    return out


def generic_points(space, count=None, seed=0):
    """Seeded random span members of an operator space; each re-verifies
    against the provenance constraints by construction of the span."""
    frame = space.frame
    if count is None:
        count = 2 + frame.valence
    if not space.basis:
        nunk = _op_unknown_layout(frame, space.variance)[2]
        return [op_from_flat(frame, space.variance, [frame.field.zero] * nunk)
                for _ in range(count)]
    return random_span_members(space.basis, count, seed)


def torus_transform(P, tau):
    """p^τ(x) = p(τ⁻¹x): scale each term by ∏ τ_a^{-e_a}."""
    out = []
    for p in P:
        field = p.field
        for x in tau:
            if field.is_zero(x):
                raise ZeroTorusEntry("torus entries must be invertible")
        terms = {}
        for e, c in p.terms.items():
            scale = field.one
            for a, k in enumerate(e):
                if k:
                    scale = field.mul(scale, field.pow(field.inv(tau[a]), k))
            terms[e] = field.mul(c, scale)
        out.append(MultiPoly(field, p.nvars, terms))
    return out


def torus_scale_space(space, tau):
    """τ·Δ: scale the axis-a matrix of every basis member by τ_a."""
    frame = space.frame
    field = frame.field
    scaled = []
    for b in space.basis:
        mats = []
        for a, s in enumerate(b.variance):
            if s == 0:
                mats.append(None)
            else:
                mats.append([[field.mul(tau[a], x) for x in row] for row in b.mats[a]])
        scaled.append(TransverseOperator(frame, mats, b.variance))
    return OperatorSpace(frame, space.variance, scaled, provenance=space.provenance)


def torus_relation_holds(S, P, tau, variance=None):
    """Op(S, P^τ) = τ·Op(S, P) as spans."""
    base = op_space_linear(S, P, variance)
    transformed = op_space_linear(S, torus_transform(P, tau), variance)
    scaled = torus_scale_space(base, tau)
    field = base.frame.field
    return spans_equal(
        [op_flat(b) for b in transformed.basis],
        [op_flat(b) for b in scaled.basis],
        field,
    )


def conjugate_operator(omega, delta):
    """Axiswise conjugate ω⁻¹δω of a transverse operator by an invertible
    transverse operator sharing its frame.

    The output axis acts from the left, so its component conjugates as
    ω₀δ₀ω₀⁻¹; input axes act from the right and conjugate as ω_a⁻¹δ_aω_a.
    """
    from .errors import SingularMatrix
    from .linalg import mat_inv

    frame = omega.frame
    field = frame.field
    mats = []
    for a, s in enumerate(delta.variance):
        if s == 0:
            mats.append(None)
            continue
        inv = mat_inv(omega.mats[a], field)
        if inv is None:
            raise SingularMatrix(f"axis {a} component is not invertible")
        left, right = (omega.mats[a], inv) if a == 0 else (inv, omega.mats[a])
        mats.append(mat_mul(mat_mul(left, delta.mats[a], field), right, field))
    return TransverseOperator(frame, mats, delta.variance)


def conjugation_relation_holds(S, P, omega, variance=None):
    """Op(ωS, P) = ω⁻¹·Op(S, P)·ω as spans, for linear homogeneous P and
    axiswise-invertible ω.  ωS transforms every axis of each tensor once."""
    from .operators import apply_monomial

    frame = S[0].frame
    field = frame.field
    ones = tuple(1 for _ in frame.dims)
    base = op_space_linear(S, P, variance)
    moved = [apply_monomial(omega, ones, t) for t in S]
    transformed = op_space_linear(moved, P, variance)
    conj = [conjugate_operator(omega, b) for b in base.basis]
    return spans_equal(
        [op_flat(b) for b in transformed.basis],
        [op_flat(b) for b in conj],
        field,
    )

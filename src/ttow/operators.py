"""Transverse operators and the polynomial action on tensors.

An operator is one square matrix per axis plus a variance signature.
Matrices act in plain column convention on every axis (output axis by left
multiplication, input axes by contraction); the contravariant marking
changes composition order, not the contraction itself, so a stored basis
reads off directly against the classical adjoint/nucleus descriptions.
"""

from itertools import product

from .errors import (
    DimensionMismatch,
    FrameMismatch,
    VarianceMismatch,
)
from .linalg import identity_matrix, mat_mul
from .tensors import Tensor, contract_axis


def all_covariant(valence):
    return (1,) * (valence + 1)


class TransverseOperator:
    def __init__(self, frame, mats, variance=None):
        n = len(frame.dims)
        if variance is None:
            variance = all_covariant(frame.valence)
        variance = tuple(int(s) for s in variance)
        if len(variance) != n or any(s not in (-1, 0, 1) for s in variance):
            raise VarianceMismatch("variance must map each axis to -1, 0, or +1")
        if len(mats) != n:
            raise DimensionMismatch("one matrix per axis required")
        field = frame.field
        fixed = []
        for a, (m, d) in enumerate(zip(mats, frame.dims)):
            if variance[a] == 0:
                fixed.append(identity_matrix(d, field))
                continue
            if m is None or len(m) != d or any(len(r) != d for r in m):
                raise DimensionMismatch(f"axis {a} matrix must be {d}x{d}")
            fixed.append([list(r) for r in m])
        self.frame = frame
        self.mats = fixed
        self.variance = variance
        self._powers = {}

    @classmethod
    def identity(cls, frame, variance=None):
        return cls(
            frame,
            [identity_matrix(d, frame.field) for d in frame.dims],
            variance,
        )

    def power(self, a, k):
        """ω_a^k, memoized, k >= 0, by repeated squaring."""
        d = self.frame.dims[a]
        if k == 0:
            return identity_matrix(d, self.frame.field)
        key = (a, k)
        if key in self._powers:
            return self._powers[key]
        if k == 1:
            result = self.mats[a]
        else:
            half = self.power(a, k // 2)
            result = mat_mul(half, half, self.frame.field)
            if k % 2:
                result = mat_mul(result, self.mats[a], self.frame.field)
        self._powers[key] = result
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TransverseOperator)
            and self.frame == other.frame
            and self.variance == other.variance
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"TransverseOperator(dims={self.frame.dims}, variance={self.variance})"


def apply_monomial(omega, e, t):
    """ω_0^{e_0} <t| ω_1^{e_1} ... ω_v^{e_v}, as a coefficient array."""
    if t.frame != omega.frame:
        raise FrameMismatch("operator and tensor frames differ")
    e = tuple(int(x) for x in e)
    if len(e) != len(t.frame.dims):
        raise DimensionMismatch("exponent vector length mismatch")
    for a, (k, s) in enumerate(zip(e, omega.variance)):
        if k < 0:
            raise DimensionMismatch("negative exponent")
        if k and s == 0:
            raise DimensionMismatch(f"nonzero exponent on constant axis {a}")
    cur = t
    for a, k in enumerate(e):
        if k == 0:
            continue
        mat = omega.power(a, k)
        cur = contract_axis(cur, a, mat, left=(a == 0))
    return cur


def apply_polynomial(omega, p, t):
    """sum over terms: lambda_e * apply_monomial(omega, e, t)."""
    f = t.frame.field
    minus_one = f.neg(f.one)
    out = [f.zero] * t.frame.size
    for e, c in p.terms.items():
        contrib = apply_monomial(omega, e, t).coeffs
        # ±1 coefficients (the derivation and centroid traits) skip the product
        if c == f.one:
            out = [f.add(x, y) for x, y in zip(out, contrib)]
        elif c == minus_one:
            out = [f.sub(x, y) for x, y in zip(out, contrib)]
        else:
            out = [f.add(x, f.mul(c, y)) for x, y in zip(out, contrib)]
    return Tensor(t.frame, out)


def is_trait(p, t, omega):
    return apply_polynomial(omega, p, t).is_zero()


def compose(omega, tau):
    """Variance-aware composition: covariant axes multiply in order,
    contravariant axes in reverse."""
    if omega.frame != tau.frame:
        raise FrameMismatch("frames differ")
    if omega.variance != tau.variance:
        raise VarianceMismatch("variance signatures differ")
    f = omega.frame.field
    mats = []
    for a, s in enumerate(omega.variance):
        if s == 0:
            mats.append(None)
        elif s == 1:
            mats.append(mat_mul(omega.mats[a], tau.mats[a], f))
        else:
            mats.append(mat_mul(tau.mats[a], omega.mats[a], f))
    return TransverseOperator(omega.frame, mats, omega.variance)


def active_axes(variance):
    return [a for a, s in enumerate(variance) if s != 0]


def op_flat(omega):
    """Flat coordinate vector over the active-axis matrix entries."""
    out = []
    for a in active_axes(omega.variance):
        for row in omega.mats[a]:
            out.extend(row)
    return out


def op_from_flat(frame, variance, vec):
    mats = [None] * len(frame.dims)
    pos = 0
    for a, s in enumerate(variance):
        if s == 0:
            continue
        d = frame.dims[a]
        mats[a] = [list(vec[pos + i * d : pos + (i + 1) * d]) for i in range(d)]
        pos += d * d
    if pos != len(vec):
        raise DimensionMismatch("flat operator vector has wrong length")
    return TransverseOperator(frame, mats, variance)


def random_operator(frame, variance, rng):
    field = frame.field
    mats = []
    for a, s in enumerate(variance):
        d = frame.dims[a]
        if s == 0:
            mats.append(None)
        else:
            mats.append([[field.random(rng) for _ in range(d)] for _ in range(d)])
    return TransverseOperator(frame, mats, variance)

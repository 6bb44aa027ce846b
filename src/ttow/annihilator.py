"""Annihilator ideals Id(t, ω) and Id(S, Δ) via the cokernel pipeline:
rows of monomial actions over the exponent box, left nullspace, Buchberger.

The box rows of a tensor under all operators at once come from one batched
numpy kernel (`npaction.box_action`) on every field.  Over QQ it runs on
integers: axis a of every operator is scaled by D_a, the lcm of its
denominators across the operators.  Row e then carries the factor
∏ D_a^{e_a}, the substitution x_a -> x_a / D_a, so a cokernel vector c' of
the integer rows gives c_e = c'_e ∏ D_a^{e_a}, the same span and ideal.
"""

import math
import warnings

import numpy as np

from .errors import DimensionMismatch, FrameMismatch
from .fields import QQ
from .groebner import Ideal, box_exponents, intersect
from .linalg import np_nullspace, nullspace
from .npaction import box_action, operator_stacks, tensor_array
from .polys import GREVLEX, MultiPoly


def _unscaled(vec, rowscale):
    """c_e = c'_e · rowscale_e, normalised as nullspace() normalises: 1 at
    the free column, which is the last nonzero entry (1 in c' too)."""
    free = max(i for i, x in enumerate(vec) if x)
    return [x * s / rowscale[free] if x else x for x, s in zip(vec, rowscale)]


def ann_operator(t, omega, bounds=None, order=GREVLEX):
    """The annihilator ideal of (t, ω), complete by Cayley-Hamilton within
    the per-axis exponent box {0..d_a}: the one-pair joint annihilator."""
    if bounds is not None:
        for a, (b, d) in enumerate(zip(bounds, t.frame.dims)):
            if b > d:
                warnings.warn(
                    f"axis {a} bound {b} capped to {d}: larger is redundant"
                )
    return joint_annihilator([t], [omega], bounds, order)


def ann_set(tensors, operators, bounds=None, order=GREVLEX):
    """Id(S, Δ) as the intersection of the pairwise annihilators."""
    result = None
    for t in tensors:
        for omega in operators:
            ideal = ann_operator(t, omega, bounds, order)
            result = ideal if result is None else intersect(result, ideal)
            if result.is_zero_ideal():
                return result
    if result is None:
        raise FrameMismatch("empty tensor or operator set")
    return result


def joint_annihilator(tensors, operators, bounds=None, order=GREVLEX):
    """The ideal generated by the degree-bounded traits common to every
    (t, ω) pair: one cokernel over the exponent box with the action rows
    of all pairs stacked.

    Unlike ``ann_set`` this never picks up incidental high-degree members
    of the pairwise intersection (such as products of per-operator minimal
    polynomials), so for a sampled operator family it converges onto the
    ideal of traits shared by the whole family.  An axis that some operator
    holds constant (variance 0) carries no variable: its bound is 0.
    """
    if not tensors or not operators:
        raise FrameMismatch("empty tensor or operator set")
    frame = tensors[0].frame
    for t in tensors:
        for omega in operators:
            if t.frame != omega.frame:
                raise FrameMismatch("tensor and operator frames differ")
    field = frame.field
    nvars = len(frame.dims)
    if bounds is None:
        bounds = list(frame.dims)
    else:
        bounds = [min(b, d) for b, d in zip(bounds, frame.dims)]
    for a in range(nvars):
        if any(omega.variance[a] == 0 for omega in operators):
            bounds[a] = 0
    exps = box_exponents(bounds)
    p = field.characteristic or None
    stacks, scales = operator_stacks(operators, p)
    rows = np.hstack([
        box_action(tensor_array(t, p, stacks[0].dtype), stacks, bounds, p) for t in tensors
    ])
    if p is None:
        coker = nullspace(rows.T.tolist(), len(exps), QQ)
        if any(D != 1 for D in scales):
            rowscale = [math.prod(D**k for D, k in zip(scales, e)) for e in exps]
            coker = [_unscaled(vec, rowscale) for vec in coker]
    else:
        coker = np_nullspace(rows.T, p).tolist()
    gens = [MultiPoly(field, nvars, dict(zip(exps, vec))) for vec in coker]
    return Ideal.zero(field, nvars, order) if not gens else Ideal(gens, order)


def min_poly_axis(t, omega, a, order=GREVLEX):
    """Monic generator of Id(t,ω) ∩ K[x_a]: the reduced Gröbner basis of the
    joint annihilator over the box of degree d_a in x_a alone, which holds
    a relation by Cayley-Hamilton."""
    if omega.variance[a] == 0:
        raise DimensionMismatch(f"nonzero exponent on constant axis {a}")
    bounds = [0] * len(t.frame.dims)
    bounds[a] = t.frame.dims[a]
    (gen,) = joint_annihilator([t], [omega], bounds, order).gb
    return gen

"""Frames, tensors as dense multiway arrays, tensor spaces.

A tensor with frame dims (d_0, ..., d_v) is read as the multilinear map
<t|: V_1 x ... x V_v -> V_0.  Coefficients are stored flat, row-major with
index i_0 slowest.
"""

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field
from .linalg import rref


@dataclass(frozen=True)
class Frame:
    dims: tuple
    field: Field

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise DimensionMismatch("frame dims must be >= 1")

    @property
    def valence(self):
        return len(self.dims) - 1

    @property
    def size(self):
        n = 1
        for d in self.dims:
            n *= d
        return n

    def flat(self, idx):
        f = 0
        for i, d in zip(idx, self.dims):
            f = f * d + i
        return f

    def indices(self):
        return product(*(range(d) for d in self.dims))


class Tensor:
    def __init__(self, frame, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != frame.size:
            raise DimensionMismatch("coefficient count does not match frame")
        self.frame = frame
        self.coeffs = coeffs

    @classmethod
    def zero(cls, frame):
        return cls(frame, [frame.field.zero] * frame.size)

    @classmethod
    def from_entries(cls, frame, entries):
        """entries: mapping index-tuple -> scalar (others zero)."""
        t = cls.zero(frame)
        for idx, val in entries.items():
            t.coeffs[frame.flat(idx)] = val
        return t

    def __getitem__(self, idx):
        return self.coeffs[self.frame.flat(idx)]

    def is_zero(self):
        f = self.frame.field
        return all(f.is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.frame == other.frame
            and self.coeffs == other.coeffs
        )

    def add(self, other):
        f = self.frame.field
        return Tensor(self.frame, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def sub(self, other):
        f = self.frame.field
        return Tensor(self.frame, [f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        f = self.frame.field
        return Tensor(self.frame, [f.mul(c, x) for x in self.coeffs])

    def __repr__(self):
        nz = sum(1 for c in self.coeffs if not self.frame.field.is_zero(c))
        return f"Tensor(dims={self.frame.dims}, nonzero={nz})"


def contract_axis(t, a, mat, left=False):
    """Contract axis a of t with a matrix.

    left=False (input-axis convention): new_j = sum_i t_i * mat[i][j].
    left=True (output-axis convention):  new_k = sum_m mat[k][m] * t_m.
    mat may be rectangular; the new axis size is the non-summed dimension.
    """
    dims = t.frame.dims
    f = t.frame.field
    d = dims[a]
    if left:
        if len(mat[0]) != d:
            raise DimensionMismatch("contraction size mismatch")
        new_d = len(mat)
    else:
        if len(mat) != d:
            raise DimensionMismatch("contraction size mismatch")
        new_d = len(mat[0]) if mat else 0
    pre = 1
    for b in range(a):
        pre *= dims[b]
    post = 1
    for b in range(a + 1, len(dims)):
        post *= dims[b]
    # the nonzero weights feeding each new index, gathered once per call
    rows = mat if left else list(zip(*mat))
    weights = [
        [(i, c) for i, c in enumerate(row) if not f.is_zero(c)] for row in rows
    ]
    src = t.coeffs
    out = []
    for pi in range(pre):
        base_in = pi * d * post
        for wj in weights:
            acc = [f.zero] * post
            for i, c in wj:
                s = base_in + i * post
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, src[s : s + post])]
            out.extend(acc)
    new_dims = dims[:a] + (new_d,) + dims[a + 1 :]
    return Tensor(Frame(new_dims, f), out)


def partial_evaluate(t, axes, args):
    """Fix input axes `axes` (subset of 1..v) at the given vectors."""
    v = t.frame.valence
    axes = list(axes)
    if not axes:
        raise DimensionMismatch("no axes to fix")
    if any(a < 1 or a > v for a in axes):
        raise DimensionMismatch("axis 0 not fixable / axis out of range")
    pairs = sorted(zip(axes, args), reverse=True)
    cur = t
    for a, vec in pairs:
        if len(vec) != cur.frame.dims[a]:
            raise DimensionMismatch("argument length mismatch")
        cur = contract_axis(cur, a, [[x] for x in vec])
        # drop the now-trivial axis
        dims = cur.frame.dims[:a] + cur.frame.dims[a + 1 :]
        cur = Tensor(Frame(dims, cur.frame.field), cur.coeffs)
    return cur


def evaluate(t, args):
    """<t|v_1, ..., v_v> as a vector in V_0."""
    v = t.frame.valence
    if len(args) != v:
        raise DimensionMismatch("need one argument per input axis")
    if v == 0:
        return list(t.coeffs)
    res = partial_evaluate(t, range(1, v + 1), args)
    return list(res.coeffs)


def shuffle(t, pi):
    """Index relocation along a permutation of {0..v} (valence-v transpose)."""
    dims = t.frame.dims
    n = len(dims)
    if sorted(pi) != list(range(n)):
        raise DimensionMismatch("not a permutation of the axes")
    inv = [0] * n
    for a, pa in enumerate(pi):
        inv[pa] = a
    new_dims = tuple(dims[inv[a]] for a in range(n))
    frame = Frame(new_dims, t.frame.field)
    out = [t.frame.field.zero] * frame.size
    for idx in frame.indices():
        old_idx = tuple(idx[pi[k]] for k in range(n))
        out[frame.flat(idx)] = t[old_idx]
    return Tensor(frame, out)


class TensorSpace:
    """A subspace of a tensor space, stored as an echelonized basis."""

    def __init__(self, frame, tensors):
        self.frame = frame
        f = frame.field
        for t in tensors:
            if t.frame != frame:
                raise FieldMismatch("basis members must share the frame")
        rows, pivots = rref([t.coeffs for t in tensors], f)
        self.basis = [Tensor(frame, row) for row in rows]
        self._pivots = pivots

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, t):
        from .linalg import in_span

        return in_span(t.coeffs, [b.coeffs for b in self.basis], self._pivots, self.frame.field)

    def contains_space(self, other):
        return all(self.contains(b) for b in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, TensorSpace)
            and self.frame == other.frame
            and [b.coeffs for b in self.basis] == [b.coeffs for b in other.basis]
        )

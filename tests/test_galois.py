import random
from fractions import Fraction

import pytest

from ttow import (
    QQ,
    Frame,
    PrimeField,
    Tensor,
    TensorSpace,
    TransverseOperator,
    apply_polynomial,
    check_product_closure,
    densor,
    generic_points,
    is_trait,
    named_algebra,
    op_space_equations,
    op_space_linear,
    ten_closure,
    torus_transform,
)
from ttow import galois
from ttow.errors import BudgetExceeded, ZeroTorusEntry
from ttow.fixtures import (
    cplx_as_real,
    dotprod,
    ghz,
    matmul,
    sl_bracket,
    trunc_poly,
    upper_triangular,
    w_state,
)
from ttow.galois import ProductLaw, torus_relation_holds, torus_scale_space
from ttow.linalg import _integer_scaled, _prime, _rref_generic, mat_inv, mat_mul
from ttow.operators import op_flat, random_operator
from ttow.polys import MultiPoly, centroid_polys, derivation_poly, poly_from_string

F101 = PrimeField(101)


def P(text, nvars, field=QQ):
    return poly_from_string(text, nvars, field)


# -- named operator algebras ------------------------------------------------


def test_derivation_dimensions():
    assert named_algebra([ghz(QQ)], "derivations").dimension == 4
    assert named_algebra([w_state(QQ)], "derivations").dimension == 5


def test_centroid_dimensions():
    assert named_algebra([trunc_poly(3)], "centroid").dimension == 3
    assert named_algebra([ghz(QQ)], "centroid").dimension == 2


def test_adjoints_of_dot_product():
    # pairs (omega, omega^T) on the two input axes: one matrix algebra M_3
    space = named_algebra([dotprod(3, QQ)], "adjoint")
    assert space.dimension == 9


def test_nucleus_of_matrix_multiplication():
    space = named_algebra([matmul(2, QQ)], "nucleus", axes=(1, 2))
    assert space.dimension == 4


def test_every_derivation_satisfies_the_leibniz_trait():
    d = derivation_poly(2)
    for t in (ghz(QQ), w_state(QQ), trunc_poly(3)):
        for delta in named_algebra([t], "derivations").basis:
            assert is_trait(d, t, delta)


def test_centroid_satisfies_both_traits():
    t = trunc_poly(3)
    for p in centroid_polys(2):
        for omega in named_algebra([t], "centroid").basis:
            assert is_trait(p, t, omega)


# -- product closure ---------------------------------------------------------


def test_derivations_are_lie_closed():
    space = named_algebra([ghz(QQ)], "derivations")
    ok, counter = check_product_closure(space, ProductLaw.lie(QQ, 3))
    assert ok and counter is None


def test_centroid_is_associative_and_unital():
    space = named_algebra([trunc_poly(3)], "centroid")
    ok, _ = check_product_closure(space, ProductLaw.associative(QQ, space.variance))
    assert ok
    assert space.contains(TransverseOperator.identity(space.frame, space.variance))


def test_sl2_derivations_not_associatively_closed():
    space = named_algebra([sl_bracket(2, QQ)], "derivations")
    ok, counter = check_product_closure(space, ProductLaw.associative(QQ, space.variance))
    assert not ok and counter is not None


def _closure_by_pairs(space, law):
    """The closure check product by product: the reference for the batched one."""
    f = space.frame.field
    for omega in space.basis:
        for tau in space.basis:
            mats = [None] * len(space.variance)
            for a, s in enumerate(space.variance):
                if s == 0:
                    continue
                lam, rho = law.pairs[a]
                ot = mat_mul(omega.mats[a], tau.mats[a], f)
                to = mat_mul(tau.mats[a], omega.mats[a], f)
                mats[a] = [
                    [f.add(f.mul(lam, x), f.mul(rho, y)) for x, y in zip(r1, r2)]
                    for r1, r2 in zip(ot, to)
                ]
            if not space.contains(TransverseOperator(space.frame, mats, space.variance)):
                return False, (omega, tau)
    return True, None


def _corrupted(space, rng):
    """The space spanned by its basis with one active entry of one member
    moved by 1."""
    basis = [TransverseOperator(b.frame, [[list(r) for r in m] for m in b.mats], b.variance)
             for b in space.basis]
    b = rng.choice(basis)
    a = rng.choice([a for a, s in enumerate(space.variance) if s])
    d = space.frame.dims[a]
    i, j = rng.randrange(d), rng.randrange(d)
    f = space.frame.field
    b.mats[a][i][j] = f.add(b.mats[a][i][j], f.one)
    return galois.OperatorSpace(space.frame, space.variance, basis)


@pytest.mark.parametrize(
    "field", [QQ, F101, PrimeField(_prime(0)), PrimeField(2**61 - 1)],
    ids=["QQ", "F101", "p31", "p61"],
)
def test_batched_closure_check_matches_the_pairwise_one(field):
    rng = random.Random(4)
    cases = [
        (named_algebra([sl_bracket(2, field)], "derivations", verify=False), "lie"),
        (named_algebra([sl_bracket(2, field)], "derivations", verify=False), "assoc"),
        (named_algebra([trunc_poly(3, field)], "derivations", verify=False), "lie"),
        (named_algebra([trunc_poly(3, field)], "centroid", verify=False), "assoc"),
        (named_algebra([matmul(2, field)], "nucleus", axes=(1, 2), verify=False), "assoc"),
    ]
    failures = 0
    for space, kind in cases:
        n = len(space.variance)
        laws = [ProductLaw.lie(field, n) if kind == "lie"
                else ProductLaw.associative(field, space.variance)]
        if field is QQ:
            laws.append(ProductLaw([(Fraction(1, 2), Fraction(-1, 2))] * n))
        for law in laws:
            for sp in [space] + [_corrupted(space, rng) for _ in range(3)]:
                got = check_product_closure(sp, law)
                assert got == _closure_by_pairs(sp, law)
                failures += not got[0]
    assert failures  # the corrupted bases exercise the offending-pair search


# -- linear operator spaces --------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F101], ids=["QQ", "F101"])
def test_sylvester_rows_apply_the_linear_trait(field):
    # M @ op_flat(ω) is p(ω)·t for a linear homogeneous p on integer data
    rng = random.Random(12)
    for dims, variance, lams in [
        ((2, 3), (1, 1), [1, -1]),
        ((3, 2), (1, -1), [0, 2]),
        ((2, 1, 3), (1, 0, 1), [3, 0, -1]),
        ((2, 2, 3), (-1, 1, 1), [1, 1, 0]),
        ((2, 2, 1, 2), (1, 1, 0, 1), [1, -1, 0, 1]),
        ((2, 3, 2, 2), (0, 1, 1, -1), [0, 1, 2, -3]),
    ]:
        frame = Frame(dims, field)
        t = Tensor(frame, [field.from_int(rng.randint(-5, 5)) for _ in range(frame.size)])
        n = len(dims)
        poly = MultiPoly(field, n, {
            tuple(int(b == a) for b in range(n)): field.from_int(lam)
            for a, lam in enumerate(lams) if lam
        })
        axes = [a for a, s in enumerate(variance) if s]
        M = galois._sylvester_rows_np(t, _integer_scaled(poly.linear_coeffs()), axes)
        for _ in range(3):
            omega = random_operator(frame, variance, rng)
            w = [int(x) for x in op_flat(omega)]
            got = (M @ w) % field.p if field.characteristic else M @ w
            assert list(got) == apply_polynomial(omega, poly, t).coeffs


def test_op_space_scalar_solutions():
    # scalar triples (a, b, c)I with a = b + c always satisfy the Leibniz trait
    t = ghz(QQ)
    space = op_space_linear([t], [derivation_poly(2)])

    def scalar_triple(a, b, c):
        f = QQ

        def diag(c_):
            return [[c_ if i == j else f.zero for j in range(2)] for i in range(2)]

        return TransverseOperator(t.frame, [diag(a), diag(b), diag(c)])

    assert space.contains(scalar_triple(Fraction(5), Fraction(2), Fraction(3)))
    assert not space.contains(scalar_triple(Fraction(1), Fraction(1), Fraction(1)))


def test_op_space_shrinks_with_more_tensors():
    d = [derivation_poly(2)]
    big = op_space_linear([ghz(QQ)], d)
    small = op_space_linear([ghz(QQ), w_state(QQ)], d)
    assert small.dimension <= big.dimension
    for omega in small.basis:
        assert big.contains(omega)


# -- tensor closures and densors ---------------------------------------------


def test_ten_closure_empty_operator_set_is_everything():
    frame = Frame((2, 2, 2), QQ)
    space = ten_closure([derivation_poly(2)], [], frame)
    assert space.dimension == 8


def test_ten_closure_single_slot_pattern():
    # delta = (0, E12, 0): the condition zeroes the slices hit by E12
    frame = Frame((2, 2, 2), QQ)
    z, o = QQ.zero, QQ.one
    E12 = [[z, o], [z, z]]
    zero = [[z, z], [z, z]]
    delta = TransverseOperator(frame, [zero, E12, zero])
    space = ten_closure([derivation_poly(2)], [delta], frame)
    # condition: slice with axis-1 index picking up E12's image must vanish
    assert space.dimension == 4
    for b in space.basis:
        assert apply_polynomial(delta, derivation_poly(2), b).is_zero()


def test_ten_closure_of_diagonal_operators_on_a_4096_frame():
    # With diagonal matrices diag(a), diag(b), diag(c) on the three axes, the
    # derivation trait acts on the unit tensor e_ijk by a_i - b_j - c_k, so
    # Ten is spanned by the e_ijk with a_i = b_j + c_k for every operator.
    n = 16
    frame = Frame((n, n, n), F101)
    weights = [
        ([i % 7 for i in range(n)], [j % 3 for j in range(n)], [k % 5 for k in range(n)]),
        ([i % 4 for i in range(n)], [0] * n, [k % 4 for k in range(n)]),
    ]

    def diag(w):
        return [[w[i] if i == j else 0 for j in range(n)] for i in range(n)]

    Delta = [TransverseOperator(frame, [diag(w) for w in ws]) for ws in weights]
    space = ten_closure([derivation_poly(2, F101)], Delta, frame)
    units = [
        Tensor.from_entries(frame, {idx: 1})
        for idx in frame.indices()
        if all(a[idx[0]] == b[idx[1]] + c[idx[2]] for a, b, c in weights)
    ]
    assert space == TensorSpace(frame, units)
    assert space.dimension == 153


def test_ten_closure_refuses_a_dense_system_above_its_memory_budget():
    # p(δ) on the 27^3 Albert-sized frame would be a 19683^2 int64 matrix
    # (3.1 GB); both fields refuse it before allocating anything
    for field in (F101, QQ):
        frame = Frame((27, 27, 27), field)
        delta = TransverseOperator.identity(frame)
        with pytest.raises(BudgetExceeded):
            ten_closure([derivation_poly(2, field)], [delta], frame)


def test_densor_contains_its_input():
    for t in (ghz(QQ), w_state(QQ), trunc_poly(2), matmul(2, QQ)):
        assert densor([t]).contains(t)


def test_densor_dimensions_small_fixtures():
    assert densor([ghz(QQ)]).dimension == 2
    assert densor([w_state(QQ)]).dimension == 1
    assert densor([sl_bracket(2, QQ)]).dimension == 1
    assert densor([sl_bracket(3, F101)]).dimension == 2
    assert densor([matmul(2, F101)]).dimension == 1


def test_ghz_densor_span():
    space = densor([ghz(QQ)])
    e000 = Tensor.from_entries(space.frame, {(0, 0, 0): Fraction(1)})
    e111 = Tensor.from_entries(space.frame, {(1, 1, 1): Fraction(1)})
    assert space.contains(e000) and space.contains(e111)


def test_densor_is_idempotent():
    space = densor([ghz(QQ)])
    again = densor(list(space.basis))
    assert again.dimension == space.dimension
    for b in space.basis:
        assert again.contains(b)


# -- symbolic systems ---------------------------------------------------------


def test_symbolic_system_accepts_known_points():
    t = ghz(QQ)
    sys_lin = op_space_equations([t], [P("x0 - x1*x2", 3)])
    ident = TransverseOperator.identity(t.frame)
    assert sys_lin.verify_point(ident)
    z, o = QQ.zero, QQ.one
    swap = [[z, o], [o, z]]
    assert sys_lin.verify_point(TransverseOperator(t.frame, [swap, swap, swap]))


def test_symbolic_system_rejects_non_solutions():
    t = ghz(QQ)
    sys_lin = op_space_equations([t], [P("x0 - x1*x2", 3)])
    z, o = QQ.zero, QQ.one
    swap = [[z, o], [o, z]]
    ident = [[o, z], [z, o]]
    assert not sys_lin.verify_point(TransverseOperator(t.frame, [swap, swap, ident]))


# -- generic points -----------------------------------------------------------


def test_generic_points_satisfy_the_constraints():
    space = op_space_linear([ghz(QQ)], [derivation_poly(2)])
    pts = generic_points(space, seed=3)
    assert len(pts) == 2 + 2  # 2 + valence
    for omega in pts:
        assert is_trait(derivation_poly(2), ghz(QQ), omega)


def test_generic_points_keep_the_variance_and_zero_spaces():
    space = named_algebra([matmul(2, F101)], "nucleus", axes=(1, 2))
    for omega in generic_points(space, seed=1):
        assert omega.variance == space.variance
        assert space.contains(omega)
    frame = Frame((2, 3), QQ)
    empty = galois.OperatorSpace(frame, (1, 0), [])
    zero = TransverseOperator(frame, [[[QQ.zero] * 2] * 2, None], (1, 0))
    assert generic_points(empty, count=3, seed=5) == [zero] * 3


def test_generic_points_deterministic():
    space = op_space_linear([ghz(QQ)], [derivation_poly(2)])
    assert generic_points(space, seed=7) == generic_points(space, seed=7)


# -- torus action -------------------------------------------------------------


def test_torus_transform_signs():
    d = derivation_poly(2)
    out = torus_transform([d], [Fraction(1), Fraction(-1), Fraction(-1)])
    assert out[0] == P("x0 + x1 + x2", 3)


def test_torus_identity_fixes():
    d = derivation_poly(2)
    out = torus_transform([d], [Fraction(1)] * 3)
    assert out[0] == d


def test_torus_rejects_zero():
    with pytest.raises(ZeroTorusEntry):
        torus_transform([derivation_poly(2)], [Fraction(0), Fraction(1), Fraction(1)])


def test_torus_relation_on_ghz():
    tau = [Fraction(2), Fraction(1), Fraction(1)]
    assert torus_relation_holds([ghz(QQ)], [derivation_poly(2)], tau)


# -- closures over QQ: multimodular, lifted and certified ---------------------


def _kernel_rref(rows, n):
    """RREF basis of {x in QQ^n : row · x = 0 for every row}, by Fraction
    elimination."""
    R, pivots = _rref_generic(rows, QQ)
    kernel = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [QQ.zero] * n
        vec[free] = QQ.one
        for row, pcol in zip(R, pivots):
            vec[pcol] = -row[free]
        kernel.append(vec)
    return _rref_generic(kernel, QQ)[0]


def _reference_closure(P, Delta, frame):
    """RREF basis of Ten(P,Δ) over QQ: the kernel of the explicit stacked
    images of the unit tensors."""
    n = frame.size
    units = [Tensor.from_entries(frame, {idx: QQ.one}) for idx in frame.indices()]
    rows = []
    for delta in Delta:
        for p in P:
            images = [apply_polynomial(delta, p, u).coeffs for u in units]
            rows.extend([images[j][i] for j in range(n)] for i in range(n))
    return _kernel_rref(rows, n)


def _basis(space):
    return [b.coeffs for b in space.basis]


def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_operator_qq(frame, rng):
    return TransverseOperator(
        frame, [[[_rand_fraction(rng) for _ in range(d)] for _ in range(d)] for d in frame.dims]
    )


def _conjugated_diagonal(frame, eigenvalues, rng):
    """An operator whose axis-a matrix is Q diag(eigenvalues[a]) Q^-1 for a
    random rational Q."""
    mats = []
    for lam in eigenvalues:
        d = len(lam)
        while True:
            Q = [[_rand_fraction(rng) for _ in range(d)] for _ in range(d)]
            Qinv = mat_inv(Q, QQ)
            if Qinv is not None:
                break
        D = [[Fraction(lam[i]) if i == j else QQ.zero for j in range(d)] for i in range(d)]
        mats.append(mat_mul(mat_mul(Q, D, QQ), Qinv, QQ))
    return TransverseOperator(frame, mats)


def _scaled(delta, c):
    mats = [[[c * x for x in row] for row in m] for m in delta.mats]
    return TransverseOperator(delta.frame, mats, delta.variance)


QQ_FIXTURES = [
    ghz(QQ),
    w_state(QQ),
    sl_bracket(2, QQ),
    matmul(2, QQ),
    cplx_as_real(QQ),
    upper_triangular(QQ),
    trunc_poly(4),
]


def test_qq_closure_of_fixture_derivations_matches_fraction_elimination():
    d = [derivation_poly(2)]
    for t in QQ_FIXTURES:
        Delta = named_algebra([t], "derivations").basis
        assert _basis(ten_closure(d, Delta, t.frame)) == _reference_closure(d, Delta, t.frame)


def test_qq_closure_of_seeded_rational_operators_matches_fraction_elimination():
    # eigenvalues with a_i = b_j + c_k (derivation trait) or a_i^2 = b_j c_k
    # (the quadratic trait) for some triples, conjugated by random rational
    # matrices, give nonzero closures with non-integer entries
    traits = [[derivation_poly(2)], [P("x0^2 - x1*x2", 3)]]
    eigen = [
        [(3, 1, 2), (1, 2), (0, 2)],
        [(1, 4), (1, 2), (1, 2)],
        [(2, -1), (1, 1), (1, -2)],
    ]
    nonzero = 0
    for seed in range(6):
        rng = random.Random(seed)
        lams = eigen[seed % 3]
        frame = Frame(tuple(len(x) for x in lams), QQ)
        delta = _conjugated_diagonal(frame, lams, rng)
        twice = _scaled(delta, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        cases = [(Pl, Delta) for Pl in traits for Delta in ([delta], [delta, twice])]
        cases.append((traits[0], [delta, _rand_operator_qq(frame, rng)]))
        for Pl, Delta in cases:
            got = _basis(ten_closure(Pl, Delta, frame))
            assert got == _reference_closure(Pl, Delta, frame)
            nonzero += bool(got)
    assert nonzero >= 12


def test_qq_operator_space_of_rational_tensors_matches_fraction_elimination():
    # op_space_linear scales each tensor and each trait to integers; the
    # reference eliminates the linear equations of op_space_equations
    rng = random.Random(5)
    traits = [[derivation_poly(2)], [P("x0 - 1/2*x1 + 3/4*x2", 3)]]
    for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
        frame = Frame(dims, QQ)
        t = Tensor(frame, [_rand_fraction(rng) for _ in range(frame.size)])
        for Pl in traits:
            system = op_space_equations([t], Pl)
            n = len(system.labels)
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            rows = [[eq.terms.get(u, QQ.zero) for u in units] for eq in system.equations]
            got = _rref_generic([op_flat(b) for b in op_space_linear([t], Pl).basis], QQ)[0]
            assert got == _kernel_rref(rows, n)


def test_qq_closure_survives_unlucky_and_bad_first_primes(monkeypatch):
    # Scaling δ never changes Ten for the derivation trait, which is linear
    # in δ.  Δ scaled by the first prime vanishes mod that prime, so there
    # every tensor is in the kernel.  In a pair [δ, δ'] whose closure is
    # smaller than that of δ alone, scaling δ' alone leaves that prime one
    # constraint short.  Δ divided by the first prime cannot be reduced mod
    # it, so that prime is skipped.
    p0 = _prime(0)
    d = [derivation_poly(2)]
    reduced_at = []
    closure_modp = galois._closure_modp

    def recording(constraints, dims, p):
        reduced_at.append(p)
        return closure_modp(constraints, dims, p)

    monkeypatch.setattr(galois, "_closure_modp", recording)
    for t in (ghz(QQ), sl_bracket(2, QQ), matmul(2, QQ)):
        frame = t.frame
        Delta = named_algebra([t], "derivations").basis
        alone = ten_closure(d, Delta[:1], frame)
        pair = next([Delta[0], x] for x in Delta[1:] if ten_closure(d, [Delta[0], x], frame) != alone)
        for ops, unlucky in (
            (Delta, [_scaled(x, p0) for x in Delta]),
            (pair, [pair[0], _scaled(pair[1], p0)]),
        ):
            want = ten_closure(d, ops, frame)
            reduced_at.clear()
            assert ten_closure(d, unlucky, frame) == want
            assert reduced_at[0] == p0 and len(reduced_at) > 1
        want = ten_closure(d, Delta, frame)
        reduced_at.clear()
        assert ten_closure(d, [_scaled(x, Fraction(1, p0)) for x in Delta], frame) == want
        assert reduced_at and p0 not in reduced_at


# -- primes above the int64 range of the kernel ------------------------------


def test_large_prime_algebras_match_f101():
    # (der, densor) dimensions; at these primes residues are Python ints
    expected = {"ghz": (4, 2), "w": (5, 1), "sl2": (10, 1), "matmul-2": (11, 1)}
    makers = {
        "ghz": ghz,
        "w": w_state,
        "sl2": lambda f: sl_bracket(2, f),
        "matmul-2": lambda f: matmul(2, f),
    }
    for p in (101, (1 << 61) - 1, (1 << 62) - 57):
        field = PrimeField(p)
        for name, make in makers.items():
            t = make(field)
            der = named_algebra([t], "derivations")
            assert (der.dimension, densor([t], der).dimension) == expected[name], (name, p)

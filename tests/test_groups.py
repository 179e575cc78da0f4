import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stingray import _kernels, classify, ffield, fmatrix, fpoly, groups
from stingray._intmath import SplitMix64
from stingray.errors import (ActionTooLarge, BadTwist,
                             CharTooSmallForSymcube, DimensionMismatch,
                             OddDimensionSymplectic, Singular,
                             StingrayUsageError, UnknownModuleSpec)

import oracles

F2 = ffield.make_field(2)


def _as_rows(m):
    return tuple(tuple(int(x) for x in m.arr[i]) for i in range(m.nrows))


def test_perm_from_cycles():
    perm = groups.perm_from_cycles(5, [(1, 2, 3)])
    assert perm == (1, 2, 0, 3, 4)
    perm = groups.perm_from_cycles(4, [(1, 2), (3, 4)])
    assert perm == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        groups.perm_from_cycles(3, [(1, 5)])


# --- deleted permutation modules ---

def test_delperm_dimension_rule():
    assert groups.deleted_perm_module(9, 2).dim == 8
    assert groups.deleted_perm_module(10, 2).dim == 8    # p | n drops one
    assert groups.deleted_perm_module(7, 3).dim == 6
    assert groups.deleted_perm_module(6, 3).dim == 4


def test_delperm_is_homomorphism():
    rng = SplitMix64(17)
    for n, p in ((6, 2), (7, 3), (9, 2), (10, 2), (6, 3)):
        mod = groups.deleted_perm_module(n, p)
        for _ in range(15):
            s = list(range(n))
            rng.shuffle(s)
            t = list(range(n))
            rng.shuffle(t)
            st = tuple(t[s[i]] for i in range(n))
            lhs = mod.to_matrix(tuple(s)) * mod.to_matrix(tuple(t))
            assert lhs == mod.to_matrix(st)


def test_delperm_a9_module_is_irreducible():
    mod = groups.deleted_perm_module(9, 2)
    res = groups.is_irreducible(mod.group, seed=5)
    assert res.status == "YES"
    v = [1] + [0] * 7
    assert groups.spin([v], mod.group).dim == 8


def test_delperm_group_order():
    # images of A_n generators; A_6 has order 360 and the module is
    # faithful for n >= 5
    mod = groups.deleted_perm_module(6, 2)
    assert groups.group_order(mod.group) == 360


# --- SL2 modules ---

def test_sl2_natural_orders():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        grp = groups.sl2_module(q, groups.NATURAL).group
        assert groups.group_order(grp) == oracles.sl_order(2, q), q


def test_symcube_is_homomorphism():
    for q in (5, 7, 11):
        mod = groups.sl2_module(q, groups.SYMCUBE)
        nat = groups.sl2_module(q, groups.NATURAL)
        rng = SplitMix64(3)
        state = groups.new_walk_state(nat.group, seed=9)
        for _ in range(20):
            a = groups.random_element(nat.group, state)
            b = groups.random_element(nat.group, state)
            assert mod.to_matrix(a * b) == mod.to_matrix(a) * mod.to_matrix(b)


def test_symcube_preserves_gram_form():
    for q in (5, 7, 11, 13):
        mod = groups.sl2_module(q, groups.SYMCUBE)
        J = groups.symcube_gram(mod.group.field)
        for g in mod.group.generators:
            assert g.transpose() * J * g == J


def test_symcube_rejects_small_characteristic():
    for q in (2, 3, 4, 8, 9):
        with pytest.raises(CharTooSmallForSymcube):
            groups.sl2_module(q, groups.SYMCUBE)


def test_unknown_module_spec_is_typed():
    with pytest.raises(UnknownModuleSpec, match="'bogus'") as err:
        groups.sl2_module(5, "bogus")
    assert isinstance(err.value, StingrayUsageError)


def test_twist_is_homomorphism():
    for q, spec in ((8, groups.twist(0, 1)), (16, groups.twist(0, 1)),
                    (64, groups.twist(0, 2))):
        mod = groups.sl2_module(q, spec)
        nat = groups.sl2_module(q, groups.NATURAL)
        assert mod.dim == 4
        state = groups.new_walk_state(nat.group, seed=21)
        for _ in range(12):
            a = groups.random_element(nat.group, state)
            b = groups.random_element(nat.group, state)
            assert mod.to_matrix(a * b) == mod.to_matrix(a) * mod.to_matrix(b)


def test_module_images_match_scalar_reference():
    # symmetric cube and twisted tensor square of random 2x2 matrices,
    # entry by entry with the scalar field methods
    rng = SplitMix64(13)
    for q, spec in ((5, groups.SYMCUBE), (7, groups.SYMCUBE),
                    (8, groups.twist(0, 1)), (64, groups.twist(0, 2))):
        mod = groups.sl2_module(q, spec)
        F = mod.group.field
        for _ in range(20):
            rows = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
            if spec == groups.SYMCUBE:
                # coefficients of (aX+bY)^(3-i) (cX+dY)^i, one linear
                # factor at a time
                want = []
                for i in range(4):
                    cf = [1]
                    for x, y in [rows[0]] * (3 - i) + [rows[1]] * i:
                        cf = [F.add_enc(F.mul_enc(x, u), F.mul_enc(y, v))
                              for u, v in zip(cf + [0], [0] + cf)]
                    want.append(tuple(cf))
            else:
                A = [[F.frob_enc(x, spec[1]) for x in r] for r in rows]
                B = [[F.frob_enc(x, spec[2]) for x in r] for r in rows]
                want = [tuple(F.mul_enc(A[i][j], B[k][m])
                              for j in range(2) for m in range(2))
                        for i in range(2) for k in range(2)]
            got = mod.to_matrix(fmatrix.DenseMatrix(F, rows))
            assert _as_rows(got) == tuple(want), (q, spec, rows)


def test_twist_validation():
    with pytest.raises(BadTwist):
        groups.sl2_module(8, groups.twist(1, 1))
    with pytest.raises(BadTwist):
        groups.sl2_module(8, groups.twist(0, 3))
    with pytest.raises(BadTwist):
        groups.sl2_module(5, groups.twist(0, 1))   # a = 1 has no twist


# --- classical generators ---

def test_gl_orders():
    cases = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (6, 2),
             (5, 3)]
    for d, q in cases:
        grp = groups.classical_generators("GL", d, q)
        assert groups.group_order(grp) == oracles.gl_order(d, q), (d, q)


def test_sl_orders():
    cases = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 2), (3, 3), (4, 2)]
    for d, q in cases:
        grp = groups.classical_generators("SL", d, q)
        assert groups.group_order(grp) == oracles.sl_order(d, q), (d, q)
        for g in grp.generators:
            assert g.det() == 1


def test_sp_orders():
    cases = [(2, 3), (4, 2), (4, 3), (6, 2)]
    for d, q in cases:
        grp = groups.classical_generators("SP", d, q)
        assert groups.group_order(grp) == oracles.sp_order(d, q), (d, q)


def test_sp_generators_preserve_form():
    for d, q in ((4, 2), (4, 3), (6, 3), (4, 5)):
        grp = groups.classical_generators("SP", d, q)
        J = groups.symplectic_gram(grp.field, d)
        for g in grp.generators:
            assert groups.preserves_form(g, J)


def test_sp_odd_dimension_rejected():
    with pytest.raises(OddDimensionSymplectic):
        groups.classical_generators("SP", 5, 3)


def test_family_validation():
    with pytest.raises(ValueError):
        groups.classical_generators("SU", 3, 4)


# --- group order machinery ---

def test_group_order_matches_brute_closure():
    for family, d, q in (("GL", 3, 2), ("GL", 2, 3), ("SL", 2, 5)):
        grp = groups.classical_generators(family, d, q)
        gens = [_as_rows(g) for g in grp.generators]
        assert groups.group_order(grp) == len(oracles.brute_closure(gens, q))


def test_group_order_seed_independent():
    # the order is deterministic, so group_order takes no seed
    grp = groups.classical_generators("GL", 4, 3)
    assert "seed" not in inspect.signature(groups.group_order).parameters
    assert groups.group_order(grp) == oracles.gl_order(4, 3)


def test_projective_orders():
    sl27 = groups.classical_generators("SL", 2, 7)
    assert groups.group_order(sl27, action=groups.PROJECTIVE) == 168
    sl29 = groups.classical_generators("SL", 2, 9)
    assert groups.group_order(sl29, action=groups.PROJECTIVE) == 360
    gl25 = groups.classical_generators("GL", 2, 5)
    assert groups.group_order(gl25, action=groups.PROJECTIVE) == 120


def test_group_order_never_inverts(monkeypatch):
    cases = [(groups.classical_generators("GL", 4, 3), groups.VECTORS,
              oracles.gl_order(4, 3)),
             (groups.classical_generators("SP", 4, 3), groups.VECTORS,
              oracles.sp_order(4, 3)),
             (groups.classical_generators("SL", 2, 9), groups.PROJECTIVE,
              oracles.sl_order(2, 9) // 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("group_order must not invert or row-reduce")

    monkeypatch.setattr(fmatrix.DenseMatrix, "inverse", refuse)
    monkeypatch.setattr(_kernels, "rref", refuse)
    for grp, action, want in cases:
        assert groups.group_order(grp, action=action) == want, grp.label


def test_group_order_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup
    cases = (("GL", 3, 2, groups.VECTORS), ("SL", 2, 5, groups.VECTORS),
             ("GL", 2, 4, groups.VECTORS), ("GL", 2, 5, groups.PROJECTIVE))
    for family, d, q, action in cases:
        grp = groups.classical_generators(family, d, q)
        F = grp.field
        perms = oracles.induced_perms([_as_rows(g) for g in grp.generators],
                                      F.p, F.modulus,
                                      projective=action == groups.PROJECTIVE)
        want = PermutationGroup([Permutation(p) for p in perms]).order()
        assert groups.group_order(grp, action=action) == want, \
            (family, d, q, action)


@st.composite
def _generating_sets(draw):
    """1-3 invertible matrices over GF(2) (d <= 4) or GF(3) (d <= 3), each
    a product P L U, sometimes with the identity, a repeat or a product of
    two earlier ones added."""
    q = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 4 if q == 2 else 3))
    ident = oracles.mat_identity(d)

    def invertible():
        perm = draw(st.permutations(range(d)))
        L = [[1 if i == j else draw(st.integers(0, q - 1)) if j < i else 0
              for j in range(d)] for i in range(d)]
        U = [[draw(st.integers(1, q - 1)) if i == j else
              draw(st.integers(0, q - 1)) if j > i else 0
              for j in range(d)] for i in range(d)]
        P = [ident[perm[i]] for i in range(d)]
        return oracles.mat_mul(P, oracles.mat_mul(L, U, q), q)

    gens = [invertible() for _ in range(draw(st.integers(1, 3)))]
    extra = draw(st.sampled_from(("none", "identity first", "identity",
                                  "repeat", "product")))
    if extra == "identity first":
        gens.insert(0, ident)
    elif extra == "identity":
        gens.append(ident)
    elif extra == "repeat":
        gens.append(draw(st.sampled_from(gens)))
    elif extra == "product":
        gens.append(oracles.mat_mul(draw(st.sampled_from(gens)),
                                    draw(st.sampled_from(gens)), q))
    return q, gens


@settings(max_examples=40, deadline=None)
@given(_generating_sets())
def test_group_order_matches_sympy_on_odd_generating_sets(case):
    # Level 0 checks only the Schreier generators of the strong generators
    # made from the input, so redundant and trivial inputs must not matter.
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup
    q, gens = case
    F = ffield.make_field(q)
    grp = groups.MatrixGroup(F, len(gens[0]),
                             [fmatrix.DenseMatrix(F, g) for g in gens])
    for action in (groups.VECTORS, groups.PROJECTIVE):
        perms = oracles.induced_perms(gens, q,
                                      projective=action == groups.PROJECTIVE)
        want = PermutationGroup([Permutation(p) for p in perms]).order()
        assert groups.group_order(grp, action=action) == want, action


def test_work_budget_is_a_typed_error(monkeypatch):
    grp = groups.classical_generators("GL", 4, 3)
    monkeypatch.setattr(groups, "SIFT_BUDGET", 100)
    with pytest.raises(ActionTooLarge, match=r"work \d+ exceeds the budget "
                       r"100 on 81 points"):
        groups.group_order(grp)


def test_action_too_large():
    grp = groups.classical_generators("GL", 16, 3)
    with pytest.raises(ActionTooLarge):
        groups.group_order(grp)


# --- random walks, spinning, irreducibility ---

def test_random_element_deterministic():
    grp = groups.classical_generators("GL", 4, 2)
    s1 = groups.new_walk_state(grp, seed=42)
    s2 = groups.new_walk_state(grp, seed=42)
    a = [groups.random_element(grp, s1) for _ in range(10)]
    b = [groups.random_element(grp, s2) for _ in range(10)]
    assert a == b
    s3 = groups.new_walk_state(grp, seed=43)
    c = [groups.random_element(grp, s3) for _ in range(10)]
    assert a != c


def test_random_elements_lie_in_group():
    grp = groups.classical_generators("SL", 3, 3)
    state = groups.new_walk_state(grp, seed=8)
    for _ in range(30):
        g = groups.random_element(grp, state)
        assert g.det() == 1


def test_spin_natural_module_is_full():
    for q in (2, 5, 9):
        grp = groups.sl2_module(q, groups.NATURAL).group
        assert groups.spin([[0, 1]], grp).dim == 2


def test_spin_respects_invariant_subspace():
    # row action: first row = e0 keeps the e0 line invariant
    m1 = fmatrix.DenseMatrix(F2, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    m2 = fmatrix.DenseMatrix(F2, [[1, 0, 0], [0, 0, 1], [1, 1, 0]])
    grp = groups.MatrixGroup(F2, 3, [m1, m2])
    assert groups.spin([[1, 0, 0]], grp).dim == 1
    assert groups.spin([[0, 1, 0]], grp).dim == 3


def test_is_irreducible_yes():
    grp = groups.sl2_module(5, groups.SYMCUBE).group
    res = groups.is_irreducible(grp, seed=1)
    assert res.status == "YES"
    assert res.witness is None


def test_is_irreducible_proves_only_at_nullity_one(monkeypatch):
    # in an irreducible module every kernel vector spins to the whole space,
    # so a nullity-2 round gives no witness and must not be taken as proof
    grp = groups.sl2_module(5, groups.SYMCUBE).group
    F = grp.field
    draws = iter([fmatrix.DenseMatrix(F, [[0, 0, 0, 0], [0, 0, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]]),
                  fmatrix.DenseMatrix(F, [[0, 0, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]])])
    monkeypatch.setattr(groups, "_random_algebra_element",
                        lambda grp, rng: next(draws))
    res = groups.is_irreducible(grp)
    assert (res.status, res.rounds, res.witness) == ("YES", 2, None)


def test_is_irreducible_no_with_witness():
    m1 = fmatrix.DenseMatrix(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    m2 = fmatrix.DenseMatrix(F2, [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    grp = groups.MatrixGroup(F2, 3, [m1, m2])
    res = groups.is_irreducible(grp, seed=1)
    assert res.status == "NO"
    w = res.witness
    assert 0 < w.dim < 3
    for g in grp.generators:
        assert w.is_invariant(g)


def test_matrix_group_validation():
    with pytest.raises(Singular):
        groups.MatrixGroup(F2, 2, [fmatrix.zeros(F2, 2)])
    with pytest.raises(DimensionMismatch):
        groups.MatrixGroup(F2, 2, [fmatrix.identity(F2, 3)])
    with pytest.raises(DimensionMismatch):
        groups.MatrixGroup(F2, 2, [])


def test_transpose_group_same_order():
    grp = groups.classical_generators("GL", 3, 2)
    assert groups.group_order(grp.transpose_group()) == 168

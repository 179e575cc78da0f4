import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stingray import ffield, fmatrix, fpoly
from stingray._intmath import SplitMix64
from stingray.errors import NotInvariant, Singular

import oracles

F2 = ffield.make_field(2)
F3 = ffield.make_field(3)
F4 = ffield.make_field(2, 2)
F5 = ffield.make_field(5)
F9 = ffield.make_field(3, 2)
F251 = ffield.make_field(251)


def M(F, rows):
    return fmatrix.DenseMatrix(F, rows)


def _random_matrix(F, rng, d):
    return M(F, [[rng.randrange(F.q) for _ in range(d)] for _ in range(d)])


def _random_invertible(F, rng, d):
    while True:
        m = _random_matrix(F, rng, d)
        if m.rank() == d:
            return m


def test_char_poly_matches_leibniz_oracle():
    rng = SplitMix64(314)
    for F, p in ((F2, 2), (F3, 3), (F5, 5)):
        for _ in range(60):
            d = rng.randrange(4) + 1
            m = _random_matrix(F, rng, d)
            rows = tuple(tuple(int(x) for x in m.arr[i]) for i in range(d))
            want = oracles.char_poly_leibniz(rows, p)
            assert tuple(fmatrix.char_poly(m).coeffs) == want


def test_companion_char_and_min_poly():
    f = fpoly.DensePoly(F2, [1, 1, 1, 1, 1])
    c = fmatrix.companion(f)
    assert fmatrix.char_poly(c) == f
    assert fmatrix.min_poly(c) == f
    assert fmatrix.matrix_order(c) == 5


def test_order_three_companion_inverse_is_square():
    c = fmatrix.companion(fpoly.DensePoly(F2, [1, 1, 1]))
    assert c.inverse() == c * c
    assert fmatrix.matrix_order(c) == 3


def test_matrix_order_matches_brute_force():
    rng = SplitMix64(55)
    for F, p in ((F2, 2), (F3, 3)):
        for _ in range(40):
            d = rng.randrange(3) + 2
            m = _random_invertible(F, rng, d)
            rows = tuple(tuple(int(x) for x in m.arr[i]) for i in range(d))
            assert fmatrix.matrix_order(m) == oracles.mat_order(rows, p)


def test_matrix_order_is_exact():
    rng = SplitMix64(77)
    for _ in range(25):
        m = _random_invertible(F4, rng, 3)
        n = fmatrix.matrix_order(m)
        assert m ** n == fmatrix.identity(F4, 3)
        for r in oracles.trial_factor(n):
            assert m ** (n // r) != fmatrix.identity(F4, 3)


def test_min_poly_divides_char_poly_same_support():
    rng = SplitMix64(123)
    for F in (F2, F3, F4):
        for _ in range(30):
            m = _random_matrix(F, rng, rng.randrange(4) + 2)
            cp = fmatrix.char_poly(m)
            mp = fmatrix.min_poly(m)
            assert (cp % mp).is_zero()
            cp_supp = {tuple(g.coeffs) for g, _ in fpoly.factor(cp).factors}
            mp_supp = {tuple(g.coeffs) for g, _ in fpoly.factor(mp).factors}
            assert cp_supp == mp_supp


def _eval_at(f, g):
    """f(g) by Horner's rule on whole matrices."""
    F, d = g.field, g.nrows
    acc = fmatrix.zeros(F, d)
    for c in reversed(f.coeffs):
        acc = acc * g + fmatrix.scalar_matrix(F, d, c)
    return acc


def _jordan(F, c, k):
    """k x k block with c on the diagonal and 1 on the superdiagonal."""
    return M(F, [[c if j == i else (1 if j == i + 1 else 0)
                  for j in range(k)] for i in range(k)])


def _min_poly_cases(F, rng):
    """Random, singular and non-semisimple matrices, several conjugated."""
    f = fpoly.DensePoly(F, [1, 1, 1]) if F.p == 2 else \
        fpoly.DensePoly(F, [1, 0, 1])
    c = fmatrix.companion(f)
    coupled = fmatrix.block_diagonal([c, c]).arr.copy()
    coupled[1, 2] = 1                 # links the two copies of companion(f)
    x = rng.randrange(F.q - 1) + 1
    cases = [
        fmatrix.zeros(F, 0),
        fmatrix.zeros(F, 3),
        fmatrix.identity(F, 4),
        fmatrix.block_diagonal([c, c]),
        M(F, coupled),
        _jordan(F, 1, 4),
        fmatrix.block_diagonal([_jordan(F, 1, 3), _jordan(F, 1, 1),
                                _jordan(F, x, 2)]),
        fmatrix.block_diagonal([_jordan(F, 0, 2), _jordan(F, x, 1)]),
    ]
    for d in (2, 3, 5):
        rows = [[rng.randrange(F.q) for _ in range(d)] for _ in range(d - 1)]
        cases.append(M(F, rows + [rows[0]]))          # singular
        cases.append(_random_matrix(F, rng, d))
    conjugated = []
    for g in cases[3:]:
        p = _random_invertible(F, rng, g.nrows)
        conjugated.append(p * g * p.inverse())
    return cases + conjugated


def test_min_poly_is_minimal():
    rng = SplitMix64(2718)
    for F in (F2, F3, F4, F9, F251):
        for g in _min_poly_cases(F, rng):
            d = g.nrows
            mp = fmatrix.min_poly(g)
            assert mp.coeffs[-1] == 1
            assert (fmatrix.char_poly(g) % mp).is_zero()
            assert _eval_at(mp, g) == fmatrix.zeros(F, d)
            for f, _ in fpoly.factor(mp).factors:
                assert _eval_at(mp // f, g) != fmatrix.zeros(F, d)


@settings(max_examples=60, deadline=None)
@given(F=st.sampled_from([F2, F3, F5]), seed=st.integers(0, 2 ** 32))
def test_det_is_multiplicative_and_rank_nullity(F, seed):
    rng = SplitMix64(seed)
    d = rng.randrange(4) + 1
    a = _random_matrix(F, rng, d)
    b = _random_matrix(F, rng, d)
    assert (a * b).det() == F.mul_enc(a.det(), b.det())
    assert a.rank() + fmatrix.kernel(a).dim == d


def test_inverse_and_singular():
    m = M(F3, [[1, 1], [1, 2]])
    inv = m.inverse()
    assert m * inv == fmatrix.identity(F3, 2)
    with pytest.raises(Singular):
        M(F3, [[1, 2], [2, 1]]).inverse()


def test_fixed_space_is_kernel_of_g_minus_one():
    g = M(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    fs = fmatrix.fixed_space(g)
    assert fs.dim == 2
    for i in range(fs.dim):
        v = list(fs.basis[i])
        assert list(fmatrix.apply_row(v, g)) == v


def test_restrict_to_invariant_subspace():
    f = fpoly.DensePoly(F2, [1, 1, 1])
    g = fmatrix.block_diagonal([fmatrix.companion(f), fmatrix.identity(F2, 2)])
    w = fmatrix.image(g - fmatrix.identity(F2, 4))
    assert w.dim == 2
    r = fmatrix.restrict(g, w)
    assert fmatrix.char_poly(r) == f
    not_invariant = fmatrix.Subspace.from_rows(F2, [[0, 1, 0, 0]], 4)
    with pytest.raises(NotInvariant):
        fmatrix.restrict(g, not_invariant)


def test_block_diagonal_char_poly_is_product():
    f = fpoly.DensePoly(F3, [1, 0, 1])
    g = fpoly.DensePoly(F3, [2, 1])
    b = fmatrix.block_diagonal([fmatrix.companion(f), fmatrix.companion(g)])
    assert fmatrix.char_poly(b) == (f * g).monic()


def test_apply_row_matches_product():
    rng = SplitMix64(4)
    for _ in range(20):
        m = _random_matrix(F3, rng, 3)
        v = [rng.randrange(3) for _ in range(3)]
        row = fmatrix.apply_row(v, m)
        prod = M(F3, [v]) .arr @ m.arr
        assert list(row) == [int(x) % 3 for x in
                             (prod[0] % 3)]


def _span(space):
    """Every vector of a subspace of F2^n, as a set of tuples."""
    return {tuple(np.array(c, dtype=np.int64) @ space.basis % 2)
            for c in itertools.product((0, 1), repeat=space.dim)}


def test_subspace_dimension_formula():
    rng = SplitMix64(99)
    for _ in range(40):
        rows_u = [[rng.randrange(2) for _ in range(5)]
                  for _ in range(rng.randrange(4) + 1)]
        rows_w = [[rng.randrange(2) for _ in range(5)]
                  for _ in range(rng.randrange(4) + 1)]
        u = fmatrix.Subspace.from_rows(F2, rows_u, 5)
        w = fmatrix.Subspace.from_rows(F2, rows_w, 5)
        s = fmatrix.Subspace.from_rows(F2, rows_u + rows_w, 5)
        # U meets W in 2^dim(U n W) vectors, counted by enumeration
        meet = _span(u) & _span(w)
        assert s.dim + (len(meet).bit_length() - 1) == u.dim + w.dim
        assert _span(u) | _span(w) <= _span(s)


def test_subspace_invariance():
    g = M(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap_plane = fmatrix.Subspace.from_rows(F2, [[1, 1, 0], [0, 0, 1]], 3)
    assert swap_plane.is_invariant(g)
    line = fmatrix.Subspace.from_rows(F2, [[1, 0, 0]], 3)
    assert not line.is_invariant(g)


def test_entries_beyond_int64_are_out_of_range():
    # the same ValueError as any other out-of-range entry, not numpy's
    # OverflowError
    for rows in ([[2 ** 70]], [[0, -2 ** 70]], [[1], [2 ** 64]]):
        with pytest.raises(ValueError, match="entry encoding out of range"):
            M(F2, rows)


def test_full_and_identity_helpers():
    assert fmatrix.image(fmatrix.identity(F2, 4)).dim == 4
    assert fmatrix.scalar_matrix(F3, 2, 2) == M(F3, [[2, 0], [0, 2]])
    assert fmatrix.diagonal(F3, [1, 2]) == M(F3, [[1, 0], [0, 2]])
    assert fmatrix.zeros(F3, 2).rank() == 0


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_char_poly_matches_sympy_charpoly(p):
    sympy = pytest.importorskip("sympy")
    F = ffield.make_field(p)
    rng = SplitMix64(0xC4A2 + p)

    def check(g):
        rows = [[int(x) for x in row] for row in g.arr]
        want = [int(c) % p for c in reversed(
            sympy.Matrix(rows).charpoly(sympy.Symbol("t")).all_coeffs())]
        assert fmatrix.char_poly(g).coeffs == want

    for _ in range(20):
        check(_random_matrix(F, rng, 1 + rng.randrange(6)))
    check(_random_matrix(F, rng, 16))

"""The single kernel path against naive oracles, on every field case:
prime, p = 2 extension, odd extension, and extension fields above the
exp/log table cap, whose entry products run one at a time in the field's
quotient ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stingray import _kernels, ffield, fmatrix, fpoly
from stingray._intmath import SplitMix64
from stingray.fmatrix import (DenseMatrix, _poly_at, block_diagonal,
                              char_poly, companion, identity, zeros)

import oracles

# GF(2^21), GF(3^13) and GF(2147483629^2) are above ffield.TABLE_CAP and
# multiply in their quotient rings; at p = 2147483629 each (p-1)^2
# product is just under 2^62, so _dot_mod sums one term at a time
FIELDS = [ffield.make_field(2), ffield.make_field(251),
          ffield.make_field(2, 3), ffield.make_field(3, 2),
          ffield.field_from_q(2 ** 21), ffield.field_from_q(3 ** 13),
          ffield.make_field(2147483629), ffield.make_field(2147483629, 2)]


@pytest.fixture(params=FIELDS, ids=lambda F: "GF(%d)" % F.q)
def field(request):
    return request.param


def _random(F, rng, rows, cols):
    return DenseMatrix(F, [[rng.randrange(F.q) for _ in range(cols)]
                           for _ in range(rows)])


def _random_invertible(F, rng, d):
    # a random matrix is invertible with probability above 1/4, so a
    # wrong rank, not bad luck, is what finds none in 200 draws
    for _ in range(200):
        A = _random(F, rng, d, d)
        if A.is_invertible():
            return A
    raise AssertionError("no invertible %dx%d matrix in 200 draws" % (d, d))


def _random_monic(F, rng, k):
    return fpoly.DensePoly(F, [rng.randrange(F.q) for _ in range(k)] + [1])


def _oracle_ops(F):
    mod = list(F.modulus) if F.modulus else None

    def add(x, y):
        return oracles.gf_add(x, y, F.p, F.a)

    def mul(x, y):
        return oracles.gf_mul(x, y, F.p, mod)

    return add, mul


def test_matmul_matches_triple_loop(field):
    F = field
    add, mul = _oracle_ops(F)
    rng = SplitMix64(20)
    for n, k, m in ((1, 1, 1), (3, 5, 2), (4, 4, 4)):
        A, B = _random(F, rng, n, k), _random(F, rng, k, m)
        want = [[0] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    want[i][j] = add(want[i][j],
                                     mul(int(A.arr[i, t]), int(B.arr[t, j])))
        assert (A * B).arr.tolist() == want


def test_elementwise_ops_match_oracle(field):
    F = field
    add, mul = _oracle_ops(F)
    rng = SplitMix64(21)
    A, B = _random(F, rng, 3, 4), _random(F, rng, 3, 4)
    Z = zeros(F, 3, 4)
    c = 1 + rng.randrange(F.q - 1)
    minus_one = F.p - 1

    def flat(arr):
        return arr.ravel().tolist()

    assert flat((-A).arr) == [mul(minus_one, x) for x in flat(A.arr)]
    # Z by Z reads the last entry of a tabled field's exp
    for X, Y in ((A, B), (A, -A), (A, Z), (Z, A), (Z, Z)):
        pairs = list(zip(flat(X.arr), flat(Y.arr)))
        assert flat((X + Y).arr) == [add(x, y) for x, y in pairs]
        assert flat((X - Y).arr) == [
            add(x, mul(minus_one, y)) for x, y in pairs]
        assert flat(_kernels.mul(F, X.arr, Y.arr)) == [
            mul(x, y) for x, y in pairs]
    assert flat(A.scale(c).arr) == [mul(c, x) for x in flat(A.arr)]
    assert A.scale(0) == Z


def test_dot_matches_oracle(field):
    # at p = 2147483629 the prime-field sum runs one product per chunk
    F = field
    add, mul = _oracle_ops(F)
    rng = SplitMix64(28)
    for k in (0, 1, 7):
        A = np.array([[rng.randrange(F.q) for _ in range(k)]
                      for _ in range(3)], dtype=np.int64).reshape(3, k)
        x = np.array([rng.randrange(F.q) for _ in range(k)], dtype=np.int64)
        want = []
        for row in A.tolist():
            s = 0
            for a, b in zip(row, x.tolist()):
                s = add(s, mul(a, b))
            want.append(s)
        assert _kernels.dot(F, A, x).tolist() == want


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_all_pairs_match_oracle(q):
    F = ffield.field_from_q(q)
    add, mul = _oracle_ops(F)
    xs = np.repeat(np.arange(q), q)
    ys = np.tile(np.arange(q), q)
    col, row = np.arange(q)[:, None], np.arange(q)[None, :]
    pairs = list(zip(xs.tolist(), ys.tolist()))
    want = {
        "add": [add(x, y) for x, y in pairs],
        "sub": [add(x, mul(F.p - 1, y)) for x, y in pairs],
        "mul": [mul(x, y) for x, y in pairs],
    }
    for name, want_op in want.items():
        scalar = getattr(F, name + "_enc")
        kernel = getattr(_kernels, name)
        assert [scalar(x, y) for x, y in pairs] == want_op
        assert kernel(F, xs, ys).tolist() == want_op
        assert kernel(F, col, row).ravel().tolist() == want_op
    assert [F.neg_enc(y) for y in range(q)] == want["sub"][:q]


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_untabled_product_all_pairs(q, monkeypatch):
    T = ffield.field_from_q(q)
    monkeypatch.setattr(ffield, "TABLE_CAP", 1)
    # the same field without exp/log tables, built directly, not registered
    F = ffield.FieldSpec(T.p, T.a, T.modulus)
    assert F._log is None and T._log is not None
    _, mul = _oracle_ops(F)
    xs = np.repeat(np.arange(q), q)
    ys = np.tile(np.arange(q), q)
    want = [mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert _kernels.mul(F, xs, ys).tolist() == want
    col, row = np.arange(q)[:, None], np.arange(q)[None, :]
    assert _kernels.mul(F, col, row).ravel().tolist() == want
    for y in range(q):
        assert _kernels.mul(F, np.arange(q), np.int64(y)).tolist() == \
            want[y::q]
    assert [F.mul_enc(x, y) for x in range(q) for y in range(q)] == want
    assert [F.inv_enc(x) for x in range(1, q)] == \
        [T.inv_enc(x) for x in range(1, q)]


@pytest.mark.parametrize("q", [4, 9, 2 ** 12, 3 ** 7, 251 ** 2, 2 ** 16])
def test_tables_match_ring_product(q, monkeypatch):
    # the tables are built by doubling, through prime-field matrix products;
    # each entry is the one before it times g in the untabled twin's ring
    T = ffield.field_from_q(q)
    monkeypatch.setattr(ffield, "TABLE_CAP", 1)
    F = ffield.FieldSpec(T.p, T.a, T.modulus)
    g = T.generator_enc()
    exp = T._exp[:q - 1].tolist()
    assert exp[0] == 1
    assert all(exp[i + 1] == F.mul_enc(exp[i], g) for i in range(q - 2))
    assert F.mul_enc(exp[-1], g) == 1
    assert T._log[T._exp[:q - 1]].tolist() == list(range(q - 1))


@pytest.mark.parametrize("p,a", [(2, 64), (251, 8)])
def test_scalar_ops_above_int64(p, a):
    # q >= 2^62: encodings outgrow int64 and the product runs on Python ints
    F = ffield.make_field(p, a)
    assert F.q >= 1 << 62
    mod = list(F.modulus)
    rng = SplitMix64(25)
    xs = [1 + rng.randrange(F.q - 1) for _ in range(12)]
    for x, y in zip(xs, xs[1:]):
        assert F.mul_enc(x, y) == oracles.gf_mul(x, y, p, mod)
    for x in xs[:4]:
        assert oracles.gf_mul(x, F.inv_enc(x), p, mod) == 1
        want = 1
        for n in range(6):
            assert F.pow_enc(x, n) == want
            want = oracles.gf_mul(want, x, p, mod)
        assert F.pow_enc(x, F.q - 1) == 1


def test_inverse(field):
    F = field
    rng = SplitMix64(22)
    for d in (1, 3, 5):
        A = _random_invertible(F, rng, d)
        assert A * A.inverse() == identity(F, d)
        assert A.inverse() * A == identity(F, d)


def _reduction_cases(F, rng):
    """(label, rows, limit) of every shape: empty either way, 1 x 1, wide,
    tall, zero, rank-deficient, and [M | I] with M invertible or not."""
    def rand(m, n):
        return [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]

    dup = rand(3, 5)
    dup[1:1] = [list(dup[2])]
    dup.append(list(dup[0]))
    zcol = rand(5, 4)
    for row in zcol:
        row[1] = 0
    M = _random_invertible(F, rng, 4).arr.tolist()
    S = rand(3, 4)
    S.append([F.add_enc(x, y) for x, y in zip(S[0], S[2])])
    yield "0x3", np.zeros((0, 3), dtype=np.int64), None
    yield "3x0", np.zeros((3, 0), dtype=np.int64), None
    yield "1x1", rand(1, 1), None
    yield "1x1 zero", [[0]], None
    yield "wide", rand(3, 7), None
    yield "tall", rand(7, 3), None
    yield "zero", [[0] * 4 for _ in range(3)], None
    yield "duplicated rows", dup, None
    yield "zero column", zcol, None
    for label, A in (("[M | I]", M), ("[S | I], S singular", S)):
        yield label, [row + [int(i == j) for j in range(4)]
                      for i, row in enumerate(A)], 4
    yield "limit inside", rand(4, 6), 3


def test_rref_and_rank_match_gauss_jordan(field):
    F = field
    add, mul = _oracle_ops(F)
    rng = SplitMix64(30)
    for label, rows, limit in _reduction_cases(F, rng):
        arr = np.array(rows, dtype=np.int64)
        want = oracles.gauss_jordan(arr.tolist(), F.p, F.q, add, mul,
                                    limit)
        R, piv, rank = _kernels.rref(F, arr, limit)
        assert (R.dtype, R.shape) == (np.int64, arr.shape), label
        assert (R.tolist(), piv, rank) == want, label
        if limit is None:
            assert DenseMatrix(F, arr).rank() == rank, label


def test_rank_runs_the_forward_pass_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank must not back-substitute or unpack")

    rng = SplitMix64(31)
    for F in FIELDS:
        add, mul = _oracle_ops(F)
        for m, n, r in ((5, 5, 5), (4, 6, 2), (6, 3, 3)):
            A = _random(F, rng, m, r) * _random(F, rng, r, n)
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "rref", refuse)
                patch.setattr(fpoly.Lanes, "entries", refuse)
                got = A.rank()
            assert got == oracles.gauss_jordan(
                A.arr.tolist(), F.p, F.q, add, mul)[2]


RANK_FIELDS = [ffield.make_field(2), ffield.make_field(3, 2),
               ffield.make_field(251)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RANK_FIELDS), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.integers(0, 6), st.integers(0, 1 << 30))
def test_rank_of_transpose_and_product(F, m, k, n, r, seed):
    # below min(m, k), A = X Y with inner dimension r, of rank at most r
    rng = SplitMix64(seed)
    if r >= min(m, k):
        A, bound = _random(F, rng, m, k), min(m, k)
    elif r:
        A, bound = _random(F, rng, m, r) * _random(F, rng, r, k), r
    else:
        A, bound = zeros(F, m, k), 0
    B = _random(F, rng, k, n)
    assert A.rank() == A.transpose().rank() <= bound
    assert (A * B).rank() <= min(A.rank(), B.rank())


def test_kernel_is_left_null_space(field):
    F = field
    rng = SplitMix64(29)
    for n, m, r in ((3, 3, 0), (4, 3, 2), (3, 5, 3), (5, 4, 1), (2, 2, 2)):
        g = _random(F, rng, n, r) * _random(F, rng, r, m) if r else \
            zeros(F, n, m)
        K = fmatrix.kernel(g)
        assert K.dim == n - g.rank()
        assert not (DenseMatrix(F, K.basis) * g).arr.any()
        assert fmatrix.Subspace.from_rows(F, K.basis, n).basis.tolist() == \
            K.basis.tolist()


def test_char_poly_of_companion(field):
    F = field
    rng = SplitMix64(23)
    for k in (1, 2, 5):
        f = fpoly.DensePoly(F, [rng.randrange(F.q) for _ in range(k)] + [1])
        assert char_poly(companion(f)) == f


@pytest.mark.parametrize("d", [1, 2, 3, 16, 32])
def test_char_poly_of_conjugated_blocks(field, d):
    # P blockdiag(companion(f1), companion(f2), I_k) P^-1 is dense and has
    # characteristic polynomial f1 f2 (t - 1)^k
    F = field
    rng = SplitMix64(26 + d)
    k = d // 4
    n1 = (d - k + 1) // 2
    fs = [_random_monic(F, rng, n) for n in (n1, d - k - n1) if n]
    want = fpoly.DensePoly(F, [F.neg_enc(1), 1]) ** k
    for f in fs:
        want = want * f
    B = block_diagonal([companion(f) for f in fs] + [identity(F, k)])
    P = _random_invertible(F, rng, d)
    assert char_poly(P * B * P.inverse()) == want


@pytest.mark.parametrize("d", [3, 8, 16])
def test_char_poly_of_permuted_triangular(field, d):
    # Q T Q^-1, T sparse upper triangular and Q a permutation, has
    # characteristic polynomial prod (t - T_ii).  With Q fixing 0, column 0
    # is zero below the diagonal and the reduction skips it; with Q sending
    # 0 to d-1, its subdiagonal entry is 0 and the next one is not, so the
    # reduction swaps.  Later columns meet both cases at random.
    F = field
    rng = SplitMix64(27 + d)
    for first in (0, d - 1):
        T = np.triu(np.array(
            [[rng.randrange(F.q) if rng.randrange(3) == 0 else 0
              for _ in range(d)] for _ in range(d)], dtype=np.int64))
        np.fill_diagonal(T, [rng.randrange(F.q) for _ in range(d)])
        perm = [i for i in range(d) if i != first]
        rng.shuffle(perm)
        perm = [first] + perm
        T[perm[1], d - 1] = 0
        T[perm[2], d - 1] = 1
        M = T[np.ix_(perm, perm)]
        if first == 0:
            assert not M[1:, 0].any()
        else:
            assert M[1, 0] == 0 and M[2, 0] == 1
        want = fpoly.DensePoly(F, [1])
        for c in np.diag(T).tolist():
            want = want * fpoly.DensePoly(F, [F.neg_enc(c), 1])
        assert char_poly(DenseMatrix(F, M)) == want


def test_cayley_hamilton(field):
    F = field
    rng = SplitMix64(24)
    for d in (1, 2, 4, 16):
        g = _random(F, rng, d, d)
        assert _poly_at(char_poly(g), g) == zeros(F, d)


def test_numpy_backend_full_stack():
    from stingray import classify, fmatrix
    assert _kernels.backend() == "numpy"
    g = classify.construct_stingray(3, 8, r=5)
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.STINGRAY and cls.e == 4
    assert fmatrix.matrix_order(g) == 5

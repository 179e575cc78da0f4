"""The single kernel path against naive oracles, on every field case:
prime, p = 2 extension, odd extension, and extension fields above the
exp/log table cap, which multiply through FieldSpec.mul_enc."""

import pytest

from stingray import _kernels, ffield, fpoly
from stingray._intmath import SplitMix64
from stingray.fmatrix import (DenseMatrix, _poly_at, char_poly, companion,
                              identity, zeros)

import oracles

# the last two are above ffield.TABLE_CAP and have no exp/log tables
FIELDS = [ffield.make_field(2), ffield.make_field(251),
          ffield.make_field(2, 3), ffield.make_field(3, 2),
          ffield.field_from_q(2 ** 21), ffield.field_from_q(3 ** 13)]


@pytest.fixture(params=FIELDS, ids=lambda F: "GF(%d)" % F.q)
def field(request):
    return request.param


def _random(F, rng, rows, cols):
    return DenseMatrix(F, [[rng.randrange(F.q) for _ in range(cols)]
                           for _ in range(rows)])


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
    c = 1 + rng.randrange(F.q - 1)
    a, b = A.arr.ravel().tolist(), B.arr.ravel().tolist()
    minus_one = F.p - 1
    assert (A + B).arr.ravel().tolist() == [add(x, y) for x, y in zip(a, b)]
    assert (A - B).arr.ravel().tolist() == [
        add(x, mul(minus_one, y)) for x, y in zip(a, b)]
    assert A.scale(c).arr.ravel().tolist() == [mul(c, x) for x in a]
    assert A.scale(0) == zeros(F, 3, 4)


def test_inverse(field):
    F = field
    rng = SplitMix64(22)
    for d in (1, 3, 5):
        A = _random(F, rng, d, d)
        while not A.is_invertible():
            A = _random(F, rng, d, d)
        assert A * A.inverse() == identity(F, d)
        assert A.inverse() * A == identity(F, d)


def test_char_poly_of_companion(field):
    F = field
    rng = SplitMix64(23)
    for k in (1, 2, 5):
        f = fpoly.DensePoly(F, [rng.randrange(F.q) for _ in range(k)] + [1])
        assert char_poly(companion(f)) == f


def test_cayley_hamilton(field):
    F = field
    rng = SplitMix64(24)
    for d in (1, 2, 4):
        g = _random(F, rng, d, d)
        assert _poly_at(char_poly(g), g) == zeros(F, d)


def test_numpy_backend_full_stack():
    from stingray import classify, fmatrix
    assert _kernels.backend() == "numpy"
    g = classify.construct_stingray(3, 8, r=5)
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.STINGRAY and cls.e == 4
    assert fmatrix.matrix_order(g) == 5

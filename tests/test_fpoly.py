import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stingray import ffield, fpoly
from stingray._intmath import SplitMix64
from stingray.errors import DivisionByZero

import oracles

F2 = ffield.make_field(2)
F3 = ffield.make_field(3)
F4 = ffield.make_field(2, 2)
F5 = ffield.make_field(5)


def P(F, *coeffs):
    return fpoly.DensePoly(F, list(coeffs))


def _random_poly(F, rng, deg):
    coeffs = [rng.randrange(F.q) for _ in range(deg)]
    coeffs.append(rng.randrange(F.q - 1) + 1)
    return fpoly.DensePoly(F, coeffs)


def test_phi5_irreducible_over_f2():
    assert fpoly.is_irreducible(P(F2, 1, 1, 1, 1, 1))


def test_t5_minus_1_factorization_over_f2():
    f = P(F2, 1, 0, 0, 0, 0, 1)          # t^5 + 1 = t^5 - 1
    fac = fpoly.factor(f)
    assert fac.unit == 1
    assert [(list(g.coeffs), m) for g, m in fac.factors] == \
        [([1, 1], 1), ([1, 1, 1, 1, 1], 1)]


def test_is_irreducible_matches_brute_force():
    # exhaustive over F2 to degree 6 and F3 to degree 4
    for F, p, maxdeg in ((F2, 2, 6), (F3, 3, 4)):
        for deg in range(1, maxdeg + 1):
            for tail in itertools.product(range(p), repeat=deg):
                coeffs = list(tail) + [1]
                got = fpoly.is_irreducible(fpoly.DensePoly(F, coeffs))
                want = oracles.brute_irreducible(tuple(coeffs), p)
                assert got == want, coeffs


def test_irreducible_counts_match_necklace_formula():
    # number of monic irreducible cubics over F_q is (q^3 - q)/3
    for F in (F2, F3, F4):
        count = 0
        for tail in itertools.product(range(F.q), repeat=3):
            if fpoly.is_irreducible(fpoly.DensePoly(F, list(tail) + [1])):
                count += 1
        assert count == (F.q ** 3 - F.q) // 3


@settings(max_examples=80, deadline=None)
@given(F=st.sampled_from([F2, F3, F4, F5]), seed=st.integers(0, 2 ** 32),
       deg=st.integers(1, 8))
def test_factor_expand_round_trip(F, seed, deg):
    f = _random_poly(F, SplitMix64(seed), deg)
    fac = fpoly.factor(f)
    assert fac.expand(F) == f
    for g, m in fac.factors:
        assert fpoly.is_irreducible(g)
        assert m >= 1
        assert g.coeffs[-1] == 1          # monic


def test_factor_ordering_canonical():
    f = P(F2, 1, 1) * P(F2, 1, 1, 1) * P(F2, 1, 1, 1) * P(F2, 1, 1, 0, 1)
    fac = fpoly.factor(f)
    keys = [(g.degree, list(g.coeffs)) for g, _ in fac.factors]
    assert keys == sorted(keys)
    assert fac.factors == fpoly.factor(f).factors   # deterministic


def test_division_and_gcd_laws():
    rng = SplitMix64(2024)
    for _ in range(60):
        F = (F2, F3, F5)[rng.randrange(3)]
        f = _random_poly(F, rng, rng.randrange(6) + 1)
        g = _random_poly(F, rng, rng.randrange(4) + 1)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        d = fpoly.gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert d.coeffs[-1] == 1
        m = fpoly.lcm(f, g)
        assert (m % f).is_zero() and (m % g).is_zero()
        assert m.degree == f.degree + g.degree - d.degree


def test_gcd_with_zero_is_monic_argument():
    f = P(F3, 2, 1, 2)
    assert fpoly.gcd(f, P(F3, 0)) == f.monic()


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P(F2, 1, 1), P(F2, 0))


def test_public_constructor_converts_and_checks_every_coefficient():
    f = fpoly.DensePoly(F5, [np.int64(3), np.int32(0), np.int64(4), 0, 0])
    assert f.coeffs == [3, 0, 4] and all(type(c) is int for c in f.coeffs)
    assert f == P(F5, 3, 0, 4) and hash(f) == hash(P(F5, 3, 0, 4))
    assert fpoly.DensePoly(F5, np.array([0, 0])).is_zero()
    for bad in ([5], [1, -1], [np.int64(7)], [1 << 70]):
        with pytest.raises(ValueError):
            fpoly.DensePoly(F5, bad)
    # internal results are built from checked coefficients and stay ints
    g = fpoly.DensePoly(F5, [np.int64(2), np.int64(1)])
    for h in (f + g, f - g, -f, f * g, divmod(f, g)[0], divmod(f, g)[1],
              f.scale(np.int64(3) % 5), f.derivative(), f.monic()):
        assert all(type(c) is int and 0 <= c < 5 for c in h.coeffs)
        assert not h.coeffs or h.coeffs[-1] != 0


def _naive_powmod(f, e, mod):
    """Square-and-multiply on DensePoly products and remainders."""
    result = fpoly.constant(f.field, 1) % mod
    base = f % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


# prime, tabled extension, and two extensions above ffield.TABLE_CAP
POWMOD_FIELDS = [F2, ffield.make_field(3, 2), ffield.make_field(251),
                 ffield.field_from_q(2 ** 21), ffield.field_from_q(3 ** 13)]


def test_powmod_matches_naive():
    rng = SplitMix64(7)
    for F in POWMOD_FIELDS:
        for i in range(8):
            k = 1 + i % 4                     # degree-1 moduli included
            mod = _random_poly(F, rng, k)
            if F.q > 2 and i % 2:
                mod = mod.scale(F.p - 1)      # not monic
            f = _random_poly(F, rng, rng.randrange(2 * k + 1))
            if i % 3 == 0:
                f = fpoly.DensePoly(F, [])
            for e in (0, 1, 2 + rng.randrange(6), rng.randrange(40),
                      F.q ** k + rng.randrange(F.q ** k)):
                got = fpoly.powmod(f, e, mod)
                assert got == _naive_powmod(f, e, mod), (F, mod, f, e)
                assert got.degree < mod.degree
                if e < 8:
                    assert got == (f ** e) % mod


@pytest.mark.parametrize("p,a", [(2, 64), (251, 8)])
def test_powmod_above_int64(p, a):
    # q >= 2^62: coefficient encodings are Python ints, digits int64
    F = ffield.make_field(p, a)
    rng = SplitMix64(a)
    mod = _random_poly(F, rng, 2)
    f = _random_poly(F, rng, 3)
    for e in (0, 1, 37, (1 << 20) + rng.randrange(1 << 20)):
        assert fpoly.powmod(f, e, mod) == _naive_powmod(f, e, mod)


def test_powmod_modulo_a_unit_or_zero():
    f = P(F3, 1, 2)
    assert fpoly.powmod(f, 5, P(F3, 2)).is_zero()
    with pytest.raises(DivisionByZero):
        fpoly.powmod(f, 5, P(F3))


# packed products: p = 2 with a = 1 and a > 1, odd p with a = 1 and a > 1,
# and lanes above 64 bits (p near 2^31)
PACKED_FIELDS = [F2, F3, F4, ffield.make_field(3, 2), ffield.make_field(2, 6),
                 ffield.make_field(251), ffield.make_field(2147483629),
                 ffield.make_field(2147483629, 2)]


@pytest.mark.parametrize("k", [1, 2, 3, 16, 48, 256])
@pytest.mark.parametrize("F", PACKED_FIELDS, ids=repr)
def test_quotient_ring_product_matches_schoolbook(F, k):
    rng = SplitMix64(F.q * 1000 + k)
    mod = _random_poly(F, rng, k).monic()
    if (PACKED_FIELDS.index(F) + k) % 2:
        mod = mod - fpoly.constant(F, mod.coeffs[0])      # f(0) = 0
    R = fpoly.QuotientRing(mod)
    g, h = (_random_poly(F, rng, k - 1) for _ in range(2))
    x, y = R.digits(g), R.digits(h)
    assert R.poly(x) == g and R.poly(y) == h
    n = sum(c * F.q ** i for i, c in enumerate(g.coeffs))
    assert R.pack(n) == x and R.unpack(x) == n
    assert R.poly(R.mul(x, y)) == g * h % mod, (F, mod)
    assert R.mul(x, R.digits(fpoly.DensePoly(F, []))) == 0
    assert R.mul(x, 1) == x
    # every digit p - 1 in both factors and in -f: the largest lane values
    top = fpoly.DensePoly(F, [F.q - 1] * k)
    mod = fpoly.DensePoly(F, [(F.q - 1) // (F.p - 1)] * k + [1])
    R = fpoly.QuotientRing(mod)
    x = R.digits(top)
    assert R.poly(R.mul(x, x)) == top * top % mod
    assert R.poly(R.sub(0, x)) == -top


def test_rings_of_one_field_and_degree_share_their_layout():
    rng = SplitMix64(12)
    for F in PACKED_FIELDS:
        f, g = (_random_poly(F, rng, 5).monic() for _ in range(2))
        R, S = fpoly.QuotientRing(f), fpoly.QuotientRing(g)
        assert R.lanes is S.lanes is fpoly.lanes(F, 5, 9)
        assert fpoly.QuotientRing(_random_poly(F, rng, 4).monic()).lanes \
            is not R.lanes


def test_lanes_row_and_entries_place_digit_s_of_entry_j_in_its_lane():
    rng = SplitMix64(13)
    for F in PACKED_FIELDS:
        for k, n in ((3, 5), (1, 7)):
            L = fpoly.lanes(F, k, n)
            cs = [F.q - 1, 0] + [rng.randrange(F.q) for _ in range(n - 2)]
            x = L.row(cs)
            a = F.a
            lane = [(2 * a - 1) * j + s for j in range(n) for s in range(a)]
            assert x == sum(c // F.p ** s % F.p << L.b * lane[j * a + s]
                            for j, c in enumerate(cs) for s in range(a))
            assert L.entries(x, n) == cs
            assert L.entries(x, 2) == cs[:2]
        # in the row layout lanes(F, 1, 7): 1/c times x, and x - c x
        e = cs[-1] or 1
        c = L.row([e])
        assert L.entries(L.reduce(L.inv(c) * x), n) == [
            F.mul_enc(F.inv_enc(e), y) for y in cs]
        assert L.entries(L.reduce(x + L.neg(c) * x), n) == [
            F.sub_enc(y, F.mul_enc(e, y)) for y in cs]


@pytest.mark.parametrize("k", [1, 16, 256])
@pytest.mark.parametrize("F", [F for F in PACKED_FIELDS if F.p > 2], ids=repr)
def test_quotient_ring_lane_mod_is_exact_to_the_lane_bound(F, k):
    # a product's lanes are at most 2k a (p - 1)^2 p^(a-1) after its fold
    R = fpoly.QuotientRing(fpoly.DensePoly(F, [1] * k + [1]))
    bound = 2 * k * F.a * (F.p - 1) ** 2 * F.p ** (F.a - 1)
    rng = SplitMix64(k)
    lanes = [bound - i % 5 if i % 3 else rng.randrange(bound + 1)
             for i in range((2 * k - 1) * (2 * F.a - 1))]
    b = R.lanes.b
    x = sum(v << b * i for i, v in enumerate(lanes))
    assert R.lanes._mod(x) == sum(v % F.p << b * i
                                  for i, v in enumerate(lanes))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_ring_pow_matches_naive(data):
    F = data.draw(st.sampled_from(PACKED_FIELDS), label="field")
    k = data.draw(st.sampled_from([1, 2, 3, 16]), label="k")
    coeff = st.integers(0, F.q - 1)
    mod = fpoly.DensePoly(F, data.draw(st.lists(coeff, min_size=k,
                                                max_size=k)) + [1])
    g = fpoly.DensePoly(F, data.draw(st.lists(coeff, max_size=k)))
    e = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 1 << 80)),
                  label="e")
    R = fpoly.QuotientRing(mod)
    x = R.pow(R.digits(g), e)
    assert R.poly(x) == _naive_powmod(g, e, mod)
    assert R.digits(R.poly(x)) == x
    assert (x == 1) == (R.poly(x) == fpoly.constant(F, 1))


def test_is_irreducible_builds_one_quotient_ring(monkeypatch):
    built = []

    class Counting(fpoly.QuotientRing):
        def __init__(self, f):
            built.append(tuple(f.coeffs))
            super().__init__(f)

    monkeypatch.setattr(fpoly, "QuotientRing", Counting)
    F9 = ffield.make_field(3, 2)
    rng = SplitMix64(11)
    for F, n in ((F2, 8), (F3, 6), (F4, 5), (F9, 4), (F2, 12)):
        for _ in range(3):
            f = _random_poly(F, rng, n).monic()
            built.clear()
            fpoly.is_irreducible(f)
            assert built == [tuple(f.coeffs)]


def test_is_irreducible_stops_at_the_first_factor_degree(monkeypatch):
    # at degree 11 and 12 a block is isqrt(n/2) = 2 Frobenius steps with
    # one gcd: t^11 + t^2 + 1 is proved irreducible after floor(11/2) = 5
    # steps and 3 gcds, and (t + 1)g stops after its first block, whose
    # gcd t + 1 is one irreducible and needs no refinement
    steps, gcds = [], []
    pow_, gcd = fpoly.QuotientRing.pow, fpoly.gcd
    monkeypatch.setattr(fpoly.QuotientRing, "pow",
                        lambda R, x, e: steps.append(e) or pow_(R, x, e))
    monkeypatch.setattr(fpoly, "gcd",
                        lambda f, g: gcds.append(g) or gcd(f, g))
    g = P(F2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)      # t^11 + t^2 + 1
    assert fpoly.is_irreducible(g)
    assert (len(steps), len(gcds)) == (5, 3)
    steps.clear()
    gcds.clear()
    assert not fpoly.is_irreducible(P(F2, 1, 1) * g)
    assert (len(steps), len(gcds)) == (2, 1)


@pytest.mark.parametrize("p", [2, 3, 251])
def test_is_irreducible_matches_sympy_galoistools(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    F = ffield.make_field(p)
    rng = SplitMix64(0xBE0 + p)
    found = {}
    for n in (8, 16, 48):
        # random draws until four are irreducible; sympy sees those, the
        # first four reducible ones, and products of irreducibles of
        # degree n/2 or n/3, which have no smaller factor
        irreducible, reducible = [], []
        for _ in range(40 * n):
            f = _random_poly(F, rng, n).monic()
            (irreducible if fpoly.is_irreducible(f) else reducible).append(f)
            if len(irreducible) == 4:
                break
        assert len(irreducible) == 4 and len(reducible) >= 4
        found[n] = irreducible
        reducible = reducible[:4]
        if n == 16:
            a, b = found[8][:2]
            reducible += [a * b, a * a]
        if n == 48:
            a, b, h = found[16][:3]
            reducible += [a * b * h, a * a * a]
        for f in irreducible + reducible:
            assert f.degree == n
            want = gf_irreducible_p([int(c) for c in reversed(f.coeffs)],
                                    p, ZZ)
            assert fpoly.is_irreducible(f) == want == (f in irreducible), f


def _brute_root_order(F, f):
    """Order of t modulo monic f, multiplying by t in tests/oracles
    arithmetic until the power is 1 again."""
    mod = list(F.modulus) if F.modulus else None
    k = f.degree
    one = [1] + [0] * (k - 1)
    cur = list(one)
    for n in range(1, F.q ** k):
        top = cur[-1]
        cur = [0] + cur[:-1]
        minus_top = oracles.gf_mul(F.p - 1, top, F.p, mod)
        cur = [oracles.gf_add(c, oracles.gf_mul(minus_top, fc, F.p, mod),
                              F.p, F.a)
               for c, fc in zip(cur, f.coeffs)]
        if cur == one:
            return n
    raise AssertionError("t is not a unit modulo %r" % (f,))


def _irreducible_count(q, k):
    """Monic irreducibles of degree k over GF(q): (1/k) sum mu(d) q^(k/d)."""
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    return sum(mu[d] * q ** (k // d) for d in range(1, k + 1)
               if k % d == 0) // k


def test_root_order_matches_brute_force():
    F9 = ffield.make_field(3, 2)
    for F, maxdeg in ((F2, 4), (F3, 4), (F4, 4), (F9, 2)):
        for k in range(1, maxdeg + 1):
            irreducible = [
                f for f in (fpoly.DensePoly(F, list(tail) + [1])
                            for tail in itertools.product(range(F.q), repeat=k))
                if fpoly.is_irreducible(f)]
            assert len(irreducible) == _irreducible_count(F.q, k)
            for f in irreducible:
                if f.coeffs[0] == 0:         # f = t
                    continue
                assert fpoly.root_order_in_quotient(f) == \
                    _brute_root_order(F, f), f


def test_root_order_with_many_repeated_primes():
    # 251^2 - 1 = 2^3 3^2 5^3 7 and 9^3 - 1 = 2^3 7 13: the descent splits
    # four and three primes, and its leaves strip repeated ones.  Over
    # GF(251), f is the minimal polynomial t^2 - (b + b^251) t + b^252 of
    # an element b of GF(251^2) of each chosen order m (m not dividing 250,
    # so f is irreducible); the brute force takes m steps.
    F = ffield.make_field(251)
    K = ffield.make_field(251, 2)
    gen = K.generator_enc()
    for m in (2 ** 3 * 3 ** 2 * 7, 3 ** 2 * 5 ** 3, 2 ** 3 * 5 ** 3 * 7,
              2 ** 2 * 3 * 5 ** 2 * 7, 2 * 3 ** 2 * 5 * 7, 2 ** 3 * 3,
              3 * 5, 7, 63, 125 * 3, 2 ** 3 * 3 ** 2 * 5 ** 3):
        b = K.pow_enc(gen, (K.q - 1) // m)
        trace = K.add_enc(b, K.pow_enc(b, 251))
        norm = K.pow_enc(b, 252)
        assert trace < 251 and norm < 251
        f = fpoly.DensePoly(F, [norm, F.neg_enc(trace), 1])
        assert fpoly.is_irreducible(f)
        assert fpoly.root_order_in_quotient(f) == m
        assert _brute_root_order(F, f) == m
    F9 = ffield.make_field(3, 2)
    rng = SplitMix64(23)
    orders = []
    while len(orders) < 24:
        f = fpoly.DensePoly(F9, [rng.randrange(8) + 1, rng.randrange(9),
                                 rng.randrange(9), 1])
        if fpoly.is_irreducible(f):
            orders.append(fpoly.root_order_in_quotient(f))
            assert orders[-1] == _brute_root_order(F9, f), f
    assert len(set(orders)) >= 8


def test_roots_of_product_of_linears():
    f = fpoly.DensePoly(F5, [1])
    for r in (1, 2, 2, 4):
        f = f * fpoly.DensePoly(F5, [F5.neg_enc(r), 1])
    assert sorted(fpoly.roots(f)) == [1, 2, 4]
    assert f.degree == 4
    for enc in (1, 2, 4):
        assert f.eval_enc(enc) == 0
    assert f.eval_enc(3) != 0


def test_cyclotomic_quotient_factor_degrees():
    # every irreducible factor of (t^r-1)/(t-1) has degree ord_r(q)
    for F, rs in ((F2, (3, 5, 7, 11, 17)), (F3, (5, 7, 13)), (F4, (3, 5, 7))):
        for r in rs:
            f = fpoly.cyclotomic_quotient(F, r)
            assert f.degree == r - 1
            e = oracles.mult_order(F.q, r)
            fac = fpoly.factor(f)
            assert all(g.degree == e for g, _ in fac.factors)
            assert sum(m for _, m in fac.factors) * e == r - 1
            assert all(m == 1 for _, m in fac.factors)


def test_root_order_in_quotient():
    # companion roots of the quartic factor of t^5-1 over F2 have order 5
    f = fpoly.cyclotomic_quotient(F2, 5)
    assert fpoly.root_order_in_quotient(f) == 5
    assert fpoly.root_order_in_quotient(P(F2, 1, 1, 1)) == 3


def test_squarefree_decomposition():
    f = P(F3, 1, 1) ** 2 * P(F3, 2, 1)
    parts = fpoly.squarefree_decomposition(f.monic())
    assert sorted(m for _, m in parts) == [1, 2]
    prod = fpoly.constant(F3, 1)
    for g, m in parts:
        prod = prod * g ** m
    assert prod == f.monic()


def test_derivative_and_eval():
    f = P(F5, 1, 2, 3)                    # 1 + 2t + 3t^2
    assert f.derivative() == P(F5, 2, 6 % 5)
    assert f.eval_enc(2) == (1 + 4 + 12) % 5


def test_factor_cached_same_object():
    f = P(F2, 1, 1, 1, 1, 1)
    assert fpoly.factor_cached(f) is fpoly.factor_cached(f)


def _irreducible(F, rng, n):
    while True:
        f = _random_poly(F, rng, n).monic()
        if fpoly.is_irreducible(f):
            return f


def _shape_products(F, rng):
    """(factor degrees, product of random monic irreducibles of those
    degrees): degrees that share a block of the distinct-degree split
    (isqrt(n/2) Frobenius steps: 2 at n = 11, 3 at n = 21, 4 at n = 48),
    a part of two factors of one degree, an irreducible of degree 48 and a
    square."""
    for shape in ((3, 4, 4), (5, 6, 10), (7, 7), (24, 24), (48,)):
        f = P(F, 1)
        for n in shape:
            f = f * _irreducible(F, rng, n)
        yield shape, f
    a = _irreducible(F, rng, 12)
    yield (5, 12, 12), a * a * _irreducible(F, rng, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_factor_matches_sympy_galoistools(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor
    F = ffield.make_field(p)
    rng = SplitMix64(0xFAC7 + p)
    polys = []
    for i in range(40):
        if i % 2:
            f = _random_poly(F, rng, 1 + rng.randrange(12))
        else:
            # a repeated factor exercises the squarefree split
            h = _random_poly(F, rng, 1 + rng.randrange(3))
            f = _random_poly(F, rng, rng.randrange(7)) * h * h
        polys.append(f)
    polys += [f for _, f in _shape_products(F, rng)]
    for f in polys:
        unit, facs = gf_factor([int(c) for c in reversed(f.coeffs)], p, ZZ)
        want = sorted((tuple(int(c) for c in reversed(g)), k)
                      for g, k in facs)
        got = fpoly.factor(f)
        assert got.unit == unit % p
        assert sorted((tuple(g.coeffs), k) for g, k in got.factors) == want


@pytest.mark.parametrize("q, digest", [(4, "6d56262cc9c96bf1"),
                                       (9, "ff91a457627afa5a")])
def test_factor_of_shape_products_over_extension_fields(q, digest):
    # sympy's gf_factor takes prime fields only; here the factors are
    # checked by expansion and irreducibility, and their list against a
    # seeded digest of the one-gcd-per-degree split this one replaced
    F = ffield.field_from_q(q)
    rng = SplitMix64(0xB10C + q)
    h = hashlib.sha256()
    for shape, f in _shape_products(F, rng):
        got = fpoly.factor(f)
        assert got.unit == 1 and got.expand(F) == f
        assert sorted(g.degree for g, m in got.factors
                      for _ in range(m)) == sorted(shape)
        assert all(fpoly.is_irreducible(g) for g, _ in got.factors)
        h.update(repr([(g.coeffs, m) for g, m in got.factors]).encode())
    assert h.hexdigest()[:16] == digest

import itertools

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


def test_powmod_matches_naive():
    rng = SplitMix64(7)
    for _ in range(30):
        F = (F2, F3, F4)[rng.randrange(3)]
        f = _random_poly(F, rng, rng.randrange(3) + 1)
        mod = _random_poly(F, rng, rng.randrange(3) + 2)
        e = rng.randrange(40)
        assert fpoly.powmod(f, e, mod) == (f ** e) % mod


def test_from_roots_and_roots_round_trip():
    f = fpoly.from_roots(F5, [1, 2, 2, 4])
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


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_factor_matches_sympy_galoistools(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor
    F = ffield.make_field(p)
    rng = SplitMix64(0xFAC7 + p)
    for i in range(40):
        if i % 2:
            f = _random_poly(F, rng, 1 + rng.randrange(12))
        else:
            # a repeated factor exercises the squarefree split
            h = _random_poly(F, rng, 1 + rng.randrange(3))
            f = _random_poly(F, rng, rng.randrange(7)) * h * h
        unit, facs = gf_factor([int(c) for c in reversed(f.coeffs)], p, ZZ)
        want = sorted((tuple(int(c) for c in reversed(g)), k)
                      for g, k in facs)
        got = fpoly.factor(f)
        assert got.unit == unit % p
        assert sorted((tuple(g.coeffs), k) for g, k in got.factors) == want

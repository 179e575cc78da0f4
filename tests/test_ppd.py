import functools

import pytest

from stingray import ppd
from stingray.errors import (CompositeQ, NotCoprime, NotPrime,
                             StingrayUsageError, TooLarge)

import oracles


def test_frozen_small_tables():
    assert ppd.primitive_prime_divisors(2, 4).primes == ((5, 1),)
    assert ppd.primitive_prime_divisors(2, 6).is_empty
    assert ppd.primitive_prime_divisors(3, 5).primes == ((11, 2),)
    # 2^10-1 = 3*11*31 but ord_31(2) = 5, so only 11 survives
    assert ppd.primitive_prime_divisors(2, 10).prime_list() == [11]
    assert ppd.primitive_prime_divisors(2, 11).prime_list() == [23, 89]


def test_zsygmondy_exceptions_q_le_32():
    empty = set()
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]:
        for e in range(2, 21):
            if ppd.primitive_prime_divisors(q, e).is_empty:
                empty.add((q, e))
    assert empty == {(2, 6), (3, 2), (7, 2), (31, 2)}


def test_agreement_with_trial_division_oracle():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for e in range(1, 11):
            got = ppd.primitive_prime_divisors(q, e)
            assert got.prime_list() == oracles.brute_ppd(q, e), (q, e)
            assert got.certified


def test_multiplicity_is_full():
    for q, e in ((2, 4), (3, 5), (2, 11), (5, 6), (4, 9)):
        res = ppd.primitive_prime_divisors(q, e)
        n = q ** e - 1
        for r, m in res.primes:
            assert n % r ** m == 0
            assert n % r ** (m + 1) != 0


def test_congruence_r_equals_1_mod_e():
    for q in (2, 3, 4, 5, 7, 9, 16, 25, 32):
        for e in range(2, 13):
            for r in ppd.primitive_prime_divisors(q, e).prime_list():
                assert r % e == 1, (q, e, r)
                assert r > e


def test_e_equals_one_path():
    assert ppd.primitive_prime_divisors(7, 1).prime_list() == [2, 3]
    assert ppd.primitive_prime_divisors(2, 1).is_empty
    assert ppd.primitive_prime_divisors(4, 1).prime_list() == [3]


def test_multiplicative_order():
    assert ppd.multiplicative_order(11, 3) == 5
    assert ppd.multiplicative_order(5, 2) == 4
    assert ppd.multiplicative_order(7, 2) == 3
    for r in (3, 5, 7, 11, 13, 17):
        for q in (2, 3, 4, 5):
            if q % r:
                assert ppd.multiplicative_order(r, q) == \
                    oracles.mult_order(q, r)


def test_multiplicative_order_matches_naive_loop_below_500():
    for r in oracles.sieve(499):
        for q in range(1, r):
            assert ppd.multiplicative_order(r, q) == \
                oracles.mult_order(q, r), (r, q)


def test_multiplicative_order_errors():
    with pytest.raises(NotPrime):
        ppd.multiplicative_order(6, 5)
    with pytest.raises(NotCoprime):
        ppd.multiplicative_order(5, 10)


def test_is_eppd_prime():
    assert ppd.is_eppd_prime(5, 2, 4)
    assert not ppd.is_eppd_prime(5, 2, 2)
    assert not ppd.is_eppd_prime(3, 2, 4)
    assert ppd.is_eppd_prime(11, 3, 5)
    with pytest.raises(NotPrime):
        ppd.is_eppd_prime(9, 2, 4)


def test_smallest_ppd_prime():
    assert ppd.smallest_ppd_prime(2, 4) == 5
    assert ppd.smallest_ppd_prime(2, 11) == 23
    assert ppd.smallest_ppd_prime(2, 6) is None


def test_cyclotomic_value():
    assert ppd.cyclotomic_value(6, 2) == 3
    assert ppd.cyclotomic_value(4, 2) == 5
    assert ppd.cyclotomic_value(12, 2) == 13
    assert ppd.cyclotomic_value(1, 9) == 8
    # product of Phi_k(q) over divisors k of e gives q^e - 1
    for q in (2, 3, 5):
        for e in (6, 10, 12):
            prod = 1
            for k in range(1, e + 1):
                if e % k == 0:
                    prod *= ppd.cyclotomic_value(k, q)
            assert prod == q ** e - 1


def test_validation_and_caps():
    with pytest.raises(CompositeQ):
        ppd.primitive_prime_divisors(6, 2)
    with pytest.raises(StingrayUsageError):
        ppd.primitive_prime_divisors(2, 0)
    with pytest.raises(TooLarge):
        ppd.primitive_prime_divisors(2, 600)


def test_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import n_order
    prime_powers = [q for q in range(2, 33) if len(sympy.factorint(q)) == 1]
    for q in prime_powers:
        for e in range(1, 21):
            want = tuple(sorted(
                (r, m) for r, m in sympy.factorint(q ** e - 1).items()
                if n_order(q, r) == e))
            got = ppd.primitive_prime_divisors(q, e)
            assert got.primes == want, (q, e)
            assert got.certified, (q, e)


def test_phi_cache_is_bounded(monkeypatch):
    # bounded at 3 the memo never holds more, and pairs it evicted come
    # back with the same answers
    pairs = [(q, e) for q in (2, 3, 4, 5) for e in range(1, 13)]
    want = {qe: (ppd.primitive_prime_divisors(*qe),
                 ppd.factor_qe_minus_one(*qe)) for qe in pairs}
    small = functools.lru_cache(3)(ppd._factor_phi.__wrapped__)
    monkeypatch.setattr(ppd, "_factor_phi", small)
    for _ in range(2):
        for qe in pairs:
            assert (ppd.primitive_prime_divisors(*qe),
                    ppd.factor_qe_minus_one(*qe)) == want[qe]
            assert small.cache_info().currsize <= 3
    info = small.cache_info()
    assert info.currsize == 3
    # the second pass recomputed evicted pairs
    assert info.misses > len({(q, k) for q, e in pairs
                              for k in range(1, e + 1) if e % k == 0})

import math

import pytest

from stingray._intmath import (SplitMix64, factorization_order_descend,
                               factorize, iroot, is_prime, is_prime_power,
                               is_probable_prime, power)
from stingray.ppd import cyclotomic_value

import oracles


def test_is_prime_matches_sieve():
    primes = set(oracles.sieve(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_probable_prime_large_known():
    # 2^89 - 1 is a Mersenne prime; its neighbours are not
    m89 = 2 ** 89 - 1
    assert is_probable_prime(m89) == (True, False)   # above the MR bound
    assert is_probable_prime(m89 - 2)[0] is False
    assert is_probable_prime(m89 + 2)[0] is False


def test_factorize_matches_trial_oracle():
    for n in [2, 12, 242, 1023, 2 ** 20 - 1, 3 ** 12 - 1, 5 ** 8 - 1,
              720720, 104729 * 104729]:
        expected = oracles.trial_factor(n)
        assert factorize(n) == (expected, True), n


def test_factorize_seeded_sweep():
    rng = SplitMix64(99)
    for _ in range(200):
        n = rng.randrange(10 ** 9) + 2
        fac, certified = factorize(n)
        assert certified
        prod = 1
        for r, m in fac.items():
            assert is_prime(r)
            prod *= r ** m
        assert prod == n


def test_factorize_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    ns = [cyclotomic_value(k, q) for q in range(2, 33)
          if is_prime_power(q) for k in range(1, 21)]
    # primes either side of the trial bound 2^10, and of 10^6
    edge = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049]
    ns += [a * b for i, a in enumerate(edge) for b in edge[i:]]
    ns += [1021 ** 2 * 1031, 1019 * 1031 * 1049, 1031 ** 3]
    for p in (999979, 999983, 1000003, 1000033):
        ns += [p, p ** 2, p ** 3]
    big = sympy.nextprime(2 ** 64)
    ns += [p ** k * big for p in (2, 3, 1021, 1031, 999983, 1000003)
           for k in (1, 2, 3)]
    for n in ns:
        fac, certified = factorize(n)
        assert fac == sympy.factorint(n), n
        assert certified, n


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
    assert is_prime_power(2 ** 31 - 1) == (2 ** 31 - 1, 1)
    # composite bases have no prime root; 2^6 is also 4^3 and 8^2
    assert is_prime_power(6 ** 5) is None
    assert is_prime_power(12 ** 3) is None
    assert is_prime_power(2 ** 6) == (2, 6)


def test_iroot_exact_beyond_float_range():
    # a float seed overflows here; the root must stay exact integer work
    assert is_prime_power(3 ** 700) == (3, 700)
    assert iroot(10 ** 400, 2) == 10 ** 200
    assert iroot(10 ** 400 - 1, 2) == 10 ** 200 - 1
    assert iroot(10 ** 400, 400) == 10
    for n in (10 ** 400 - 1, 10 ** 400, 10 ** 400 + 1):
        for k in (2, 3, 7, 399, 400, 401, 1328, 1329, 1330):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)


def test_splitmix_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]
    c = SplitMix64(43)
    assert [SplitMix64(42).next64() for _ in range(4)] != \
           [c.next64() for _ in range(4)]


def test_randrange_bounds():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(3000):
        x = rng.randrange(10)
        assert 0 <= x < 10
        seen.add(x)
    assert seen == set(range(10))


def test_randrange_wide_integers():
    # n beyond 64 bits exercises the multi-word path
    rng = SplitMix64(11)
    n = 3 ** 200
    draws = [rng.randrange(n) for _ in range(50)]
    assert all(0 <= x < n for x in draws)
    assert max(draws) > n // 5          # not stuck in a narrow band
    assert len(set(draws)) == len(draws)
    assert rng.randrange(2 ** 64 + 1) <= 2 ** 64


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_randint_and_shuffle():
    rng = SplitMix64(5)
    for _ in range(200):
        x = rng.randint(3, 9)
        assert 3 <= x <= 9
    seq = list(range(12))
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == seq


def test_power_never_multiplies_by_one():
    # left to right: bit_length - 1 squarings and popcount - 1 products
    # by x, none of them with `one`
    one = object()
    for n in list(range(1, 70)) + [2 ** 64 - 1, 3 ** 40]:
        calls = []

        def mul(x, y):
            assert x is not one and y is not one
            calls.append(1)
            return x * y % 1000003

        assert power(7, n, mul, one) == pow(7, n, 1000003)
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2
    assert power(7, 0, None, one) is one


@pytest.mark.parametrize("fac", [{2: 3, 3: 2, 5: 3, 7: 1}, {2: 3, 7: 1, 13: 1},
                                 {2: 10}, {3: 1},
                                 {2: 2, 3: 1, 5: 1, 7: 1, 11: 1, 13: 2}])
def test_order_descend_in_the_additive_group(fac):
    # x in Z/n has order n / gcd(x, n).  The exponents of one level of the
    # product tree divide n, and the leaves' exponents too, so with w
    # primes the powers' exponent bits sum to at most
    # (ceil(log2 w) + 1) log2 n; one power of size n/p per prime would
    # already exceed that for w >= 4.
    n = math.prod(p ** e for p, e in fac.items())
    bound = (math.ceil(math.log2(len(fac))) + 1) * math.log2(n)
    rng = SplitMix64(n)
    xs = [0, 1, n - 1] + [n // p for p in fac] + [rng.randrange(n)
                                                  for _ in range(200)]
    for x in xs:
        bits = []

        def power(y, m):
            bits.append(math.log2(m))
            return y * m % n

        got = factorization_order_descend(x, fac, power, lambda y: y == 0)
        assert got == n // math.gcd(x, n), x
        assert sum(bits) <= bound + 1e-9, (x, sum(bits), bound)

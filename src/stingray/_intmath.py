"""Big-integer number theory: primality, factoring, prime powers.

Factoring stack: trial division by the 172 primes below 2^10, then Brent's
variant of Pollard rho (BIT 20, 1980) on what survives, with Miller-Rabin
primality on the cofactors and perfect powers peeled before rho.  Rho
finds a prime factor p in about sqrt(p) steps, about 1000 at p = 10^6,
so a longer table of trial primes would save it little.
Miller-Rabin is deterministic for n < 3.317e24 via the standard 12-base
set; beyond that it falls back to 64 pseudo-random rounds and the result
is flagged uncertified.  `factorize` is the package's one integer
factorizer; the ppd module caches its factorizations of cyclotomic values
and reads primitive prime divisors off them.  Every memo of the package
is a functools.lru_cache on a pure function of hashable arguments,
bounded by CACHE_CAP unless it says otherwise, so each reports its hits,
misses and size with cache_info(); this module itself keeps none.
`power` is the package's one square-and-multiply.
"""

import math

# Deterministic Miller-Rabin base set, valid for all n < 3,317,044,064,679,887,385,961,981.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 64

# factorize's trial divisors: the primes below 2^10.
_SMALL_PRIMES = tuple(p for p in range(2, 1 << 10)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))


# Entries of each bounded memo (fpoly's factor and root-order memos, ppd's
# factorizations of Phi_k(q), ffield's per-field data): a sweep no longer
# grows them without limit, and classify-small's traced job (600 lookups,
# its repeats nearly all among the few characteristic polynomials of
# GL(4,2)) never evicts, so its hit ratio is that of an unbounded memo.
# Over 18000 classify-small items the factor memo misses 5909 times
# against 5698 unbounded.
CACHE_CAP = 1 << 12


def power(x, n, mul, one):
    """x^n for n >= 0 by left-to-right square-and-multiply with the
    product `mul`; `one` is the answer for n = 0 and is never multiplied."""
    if n == 0:
        return one
    r = x
    for bit in bin(n)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, x)
    return r


class SplitMix64:
    """Tiny deterministic 64-bit generator (splitmix64).

    Used everywhere a seeded RNG is needed so that results do not depend on
    Python or numpy RNG implementation details.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self._MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        if n <= 1 << 64:
            # rejection sampling; unbiased for any n <= 2^64
            lim = (1 << 64) - ((1 << 64) % n)
            while True:
                x = self.next64()
                if x < lim:
                    return x % n
        # wide values: stitch 64-bit words, mask to bit length, reject
        nbits = n.bit_length()
        words = (nbits + 63) // 64
        while True:
            x = 0
            for _ in range(words):
                x = x << 64 | self.next64()
            x &= (1 << nbits) - 1
            if x < n:
                return x

    def randint(self, lo, hi):
        return lo + self.randrange(hi - lo + 1)

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def is_probable_prime(n):
    """Miller-Rabin.  Returns (is_prime, certified)."""
    if n < 2:
        return False, True
    for p in _MR_BASES:
        if n % p == 0:
            return n == p, True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _MR_DETERMINISTIC_BOUND:
        for a in _MR_BASES:
            if witness(a):
                return False, True
        return True, True
    rng = SplitMix64(n & ((1 << 64) - 1))
    for _ in range(_MR_RANDOM_ROUNDS):
        a = rng.randint(2, n - 2)
        if witness(a):
            return False, True
    return True, False


def is_prime(n):
    return is_probable_prime(n)[0]


def iroot(n, k):
    """Integer k-th root: largest r with r^k <= n."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or k == 1:
        return n
    if k >= n.bit_length():
        return 1
    # Newton's method in integers, from r = 2^ceil(bits/k) > n^(1/k): the
    # iterates fall strictly until they reach the floor of the root.
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_root(n):
    """(r, k) with r^k = n for n >= 2 and k as large as possible, so that
    r is not itself a perfect power."""
    for k in range(n.bit_length() - 1, 1, -1):
        r = iroot(n, k)
        if r ** k == n:
            return r, k
    return n, 1


def is_prime_power(n):
    """Return (p, a) with n = p^a and p prime, or None."""
    if n < 2:
        return None
    p, a = _perfect_root(n)
    return (p, a) if is_prime(p) else None


def _brent_rho(n, rng):
    """One nontrivial factor of composite n (not necessarily prime)."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randint(1, n - 1)
        c = rng.randint(1, n - 1)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        # cycle collapsed; retry with new parameters


def factorize(n):
    """Complete factorization of n >= 1.

    Returns (factors, certified): factors is a dict prime -> exponent, and
    certified is False only if some prime passed just the probabilistic
    Miller-Rabin rounds (inputs beyond the deterministic base-set range).
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors = {}
    certified = True

    # Trial stage: a survivor below the square of the next divisor is 1
    # or prime.
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e

    # Rho stage on what survives; every prime factor left is above 2^10.
    stack = [n] if n > 1 else []
    rng = SplitMix64(0xC0FFEE ^ n & ((1 << 64) - 1))
    while stack:
        m = stack.pop()
        prime, cert = is_probable_prime(m)
        if prime:
            certified = certified and cert
            factors[m] = factors.get(m, 0) + 1
            continue
        # perfect powers make rho needlessly slow; peel them first
        r, k = _perfect_root(m)
        if k > 1:
            stack.extend([r] * k)
            continue
        d = _brent_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors, certified


def factorization_order_descend(x, factors, power, is_one):
    """Multiplicative order of x, given {p: e} with x^n = 1, n = prod p^e.

    `power(y, m)` returns y^m for m >= 1 and `is_one(y)` tests for the
    identity; the caller's group is otherwise opaque.  Product-tree descent
    (Sutherland, Order computations in generic groups, MIT thesis, 2007,
    ch. 7): split the primes into halves L and R; y^(prod_R p^e) has order
    dividing prod_L p^e and y^(prod_L p^e) order dividing prod_R p^e, so
    each half recurses on its own power.  At a leaf p^e, y is raised by p
    at most e - 1 times, since y^(p^e) = 1 is already known.  The
    exponents of one tree level divide n, so for w primes the squarings
    number about (ceil(log2 w) + 1) log2 n, where stripping one prime at a
    time with powers of full size takes about w log2 n.
    """
    return _descend(x, list(factors.items()), power, is_one)


def _descend(y, pes, power, is_one):
    if is_one(y):
        return 1
    if len(pes) == 1:
        p, e = pes[0]
        order = p
        for _ in range(e - 1):
            y = power(y, p)
            if is_one(y):
                break
            order *= p
        return order
    half = len(pes) // 2
    left, right = pes[:half], pes[half:]
    n_left = math.prod(p ** e for p, e in left)
    n_right = math.prod(p ** e for p, e in right)
    return (_descend(power(y, n_right), left, power, is_one)
            * _descend(power(y, n_left), right, power, is_one))

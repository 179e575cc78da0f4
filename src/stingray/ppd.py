"""Primitive prime divisors of q^e - 1.

A prime r is an e-ppd for q when r divides q^e - 1 but none of q^i - 1
for 1 <= i < e; equivalently the order of q mod r is exactly e.  Every
such r satisfies r = 1 (mod e).

q^e - 1 is factored through its cyclotomic split q^e - 1 = prod_{k | e}
Phi_k(q), with each Phi_k(q) computed exactly by Moebius inversion and
factored once per (q, k) pair by _intmath.factorize; the per-pair memo
_factor_phi (an lru_cache of _intmath.CACHE_CAP entries) is what keeps
sweeps over many e for the same q cheap, since divisors k of different e
repeat.

The e-ppd primes are read off the same cached factorization of Phi_e(q).
Every e-ppd prime divides Phi_e(q), and a prime factor r of Phi_e(q) that
does not divide e is an e-ppd prime: q has order exactly e mod r.  Such an
r divides no Phi_k(q) with k | e, k < e, so its multiplicity in Phi_e(q)
is its full multiplicity in q^e - 1.
"""

import functools
from dataclasses import dataclass

from ._intmath import (CACHE_CAP, factorization_order_descend, factorize,
                       is_prime, is_prime_power)
from .errors import (CompositeQ, NotCoprime, NotPrime, StingrayUsageError,
                     TooLarge)

_BIT_CAP = 512


def _mobius_divisor_data(k):
    """List of (d, mu(k/d)) over divisors d of k, mu nonzero only."""
    fac = factorize(k)[0]
    primes = list(fac)
    out = []
    for mask in range(1 << len(primes)):
        m = 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                m *= p
        # d = k/m, mu(m) = (-1)^popcount
        out.append((k // m, -1 if bin(mask).count("1") % 2 else 1))
    return out


def cyclotomic_value(k, q):
    """Phi_k(q) as an exact integer, via Phi_k(q) = prod (q^d-1)^mu(k/d)."""
    num = 1
    den = 1
    for d, mu in _mobius_divisor_data(k):
        term = q ** d - 1
        if mu == 1:
            num *= term
        else:
            den *= term
    assert num % den == 0
    return num // den


@functools.lru_cache(CACHE_CAP)
def _factor_phi(q, k):
    """(factor dict, certified) of Phi_k(q)."""
    return factorize(cyclotomic_value(k, q))


def factor_qe_minus_one(q, e):
    """(prime -> multiplicity, certified) for q^e - 1, via cyclotomic parts."""
    if q ** e - 1 >= 1 << _BIT_CAP:
        raise TooLarge("q^e - 1 exceeds %d bits" % _BIT_CAP)
    total = {}
    certified = True
    for k in _divisors(e):
        fac, cert = _factor_phi(q, k)
        certified = certified and cert
        for r, m in fac.items():
            total[r] = total.get(r, 0) + m
    return total, certified


def _divisors(n):
    fac = factorize(n)[0]
    divs = [1]
    for p, m in fac.items():
        divs = [d * p ** i for d in divs for i in range(m + 1)]
    return sorted(divs)


def multiplicative_order(r, q):
    """Order of q modulo the prime r."""
    if not is_prime(r):
        raise NotPrime("%d is not prime" % r)
    if q % r == 0:
        raise NotCoprime("%d divides %d" % (r, q))
    return factorization_order_descend(
        q % r, factorize(r - 1)[0], lambda y, m: pow(y, m, r),
        lambda y: y == 1)


def is_eppd_prime(r, q, e):
    """True when the prime r divides q^e - 1 and no earlier q^i - 1."""
    if not is_prime(r):
        raise NotPrime("%d is not prime" % r)
    if e < 1:
        raise StingrayUsageError("e must be >= 1")
    if q % r == 0:
        return False
    if pow(q, e, r) != 1:
        return False
    for ell in factorize(e)[0]:
        if pow(q, e // ell, r) == 1:
            return False
    return True


@dataclass(frozen=True)
class PpdResult:
    q: int
    e: int
    primes: tuple        # ((r, multiplicity in q^e - 1), ...) sorted by r
    certified: bool

    @property
    def is_empty(self):
        return not self.primes

    def prime_list(self):
        return [r for r, _ in self.primes]


def primitive_prime_divisors(q, e):
    """All e-ppd primes of q^e - 1 with their multiplicities.

    q must be a prime power, and q^e - 1 must fit under the factoring cap.
    """
    if e < 1:
        raise StingrayUsageError("e must be >= 1")
    if q < 2 or is_prime_power(q) is None:
        raise CompositeQ("%d is not a prime power" % q)
    if q ** e - 1 >= 1 << _BIT_CAP:
        raise TooLarge("q^e - 1 exceeds %d bits" % _BIT_CAP)
    factors, certified = _factor_phi(q, e)
    primes = []
    for r in sorted(factors):
        if e % r:
            assert (r - 1) % e == 0
            primes.append((r, factors[r]))
    return PpdResult(q=q, e=e, primes=tuple(primes), certified=certified)


def smallest_ppd_prime(q, e):
    """Least e-ppd prime of q^e - 1, or None."""
    res = primitive_prime_divisors(q, e)
    return res.primes[0][0] if res.primes else None

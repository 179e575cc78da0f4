"""Exact arithmetic in GF(p^a) for word-sized primes p.

Elements are canonically encoded as integers sum c_i p^i with coefficient
vector (c_0, ..., c_{a-1}); the encoding is the on-disk and in-matrix
representation throughout the package, and there is no element class:
every operation, embed included, takes and returns encodings.  A
FieldSpec is the only description of a field: the matrix kernels in
_kernels take it as it is, and use its tables or its scalar methods.

make_field validates its arguments once per (p, a, modulus) in an
unbounded lru_cache, and interns every FieldSpec in a second one keyed
on (p, a, proved modulus), so the default modulus and the same modulus
given explicitly share an instance.  Extension fields up to q <=
TABLE_CAP = 2^20 get exp/log tables, built once per field.  exp holds
g^i for 0 <= i < 2(q-1) and zeros up to its last index 4(q-1); log[0] is
the sentinel 2(q-1).  So exp[log[x] + log[y]] is the product of any two
encodings, zero included, with no test (array or scalar alike).  Every
extension field holds _ring = fpoly.QuotientRing of its modulus over
GF(p), whose pack of an encoding is the element: products and powers
above the cap run there, one scalar at a time, and so do inverses,
Frobenius maps and orders, through pow_enc.  The exp tables are filled by
doubling: exp[m:2m] is exp[:m] times g^m, the base-p digits of exp[:m]
times the a x a matrix of that GF(p)-linear map in one prime-field
_kernels.matmul.

Field construction goes through fpoly over the prime field: the modulus,
when not supplied, is the lexicographically smallest monic irreducible of
degree a over F_p (ascending coefficient lists compared as integer
tuples), found with fpoly.is_irreducible (Ben-Or's test).  The tabled
generator is generator_enc(), the smallest-encoding primitive element.
embed(source, x, target) maps an encoding of GF(p^a) into GF(p^b)
(a | b): the class of the variable goes to the smallest root of the
source modulus in the target (fpoly.roots), so the embedding is
deterministic for a fixed field pair, and x goes by Horner's rule on its
base-p digits.  The factored q - 1, the generator and the embedding roots
are lru_caches of _intmath.CACHE_CAP entries, keyed on the fields.
"""

import functools

import numpy as np

from . import _kernels, fpoly
from ._intmath import (CACHE_CAP, factorization_order_descend, factorize,
                       is_prime)
from .errors import (DegreeMismatch, DivisionByZero, NoEmbedding, NotPrime,
                     ReducibleModulus)

TABLE_CAP = 1 << 20


def _smallest_irreducible(p, a):
    # m's most significant base-p digit is the constant term, so every m
    # below p^(a-1) is divisible by x (a >= 2) and is skipped
    for m in range(p ** (a - 1), p ** a):
        coeffs = tuple((m // p ** (a - 1 - i)) % p for i in range(a))
        cand = coeffs + (1,)
        if fpoly.is_irreducible(fpoly.DensePoly(make_field(p), cand)):
            return cand
    raise AssertionError("no irreducible of degree %d over F_%d" % (a, p))


class FieldSpec:
    """The field GF(p^a).  Immutable; instances are interned by make_field."""

    __slots__ = ("p", "a", "q", "modulus", "_exp", "_log", "_ring")

    def __init__(self, p, a, modulus):
        self.p = p
        self.a = a
        self.q = p ** a
        self.modulus = modulus  # tuple of a+1 ints, ascending, or None for a == 1
        self._exp = self._log = None
        if a > 1:
            # GF(p)[t]/(modulus), whose pack of an encoding is the element
            self._ring = fpoly.QuotientRing(
                fpoly.DensePoly(make_field(p), modulus))
            if self.q <= TABLE_CAP:
                self._exp, self._log = self._build_tables()

    # -- construction helpers --

    @functools.lru_cache(CACHE_CAP)
    def q1_factors(self):
        return factorize(self.q - 1)[0]

    def _build_tables(self):
        # log[0] = 2(q-1) and exp is zero from index 2(q-1) on, so a product
        # exp[log[x] + log[y]] is 0 whenever x or y is, with no test
        p, q1 = self.p, self.q - 1
        Fp, pw = make_field(p), p ** np.arange(self.a)
        gen = self.generator_enc()
        exp = np.zeros(4 * q1 + 1, dtype=np.int64)
        exp[0] = 1
        m, gm = 1, gen          # exp[:m] holds g^0..g^(m-1); gm = g^m
        while m < q1:
            n = min(m, q1 - m)
            # y -> y g^m is GF(p)-linear; row i of its matrix holds the
            # digits of g^m t^i, t^i being the encoding p^i
            rows = np.array([self.mul_enc(gm, c) for c in pw.tolist()])
            exp[m:m + n] = _kernels.matmul(Fp, exp[:n, None] // pw % p,
                                           rows[:, None] // pw % p) @ pw
            m += n
            gm = self.mul_enc(gm, gm)
        assert self.mul_enc(exp.item(q1 - 1), gen) == 1, "generator order wrong"
        exp[q1:2 * q1] = exp[:q1]
        log = np.full(self.q, 2 * q1, dtype=np.int64)
        log[exp[:q1]] = np.arange(q1)
        return exp, log

    # -- scalar encoding arithmetic --

    def add_enc(self, x, y):
        p = self.p
        if self.a == 1:
            return (x + y) % p
        if p == 2:
            return x ^ y
        s = 0
        mult = 1
        for _ in range(self.a):
            s += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return s

    def sub_enc(self, x, y):
        p = self.p
        if self.a == 1:
            return (x - y) % p
        if p == 2:
            return x ^ y
        s = 0
        mult = 1
        for _ in range(self.a):
            s += ((x - y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return s

    def neg_enc(self, x):
        return self.sub_enc(0, x)

    def mul_enc(self, x, y):
        if self.a == 1:
            return x * y % self.p
        if self._log is not None:
            return self._exp.item(self._log.item(x) + self._log.item(y))
        R = self._ring
        return R.unpack(R.mul(R.pack(x), R.pack(y)))

    def inv_enc(self, x):
        if x == 0:
            raise DivisionByZero("0 has no inverse in GF(%d)" % self.q)
        if self.a == 1:
            return pow(x, self.p - 2, self.p)
        if self._log is not None:
            qm1 = self.q - 1
            return self._exp.item((qm1 - self._log.item(x)) % qm1)
        return self.pow_enc(x, self.q - 2)

    def pow_enc(self, x, n):
        if n < 0:
            raise ValueError("pow_enc takes nonnegative exponents")
        if x == 0:
            return 0 if n else 1
        if self.a == 1:
            return pow(x, n, self.p)
        if self._log is not None:
            return self._exp.item(self._log.item(x) * (n % (self.q - 1))
                                  % (self.q - 1))
        R = self._ring
        return R.unpack(R.pow(R.pack(x), n))

    def frob_enc(self, x, k):
        k %= self.a
        if k == 0 or x == 0:
            return x
        return self.pow_enc(x, self.p ** k)

    def order_enc(self, x):
        if x == 0:
            raise DivisionByZero("0 has no multiplicative order")
        return factorization_order_descend(
            x, self.q1_factors(), self.pow_enc, lambda y: y == 1)

    @functools.lru_cache(CACHE_CAP)
    def generator_enc(self):
        """Smallest-encoding generator of the multiplicative group."""
        if self.q == 2:
            return 1
        cofs = [(self.q - 1) // ell for ell in self.q1_factors()]
        # for a > 1 the encodings below p are the prime subfield, whose
        # orders divide p - 1 < q - 1
        for cand in range(2 if self.a == 1 else self.p, self.q):
            if all(self.pow_enc(cand, c) != 1 for c in cofs):
                return cand

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        if self.a == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d; %s)" % (self.p, self.a, list(self.modulus))


def make_field(p, a=1, modulus=None):
    """Validated, interned FieldSpec for GF(p^a).

    `modulus` is an ascending coefficient list of length a+1 (monic); when
    omitted and a > 1 the lexicographically smallest monic irreducible of
    degree a is selected.
    """
    p = int(p)
    a = int(a)
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if p >= 1 << 31:
        raise NotPrime("p must be below 2^31")
    if a < 1:
        raise DegreeMismatch("extension degree must be >= 1")
    if a == 1 and modulus is not None:
        raise DegreeMismatch("prime fields take no modulus")
    if modulus is not None:
        modulus = tuple(int(c) % p for c in modulus)
    return _field(p, a, modulus)


@functools.lru_cache(maxsize=None)
def _field(p, a, modulus):
    """The FieldSpec of make_field's validated p and a.  A modulus of None
    stands for the default one, which _smallest_irreducible has already
    proved irreducible, and the two share an instance."""
    if a > 1:
        if modulus is None:
            modulus = _smallest_irreducible(p, a)
        elif len(modulus) != a + 1:
            raise DegreeMismatch("modulus must have degree %d" % a)
        elif modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        elif not fpoly.is_irreducible(fpoly.DensePoly(make_field(p), modulus)):
            raise ReducibleModulus("modulus %s is reducible over F_%d"
                                   % (list(modulus), p))
    return _interned(p, a, modulus)


@functools.lru_cache(maxsize=None)
def _interned(p, a, modulus):
    return FieldSpec(p, a, modulus)


def field_from_q(q):
    """GF(q) with the default modulus, from a prime power q."""
    from ._intmath import is_prime_power
    pp = is_prime_power(q)
    if pp is None:
        from .errors import CompositeQ
        raise CompositeQ("%d is not a prime power" % q)
    return make_field(pp[0], pp[1])


def embed(source, x, target):
    """Image of the encoding x of source under the fixed embedding of
    source into target, as an encoding of target.

    The embedding sends the class of source's variable to the
    smallest-encoding root of source's modulus in target (computed once per
    field pair and cached); x maps by Horner's rule on its base-p digits.
    """
    if source == target:
        return x
    if source.p != target.p or target.a % source.a != 0:
        raise NoEmbedding("no embedding GF(%d^%d) -> GF(%d^%d)"
                          % (source.p, source.a, target.p, target.a))
    if source.a == 1:
        return x
    beta = _embedding_root(source, target)
    p = source.p
    acc = 0
    for i in reversed(range(source.a)):
        acc = target.add_enc(target.mul_enc(acc, beta), x // p ** i % p)
    return acc


@functools.lru_cache(CACHE_CAP)
def _embedding_root(source, target):
    """Image in target of the class of source's variable: the smallest root
    of source's modulus in target."""
    roots = fpoly.roots(fpoly.DensePoly(target, source.modulus))
    if not roots:
        raise NoEmbedding("source modulus has no root in target")
    return roots[0]

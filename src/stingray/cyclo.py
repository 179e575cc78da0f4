"""Exact arithmetic in Z[zeta_r] for an odd prime r, and the character
bookkeeping built on it.

An element is stored by its coefficient vector on 1, zeta, ..., zeta^(r-1).
That spanning set carries the single relation 1 + zeta + ... + zeta^(r-1)
  = 0, so vectors are normalized to b_0 = 0 by subtracting b_0 from every
coordinate; equality and rationality tests read off the normalized form.

solve_multiplicities inverts the trace-of-eigenvalues map: given the value
chi of a character at an element of order r in dimension d, it recovers
the unique nonnegative integer eigenvalue multiplicities (c_0, ..., c_(r-1))
with sum d and sum c_i zeta^i = chi, when they exist.
"""

from dataclasses import dataclass
from fractions import Fraction

from ._intmath import is_prime
from .errors import MismatchedR, NonUnit, NoSolution, NotRational, UnsupportedR

STINGRAY = "STINGRAY"
TYPE_2I = "TYPE_2I"
TYPE_2II = "TYPE_2II"
INCONSISTENT = "INCONSISTENT"
OTHER = "OTHER"


def _check_r(r):
    if r < 3 or r % 2 == 0 or not is_prime(r):
        raise UnsupportedR("r must be an odd prime, got %d" % r)


class CyclotomicInt:
    __slots__ = ("r", "coeffs")

    def __init__(self, r, coeffs):
        _check_r(r)
        cs = [int(c) for c in coeffs]
        if len(cs) > r:
            raise MismatchedR("coefficient vector longer than r")
        cs += [0] * (r - len(cs))
        b0 = cs[0]
        if b0:
            cs = [c - b0 for c in cs]
        self.r = r
        self.coeffs = tuple(cs)

    @classmethod
    def from_int(cls, r, n):
        return cls(r, [n])

    @classmethod
    def zeta(cls, r, k=1):
        co = [0] * r
        co[k % r] = 1
        return cls(r, co)

    def _check(self, other):
        if not isinstance(other, CyclotomicInt):
            other = CyclotomicInt.from_int(self.r, int(other))
        if other.r != self.r:
            raise MismatchedR("mixing Z[zeta_%d] with Z[zeta_%d]"
                              % (self.r, other.r))
        return other

    def __add__(self, other):
        other = self._check(other)
        return CyclotomicInt(self.r, [a + b for a, b in
                                      zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return CyclotomicInt(self.r, [a - b for a, b in
                                      zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return CyclotomicInt(self.r, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        r = self.r
        out = [0] * r
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % r] += a * b
        return CyclotomicInt(r, out)

    __rmul__ = __mul__

    def galois(self, j):
        """Image under zeta -> zeta^j, j coprime to r."""
        if j % self.r == 0:
            raise NonUnit("galois exponent must be a unit mod %d" % self.r)
        out = [0] * self.r
        for i, a in enumerate(self.coeffs):
            out[i * j % self.r] += a
        return CyclotomicInt(self.r, out)

    def is_rational(self):
        tail = self.coeffs[1:]
        return all(c == tail[0] for c in tail)

    def rational_value(self):
        if not self.is_rational():
            raise NotRational("%r is irrational" % self)
        return -self.coeffs[1]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.r, other)
        return (isinstance(other, CyclotomicInt) and other.r == self.r
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.r, self.coeffs))

    def __repr__(self):
        return "CyclotomicInt(r=%d, %s)" % (self.r, list(self.coeffs))


def sum_of_zeta_powers(r, exponents):
    co = [0] * r
    for e in exponents:
        co[e % r] += 1
    return CyclotomicInt(r, co)


def b5():
    """The quadratic irrationality zeta + zeta^4 in Z[zeta_5]."""
    return sum_of_zeta_powers(5, [1, 4])


def c13():
    """zeta + zeta^-1 + zeta^5 + zeta^-5 in Z[zeta_13]."""
    return sum_of_zeta_powers(13, [1, 12, 5, 8])


@dataclass(frozen=True)
class MultiplicitySolution:
    """Eigenvalue multiplicities of an order-r element in dimension d:
    mults[i] is the multiplicity of zeta^i, sum mults = d."""
    r: int
    d: int
    mults: tuple

    def fixed_dim(self):
        return self.mults[0]


def from_multiplicities(r, mults):
    """sum mults[i] * zeta^i; the forward direction of solve_multiplicities."""
    return CyclotomicInt(r, list(mults))


def solve_multiplicities(chi, d, r):
    """Eigenvalue multiplicities of an order-r element in dimension d.

    Solves sum c_i = d and sum c_i zeta^i = chi in nonnegative integers;
    the solution is unique when it exists, else NoSolution is raised.
    """
    _check_r(r)
    if isinstance(chi, int):
        chi = CyclotomicInt.from_int(r, chi)
    if chi.r != r:
        raise MismatchedR("character value lives in Z[zeta_%d]" % chi.r)
    b = chi.coeffs
    num = d - sum(b[1:])
    if num % r:
        raise NoSolution("no integer solution: d - sum b_i = %d not divisible by %d"
                         % (num, r))
    c0 = num // r
    out = [c0] + [c0 + bi for bi in b[1:]]
    if any(c < 0 for c in out):
        raise NoSolution("multiplicities would be negative: %s" % out)
    return MultiplicitySolution(r=r, d=d, mults=tuple(out))


def trivial_multiplicity(chi_powers, d, r):
    """Multiplicity of the trivial character in the restriction to <g>.

    chi_powers lists one (value, orbit size) pair per Galois orbit of the
    nontrivial powers of g, where value is chi at an orbit representative.
    The result (d + sum size * value) / r is returned as an exact Fraction;
    the accumulated sum must be rational.
    """
    _check_r(r)
    acc = CyclotomicInt.from_int(r, d)
    total_size = 0
    for value, size in chi_powers:
        if isinstance(value, int):
            value = CyclotomicInt.from_int(r, value)
        if value.r != r:
            raise MismatchedR("character value lives in Z[zeta_%d]" % value.r)
        acc = acc + CyclotomicInt.from_int(r, size) * value
        total_size += size
    if total_size != r - 1:
        raise NoSolution("orbit sizes must cover the %d nontrivial powers, got %d"
                         % (r - 1, total_size))
    return Fraction(acc.rational_value(), r)


def stingray_criterion(r, d, chi):
    """Verdict on an order-r element of a d-dimensional representation
    from its character value chi, in the two arithmetic regimes r = d/2 + 1
    and r = d + 1.

    Returns one of STINGRAY, TYPE_2I, TYPE_2II, INCONSISTENT, OTHER.
    """
    _check_r(r)
    if isinstance(chi, int):
        chi = CyclotomicInt.from_int(r, chi)
    if chi.r != r:
        raise MismatchedR("character value lives in Z[zeta_%d]" % chi.r)
    if d % 2 == 0 and r == d // 2 + 1:
        if chi == d // 2 - 1:
            return STINGRAY
        if chi == -2:
            return TYPE_2II
        return INCONSISTENT
    if r == d + 1:
        if chi == -1:
            return TYPE_2I
        try:
            c = solve_multiplicities(chi, d, r).mults
        except NoSolution:
            return INCONSISTENT
        if d % 2 == 0 and c[0] == d // 2 and all(ci <= 1 for ci in c[1:]):
            return STINGRAY
        if c[0] == 0 and all(ci in (0, 2) for ci in c[1:]):
            return TYPE_2II
        return OTHER
    raise UnsupportedR("criterion applies when r = d/2 + 1 or r = d + 1, "
                       "got r=%d d=%d" % (r, d))

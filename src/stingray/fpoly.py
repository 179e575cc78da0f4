"""Dense univariate polynomials over GF(q), with exact factorization.

Coefficients are stored ascending as integer encodings with no trailing
zeros; the zero polynomial is the empty list (degree -1).  Factorization
is squarefree decomposition, then distinct-degree splitting, then
Cantor-Zassenhaus equal-degree splitting (the trace-map variant in
characteristic 2).  The randomness is a fixed-seed splitmix64 stream, so
factor() is deterministic, and the factor list is sorted by (degree,
ascending coefficient tuple) to make the output canonical.

DensePoly arithmetic (sum, product, division, gcd) is scalar, one
FieldSpec call per coefficient pair.  Powers modulo a polynomial are not:
powmod works in QuotientRing, GF(q)[t]/(f) on base-p digit vectors, whose
product is _kernels.ring_mul (Lidl-Niederreiter, Finite Fields, ch. 2).
The ring's tables are built with array operations and kept by _ring, a
one-entry lru_cache, while consecutive calls share a modulus (the
root-order descent, the distinct- and equal-degree steps).
The distinct-degree split keeps the scalar gcds few: its Frobenius steps
run in the ring of the squarefree part, and it makes one gcd per block of
about sqrt(n/2) steps against the product of the block's t^(q^i) - t
(interval products, von zur Gathen-Shoup 1992), more only inside a block
that holds a factor.
is_irreducible is Ben-Or's test: the first part the distinct-degree split
yields is f itself exactly when f is irreducible.
The order of t modulo an irreducible f of degree k (Celler-Leedham-Green,
1997) is the product-tree descent _intmath.factorization_order_descend
over the factored q^k - 1, run on the ring's digit vectors with
QuotientRing.pow and compared with the digits of 1; for k = 1 it is
FieldSpec.order_enc of the root.  factor_cached and _root_order (behind
root_order_in_quotient) are lru_caches of _intmath.CACHE_CAP entries each,
keyed on the DensePoly, whose equality and hash are its field and
coefficients.
"""

import functools
import math
import operator

import numpy as np

from . import _kernels, ppd
from ._intmath import (CACHE_CAP, SplitMix64, factorization_order_descend,
                       power)
from .errors import (CharacteristicDividesR, DivisionByZero, FieldMismatch,
                     ZeroPolynomial)


class DensePoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError("coefficient encoding out of range")
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == [1]

    def _check(self, other):
        if not isinstance(other, DensePoly) or other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add_enc(out[i], c)
        return DensePoly(F, out)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.sub_enc(x, y))
        return DensePoly(F, out)

    def __neg__(self):
        F = self.field
        return DensePoly(F, [F.neg_enc(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return DensePoly(F, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    if cj:
                        out[i + j] = F.add_enc(out[i + j], F.mul_enc(ci, cj))
        return DensePoly(F, out)

    def scale(self, c):
        """Multiply by the scalar encoding c."""
        F = self.field
        return DensePoly(F, [F.mul_enc(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return DensePoly(F, []), DensePoly(F, rem)
        quo = [0] * (dq + 1)
        inv_lead = F.inv_enc(other.coeffs[-1])
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top:
                c = F.mul_enc(top, inv_lead)
                quo[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = F.sub_enc(rem[i + j], F.mul_enc(c, oc))
        return DensePoly(F, quo), DensePoly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, operator.mul, DensePoly(self.field, [1]))

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no monic associate")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv_enc(self.coeffs[-1]))

    def derivative(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul_enc(i % F.p, self.coeffs[i]))
        return DensePoly(F, out)

    def eval_enc(self, x):
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add_enc(F.mul_enc(acc, x), c)
        return acc

    def map_field(self, target, send):
        """Apply the coefficient map send: enc -> enc into target."""
        return DensePoly(target, [send(c) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, DensePoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else "%d*t" % c)
            else:
                terms.append("t^%d" % i if c == 1 else "%d*t^%d" % (c, i))
        return "Poly(%s)" % " + ".join(terms)


def constant(field, c):
    return DensePoly(field, [c])


def x_poly(field):
    return DensePoly(field, [0, 1])


def gcd(f, g):
    """Monic greatest common divisor."""
    f._check(g)
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        return f
    return f.monic()


def lcm(f, g):
    if f.is_zero() or g.is_zero():
        return DensePoly(f.field, [])
    return ((f * g) // gcd(f, g)).monic()


class QuotientRing:
    """GF(q)[t]/(f), f monic of degree k >= 1, q = p^a, on digit vectors.

    An element is an int64 vector of the a*k base-p digits of its k
    coefficients, digit s of coefficient i at index a*i + s, then a
    trailing 0; mul is _kernels.ring_mul with shift_index(a, k) and `red`,
    whose row (2a-1)*I + S holds the digits of alpha^S t^I mod f.
    FieldSpec uses the ring over GF(p) of its own modulus for its products
    above the table cap.
    """

    __slots__ = ("field", "modulus", "k", "shift", "red")

    def __init__(self, f):
        F = f.field
        p, a, k = F.p, F.a, f.degree
        self.field = F
        self.modulus = f.coeffs
        self.k = k
        self.shift = _kernels.shift_index(a, k)
        # T[I] = t^I mod f, I < 2k - 1, as k coefficient encodings
        dt = np.int64 if F.q < 1 << 62 else object
        T = np.zeros((2 * k - 1, k), dtype=dt)
        T[np.arange(k), np.arange(k)] = 1
        if k > 1:
            neg = _kernels.sub(F, 0, np.array(f.coeffs[:k], dtype=dt))
            T[k] = neg
            for i in range(k + 1, 2 * k - 1):
                T[i, 1:] = T[i - 1, :-1]
                T[i] = _kernels.add(F, T[i], _kernels.mul(F, T[i - 1, -1], neg))
        if a > 1:
            # alpha^S for S < 2a - 1, then digits of alpha^S T[I]
            alpha = F._red @ F._pw
            T = _kernels.mul(F, T[:, None, :], alpha[:, None])
            T = (T[..., None] // F._pw[:-1] % p).astype(np.int64)
        self.red = np.zeros(((2 * k - 1) * (2 * a - 1), a * k + 1),
                            dtype=np.int64)
        self.red[:, :-1] = T.reshape(self.red.shape[0], a * k)

    def digits(self, g):
        """Digit vector of g, of degree < k."""
        F = self.field
        x = np.zeros(F.a * self.k + 1, dtype=np.int64)
        if F.a == 1:
            x[:len(g.coeffs)] = g.coeffs
        else:
            x[:F.a * len(g.coeffs)] = (np.array(g.coeffs, dtype=F._pw.dtype)
                                       [:, None] // F._pw[:-1] % F.p).ravel()
        return x

    def poly(self, x):
        """The DensePoly of degree < k with digit vector x."""
        F = self.field
        if F.a == 1:
            return DensePoly(F, x[:-1].tolist())
        return DensePoly(F, (x[:-1].reshape(self.k, F.a) @ F._pw[:-1]).tolist())

    def mul(self, x, y):
        return _kernels.ring_mul(self.field.p, self.shift, self.red, x, y)

    def pow(self, x, e):
        """x^e; e >= 0 may be big."""
        one = np.zeros_like(x)
        one[0] = 1
        return power(x, e, self.mul, one)


@functools.lru_cache(maxsize=1)
def _ring(f):
    """QuotientRing of monic f; rebuilt only when the modulus changes."""
    return QuotientRing(f)


def powmod(f, e, mod):
    """f^e mod `mod`; e >= 0 may be a big integer."""
    f._check(mod)
    if e < 0:
        raise ValueError("negative polynomial power")
    F = f.field
    if mod.degree < 1:
        if mod.is_zero():
            raise DivisionByZero("polynomial division by zero")
        return DensePoly(F, [])
    mod = mod.monic()
    if f.degree >= mod.degree:
        f = f % mod
    R = _ring(mod)
    return R.poly(R.pow(R.digits(f), e))


def is_irreducible(f):
    """Ben-Or's test over GF(q) (Ben-Or, "Probabilistic algorithms in
    finite fields", FOCS 1981): f of degree n >= 1 is irreducible iff
    gcd(x^(q^d) - x, f) = 1 for every d <= n/2.

    A reducible f, squarefree or not, has an irreducible factor of degree
    at most n/2, so the first part _distinct_degree yields has degree
    d < n; an irreducible f passes every block's gcd, floor(n/2) Frobenius
    steps in all, and comes back whole.  A reducible f stops after the
    first block that holds a factor.
    """
    if f.degree < 1:
        return False
    return next(_distinct_degree(f.monic()))[1] == f.degree


def _pth_root(f):
    """g with g^p = f, for f whose exponents are all multiples of p."""
    F = f.field
    out = []
    # c^(p^(a-1)) is the p-th root of c in GF(p^a)
    e = F.p ** (F.a - 1)
    for i in range(0, len(f.coeffs), F.p):
        out.append(F.pow_enc(f.coeffs[i], e))
    return DensePoly(F, out)


def squarefree_decomposition(f):
    """List of (monic squarefree poly, multiplicity), unsorted."""
    F = f.field
    p = F.p
    out = []
    f = f.monic()
    c = gcd(f, f.derivative())
    w = f // c
    i = 1
    while not w.is_one():
        y = gcd(w, c)
        fac = w // y
        if not fac.is_one():
            out.append((fac, i))
        w = y
        c = c // y
        i += 1
    if not c.is_one():
        for g, m in squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def _distinct_degree(f):
    """Yield the (product-of-degree-d-factors, d) parts of squarefree monic
    f, in increasing d.

    Interval products (von zur Gathen-Shoup, "Computing Frobenius maps and
    factoring polynomials", Comput. Complexity 2, 1992): in the ring of f,
    built once, the Frobenius steps h_i = t^(q^i) run on digit vectors in
    blocks of isqrt(n/2) steps, n = deg f, and one gcd of rest with the
    block's product of the h_i - t finds every factor of degree in the
    block.  Only a nontrivial gcd g is split further, one gcd per step in
    increasing i, where the last step needs none and a remainder of degree
    below 2i is one irreducible.  A block stops at deg(rest)/2; then the
    rest, if any, has no factor of degree at most half its own, so it is
    irreducible.
    """
    rest, d = f, 0
    if f.degree > 1:
        F = f.field
        R = _ring(f)
        x = R.digits(x_poly(F))
        h = x
        block = math.isqrt(f.degree // 2)
        while rest.degree > 2 * d + 1:
            hs = []
            for _ in range(min(block, rest.degree // 2 - d)):
                h = R.pow(h, F.q)
                hs.append((h - x) % F.p)
            g = gcd(R.poly(functools.reduce(R.mul, hs)), rest)
            if g.degree > 0:
                rest = rest // g
                for i, hx in enumerate(hs, d + 1):
                    if g.degree < 2 * i or i == d + len(hs):
                        yield g, g.degree if g.degree < 2 * i else i
                        break
                    gi = gcd(R.poly(hx), g)
                    if gi.degree > 0:
                        yield gi, i
                        g = g // gi
                        if g.degree == 0:
                            break
            d += len(hs)
    if rest.degree > 0:
        yield rest, rest.degree


def _random_poly(F, deg_bound, rng):
    return DensePoly(F, [rng.randrange(F.q) for _ in range(deg_bound)])


def _equal_degree(f, d, rng):
    """All monic irreducible factors of f, every one of degree d.

    A random h of degree below deg f splits f by gcd(w, f), where w is
    h^((q^d - 1)/2) - 1 for odd q and the trace sum h^(2^i), i < a*d,
    for q = 2^a; both run on digit vectors in the ring of f.
    """
    if f.degree == d:
        return [f]
    F = f.field
    R = _ring(f)
    while True:
        h = _random_poly(F, f.degree, rng)
        if h.degree < 1:
            continue
        t = R.digits(h)
        if F.q % 2 == 1:
            w = R.pow(t, (F.q ** d - 1) // 2)
            w[0] = (w[0] - 1) % F.p
        else:
            # digits add mod 2
            w = t
            for _ in range(F.a * d - 1):
                t = R.mul(t, t)
                w = w ^ t
        g = gcd(R.poly(w), f)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


class Factorization:
    """unit * product of factors[i][0] ** factors[i][1]."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit, factors):
        self.unit = unit
        self.factors = factors

    def expand(self, field):
        f = constant(field, self.unit)
        for g, m in self.factors:
            f = f * g ** m
        return f

    def __repr__(self):
        return "Factorization(unit=%d, %r)" % (self.unit, self.factors)


def factor(f):
    """Complete factorization into monic irreducibles, canonically ordered."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = f.field
    unit = f.coeffs[-1]
    if f.degree == 0:
        return Factorization(unit, [])
    rng = SplitMix64(0x5EEDFACE)
    pieces = []
    for g, mult in squarefree_decomposition(f.monic()):
        for part, d in _distinct_degree(g):
            for irr in _equal_degree(part, d, rng):
                pieces.append((irr, mult))
    pieces.sort(key=lambda gm: (gm[0].degree, tuple(gm[0].coeffs)))
    return Factorization(unit, pieces)


@functools.lru_cache(CACHE_CAP)
def factor_cached(f):
    """factor() with memoization keyed by field and coefficients.

    Classification sweeps hit the same few characteristic and minimal
    polynomials thousands of times; Factorization objects are immutable
    in practice, so sharing them is safe.
    """
    return factor(f)


def roots(f):
    """Encodings of the roots of f in its own coefficient field, sorted."""
    out = []
    for g, _ in factor(f).factors:
        if g.degree == 1:
            out.append(f.field.neg_enc(g.coeffs[0]))
    return sorted(out)


def cyclotomic_quotient(field, r):
    """(t^r - 1)/(t - 1) = 1 + t + ... + t^(r-1) over the field."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if r % field.p == 0:
        raise CharacteristicDividesR(
            "r = %d is divisible by the characteristic %d" % (r, field.p))
    return DensePoly(field, [1] * r)


def root_order_in_quotient(f):
    """Multiplicative order of t in GF(q)[t]/(f), f irreducible, f(0) != 0.

    This is the common order of the roots of f in its splitting field.
    """
    if f.coeffs and f.coeffs[0] == 0:
        raise ZeroPolynomial("t is not a unit modulo f when f(0) = 0")
    return _root_order(f)


@functools.lru_cache(CACHE_CAP)
def _root_order(f):
    F = f.field
    f = f.monic()
    if f.degree == 1:
        return F.order_enc(F.neg_enc(f.coeffs[0]))
    fac = ppd.factor_qe_minus_one(F.q, f.degree)[0]
    R = _ring(f)
    one = R.digits(constant(F, 1))
    return factorization_order_descend(
        R.digits(x_poly(F)), fac, R.pow, lambda y: np.array_equal(y, one))

"""Dense univariate polynomials over GF(q), with exact factorization.

Coefficients are stored ascending as integer encodings with no trailing
zeros; the zero polynomial is the empty list (degree -1).  Factorization
is squarefree decomposition, then distinct-degree splitting, then
Cantor-Zassenhaus equal-degree splitting (the trace-map variant in
characteristic 2).  The randomness is a fixed-seed splitmix64 stream, so
factor() is deterministic, and the factor list is sorted by (degree,
ascending coefficient tuple) to make the output canonical.

DensePoly arithmetic (sum, product, division, gcd) is scalar, one
FieldSpec call per coefficient pair; its results skip the public
constructor's conversion and range check.  Powers modulo a polynomial
are not scalar: powmod works in QuotientRing, GF(q)[t]/(f) on packed
integers, one big-int multiply and Barrett's reduction per product; each
caller builds its own ring, once per modulus, on the lane layout (Lanes)
that every ring of its field and degree shares, and that the row
reduction in _kernels uses too.  Every extension field of ffield holds
the ring of its modulus over GF(p), and above its table cap multiplies
there, through pack and unpack, which convert encodings to elements.
The distinct-degree split keeps the scalar gcds few: its Frobenius steps
run in the ring of the squarefree part, and it makes one gcd per block of
about sqrt(n/2) steps against the product of the block's t^(q^i) - t
(interval products, von zur Gathen-Shoup 1992), more only inside a block
that holds a factor.
is_irreducible is Ben-Or's test: the first part the distinct-degree split
yields is f itself exactly when f is irreducible.
The order of t modulo an irreducible f of degree k (Celler-Leedham-Green,
1997) is the product-tree descent _intmath.factorization_order_descend
over the factored q^k - 1, run on the ring's packed elements with
QuotientRing.pow and compared with 1; for k = 1 it is
FieldSpec.order_enc of the root.  factor_cached and _root_order (behind
root_order_in_quotient) are lru_caches of _intmath.CACHE_CAP entries each,
keyed on the DensePoly, whose equality and hash are its field and
coefficients.
"""

import functools
import math
import operator

from . import ppd
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

    @classmethod
    def _of(cls, field, cs):
        """The polynomial of the list cs of in-range int encodings, taken
        over as it is: only its trailing zeros are stripped."""
        f = object.__new__(cls)
        while cs and cs[-1] == 0:
            cs.pop()
        f.field, f.coeffs = field, cs
        return f

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
        return DensePoly._of(F, out)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.sub_enc(x, y))
        return DensePoly._of(F, out)

    def __neg__(self):
        F = self.field
        return DensePoly._of(F, [F.neg_enc(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return DensePoly._of(F, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    if cj:
                        out[i + j] = F.add_enc(out[i + j], F.mul_enc(ci, cj))
        return DensePoly._of(F, out)

    def scale(self, c):
        """Multiply by the scalar encoding c."""
        F, c = self.field, int(c)
        return DensePoly._of(F, [F.mul_enc(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return DensePoly._of(F, []), DensePoly._of(F, rem)
        quo = [0] * (dq + 1)
        inv_lead = F.inv_enc(other.coeffs[-1])
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top:
                c = F.mul_enc(top, inv_lead)
                quo[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = F.sub_enc(rem[i + j], F.mul_enc(c, oc))
        return DensePoly._of(F, quo), DensePoly._of(F, rem)

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
        return DensePoly._of(F, out)

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


class Lanes:
    """The Kronecker lane layout of n coefficient slots over GF(q), q = p^a.

    An int holds coefficient i in slot i, the w = (2a-1)b bits from bit
    w i on, and digit s of it in the b-bit lane s of the slot (Kronecker
    substitution; Harvey, JSC 44, 2009), so the product of two
    coefficients, of degree <= 2a-2 in alpha, stays in its slot.  b holds
    the lanes of a sum of two sums of k coefficient products, at most 2c
    with c = k a (p-1)^2, and of their fold, at most 2c p^(a-1) (p = 2:
    lanes go mod 2 before the fold, and b bits hold 2c + 1); odd p spares
    _mod a bit.  _fold folds lanes s >= a by the field's modulus, _mod
    takes lanes mod p, and reduce does both.  low masks the first k slots,
    and pad holds p in their digit lanes, so that sub(x, y) is x - y for x
    and y there.  row and entries convert a list of encodings, one a slot,
    to and from an int; pack and unpack convert from and to the integer
    whose base-q digits are the first k slots.

    The quotient ring of a modulus of degree k uses lanes(F, k, 2k - 1).
    A matrix row of n entries uses lanes(F, 1, n): a row operation adds a
    multiple of another row, one coefficient product to each slot.  Such a
    caller finds entry j as the slot x >> w j & low and needs no digit:
    neg and inv give -c and 1/c for a slot c, and reduce(x + neg(c) y) is
    x - c y, its lanes at most (p-1)(ap + 1) before the reduce.
    """

    __slots__ = ("field", "p", "b", "w", "ones", "lane", "digit", "folds",
                 "s", "m", "even", "quot", "pad", "low", "at", "spread",
                 "gather")

    def __init__(self, F, k, n):
        p, a = F.p, F.a
        self.field, self.p = F, p
        c = k * a * (p - 1) ** 2
        b = (2 * c).bit_length() if p == 2 else (
            (2 * c * p ** (a - 1)).bit_length() + 1)
        self.b, self.w = b, (2 * a - 1) * b
        every = sum(1 << self.w * i for i in range(n))
        self.ones = every * sum(1 << b * s for s in range(2 * a - 1))
        # _fold adds lane s >= a of every slot times r, the digits of
        # t^s mod the modulus, to the slot's lanes below a: below
        # 1 + (a-1)(p-1) <= p^(a-1) times the largest lane
        self.lane = every * ((1 << b) - 1)
        self.digit = every * ((1 << a * b) - 1)
        r, folds = [-m % p for m in (F.modulus or ())[:a]], []
        for s in range(a, 2 * a - 1):
            folds.append((b * s, sum(d << b * j for j, d in enumerate(r))))
            # t^(s+1) = t t^s, its top digit folded by t^a
            r = [(x + r[-1] * (-m % p)) % p
                 for x, m in zip([0] + r[:-1], F.modulus)]
        self.folds = tuple(folds)
        # _mod: even lanes and odd ones apart, each in a 2b-bit slot, take
        # v - p floor(v m / 2^s) with m = ceil(2^s / p) and 2^s > 2^(b-1) p
        # (Granlund-Montgomery, PLDI 1994), exact for v < 2^(b-1)
        self.s = b - 1 + p.bit_length()
        self.m = -(-(1 << self.s) // p)
        slots = sum(1 << 2 * b * i for i in range(n * a))
        self.even = slots * ((1 << b) - 1)
        self.quot = slots * ((1 << 2 * b - self.s) - 1)
        self.low = (1 << k * self.w) - 1
        self.pad = (every & self.low) * sum(p << b * s for s in range(a))
        self.at = tuple((j + j // a * (a - 1)) * b for j in range(k * a))
        # with c_s = c // p^s, the digits sum_s (c_s - p c_(s+1)) 2^(b s)
        # of c are c plus c_s (2^(b s) - p 2^(b(s-1))) for 0 < s < a
        self.spread = tuple((p ** s, (1 << b * s) - (p << b * (s - 1)))
                            for s in range(1, a))
        self.gather = tuple(b * s for s in reversed(range(a)))

    def _fold(self, x):
        """Fold lanes s >= a into lanes below a (p = 2: lanes mod 2 first)."""
        if self.p == 2:
            x &= self.ones
        y, lane = x & self.digit, self.lane
        for sh, r in self.folds:
            y += (x >> sh & lane) * r
        return y

    def _mod(self, x):
        p = self.p
        if p == 2:
            return x & self.ones
        b, even, m, s, q = self.b, self.even, self.m, self.s, self.quot
        e, o = x & even, x >> b & even
        return e - (e * m >> s & q) * p | o - (o * m >> s & q) * p << b

    def reduce(self, x):
        """Fold lanes s >= a by the field's modulus, take lanes mod p."""
        return self._mod(self._fold(x) if self.folds else x)

    def sub(self, x, y):
        return self.reduce(x + self.pad - y)

    def row(self, cs):
        """The int whose slot i holds the encoding cs[i]."""
        x, w, spread = 0, self.w, self.spread
        for c in reversed(cs):
            v = c
            for m, k in spread:
                v += c // m * k
            x = x << w | v
        return x

    def entries(self, x, n):
        """The encodings in the first n slots of the reduced x: Horner's
        rule in p on the digit lanes of every slot at once leaves each
        slot's encoding, below q < 2^w, in the slot."""
        p, lane, w, y = self.p, self.lane, self.w, 0
        for sh in self.gather:
            y = y * p + (x >> sh & lane)
        cut, out = (1 << w) - 1, []
        for _ in range(n):
            out.append(y & cut)
            y >>= w
        return out

    def neg(self, y):
        """-y for y reduced in the first k slots, its digit lanes in [1, p]."""
        return self.pad - y

    def inv(self, c):
        """The reduced slot of 1/c for the nonzero reduced slot c."""
        return self.pack(self.field.inv_enc(self.unpack(c)))

    def pack(self, n):
        """The int whose slots hold the base-q digits of n < q^k.

        Base-p digit j of n is digit j mod a of coefficient j // a, in lane
        j + (a-1)(j // a), at bit at[j].  Over GF(2), bit j of n goes to bit
        w j.
        """
        p = self.p
        if self.field.q == 2:
            return int(("0" * (self.w - 1)).join(format(n, "b")), 2)
        x = 0
        for sh in self.at:
            if not n:
                break
            n, d = divmod(n, p)
            x |= d << sh
        return x

    def unpack(self, x):
        """The integer whose base-q digits are the first k slots of x."""
        if self.field.q == 2:
            # every lane is 0 or 1, so the top bit is bit w i for some i
            return int(format(x, "b")[::self.w], 2)
        p, lane, n = self.p, (1 << self.b) - 1, 0
        for sh in reversed(self.at):
            n = n * p + (x >> sh & lane)
        return n


@functools.lru_cache(CACHE_CAP)
def lanes(F, k, n):
    """The shared Lanes(F, k, n)."""
    return Lanes(F, k, n)


class QuotientRing:
    """GF(q)[t]/(f), f monic of degree k >= 1, q = p^a, on packed integers.

    An element is one int in the layout lanes(F, k, 2k - 1), coefficient i
    in slot i.  Every ring of one field and degree shares that layout, its
    masks and its lane reduction, so a ring computes only -f and mu.
    Reduction mod f is Barrett's (von zur Gathen-Gerhard, Modern Computer
    Algebra, 9.1): c's quotient is floor(floor(c/t^k) mu / t^(k-2)),
    mu = floor(t^(2k-2)/f) found once by Newton iteration.  digits and
    poly convert from and to DensePoly through the layout's row and
    entries, as matrix rows do; pack, unpack and sub are the layout's.
    """

    __slots__ = ("field", "k", "lanes", "pack", "unpack", "sub", "mu",
                 "negf")

    def __init__(self, f):
        F, k = self.field, self.k = f.field, f.degree
        L = self.lanes = lanes(F, k, 2 * k - 1)
        self.pack, self.unpack, self.sub = L.pack, L.unpack, L.sub
        self.negf = self.digits(-DensePoly._of(F, f.coeffs[:k]))
        # mu is h = rev(f)^-1 mod t^(k-1) reversed, rev(f) = t^k f(1/t):
        # where h is right mod t^n, so is h - h(rev(f) h - 1) mod t^2n
        rev = L.row(f.coeffs[:0:-1][:k - 1])
        h, n = 1, 1
        while n < k - 1:
            cut = (1 << (min(2 * n, k - 1) - n) * L.w) - 1
            e = L.reduce(rev * h) >> n * L.w & cut
            h += (L.reduce(h * self.sub(0, e)) & cut) << n * L.w
            n *= 2
        h = self.poly(h | 1 << (k - 1) * L.w).coeffs     # k coefficients
        self.mu = L.row(h[-2::-1])

    def digits(self, g):
        """The element g, of degree < k."""
        return self.lanes.row(g.coeffs)

    def poly(self, x):
        """The DensePoly of degree < k of the element x."""
        return DensePoly._of(self.field, self.lanes.entries(x, self.k))

    def mul(self, x, y):
        L, k = self.lanes, self.k
        c, w, red = x * y, L.w, L.reduce
        q = red(red(c >> k * w) * self.mu >> max(k - 2, 0) * w)
        return red((c & L.low) + (q * self.negf & L.low))

    def pow(self, x, e):
        """x^e; e >= 0 may be big."""
        return power(x, e, self.mul, 1)


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
    R = QuotientRing(mod)
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
    built once, the Frobenius steps h_i = t^(q^i) run on packed elements in
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
        R = QuotientRing(f)
        x = R.digits(x_poly(F))
        h = x
        block = math.isqrt(f.degree // 2)
        while rest.degree > 2 * d + 1:
            hs = []
            for _ in range(min(block, rest.degree // 2 - d)):
                h = R.pow(h, F.q)
                hs.append(R.sub(h, x))
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
    for q = 2^a; both run on packed elements in the ring of f.
    """
    if f.degree == d:
        return [f]
    F = f.field
    R = QuotientRing(f)
    while True:
        h = _random_poly(F, f.degree, rng)
        if h.degree < 1:
            continue
        t = R.digits(h)
        if F.q % 2 == 1:
            w = R.sub(R.pow(t, (F.q ** d - 1) // 2), 1)
        else:
            # digit lanes add mod 2
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
    R = QuotientRing(f)
    return factorization_order_descend(
        R.digits(x_poly(F)), fac, R.pow, lambda y: y == 1)

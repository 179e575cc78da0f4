"""Independent oracles for the test suite.

Everything here is deliberately naive pure Python over prime fields:
trial-division factoring, Leibniz-expansion characteristic polynomials,
breadth-first group closures. The one exception, the induced point
actions, also runs over GF(p^a) by polynomial arithmetic. No imports
from the package under test, so agreement between the two is evidence
rather than tautology.

Matrices are tuples of tuples of ints reduced mod p. Polynomials are
tuples of ascending coefficients mod p.
"""

import itertools


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit + 1) if flags[i]]


def trial_factor(n):
    """Full factorization by trial division. Only for n whose second
    largest prime factor is small; callers must keep inputs modest."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mult_order(base, r):
    """Multiplicative order of base modulo r (prime r not dividing base)."""
    x = base % r
    k = 1
    while x != 1:
        x = x * base % r
        k += 1
    return k


def brute_ppd(q, e):
    """Sorted e-ppd primes of q^e - 1 by definition: prime divisors r
    with mult_order(q, r) exactly e."""
    out = []
    for r in sorted(trial_factor(q ** e - 1)):
        if r != q and mult_order(q, r) == e:
            out.append(r)
    return out


# --- matrices over F_p ---

def mat_mul(A, B, p):
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def mat_order(A, p, cap=100000):
    I = mat_identity(len(A))
    x = A
    for k in range(1, cap + 1):
        if x == I:
            return k
        x = mat_mul(x, A, p)
    raise AssertionError("order exceeds cap")


def brute_closure(gens, p, cap=2000000):
    """Breadth-first closure of a generating set; returns the full
    element set. Only for groups known to be small."""
    gens = [tuple(tuple(x % p for x in row) for row in g) for g in gens]
    seen = set(gens) | {mat_identity(len(gens[0]))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                t = mat_mul(m, g, p)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if len(seen) > cap:
                        raise AssertionError("closure exceeds cap")
        frontier = nxt
    return seen


def char_poly_leibniz(A, p):
    """Characteristic polynomial det(tI - A) by permutation expansion.
    Exponential in the dimension; keep d <= 5. Returns ascending
    coefficients mod p, degree d, monic."""
    n = len(A)
    # entries of tI - A as degree<=1 polynomials (c0, c1)
    ent = [[((-A[i][j]) % p, 1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    coeffs = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = [1]
        for i in range(n):
            prod = _poly_mul(prod, list(ent[i][perm[i]]), p)
        for k, c in enumerate(prod):
            coeffs[k] = (coeffs[k] + sign * c) % p
    return tuple(coeffs)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_mod(f, g, p):
    """Remainder of f by monic g, ascending coefficient lists."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        lead = f[-1]
        shift = len(f) - 1 - dg
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - lead * c) % p
    while f and f[-1] == 0:
        f.pop()
    return f


def brute_irreducible(coeffs, p):
    """Irreducibility over F_p by trial division against every monic
    polynomial of degree 1..deg/2. Exponential; keep p^(deg/2) small."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod(coeffs, g, p):
                return False
    return True


def perm_matrix(perm, p):
    """Row-action matrix of a 0-indexed permutation: row i has a 1 in
    column perm[i]."""
    n = len(perm)
    return tuple(tuple(1 if j == perm[i] else 0 for j in range(n))
                 for i in range(n))


def gl_order(d, q):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def sl_order(d, q):
    return gl_order(d, q) // (q - 1)


def sp_order(d, q):
    m = d // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


# --- GF(p^a) and induced point actions ---

def _digits(x, p, a):
    return [x // p ** i % p for i in range(a)]


def gf_add(x, y, p, a):
    """Sum of two GF(p^a) encodings: base-p digits add mod p."""
    return sum((u + v) % p * p ** i
               for i, (u, v) in enumerate(zip(_digits(x, p, a),
                                               _digits(y, p, a))))


def gf_mul(x, y, p, modulus):
    """Product of two GF(p^a) encodings. An encoding's base-p digits are
    the ascending coefficients of a polynomial in a root of the monic
    `modulus` (ascending too); modulus None means the prime field."""
    if modulus is None:
        return x * y % p
    a = len(modulus) - 1
    prod = _poly_mul(_digits(x, p, a), _digits(y, p, a), p)
    return sum(c * p ** i for i, c in enumerate(_poly_mod(prod, modulus, p)))


def gauss_jordan(rows, p, q, add, mul, limit=None):
    """(R, pivot columns, rank) of a matrix over GF(q), q a power of p,
    given as a list of rows of encodings, by Gauss-Jordan elimination with
    only the field's add and mul: -1 is the encoding p - 1, and 1/x is
    x^(q-2).

    Pivots are sought in the first `limit` columns (default all), each in
    the first row at or below the previous pivot's row that is nonzero
    there; that row is swapped up and scaled to pivot 1, and every other
    row loses its multiple of it.
    """
    R = [list(r) for r in rows]
    ncols = len(R[0]) if R else 0

    def inv(x):
        out, e = 1, q - 2
        while e:
            if e & 1:
                out = mul(out, x)
            x, e = mul(x, x), e >> 1
        return out

    pivots = []
    for col in range(ncols if limit is None else limit):
        r = len(pivots)
        nonzero = [i for i in range(r, len(R)) if R[i][col]]
        if not nonzero:
            continue
        R[r], R[nonzero[0]] = R[nonzero[0]], R[r]
        s = inv(R[r][col])
        R[r] = [mul(s, x) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][col]:
                f = mul(p - 1, R[i][col])
                R[i] = [add(x, mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(col)
    return R, pivots, len(pivots)


def induced_perms(gens, p, modulus=None, projective=False):
    """The permutations that row-action matrices over GF(p^a) induce on
    the vectors of GF(p^a)^d, or with projective on its lines (each
    represented by its vector whose first nonzero entry is 1). Points are
    numbered in itertools.product order; perm[i] is the image of point i."""
    a = 1 if modulus is None else len(modulus) - 1
    q = p ** a
    d = len(gens[0])
    inverse = {x: y for x in range(1, q) for y in range(1, q)
               if gf_mul(x, y, p, modulus) == 1}

    def normalize(v):
        if not projective:
            return v
        lead = next(c for c in v if c)
        return tuple(gf_mul(inverse[lead], c, p, modulus) for c in v)

    points = [v for v in itertools.product(range(q), repeat=d)
              if not projective or (any(v) and normalize(v) == v)]
    where = {v: i for i, v in enumerate(points)}
    perms = []
    for g in gens:
        perm = []
        for v in points:
            img = [0] * d
            for i in range(d):
                for j in range(d):
                    img[j] = gf_add(img[j], gf_mul(v[i], g[i][j], p, modulus),
                                    p, a)
            perm.append(where[normalize(tuple(img))])
        perms.append(perm)
    return perms

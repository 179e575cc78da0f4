"""Independent checks of the program's answers.

Element orders are checked in the regular representation: a matrix over
GF(p^a) becomes a matrix over GF(p) of size d*a, in which each entry x is
replaced by the a x a matrix of multiplication by x in the polynomial basis.
That map is an injective ring homomorphism, so g**n is the identity exactly
when its image is.  Powers are taken with float64 products, which are exact
here (entries below 2^8, inner size below 2^7), and the order is factored
with sympy, not with the package's own factoring code.
"""

import functools
import math

import numpy as np


@functools.cache
def _mult_matrices(p, a, modulus):
    """(p^a, a, a) array: row i of entry x holds the coefficients of x*t^i."""
    q = p ** a
    reps = np.zeros((q, a, a), dtype=np.int64)
    for x in range(q):
        row = [(x // p ** k) % p for k in range(a)]
        for i in range(a):
            reps[x, i] = row
            lead = row[-1]
            row = [0] + row[:-1]
            row = [(c - lead * m) % p for c, m in zip(row, modulus[:a])]
    return reps


def regular_rep(field, arr):
    """The d*a x d*a int64 matrix over GF(p) representing the d x d
    encoded array `arr` over `field` = GF(p^a)."""
    if field.a == 1:
        return np.array(arr, dtype=np.int64)
    d, a = arr.shape[0], field.a
    blocks = _mult_matrices(field.p, a, field.modulus)[arr]    # (d, d, a, a)
    return blocks.transpose(0, 2, 1, 3).reshape(d * a, d * a)


def is_invertible(field, arr):
    """Gaussian elimination mod p on the regular representation."""
    p = field.p
    m = regular_rep(field, arr) % p
    n = m.shape[0]
    for col in range(n):
        nonzero = np.nonzero(m[col:, col])[0]
        if nonzero.size == 0:
            return False
        r = col + nonzero[0]
        m[[col, r]] = m[[r, col]]
        m[col] = m[col] * pow(int(m[col, col]), p - 2, p) % p
        below = col + 1 + np.nonzero(m[col + 1:, col])[0]
        m[below] = (m[below] - np.outer(m[below, col], m[col])) % p
    return True


def _power(m, n, p):
    out = np.eye(m.shape[0])
    while n:
        if n & 1:
            out = np.mod(out @ m, p)
        n >>= 1
        if n:
            m = np.mod(m @ m, p)
    return out


def order_is_exact(g, order):
    """True when g**order is the identity and g**(order/l) is not, for
    every prime l dividing order."""
    import sympy

    if order < 1:
        return False
    p = g.field.p
    m = regular_rep(g.field, g.arr).astype(np.float64)
    eye = np.eye(m.shape[0])
    if not np.array_equal(_power(m, order, p), eye):
        return False
    return all(not np.array_equal(_power(m, order // ell, p), eye)
               for ell in sympy.factorint(order))


def gl_order(d, q):
    return math.prod(q ** d - q ** i for i in range(d))


def sl_order(d, q):
    return gl_order(d, q) // (q - 1)


def sp_order(d, q):
    m = d // 2
    return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def alternating_order(n):
    return math.factorial(n) // 2

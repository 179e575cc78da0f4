"""Exact matrices over GF(q) with a row-vector right action.

A matrix g acts on row vectors by v |-> v g, so the image of g is its row
space and the kernel is the left null space {v : v g = 0}.  Entries are
integer encodings in an int64 numpy array.  Multiply, rank, echelon form,
characteristic polynomial and the elementwise add, sub, neg and scale run
through the _kernels module, one implementation each for every field
with q < 2^62, so that encodings fit in int64.  rank() is the forward
pass of the row reduction alone, on rows packed into Python ints; the
echelon forms behind inverse, kernel and Subspace add back-substitution.
Above ffield.TABLE_CAP the entry products of the array kernels run one at
a time in the field's quotient ring.
"""

import math
import operator

import numpy as np

from . import _kernels, fpoly
from ._intmath import power
from .errors import (DimensionMismatch, NotInvariant, NotSquare, Singular,
                     TooLarge)


def _as_array(field, data):
    try:
        arr = np.asarray(data, dtype=np.int64)
    except OverflowError:
        arr = None      # an entry beyond int64, so out of range
    else:
        if arr.ndim != 2:
            raise DimensionMismatch("matrix data must be two-dimensional")
    if arr is None or arr.size and (arr.min() < 0 or arr.max() >= field.q):
        raise ValueError("entry encoding out of range [0, %d)" % field.q)
    return np.ascontiguousarray(arr)


class DenseMatrix:
    __slots__ = ("field", "arr")

    def __init__(self, field, data):
        if field.q >= 1 << 62:
            raise TooLarge("matrix entries need q < 2^62")
        self.field = field
        self.arr = _as_array(field, data)

    @property
    def nrows(self):
        return self.arr.shape[0]

    @property
    def ncols(self):
        return self.arr.shape[1]

    def _check(self, other):
        if not isinstance(other, DenseMatrix) or other.field != self.field:
            raise DimensionMismatch("matrices over different fields")

    def _square(self):
        if self.nrows != self.ncols:
            raise NotSquare("need a square matrix, got %dx%d"
                            % (self.nrows, self.ncols))
        return self.nrows

    def __mul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions %d and %d differ"
                                    % (self.ncols, other.nrows))
        F = self.field
        return DenseMatrix(F, _kernels.matmul(F, self.arr, other.arr))

    def __add__(self, other):
        return self._elementwise(_kernels.add, other)

    def __sub__(self, other):
        return self._elementwise(_kernels.sub, other)

    def _elementwise(self, op, other):
        self._check(other)
        if self.arr.shape != other.arr.shape:
            raise DimensionMismatch("shape mismatch")
        return DenseMatrix(self.field, op(self.field, self.arr, other.arr))

    def __neg__(self):
        return DenseMatrix(self.field, _kernels.sub(self.field, 0, self.arr))

    def scale(self, c):
        F = self.field
        return DenseMatrix(F, _kernels.mul(F, self.arr, np.int64(c)))

    def __pow__(self, n):
        d = self._square()
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, operator.mul, identity(self.field, d))

    def transpose(self):
        return DenseMatrix(self.field, np.ascontiguousarray(self.arr.T))

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and other.field == self.field
                and self.arr.shape == other.arr.shape
                and bool(np.array_equal(self.arr, other.arr)))

    def __hash__(self):
        return hash((self.field, self.arr.shape, self.arr.tobytes()))

    def rank(self):
        return _kernels.rank(self.field, self.arr)

    def det(self):
        """Determinant encoding, via the characteristic polynomial."""
        d = self._square()
        cp = char_poly(self)
        c0 = cp.coeffs[0] if cp.coeffs else 0
        return self.field.neg_enc(c0) if d % 2 else c0

    def is_invertible(self):
        return self.rank() == self._square()

    def inverse(self):
        d = self._square()
        F = self.field
        aug = np.hstack([self.arr, identity(F, d).arr])
        R, piv, rank = _kernels.rref(F, aug, limit=d)
        if rank < d:
            raise Singular("matrix is singular")
        return DenseMatrix(F, np.ascontiguousarray(R[:, d:]))

    def trace(self):
        d = self._square()
        t = 0
        for i in range(d):
            t = self.field.add_enc(t, int(self.arr[i, i]))
        return t

    def __repr__(self):
        return "DenseMatrix(%r,\n%r)" % (self.field, self.arr)


def identity(field, d):
    arr = np.zeros((d, d), dtype=np.int64)
    np.fill_diagonal(arr, 1)
    return DenseMatrix(field, arr)


def zeros(field, rows, cols=None):
    return DenseMatrix(field, np.zeros((rows, cols if cols is not None else rows),
                                       dtype=np.int64))


def scalar_matrix(field, d, c):
    arr = np.zeros((d, d), dtype=np.int64)
    np.fill_diagonal(arr, c)
    return DenseMatrix(field, arr)


def diagonal(field, encs):
    arr = np.zeros((len(encs), len(encs)), dtype=np.int64)
    for i, c in enumerate(encs):
        arr[i, i] = c
    return DenseMatrix(field, arr)


def companion(f):
    """Companion matrix of a monic polynomial, acting on row vectors.

    e_i maps to e_{i+1} for i < k-1 and e_{k-1} maps to -sum c_j e_j, so
    the characteristic and minimal polynomials both equal f.
    """
    F = f.field
    k = f.degree
    if k < 1:
        raise DimensionMismatch("companion matrix needs degree >= 1")
    if f.coeffs[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    arr = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        arr[i, i + 1] = 1
    for j in range(k):
        arr[k - 1, j] = F.neg_enc(f.coeffs[j])
    return DenseMatrix(F, arr)


def block_diagonal(blocks):
    F = blocks[0].field
    d = sum(b._square() for b in blocks)
    arr = np.zeros((d, d), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.nrows
        arr[at:at + k, at:at + k] = b.arr
        at += k
    return DenseMatrix(F, arr)


def apply_row(v, g):
    """Row vector image v g, as an int64 array of encodings."""
    vv = np.asarray(v, dtype=np.int64).reshape(1, -1)
    return _kernels.matmul(g.field, vv, g.arr)[0]


class Subspace:
    """Row space in RREF; dimension-0 subspaces keep a (0, d) basis."""

    __slots__ = ("field", "basis", "pivots")

    def __init__(self, field, basis, pivots):
        self.field = field
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_rows(cls, field, rows, ambient_dim=None):
        arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            if ambient_dim is None:
                raise DimensionMismatch("empty row list needs ambient_dim")
            return cls(field, np.zeros((0, ambient_dim), dtype=np.int64), [])
        arr = arr.reshape(len(rows), -1)
        R, piv, rank = _kernels.rref(field, arr)
        return cls(field, np.ascontiguousarray(R[:rank]), piv)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return self.basis.shape[1]

    def _coords(self, W):
        """Coordinate rows of the rows of W, or None if one lies outside.

        In an RREF basis the coordinates of a vector are its entries at
        the pivot columns, and the vector lies in the space iff those
        coordinates reproduce it.
        """
        C = np.ascontiguousarray(W[:, self.pivots])
        if not np.array_equal(_kernels.matmul(self.field, C, self.basis), W):
            return None
        return C

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def is_invariant(self, g):
        images = _kernels.matmul(g.field, self.basis, g.arr)
        return self._coords(images) is not None

    def __repr__(self):
        return "Subspace(dim=%d of %d over %r)" % (
            self.dim, self.ambient_dim, self.field)


def kernel(g):
    """Left null space {v : v g = 0} as a Subspace."""
    F = g.field
    R, piv, rank = _kernels.rref(F, g.arr.T)
    n = g.nrows
    if rank == n:
        return Subspace.from_rows(F, [], ambient_dim=n)
    # S holds row r of R at row piv[r]; for each free column fc, column fc
    # of I - S is 1 at fc and -R[r, fc] at piv[r], a vector of the kernel
    S = np.zeros((n, n), dtype=np.int64)
    S[piv] = R[:rank]
    pivots = set(piv)
    free = [j for j in range(n) if j not in pivots]
    rows = _kernels.sub(F, np.eye(n, dtype=np.int64), S).T.take(free, axis=0)
    return Subspace.from_rows(F, rows, ambient_dim=n)


def image(g):
    """Row space of g as a Subspace."""
    return Subspace.from_rows(g.field, g.arr, ambient_dim=g.ncols)


def fixed_space(g):
    """Eigenspace of 1: kernel of g - I."""
    return kernel(g - identity(g.field, g._square()))


def restrict(g, space):
    """Matrix of the action of g on the basis of an invariant subspace.

    Raises NotInvariant when some basis image leaves the space.
    """
    c = space._coords(_kernels.matmul(g.field, space.basis, g.arr))
    if c is None:
        raise NotInvariant("subspace is not invariant under the matrix")
    return DenseMatrix(g.field, c)


def char_poly(g):
    """det(tI - g) as a monic DensePoly."""
    g._square()
    return fpoly.DensePoly(g.field, _kernels.charpoly(g.field, g.arr))


def _poly_at(f, g):
    """f(g) for a monic f of degree >= 1, by Horner's rule."""
    F, d = g.field, g.nrows
    cs = f.coeffs
    acc = g + scalar_matrix(F, d, cs[-2])
    for c in reversed(cs[:-2]):
        acc = acc * g + scalar_matrix(F, d, c)
    return acc


def _min_poly_factors(g, char_factors):
    """(f, k) pairs of the minimal polynomial of g, given the (f, m) pairs of
    its factored characteristic polynomial.

    ker f(g)^m is the f-primary component of the space, of dimension
    m deg f, so k is the least exponent with rank f(g)^k = d - m deg f.
    k = 1 when m = 1, and k = m needs no rank check.
    """
    d = g.nrows
    out = []
    for f, m in char_factors:
        k = 1
        if m > 1:
            target = d - m * f.degree
            fg = _poly_at(f, g)
            h = fg
            while k < m and h.rank() > target:
                h = h * fg
                k += 1
        out.append((f, k))
    return out


def min_poly(g):
    """Minimal polynomial, read off the factored characteristic polynomial.

    The minimal polynomial has the same irreducible factors f as the
    characteristic polynomial.  A factor of multiplicity 1 there has
    exponent 1 here, so a squarefree characteristic polynomial (the usual
    case for random elements) is its own minimal polynomial and costs no
    matrix work; for a repeated factor the exponent comes from the ranks
    of the powers of f(g).
    """
    g._square()
    cp_factors = fpoly.factor_cached(char_poly(g)).factors
    return fpoly.Factorization(1, _min_poly_factors(g, cp_factors)).expand(
        g.field)


def _analysis(g):
    """(characteristic factors, minimal factors, order) of an invertible
    matrix, each factor list of (monic irreducible, multiplicity) pairs.

    The order splits as s * p^k: s is the lcm of the root orders of the
    distinct irreducible factors, and p^k covers the largest multiplicity
    in the minimal polynomial.
    """
    g._square()
    F = g.field
    cp = char_poly(g)
    if cp.coeffs[0] == 0:
        raise Singular("matrix is singular")
    cp_factors = fpoly.factor_cached(cp).factors
    mp_factors = _min_poly_factors(g, cp_factors)
    s = 1
    max_mult = 1
    tm1 = fpoly.DensePoly(F, [F.neg_enc(1), 1])
    for f, mult in mp_factors:
        max_mult = max(max_mult, mult)
        if f == tm1:
            continue
        ro = fpoly.root_order_in_quotient(f)
        s = s * ro // math.gcd(s, ro)
    pk = 1
    while pk < max_mult:
        pk *= F.p
    return cp_factors, mp_factors, s * pk


def matrix_order(g):
    """Multiplicative order of an invertible matrix."""
    return _analysis(g)[2]

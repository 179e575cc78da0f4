"""Dense linear-algebra kernels over GF(q).

Matrices are int64 numpy arrays of integer-encoded field elements
(encoding sum c_i p^i).  Each kernel -- matrix multiply, rank, reduced row
echelon form, characteristic polynomial -- has one body and takes the
FieldSpec itself as the description of the field.  Multiply and
characteristic polynomial run on the arrays, and their field cases live
only in the elementwise primitives add, sub and mul and in the sum dot,
which broadcast their operands and make no copies of them:

  add, sub   prime field: arithmetic mod p on the encodings
             p = 2 extension: xor
             odd extension: one shared digitwise loop, digit i of x +- y
             being (x // p^i +- y // p^i) mod p
  mul        prime field: product mod p
             tabled extension: the single gather exp[log[x] + log[y]];
             the zero sentinel of ffield's tables makes it exact on zeros
             extension above ffield.TABLE_CAP: FieldSpec.mul_enc per entry,
             a product in the field's quotient ring GF(p)[t]/(modulus)
  dot        A @ x for a vector x, the field sum over the last axis of A * x
             prime field: one _dot_mod
             p = 2 extension: xor-reduce of the products
             odd extension: digit i of the sum is the sum of the digits i
             of the products, mod p

_dot_mod is the one overflow-safe (A @ B) mod p: the prime-field matmul
and the prime-field dot sum through it.  Negation is sub(F, 0, x).

rank and rref run on packed rows: each row is one Python int in the lane
layout fpoly.lanes(F, 1, n) that the quotient rings use (Kronecker
substitution), entry j in slot j, so a row operation is one small-by-big
multiply and the layout's reduce.  Rows go in and out through the
layout's row and entries, as ring elements do; only fpoly knows where a
digit sits.  One forward pass finds each pivot by shift and mask, swaps
it up, scales it to 1 and eliminates below it; rank stops there, and
rref adds back-substitution and the unpack.

charpoly reduces the matrix to upper Hessenberg form on the array, one
column per step: a row update through sub and mul and a column update
through dot.  Only the recurrence over the leading blocks of the
Hessenberg matrix, O(d^2) scalars per block, runs on Python ints with the
FieldSpec scalar methods.
"""

import numpy as np

from .fpoly import lanes


def backend():
    return "numpy"


def _digitwise(F, op, x, y):
    """op (np.add or np.subtract) on two broadcastable encoding arrays."""
    if F.a == 1:
        return op(x, y) % F.p
    if F.p == 2:
        return np.bitwise_xor(x, y)
    # digit i of op(x, y) is op(x // p^i, y // p^i) mod p: the higher
    # digits of each quotient are multiples of p
    s = 0
    m = 1
    for _ in range(F.a):
        s = s + op(x // m, y // m) % F.p * m
        m *= F.p
    return s


def add(F, x, y):
    """Elementwise sum of two broadcastable encoding arrays."""
    return _digitwise(F, np.add, x, y)


def sub(F, x, y):
    """Elementwise difference x - y of two broadcastable encoding arrays."""
    return _digitwise(F, np.subtract, x, y)


def _dot_mod(A, B, p):
    """(A @ B) mod p for entries in [0, p), exact in int64: the inner axis
    is summed in chunks of at most 2^62 / (p-1)^2 products."""
    step = max(1, (1 << 62) // ((p - 1) * (p - 1)))
    if A.shape[-1] <= step:
        return A @ B % p
    C = A[..., :step] @ B[..., :step, :] % p
    for s in range(step, A.shape[-1], step):
        C = (C + A[..., s:s + step] @ B[..., s:s + step, :]) % p
    return C


def dot(F, A, x):
    """Field sum over the last axis of A * x: the vector A @ x."""
    if F.a == 1:
        return _dot_mod(A, x[:, None], F.p)[..., 0]
    y = mul(F, A, x)
    if F.p == 2:
        return np.bitwise_xor.reduce(y, axis=-1)
    # digit i of the sum is the sum of the digits i mod p
    s = 0
    m = 1
    for _ in range(F.a):
        s = s + (y // m % F.p).sum(axis=-1) % F.p * m
        m *= F.p
    return s


def mul(F, x, y):
    """Elementwise product of two broadcastable encoding arrays."""
    if F.a == 1:
        return x * y % F.p
    if F._log is not None:
        return F._exp[F._log[x] + F._log[y]]
    return np.frompyfunc(F.mul_enc, 2, 1)(x, y).astype(np.int64)


def matmul(F, A, B):
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    if F.a == 1:
        return _dot_mod(A, B, F.p)
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(A.shape[1]):
        C = add(F, C, mul(F, A[:, t:t + 1], B[t:t + 1, :]))
    return C


def _forward(L, rows, limit):
    """Row echelon form of the packed rows in their first `limit` columns,
    in place: each pivot row is scaled to pivot 1, and the rows below it
    lose their multiples of it.  Returns the pivot columns.

    The next pivot column is the lowest nonzero slot of the OR of the rows
    below the last pivot, its row the first of them with that slot
    nonzero; one pass over those rows eliminates and ORs for the next.
    """
    w, slot, neg, red = L.w, L.low, L.neg, L.reduce
    cut = (1 << limit * w) - 1
    below = 0
    for x in rows:
        below |= x
    below &= cut
    pivots = []
    while below:
        sh = ((below & -below).bit_length() - 1) // w * w
        r = len(pivots)
        i = r
        while not rows[i] >> sh & slot:
            i += 1
        top, rows[i] = rows[i], rows[r]
        c = top >> sh & slot
        if c != 1:
            top = red(L.inv(c) * top)
        rows[r] = top
        pivots.append(sh // w)
        below = 0
        for i in range(r + 1, len(rows)):
            x = rows[i]
            c = x >> sh & slot
            if c:
                x = rows[i] = red(x + neg(c) * top)
            below |= x
        below &= cut
    return pivots


def rank(F, M):
    """Rank of the encoding array M: the forward pass alone."""
    M = np.asarray(M, dtype=np.int64)
    if M.size == 0:
        return 0
    L = lanes(F, 1, M.shape[1])
    return len(_forward(L, [L.row(cs) for cs in M.tolist()], M.shape[1]))


def rref(F, M, limit=None):
    """Reduced row echelon form.

    Pivot search is restricted to the first `limit` columns (defaults to
    all), which lets callers rref augmented blocks [M | I].  Returns
    (R, pivot column list, rank).  After the forward pass, back-substitution
    takes the pivot rows last first: row j loses the reduced row k times
    its own entry in pivot column k, for each later pivot k.
    """
    M = np.asarray(M, dtype=np.int64)
    if M.size == 0:
        return M.copy(), [], 0
    n = M.shape[1]
    L = lanes(F, 1, n)
    rows = [L.row(cs) for cs in M.tolist()]
    pivots = _forward(L, rows, n if limit is None else limit)
    w, slot, neg, red = L.w, L.low, L.neg, L.reduce
    for j in reversed(range(len(pivots))):
        x = y = rows[j]
        for k in range(j + 1, len(pivots)):
            c = x >> pivots[k] * w & slot
            if c:
                y = red(y + neg(c) * rows[k])
        rows[j] = y
    return (np.array([L.entries(x, n) for x in rows], dtype=np.int64),
            pivots, len(pivots))


def charpoly(F, M):
    """Ascending coefficients (d+1 ints) of det(tI - M).

    Similarity reduction to upper Hessenberg form on the array (Cohen, GTM
    138, the Hessenberg algorithm), one column j per step.  The first
    nonzero of column j at or below the subdiagonal is swapped into row and
    column j+1; then each row i > j+1 loses f_i times row j+1, with
    f_i = H[i, j] / H[j+1, j], and column j+1 gains the sum of f_i times
    column i.  The d-j-2 similarities by I - f_i e_i e_{j+1}^T commute, so
    one row update and one dot apply them all and give the H of applying
    them one by one.  Row j+1 is zero left of column j, and column j below
    the subdiagonal, which the update would clear, is never read again, so
    the row update starts at column j+1.  Then the recurrence for the
    characteristic polynomials of the leading principal blocks of the
    Hessenberg part of H, on Python ints.
    """
    d = M.shape[0]
    H = np.array(M, dtype=np.int64)
    g = np.empty(d, dtype=np.int64)
    for j in range(d - 2):
        nz = H[j + 1:, j].nonzero()[0]
        if nz.size == 0:
            continue
        pr = j + 1 + int(nz[0])
        if pr != j + 1:
            row = H[j + 1].copy()
            H[j + 1] = H[pr]
            H[pr] = row
            col = H[:, j + 1].copy()
            H[:, j + 1] = H[:, pr]
            H[:, pr] = col
        if nz.size == 1:
            continue
        # g[j+1:] = (1, f_{j+2}, ..., f_{d-1})
        g[j + 1] = 1
        g[j + 2:] = H[j + 2:, j]
        piv = int(H[j + 1, j])
        if piv != 1:
            g[j + 2:] = mul(F, g[j + 2:], F.inv_enc(piv))
        H[j + 2:, j + 1:] = sub(F, H[j + 2:, j + 1:],
                                mul(F, g[j + 2:, None], H[j + 1, j + 1:]))
        H[:, j + 1] = dot(F, H[:, j + 1:], g[j + 1:])
    H = H.tolist()
    mul_enc, sub_enc = F.mul_enc, F.sub_enc
    polys = [[1]]
    for k in range(1, d + 1):
        prev = polys[k - 1]
        hkk = H[k - 1][k - 1]
        cur = [0] + prev
        for c in range(k):
            cur[c] = sub_enc(cur[c], mul_enc(hkk, prev[c]))
        beta = 1
        for i in range(1, k):
            beta = mul_enc(beta, H[k - i][k - i - 1])
            if beta == 0:
                break
            coeff = mul_enc(H[k - 1 - i][k - 1], beta)
            if coeff:
                pki = polys[k - 1 - i]
                for c in range(k - i):
                    cur[c] = sub_enc(cur[c], mul_enc(coeff, pki[c]))
        polys.append(cur)
    return polys[d]

"""Dense linear-algebra kernels over GF(q).

Matrices are int64 numpy arrays of integer-encoded field elements
(encoding sum c_i p^i).  Each kernel -- matrix multiply, reduced row
echelon form, characteristic polynomial -- has one body and takes the
FieldSpec itself as the description of the field.  The field cases live
only in the elementwise primitives add, neg and mul:

  prime field       arithmetic mod p on the encodings
  p = 2 extension   xor addition
  odd extension     digitwise addition in base p

Extension-field products go through the field's exp/log tables; a field
above ffield.TABLE_CAP has none, and mul multiplies each nonzero pair by
FieldSpec.mul_enc instead.  The characteristic polynomial works on Python
ints with the FieldSpec scalar methods.
"""

import numpy as np


def backend():
    return "numpy"


def add(F, x, y):
    """Elementwise sum of two broadcastable encoding arrays."""
    if F.a == 1:
        return (x + y) % F.p
    if F.p == 2:
        return np.bitwise_xor(x, y)
    s = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    xx = np.array(np.broadcast_to(x, s.shape))
    yy = np.array(np.broadcast_to(y, s.shape))
    mult = 1
    for _ in range(F.a):
        s += ((xx + yy) % F.p) * mult
        xx //= F.p
        yy //= F.p
        mult *= F.p
    return s


def neg(F, x):
    """Elementwise negation of an encoding array."""
    if F.a == 1:
        return (-x) % F.p
    if F.p == 2:
        return x.copy()
    s = np.zeros_like(x)
    xx = x.copy()
    mult = 1
    for _ in range(F.a):
        s += ((-xx) % F.p) * mult
        xx //= F.p
        mult *= F.p
    return s


def mul(F, x, y):
    """Elementwise product of two broadcastable encoding arrays."""
    if F.a == 1:
        return x * y % F.p
    xb = np.broadcast_to(x, np.broadcast(x, y).shape)
    yb = np.broadcast_to(y, xb.shape)
    nz = (xb != 0) & (yb != 0)
    out = np.zeros(xb.shape, dtype=np.int64)
    if np.any(nz):
        if F._log is not None:
            out[nz] = F._exp[F._log[xb[nz]] + F._log[yb[nz]]]
        else:
            out[nz] = [F.mul_enc(int(u), int(v))
                       for u, v in zip(xb[nz], yb[nz])]
    return out


def matmul(F, A, B):
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    kk = A.shape[1]
    if F.a == 1 and kk * (F.p - 1) * (F.p - 1) < (1 << 62):
        return (A @ B) % F.p
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(kk):
        C = add(F, C, mul(F, A[:, t:t + 1], B[t:t + 1, :]))
    return C


def rref(F, M, limit=None):
    """Reduced row echelon form.

    Pivot search is restricted to the first `limit` columns (defaults to
    all), which lets callers rref augmented blocks [M | I].  Returns
    (R, pivot column list, rank).
    """
    R = np.array(M, dtype=np.int64, order="C")
    if R.size == 0 or R.shape[0] == 0:
        return R, [], 0
    if limit is None:
        limit = R.shape[1]
    m = R.shape[0]
    pivots = []
    rank = 0
    for col in range(limit):
        if rank == m:
            break
        nz = np.nonzero(R[rank:, col])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        piv = int(R[rank, col])
        if piv != 1:
            R[rank] = mul(F, R[rank], np.int64(F.inv_enc(piv)))
        others = np.nonzero(R[:, col])[0]
        others = others[others != rank]
        if others.size:
            f = R[others, col:col + 1]
            R[others] = add(F, R[others], neg(F, mul(F, f, R[rank:rank + 1, :])))
        pivots.append(col)
        rank += 1
    return R, pivots, rank


def charpoly(F, M):
    """Ascending coefficients (d+1 ints) of det(tI - M).

    Similarity reduction to upper Hessenberg form, then the recurrence for
    the characteristic polynomials of its leading principal blocks.
    """
    d = M.shape[0]
    H = [[int(x) for x in row] for row in M]
    for j in range(d - 2):
        pr = -1
        for i in range(j + 1, d):
            if H[i][j] != 0:
                pr = i
                break
        if pr == -1:
            continue
        if pr != j + 1:
            H[j + 1], H[pr] = H[pr], H[j + 1]
            for t in range(d):
                H[t][j + 1], H[t][pr] = H[t][pr], H[t][j + 1]
        inv = F.inv_enc(H[j + 1][j])
        for i in range(j + 2, d):
            if H[i][j] != 0:
                f = F.mul_enc(H[i][j], inv)
                for t in range(d):
                    H[i][t] = F.sub_enc(H[i][t], F.mul_enc(f, H[j + 1][t]))
                for t in range(d):
                    H[t][j + 1] = F.add_enc(H[t][j + 1], F.mul_enc(f, H[t][i]))
    polys = [[1]]
    for k in range(1, d + 1):
        hkk = H[k - 1][k - 1]
        cur = [0] * (k + 1)
        prev = polys[k - 1]
        for c in range(k):
            cur[c + 1] = prev[c]
        for c in range(k):
            cur[c] = F.sub_enc(cur[c], F.mul_enc(hkk, prev[c]))
        beta = 1
        for i in range(1, k):
            beta = F.mul_enc(beta, H[k - i][k - i - 1])
            if beta == 0:
                break
            coeff = F.mul_enc(H[k - 1 - i][k - 1], beta)
            if coeff == 0:
                continue
            pki = polys[k - 1 - i]
            for c in range(k - i):
                cur[c] = F.sub_enc(cur[c], F.mul_enc(coeff, pki[c]))
        polys.append(cur)
    return polys[d]

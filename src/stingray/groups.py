"""Finitely generated matrix groups over GF(q) and the explicit modules
used throughout: deleted permutation modules of alternating groups, the
SL2(q) family (natural, symmetric cube, twisted tensor), and classical
generator sets, plus the group-level algorithms (spinning, a Norton-style
irreducibility test, product-replacement random elements, and an exact
group order).

Permutations are tuples of 0-indexed images, composed left to right (s
then t), so all module maps are homomorphisms for the package's row-vector
action: map(s then t) = map(s) * map(t).

group_order works in the permutation domain: each generator is mapped
once, by one matrix product over all points, to an integer permutation of
the vectors of GF(q)^d or of its lines, and a deterministic Schreier-Sims
runs on those permutations.  Transversals are Schreier vectors walked with
cached generator inverses, and base points are basis vectors (or, for
lines, the points of a projective frame), so no matrix is multiplied or
inverted after the conversion.  By Schreier's lemma the first level
verifies only the Schreier generators of the input, and the sifting work
is capped at SIFT_BUDGET steps.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, ffield, fmatrix, fpoly
from ._intmath import SplitMix64
from .errors import (ActionTooLarge, BadTwist, CharTooSmallForSymcube,
                     DegreeTooSmall, DimensionMismatch, OddDimensionSymplectic,
                     SingularGenerator, UnknownModuleSpec, ZeroVector)

DEFAULT_SEED = 0xC0FFEE


class MatrixGroup:
    """Immutable bundle of invertible same-shape generators."""

    __slots__ = ("field", "dim", "generators", "label")

    def __init__(self, field, dim, generators, label=""):
        if not generators:
            raise DimensionMismatch("a matrix group needs at least one generator")
        for i, g in enumerate(generators):
            if g.field != field or g.nrows != dim or g.ncols != dim:
                raise DimensionMismatch("generator %d has the wrong shape" % i)
            if g.rank() != dim:
                raise SingularGenerator("generator %d is singular" % i,
                                        index=i)
        self.field = field
        self.dim = dim
        self.generators = tuple(generators)
        self.label = label

    def transpose_group(self):
        return MatrixGroup(self.field, self.dim,
                           [g.transpose() for g in self.generators],
                           label=self.label + " (transpose)")

    def __repr__(self):
        return "MatrixGroup(%r, dim=%d, %d gens, %r)" % (
            self.field, self.dim, len(self.generators), self.label)


# --- permutation plumbing ---

def perm_from_cycles(n, cycles):
    """Permutation from 1-indexed cycles, e.g. (14, [(1,2,3)])."""
    img = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            if not 1 <= a <= n:
                raise ValueError("cycle point %d outside 1..%d" % (a, n))
            img[a - 1] = b - 1
    return tuple(img)


# --- deleted permutation module ---

@dataclass(frozen=True)
class DeletedPermModule:
    group: MatrixGroup
    to_matrix: object      # permutation tuple -> DenseMatrix
    dim: int
    n: int
    p: int


def deleted_perm_module(n, p):
    """The fully deleted permutation module of A_n over F_p.

    Dimension n-1 when p does not divide n, n-2 when it does.  The basis
    is the image of w_i = y_{i+1} - y_i (0-indexed, i < n-1); when p | n
    the all-ones vector e lies in the sum-zero space W and w_{n-2}, the
    highest-index basis vector, is eliminated through the relation
    e = sum (n-1-i) w_i = 0 in the quotient.
    """
    if n < 5:
        raise DegreeTooSmall("deleted permutation module needs n >= 5")
    F = ffield.make_field(p)
    delta = 2 if n % p == 0 else 1
    d = n - delta

    # reduction row: w_{n-2} = sum_{i<n-2} (i+1) w_i in the quotient
    if delta == 2:
        red = np.array([(i + 1) % p for i in range(d)], dtype=np.int64)

    def wcoords(a, b):
        """y_b - y_a in w-coordinates (length n-1 integer row)."""
        row = np.zeros(n - 1, dtype=np.int64)
        if a < b:
            row[a:b] = 1
        elif b < a:
            row[b:a] = p - 1
        return row

    def to_matrix(perm):
        if len(perm) != n or sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of 0..%d" % (n - 1))
        rows = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            full = wcoords(perm[i], perm[i + 1]) % p
            if delta == 2 and full[n - 2]:
                c = full[n - 2]
                full = (full[:d] + c * red) % p
            else:
                full = full[:d]
            rows[i] = full
        return fmatrix.DenseMatrix(F, rows)

    g1 = perm_from_cycles(n, [(1, 2, 3)])
    if n % 2 == 1:
        g2 = perm_from_cycles(n, [tuple(range(1, n + 1))])
    else:
        g2 = perm_from_cycles(n, [tuple(range(2, n + 1))])
    grp = MatrixGroup(F, d, [to_matrix(g1), to_matrix(g2)],
                      label="A%d deleted permutation module over GF(%d)" % (n, p))
    return DeletedPermModule(group=grp, to_matrix=to_matrix, dim=d, n=n, p=p)


# --- SL2(q) modules ---

NATURAL = "natural"
SYMCUBE = "symcube"


def twist(s, t):
    return ("twist", s, t)


@dataclass(frozen=True)
class Sl2Module:
    group: MatrixGroup
    to_matrix: object      # 2x2 DenseMatrix over GF(q) -> DenseMatrix
    dim: int
    q: int
    spec: object


def natural_generators(F):
    """Generators of SL2(q).

    The two opposite transvections [[1,1],[0,1]] and [[1,0],[w,1]] suffice
    for prime q; for proper extension fields they cannot generate (over
    even q > 2 both are involutions, so they only span a dihedral group)
    and the torus element diag(w, w^-1) is added.
    """
    w = F.generator_enc()
    gens = [fmatrix.DenseMatrix(F, [[1, 1], [0, 1]]),
            fmatrix.DenseMatrix(F, [[1, 0], [w, 1]])]
    if F.a > 1:
        gens.append(fmatrix.diagonal(F, [w, F.inv_enc(w)]))
    return gens


def _form_image(F, m, i):
    """Coefficients of (aX+bY)^(3-i) (cX+dY)^i on X^3, X^2Y, XY^2, Y^3,
    those of (a + bY)^(3-i) (c + dY)^i on 1, Y, Y^2, Y^3."""
    ab, cd = m.arr.tolist()
    f = fpoly.DensePoly(F, ab) ** (3 - i) * fpoly.DensePoly(F, cd) ** i
    return f.coeffs + [0] * (4 - len(f.coeffs))


def symcube_gram(field):
    """The invariant alternating form on the symmetric cube, normalized so
    its first nonzero entry is 1: <X^3, Y^3> = 1 and <X^2 Y, X Y^2> = -3.
    The solution space of g^T J g = J over alternating J is 1-dimensional
    for these modules, so this is the canonical choice.
    """
    if field.p < 5:
        raise CharTooSmallForSymcube(
            "symmetric cube needs p >= 5, got p=%d" % field.p)
    arr = np.zeros((4, 4), dtype=np.int64)
    arr[0, 3] = 1
    arr[3, 0] = field.neg_enc(1)
    arr[1, 2] = field.neg_enc(3 % field.p)
    arr[2, 1] = 3 % field.p
    return fmatrix.DenseMatrix(field, arr)


def _kron2(F, A, B):
    """The Kronecker product of 2x2 matrices: entry (2i + k, 2j + l) is
    A[i, j] B[k, l]."""
    out = _kernels.mul(F, A.arr[:, None, :, None], B.arr[None, :, None, :])
    return fmatrix.DenseMatrix(F, out.reshape(4, 4))


def _frob_matrix(m, k):
    F = m.field
    out = np.zeros_like(m.arr)
    for i in range(m.nrows):
        for j in range(m.ncols):
            out[i, j] = F.frob_enc(int(m.arr[i, j]), k)
    return fmatrix.DenseMatrix(F, out)


def sl2_module(q, spec):
    """SL2(q) acting on one of its small modules.

    spec is NATURAL, SYMCUBE, or twist(s, t); the returned to_matrix sends
    any 2x2 matrix over GF(q) to its action, and is a homomorphism for the
    row-vector convention.
    """
    F = ffield.field_from_q(q)
    gens2 = natural_generators(F)
    if spec == NATURAL:
        def to_matrix(m):
            return m
        dim = 2
    elif spec == SYMCUBE:
        if F.p < 5:
            raise CharTooSmallForSymcube(
                "symmetric cube needs p >= 5, got p=%d" % F.p)

        def to_matrix(m):
            rows = [_form_image(F, m, i) for i in range(4)]
            return fmatrix.DenseMatrix(F, rows)
        dim = 4
    elif isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "twist":
        s, t = spec[1], spec[2]
        if not (0 <= s < t < F.a):
            raise BadTwist("twist needs 0 <= s < t < a, got s=%d t=%d a=%d"
                           % (s, t, F.a))

        def to_matrix(m):
            return _kron2(F, _frob_matrix(m, s), _frob_matrix(m, t))
        dim = 4
    else:
        raise UnknownModuleSpec("unknown module spec %r: expected %r, %r or "
                                "twist(s, t)" % (spec, NATURAL, SYMCUBE))
    grp = MatrixGroup(F, dim, [to_matrix(g) for g in gens2],
                      label="SL2(%d) module %s" % (q, spec))
    return Sl2Module(group=grp, to_matrix=to_matrix, dim=dim, q=q, spec=spec)


# --- classical generators ---

def _cycle_matrix(F, d, det_fix=False):
    arr = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        arr[i, i + 1] = 1
    arr[d - 1, 0] = 1
    m = fmatrix.DenseMatrix(F, arr)
    if det_fix and m.det() != 1:
        arr = arr.copy()
        arr[d - 1, 0] = F.neg_enc(1)
        m = fmatrix.DenseMatrix(F, arr)
    return m


def _transvection(F, d, i, j, lam=1):
    arr = fmatrix.identity(F, d).arr.copy()
    arr[i, j] = lam
    return fmatrix.DenseMatrix(F, arr)


def symplectic_gram(F, d):
    """J with J[i, d-1-i] = 1 for the first half, -1 for the second."""
    arr = np.zeros((d, d), dtype=np.int64)
    for i in range(d // 2):
        arr[i, d - 1 - i] = 1
    for i in range(d // 2, d):
        arr[i, d - 1 - i] = F.neg_enc(1)
    return fmatrix.DenseMatrix(F, arr)


def preserves_form(g, J):
    return g.transpose() * J * g == J


def _symplectic_transvection(F, J, v, lam=1):
    """x -> x + lam B(x, v) v with B(x, v) = x J v^T; always symplectic."""
    d = J.nrows
    # B(e_i, v) = e_i J v^T = (J v^T)_i, i.e. v acted on by J^T
    v = np.asarray(v, dtype=np.int64)
    u = fmatrix.apply_row(v, J.transpose())
    # I + (lam u)^T v
    step = _kernels.mul(F, _kernels.mul(F, lam, u)[:, None], v[None, :])
    return fmatrix.DenseMatrix(F, _kernels.add(F, fmatrix.identity(F, d).arr,
                                               step))


def classical_generators(family, d, q):
    """Standard generating sets for GL, SL and SP in dimension d over GF(q).

    SP generators are symplectic transvections for the fixed Gram matrix
    of symplectic_gram plus a block permutation of the hyperbolic pairs;
    every SP generator is checked against the form at construction.
    """
    F = ffield.field_from_q(q)
    if d < 2:
        raise DimensionMismatch("classical groups here need d >= 2")
    w = F.generator_enc()
    family = family.upper()
    if family == "GL":
        gens = [_transvection(F, d, 0, 1), _cycle_matrix(F, d)]
        if q > 2:
            gens.append(fmatrix.diagonal(F, [w] + [1] * (d - 1)))
        return MatrixGroup(F, d, gens, label="GL(%d,%d)" % (d, q))
    if family == "SL":
        if d == 2:
            return MatrixGroup(F, 2, natural_generators(F),
                               label="SL(2,%d)" % q)
        gens = [_transvection(F, d, 0, 1), _cycle_matrix(F, d, det_fix=True)]
        if q > 3:
            diag = [w, F.inv_enc(w)] + [1] * (d - 2)
            gens.append(fmatrix.diagonal(F, diag))
        return MatrixGroup(F, d, gens, label="SL(%d,%d)" % (d, q))
    if family == "SP":
        if d % 2:
            raise OddDimensionSymplectic("SP needs even dimension, got %d" % d)
        if d == 2:
            grp = MatrixGroup(F, 2, natural_generators(F), label="SP(2,%d)" % q)
            J = symplectic_gram(F, 2)
            assert all(preserves_form(g, J) for g in grp.generators)
            return grp
        J = symplectic_gram(F, d)
        m = d // 2
        vs = []
        for i in range(d):
            e = np.zeros(d, dtype=np.int64)
            e[i] = 1
            vs.append(e)
        for i in range(d - 1):
            e = np.zeros(d, dtype=np.int64)
            e[i] = 1
            e[i + 1] = 1
            vs.append(e)
        lams = [1] if q == 2 else [1, w]
        gens = [_symplectic_transvection(F, J, v, lam) for v in vs for lam in
                lams]
        # cycle the hyperbolic pairs (e_i, e_{d-1-i})
        arr = np.zeros((d, d), dtype=np.int64)
        for i in range(m - 1):
            arr[i, i + 1] = 1
            arr[d - 1 - i, d - 2 - i] = 1
        arr[m - 1, 0] = 1
        arr[m, d - 1] = 1
        gens.append(fmatrix.DenseMatrix(F, arr))
        gens = [g for g in gens if g != fmatrix.identity(F, d)]
        grp = MatrixGroup(F, d, gens, label="SP(%d,%d)" % (d, q))
        for i, g in enumerate(grp.generators):
            if not preserves_form(g, J):
                raise AssertionError("SP generator %d breaks the form" % i)
        return grp
    raise ValueError("family must be GL, SL or SP, got %r" % family)


# --- random elements (product replacement with an accumulator) ---

@dataclass
class RandomWalkState:
    group: MatrixGroup
    slots: list
    acc: object
    rng: SplitMix64


_WALK_SLOTS = 12
_WALK_BURN_IN = 50


def new_walk_state(grp, seed=DEFAULT_SEED):
    slots = [grp.generators[i % len(grp.generators)]
             for i in range(_WALK_SLOTS)]
    state = RandomWalkState(group=grp, slots=slots,
                            acc=fmatrix.identity(grp.field, grp.dim),
                            rng=SplitMix64(seed))
    for _ in range(_WALK_BURN_IN):
        _walk_step(state)
    return state


def _walk_step(state):
    k = len(state.slots)
    i = state.rng.randrange(k)
    j = state.rng.randrange(k - 1)
    if j >= i:
        j += 1
    if state.rng.randrange(2):
        state.slots[i] = state.slots[i] * state.slots[j]
    else:
        state.slots[i] = state.slots[j] * state.slots[i]
    state.acc = state.acc * state.slots[i]
    return state.acc


def random_element(grp, state):
    if state.group is not grp:
        raise ValueError("walk state belongs to a different group")
    return _walk_step(state)


# --- spinning and irreducibility ---

def spin(vectors, grp):
    """Smallest grp-invariant subspace containing the given row vectors."""
    F = grp.field
    d = grp.dim
    rows = []
    for v in vectors:
        vv = np.asarray(v, dtype=np.int64).reshape(-1)
        if vv.shape[0] != d:
            raise DimensionMismatch("vector length %d, module dimension %d"
                                    % (vv.shape[0], d))
        if not np.any(vv):
            raise ZeroVector("cannot spin the zero vector")
        rows.append(vv)
    space = fmatrix.Subspace.from_rows(F, rows, ambient_dim=d)
    while True:
        images = [fmatrix.apply_row(space.basis[i], g)
                  for i in range(space.dim) for g in grp.generators]
        grown = fmatrix.Subspace.from_rows(
            F, list(space.basis) + images, ambient_dim=d)
        if grown.dim == space.dim:
            return grown
        space = grown


@dataclass(frozen=True)
class IrreducibilityResult:
    status: str            # "YES" | "NO" | "INCONCLUSIVE"
    witness: object        # proper invariant Subspace for NO
    rounds: int


def _random_algebra_element(grp, rng):
    F = grp.field
    d = grp.dim
    total = fmatrix.zeros(F, d, d)
    nwords = 1 + rng.randrange(3)
    for _ in range(nwords):
        word = fmatrix.identity(F, d)
        for _ in range(1 + rng.randrange(3)):
            word = word * grp.generators[rng.randrange(len(grp.generators))]
        c = 1 + rng.randrange(F.q - 1) if F.q > 2 else 1
        total = total + word.scale(c)
    if rng.randrange(2):
        total = total + fmatrix.identity(F, d).scale(rng.randrange(F.q))
    return total


# Algebra elements is_irreducible draws before it answers INCONCLUSIVE.
_IRREDUCIBLE_ROUNDS = 64


def is_irreducible(grp, seed=DEFAULT_SEED):
    """Norton-style randomized irreducibility test.

    A singular algebra element a is sampled; a kernel vector that spins to
    a proper subspace is a NO witness, and so is (after dualizing) a
    cokernel vector spinning properly in the transpose module.  When a has
    nullity 1 and both spins fill the space, irreducibility is proven.
    Rounds with nullity > 1 only ever contribute NO evidence.
    """
    F = grp.field
    d = grp.dim
    if d == 1:
        return IrreducibilityResult(status="YES", witness=None, rounds=0)
    rng = SplitMix64(seed)
    tgrp = grp.transpose_group()
    for rounds in range(1, _IRREDUCIBLE_ROUNDS + 1):
        a = _random_algebra_element(grp, rng)
        null = fmatrix.kernel(a)
        if null.dim == 0 or null.dim == d:
            continue
        u = spin([null.basis[0]], grp)
        if u.dim < d:
            return IrreducibilityResult(status="NO", witness=u, rounds=rounds)
        conull = fmatrix.kernel(a.transpose())
        for v in conull.basis:
            udual = spin([v], tgrp)
            if udual.dim < d:
                # the annihilator of a proper invariant subspace of the
                # transpose module is proper and invariant here
                wit = fmatrix.kernel(
                    fmatrix.DenseMatrix(F, np.ascontiguousarray(udual.basis.T)))
                assert 0 < wit.dim < d
                assert all(wit.is_invariant(g) for g in grp.generators)
                return IrreducibilityResult(status="NO", witness=wit,
                                            rounds=rounds)
        if null.dim == 1:
            return IrreducibilityResult(status="YES", witness=None,
                                        rounds=rounds)
    return IrreducibilityResult(status="INCONCLUSIVE", witness=None,
                                rounds=_IRREDUCIBLE_ROUNDS)


# --- group order: Schreier-Sims on the induced permutation action ---

VECTORS = "vectors"
PROJECTIVE = "projective"

# Matrix entries per block when mapping points through matrices.
_BLOCK = 1 << 16

# group_order's budget of sift strip steps (about 1 us each).
SIFT_BUDGET = 2 * 10 ** 7


def _image_blocks(F, d, codes, block):
    """Encodings of v * block for the vectors v with the given encodings.

    A vector v is encoded as sum v[i] q^i, and block is d x (k*d): k
    matrices side by side.  Yields (lo, hi, enc) in slices of codes, with
    enc[r, m] the encoding of the image of codes[lo + r] under matrix m.
    """
    q = F.q
    k = block.shape[1] // d
    weights = q ** np.arange(d, dtype=np.int64)
    step = max(1, _BLOCK // (d * k))
    for lo in range(0, codes.size, step):
        chunk = codes[lo:lo + step]
        vecs = chunk[:, None] // weights % q
        img = _kernels.matmul(F, vecs, block).reshape(chunk.size, k, d)
        yield lo, lo + chunk.size, img @ weights


def _point_set(F, d, action):
    """The points of the action, a table from vector encodings to them, and
    a frame.

    Returns (reps, index, frame).  reps holds the sorted encodings of one
    vector per point, and index[enc] is the point of the vector with
    encoding enc (-1 for the zero vector under PROJECTIVE).  A point is an
    orbit of a scalar group S on vectors: S = {1} for VECTORS, so every
    vector is a point, and S = F* for PROJECTIVE, where a line is
    represented by its vector whose first nonzero coordinate is 1.  The
    table is filled by scaling every representative by every element of S.

    frame lists the points of the basis vectors e_i, plus that of their sum
    under PROJECTIVE.  A matrix that fixes them all fixes every point (it
    is diagonal, and then scalar), so a permutation induced by a matrix is
    the identity as soon as it fixes the frame.
    """
    q = F.q
    basis = q ** np.arange(d, dtype=np.int64)
    if action == VECTORS:
        reps = np.arange(q ** d, dtype=np.int64)
        scalars = np.ones(1, dtype=np.int64)
        frame = basis
    elif action == PROJECTIVE:
        reps = np.sort(np.concatenate([
            q ** i * (1 + q * np.arange(q ** (d - 1 - i), dtype=np.int64))
            for i in range(d)]))
        scalars = np.arange(1, q, dtype=np.int64)
        frame = np.append(basis, basis.sum())
    else:
        raise ValueError("action must be %r or %r" % (VECTORS, PROJECTIVE))
    index = np.full(q ** d, -1, dtype=np.intp)
    diag = np.arange(d)
    step = max(1, _BLOCK // (d * d))
    for s in range(0, scalars.size, step):
        lams = scalars[s:s + step]
        block = np.zeros((d, lams.size, d), dtype=np.int64)
        block[diag, :, diag] = lams     # lam * I for each lam, side by side
        for lo, hi, enc in _image_blocks(F, d, reps, block.reshape(d, -1)):
            index[enc] = np.arange(lo, hi)[:, None]
    return reps, index, np.unique(index[frame])


def _point_perm(F, d, reps, index, g):
    """The permutation of the points induced by the matrix g."""
    perm = np.empty(reps.size, dtype=np.intp)
    for lo, hi, enc in _image_blocks(F, d, reps, g.arr):
        perm[lo:hi] = index[enc[:, 0]]
    return perm


class _Level:
    """One base point with its orbit under the strong generators that fix
    every earlier base point.

    The base point is frame[slot].  sv is the Schreier vector: sv[x] is the
    generator that first reached orbit point x (x = y^s for the orbit point
    y = x^(s^-1)), -2 at the base point and -1 off the orbit.  orbit lists
    the orbit in the order it was found, and done[c] counts its points
    whose Schreier generators for gens[c] have been sifted.
    """
    __slots__ = ("beta", "slot", "gens", "done", "sv", "orbit")

    def __init__(self, frame, slot, n):
        self.beta = int(frame[slot])
        self.slot = slot
        self.gens = []
        self.done = []
        self.sv = np.full(n, -1, dtype=np.intp)
        self.sv[self.beta] = -2
        self.orbit = np.array([self.beta], dtype=np.intp)


class _StabChain:
    """Incremental Schreier-Sims on the permutations of range(n) induced by
    matrices, with base points taken from the frame of _point_set.

    A permutation is an intp array of images, and s[t] applies t first,
    then s.  Strong generators and their inverses are kept whole.  Every
    other element is carried as its images of the frame points only: that
    determines it, and composing it with a generator s is then s[t] on a
    few entries.  Transversal elements are never stored; they are words
    read off the Schreier vectors.  The whole form of an element is
    computed only for a residue that becomes a new strong generator.
    """

    def __init__(self, n, frame):
        self.ident = np.arange(n, dtype=np.intp)
        self.frame = frame
        self.perms = []
        self.invs = []
        self.levels = []
        self.ninput = 0     # strong generators made from the input
        self.work = 0       # strip steps taken by sift

    def start(self, whole):
        return self.ident if whole else self.frame

    def is_identity(self, g, whole=False):
        return g.tobytes() == self.start(whole).tobytes()

    def transversal(self, lvl, x, whole=False):
        """The element taking lvl.beta to x along the Schreier vector."""
        word = []
        while x != lvl.beta:
            j = lvl.sv[x]
            word.append(j)
            x = self.invs[j][x]
        u = self.start(whole)
        for j in reversed(word):
            u = self.perms[j][u]
        return u

    def sift(self, g, start=0, whole=False):
        """Strip g through levels start..; returns (residue, level) where
        level is the first one whose orbit misses the base point's image,
        or len(levels) when every level was passed.  Adds the number of
        strip steps to work."""
        steps = 0
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            sv = lvl.sv
            x = g[lvl.beta if whole else lvl.slot]
            if sv[x] == -1:
                break
            while x != lvl.beta:
                inv = self.invs[sv[x]]
                g = inv[g]
                x = inv[x]
                steps += 1
        else:
            i = len(self.levels)
        self.work += steps
        return g, i

    def insert(self, g, k):
        """Add the whole non-identity g, which fixes the first k base
        points, as a strong generator at level k and extend the orbits of
        levels <= k."""
        if k == len(self.levels):
            slot = int(np.flatnonzero(g[self.frame] != self.frame)[0])
            self.levels.append(_Level(self.frame, slot, g.size))
        j = len(self.perms)
        self.perms.append(g)
        inv = np.empty_like(g)
        inv[g] = self.ident
        self.invs.append(inv)
        for lvl in self.levels[:k + 1]:
            lvl.gens.append(j)
            lvl.done.append(0)
            # the new generator on the old orbit, then every generator on
            # each layer of new points
            frontier = lvl.orbit
            gens = [j]
            while frontier.size:
                layer = []
                for t in gens:
                    img = self.perms[t][frontier]
                    fresh = img[lvl.sv[img] == -1]
                    lvl.sv[fresh] = t
                    layer.append(fresh)
                frontier = np.concatenate(layer)
                lvl.orbit = np.concatenate((lvl.orbit, frontier))
                gens = lvl.gens

    def add(self, g):
        """Sift the whole g and insert its residue unless it is trivial."""
        residue, k = self.sift(g, whole=True)
        if not self.is_identity(residue, whole=True):
            self.insert(residue, k)
            return k
        return None

    def check_level(self, i):
        """Sift the unchecked Schreier generators of level i through the
        levels below it.  Returns the level of the first non-trivial residue,
        after inserting it, or None when they all sift to the identity.

        Level 0 uses only the first ninput strong generators: they generate
        G, so by Schreier's lemma their Schreier generators generate G_beta.
        Raises ActionTooLarge once work passes SIFT_BUDGET."""
        lvl = self.levels[i]
        gens = lvl.gens[:self.ninput] if i == 0 else lvl.gens
        a = min(lvl.done[:len(gens)])
        while a < len(lvl.orbit):
            x = lvl.orbit[a]
            u = None
            for c, j in enumerate(gens):
                if lvl.done[c] != a:
                    continue
                lvl.done[c] = a + 1
                s = self.perms[j]
                if lvl.sv[s[x]] == j:
                    continue        # a Schreier-tree edge: u_x s = u_(x^s)
                if u is None:
                    u = self.transversal(lvl, x)
                g = self.sift(s[u], i)[0]
                if self.work > SIFT_BUDGET:
                    raise ActionTooLarge(
                        "Schreier-Sims work %d exceeds the budget %d on %d "
                        "points" % (self.work, SIFT_BUDGET, self.ident.size))
                if not self.is_identity(g):
                    return self.add(s[self.transversal(lvl, x, whole=True)])
            a += 1
        return None


def group_order(grp, action=VECTORS):
    """Exact order of the group induced on vectors or on projective points.

    Each generator is turned into a permutation of the point set (see
    _point_set) by one matrix product; the rest is Schreier-Sims on those
    permutations (see _StabChain), with no further matrix arithmetic.
    Before the chain is trusted, every Schreier generator below the first
    level, and at the first level those of the strong generators made from
    the input (Schreier's lemma: they generate the point stabilizer), are
    verified to sift to the identity, so the order is exact.  Memory is
    O(q^d) per base point and per strong generator.  Raises ActionTooLarge
    when q^d exceeds 2^24 or the sifts take more than SIFT_BUDGET steps.
    The computation is deterministic.
    """
    F = grp.field
    d = grp.dim
    if F.q ** d > 1 << 24:
        raise ActionTooLarge("q^d = %d exceeds the 2^24 action cap" % F.q ** d)
    if d == 0:
        return 1            # GF(q)^0 has a single point
    reps, index, frame = _point_set(F, d, action)
    chain = _StabChain(reps.size, frame)
    for g in grp.generators:
        chain.add(_point_perm(F, d, reps, index, g))
    chain.ninput = len(chain.perms)
    i = len(chain.levels) - 1
    while i >= 0:
        k = chain.check_level(i)
        i = i - 1 if k is None else k
    order = 1
    for lvl in chain.levels:
        order *= len(lvl.orbit)
    return order


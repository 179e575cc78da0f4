"""Element calculus for ppd and stingray matrices.

classify_element decides, from the factored characteristic polynomial, the
minimal polynomial and the fixed-space dimension, whether a matrix is an
e-stingray element (one irreducible degree-e block beside a pointwise-fixed
complement), one of the two e = d/2 ppd shapes (two distinct irreducible
blocks, or one repeated block acting semisimply), a general semisimple
element with t >= 2 degree-e blocks, or none of these.

The STINGRAY tag is purely linear-algebraic and agrees with the
is_stingray_oracle decomposition test on every input.  The ppd tags
(TYPE_2I, TYPE_2II, PPD_GENERAL) additionally require the element order to
qualify: a prime that is an e-ppd (or d/2-ppd) prime for q, or the single
prime-power exception 9 at (q, e) = (2, 6).  Elements with the right shape
but unqualified order come back NOT_PPD with a diagnostic note.
"""

from dataclasses import dataclass

from . import cyclo, ffield, fmatrix, fpoly, ppd
from ._intmath import is_prime
from .errors import (CharacteristicOrder, NoPpdPrime, NotSquare,
                     NoUnimodularFactor, OrderMismatch, Singular,
                     StingrayUsageError, TooLarge, UnsupportedR)

STINGRAY = "STINGRAY"
TYPE_2I = "TYPE_2I"
TYPE_2II = "TYPE_2II"
PPD_GENERAL = "PPD_GENERAL"
NOT_PPD = "NOT_PPD"

# construct_stingray factors (t^r - 1)/(t - 1) into (r - 1)/e factors of
# degree e; few large factors over GF(p^a), a >= 2, cost the most.  Single
# runs of fpoly.factor on a 2-vCPU VM, two at a time, for every prime r
# from 257 to 491 over every GF(q), q <= 64: at or below 439 at most 12.4 s
# (r = 433 over GF(25), e = 216; 11.4 s at r = 419 over GF(27)), and at
# most 4.4 s over the prime fields GF(3) to GF(61) (r = 419 over GF(43)).
# r = 443 over GF(64) (e = 221) takes 27-29 s run alone: over the 20 s rule.
MAX_CONSTRUCT_R = 439


@dataclass(frozen=True)
class ElementClassification:
    d: int
    q: int
    order: int
    semisimple: bool
    fixed_dim: int
    irreducible_blocks: tuple   # ((degree, multiplicity), ...) non-(t-1) char factors
    tag: str
    e: int = None               # block size for STINGRAY / PPD_GENERAL
    t: int = None               # block count for PPD_GENERAL
    order_is_eppd: bool = None  # ppd qualification of the order, when decidable
    notes: str = ""

    def summary(self):
        bits = [self.tag]
        if self.tag == STINGRAY:
            bits[0] = "STINGRAY(%d)" % self.e
        elif self.tag == PPD_GENERAL:
            bits[0] = "PPD_GENERAL(e=%d,t=%d)" % (self.e, self.t)
        bits.append("d=%d q=%d order=%d" % (self.d, self.q, self.order))
        bits.append("fixed_dim=%d" % self.fixed_dim)
        bits.append("semisimple=%s" % ("yes" if self.semisimple else "no"))
        if self.order_is_eppd is not None:
            bits.append("order_is_eppd=%s" % ("yes" if self.order_is_eppd else "no"))
        if self.notes:
            bits.append("(%s)" % self.notes)
        return " ".join(bits)


def _order_qualifies(order, q, e):
    """(qualified, note) for the ppd order condition at exponent e."""
    if is_prime(order):
        return ppd.is_eppd_prime(order, q, e), ""
    if order == 9 and (q, e) == (2, 6):
        return True, "order 9 accepted as a primitive prime-power divisor of 2^6-1"
    return False, ("composite order %d: ppd qualification needs prime order "
                   "(or 9 at (q,e)=(2,6))" % order)


def classify_element(g, e):
    """ElementClassification of an invertible matrix relative to block size e."""
    d = g.nrows
    if g.ncols != d:
        raise NotSquare("classification needs a square matrix")
    if not 1 <= e < d:
        raise StingrayUsageError("block size e must satisfy 1 <= e < d")
    F = g.field
    fac, mp_fac, order = fmatrix._analysis(g)
    tm1 = fpoly.DensePoly(F, [F.neg_enc(1), 1])
    non1 = [(f, m) for f, m in fac if f != tm1]
    blocks = tuple((f.degree, m) for f, m in non1)
    # t - 1 divides the characteristic polynomial m1 times, and
    # 1 <= dim ker(g - 1) <= m1 when m1 >= 1, so only m1 >= 2 needs a rank
    m1 = d - sum(f.degree * m for f, m in non1)
    if m1 <= 1:
        fixed_dim = m1
    else:
        fixed_dim = d - (g - fmatrix.identity(F, d)).rank()
    semisimple = all(m == 1 for _, m in mp_fac)

    base = dict(d=d, q=F.q, order=order, semisimple=semisimple,
                fixed_dim=fixed_dim, irreducible_blocks=blocks)

    # (1) stingray: char = f (t-1)^(d-e), f irreducible of degree e, full fix
    if (len(non1) == 1 and non1[0][1] == 1 and non1[0][0].degree == e
            and fixed_dim == d - e):
        ok, note = _order_qualifies(order, F.q, e)
        return ElementClassification(tag=STINGRAY, e=e, t=1,
                                     order_is_eppd=ok, notes=note, **base)

    if d % 2 == 0 and e == d // 2:
        half = d // 2
        # (2.i) two distinct irreducible degree-d/2 factors, no fixed part
        if (len(fac) == 2 and len(non1) == 2
                and all(m == 1 and f.degree == half for f, m in non1)):
            ok, note = _order_qualifies(order, F.q, half)
            if ok:
                return ElementClassification(tag=TYPE_2I, e=half, t=2,
                                             order_is_eppd=True, notes=note,
                                             **base)
            return ElementClassification(
                tag=NOT_PPD, order_is_eppd=False,
                notes=note + "; shape matches TYPE_2I", **base)
        # (2.ii) char = f^2, semisimple (min poly = f)
        if (len(fac) == 1 and non1 and non1[0][1] == 2
                and non1[0][0].degree == half and semisimple):
            ok, note = _order_qualifies(order, F.q, half)
            if ok:
                return ElementClassification(tag=TYPE_2II, e=half, t=2,
                                             order_is_eppd=True, notes=note,
                                             **base)
            return ElementClassification(
                tag=NOT_PPD, order_is_eppd=False,
                notes=note + "; shape matches TYPE_2II", **base)

    # general ppd shape: semisimple, t >= 2 blocks all of degree e
    if (semisimple and non1 and all(f.degree == e for f, _ in non1)
            and sum(m for _, m in non1) >= 2):
        t = sum(m for _, m in non1)
        ok, note = _order_qualifies(order, F.q, e)
        if ok:
            return ElementClassification(tag=PPD_GENERAL, e=e, t=t,
                                         order_is_eppd=True, notes=note,
                                         **base)
        return ElementClassification(
            tag=NOT_PPD, order_is_eppd=False,
            notes=note + "; shape matches PPD_GENERAL(e=%d,t=%d)" % (e, t),
            **base)

    return ElementClassification(tag=NOT_PPD, **base)


def is_stingray_oracle(g, e):
    """Decomposition-based stingray test, independent of classify_element.

    g is an e-stingray element when g acts irreducibly on W = im(g-1), of
    dimension e, and the fixed space ker(g-1) is a complement of W.  So
    the test is rank(g-1) = e, then, on the invariant W (g commutes with
    g-1; restrict raises NotInvariant if it were not), the characteristic
    polynomial cp of the e x e restriction: cp(1) != 0 says g-1 is
    invertible on W, which is ker(g-1) meeting W in 0, and cp(0) != 0
    makes g invertible there.  The action on W is irreducible exactly
    when cp is (fpoly.is_irreducible).  Neither min_poly nor fpoly.factor
    is called, so the oracle shares no factorization with
    classify_element.

    Singular g raises Singular.  When the checks pass, V is the direct sum
    of ker(g-1), where g = 1, and W, so det g = +-cp(0) != 0; when one of
    them fails, the rank of g decides.
    """
    d = g.nrows
    F = g.field
    gm1 = g - fmatrix.identity(F, d)
    if gm1.rank() == e:
        cp = fmatrix.char_poly(fmatrix.restrict(g, fmatrix.image(gm1)))
        if cp.eval_enc(1) != 0 and cp.coeffs[0] != 0:
            return fpoly.is_irreducible(cp)
    if g.rank() == d:
        return False
    raise Singular("matrix is singular")


def construct_stingray(q, d, r=None, det_one=False):
    """block-diag(companion(f), I) for f an irreducible degree-d/2 factor
    of (t^r - 1)/(t - 1) over GF(q); a verified (d/2)-stingray element.

    r defaults to the smallest (d/2)-ppd prime for q.  With det_one the
    factor is chosen so the companion block has determinant 1 (swapping
    factors, never scaling, which would destroy the fixed space); the
    choice is canonical (first eligible factor in the factor ordering).
    Raises TooLarge when r exceeds MAX_CONSTRUCT_R.
    """
    F = ffield.field_from_q(q)
    if d < 2 or d % 2:
        raise StingrayUsageError("d must be even and >= 2")
    e = d // 2
    if r is None:
        r = ppd.smallest_ppd_prime(q, e)
        if r is None:
            msg = "no %d-ppd prime exists for q=%d" % (e, q)
            if (q, d) == (2, 12):
                msg += ": 2^6 - 1 = 63 = 3^2 * 7 has no primitive prime divisor"
            raise NoPpdPrime(msg)
    else:
        if not ppd.is_eppd_prime(r, q, e):
            raise NoPpdPrime("r=%d is not a %d-ppd prime for q=%d" % (r, q, e))
    if r > MAX_CONSTRUCT_R:
        raise TooLarge("the %d-ppd prime r=%d exceeds %d, the largest r for "
                       "which (t^r-1)/(t-1) is factored"
                       % (e, r, MAX_CONSTRUCT_R))
    phi = fpoly.cyclotomic_quotient(F, r)
    factors = [f for f, _ in fpoly.factor_cached(phi).factors]
    assert all(f.degree == e for f in factors)
    if det_one:
        pick = None
        for f in factors:
            det = f.coeffs[0] if e % 2 == 0 else F.neg_enc(f.coeffs[0])
            if det == 1:
                pick = f
                break
        if pick is None:
            raise NoUnimodularFactor(
                "no degree-%d factor of (t^%d-1)/(t-1) over GF(%d) has "
                "unimodular companion determinant" % (e, r, q))
    else:
        pick = factors[0]
    return fmatrix.block_diagonal(
        [fmatrix.companion(pick), fmatrix.identity(F, d - e)])


def eigenvalue_multiplicities(g, r):
    """MultiplicitySolution for an element with g^r = 1, over the splitting
    field GF(q^{o_r(q)}).

    zeta is labeled as the smallest-encoding element of order r in the
    splitting field; multiplicities are canonical up to that labeling (a
    Galois relabeling permutes them), and all downstream criteria are
    Galois-invariant.
    """
    d = g.nrows
    F = g.field
    if r == F.p:
        raise CharacteristicOrder("r equals the characteristic %d" % F.p)
    if r < 3 or not is_prime(r):
        raise UnsupportedR("r must be an odd prime, got %d" % r)
    cp_factors, _, order = fmatrix._analysis(g)
    if order == 1:
        mults = [d] + [0] * (r - 1)
        return cyclo.MultiplicitySolution(r=r, d=d, mults=tuple(mults))
    if order != r:
        raise OrderMismatch("matrix order is %d, expected %d" % (order, r))
    k = ppd.multiplicative_order(r, F.q)
    K = ffield.make_field(F.p, F.a * k)
    gen = K.generator_enc()
    z = K.pow_enc(gen, (K.q - 1) // r)
    zeta = min(K.pow_enc(z, j) for j in range(1, r))
    zpow = [1]
    for _ in range(r - 1):
        zpow.append(K.mul_enc(zpow[-1], zeta))

    tm1 = fpoly.DensePoly(F, [F.neg_enc(1), 1])
    mults = [0] * r
    for f, m in cp_factors:
        if f == tm1:
            mults[0] += m
            continue
        fk = f.map_field(K, lambda enc: ffield.embed(F, enc, K))
        hits = [i for i in range(1, r) if fk.eval_enc(zpow[i]) == 0]
        if len(hits) != f.degree:
            raise OrderMismatch(
                "characteristic factor of degree %d has %d eigenvalues of "
                "order dividing %d" % (f.degree, len(hits), r))
        for i in hits:
            mults[i] += m
    assert sum(mults) == d
    return cyclo.MultiplicitySolution(r=r, d=d, mults=tuple(mults))

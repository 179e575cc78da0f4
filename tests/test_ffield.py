import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stingray import ffield, fpoly
from stingray.errors import (CompositeQ, DegreeMismatch, NoEmbedding,
                             NotPrime, ReducibleModulus)

import oracles

FIELDS = [ffield.make_field(2), ffield.make_field(3), ffield.make_field(5),
          ffield.make_field(2, 2), ffield.make_field(2, 3),
          ffield.make_field(3, 2), ffield.make_field(5, 2),
          ffield.make_field(3, 3)]
# above ffield.TABLE_CAP, multiplying in their quotient rings
RING_FIELDS = [ffield.field_from_q(2 ** 21), ffield.field_from_q(3 ** 13),
               ffield.make_field(2147483629, 2), ffield.make_field(2, 64)]


def test_gf4_canonical_modulus():
    F = ffield.make_field(2, 2)
    assert F.q == 4
    assert F.modulus == (1, 1, 1)          # x^2 + x + 1


def test_prime_field_has_no_modulus():
    assert ffield.make_field(7).modulus is None


def test_modulus_is_lexicographically_smallest():
    # over F2 the degree-3 irreducibles are x^3+x+1 and x^3+x^2+1;
    # ascending-coefficient comparison picks (1,0,1,1)
    assert ffield.make_field(2, 3).modulus == (1, 0, 1, 1)


def test_make_field_validation():
    with pytest.raises(NotPrime):
        ffield.make_field(4)
    with pytest.raises(ReducibleModulus):
        ffield.make_field(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2
    with pytest.raises(DegreeMismatch):
        ffield.make_field(2, 0)


def test_default_modulus_is_proved_once(monkeypatch):
    # no other test builds GF(13^3): the search for its default modulus
    # proves each candidate once, the winner included, and the same
    # modulus given explicitly is proved once more and shares the instance
    proved = []
    is_irreducible = fpoly.is_irreducible
    monkeypatch.setattr(fpoly, "is_irreducible",
                        lambda f: proved.append(tuple(f.coeffs))
                        or is_irreducible(f))
    F = ffield.make_field(13, 3)
    assert proved[-1] == F.modulus
    assert len(proved) == len(set(proved))
    proved.clear()
    assert ffield.make_field(13, 3, F.modulus) is F
    assert ffield.make_field(13, 3, list(F.modulus)) is F
    assert proved == [F.modulus]


@settings(max_examples=120, deadline=None)
@given(F=st.sampled_from(FIELDS + RING_FIELDS), data=st.data())
def test_field_laws(F, data):
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    z = data.draw(st.integers(0, F.q - 1))
    assert F.add_enc(x, y) == F.add_enc(y, x)
    assert F.mul_enc(x, y) == F.mul_enc(y, x)
    assert F.add_enc(F.add_enc(x, y), z) == F.add_enc(x, F.add_enc(y, z))
    assert F.mul_enc(F.mul_enc(x, y), z) == F.mul_enc(x, F.mul_enc(y, z))
    assert F.mul_enc(x, F.add_enc(y, z)) == \
        F.add_enc(F.mul_enc(x, y), F.mul_enc(x, z))
    assert F.sub_enc(x, y) == F.add_enc(x, F.neg_enc(y))
    if x:
        assert F.mul_enc(x, F.inv_enc(x)) == 1


@settings(max_examples=60, deadline=None)
@given(F=st.sampled_from(FIELDS + RING_FIELDS), data=st.data())
def test_frobenius_is_pth_power(F, data):
    x = data.draw(st.integers(0, F.q - 1))
    assert F.frob_enc(x, 1) == F.pow_enc(x, F.p)
    assert F.frob_enc(x, F.a) == x


def test_element_order_examples():
    F7 = ffield.make_field(7)
    assert F7.order_enc(3) == 6
    assert F7.order_enc(1) == 1
    F4 = ffield.make_field(2, 2)
    assert F4.order_enc(F4.generator_enc()) == 3


def test_element_order_divides_group_order():
    for F in FIELDS:
        for enc in range(1, F.q):
            n = F.order_enc(enc)
            assert (F.q - 1) % n == 0
            assert F.pow_enc(enc, n) == 1
            if n > 1:
                for r in oracles.trial_factor(n):
                    assert F.pow_enc(enc, n // r) != 1


def _naive_order(F, enc):
    """Order of enc by repeated tests/oracles products up to 1."""
    mod = list(F.modulus) if F.modulus else None
    x, n = enc, 1
    while x != 1:
        x = oracles.gf_mul(x, enc, F.p, mod)
        n += 1
    return n


def test_order_enc_matches_naive_loop_up_to_64():
    for q in range(2, 65):
        pp = oracles.trial_factor(q)
        if len(pp) != 1:
            continue
        (p, a), = pp.items()
        F = ffield.make_field(p, a)
        for enc in range(1, q):
            assert F.order_enc(enc) == _naive_order(F, enc), (q, enc)


def test_generator_is_primitive():
    for F in FIELDS:
        assert F.order_enc(F.generator_enc()) == F.q - 1


def test_generator_is_first_primitive_encoding():
    # generator_enc starts its scan at p for a > 1; no encoding below p
    # (the prime subfield) can generate, so a scan from 1 finds the same
    for F in FIELDS + [ffield.make_field(p, a) for p, a in
                       ((2, 4), (2, 8), (3, 5), (5, 3), (7, 2))]:
        assert F.q <= 256
        assert F.generator_enc() == next(
            c for c in range(1, F.q) if F.order_enc(c) == F.q - 1)


@pytest.mark.parametrize("p", [1000003, 2147483629])
def test_generator_of_large_quadratic_field(p):
    F = ffield.make_field(p, 2)
    t = time.perf_counter()
    g = F.generator_enc()
    assert time.perf_counter() - t < 1.0
    assert F.order_enc(g) == F.q - 1


def test_embed_preserves_order():
    F4 = ffield.make_field(2, 2)
    F16 = ffield.make_field(2, 4)
    x = F4.generator_enc()
    y = ffield.embed(F4, x, F16)
    assert F4.order_enc(x) == F16.order_enc(y) == 3


def test_embed_is_additive_and_multiplicative():
    # the last two targets are above 2^16 and above ffield.TABLE_CAP
    for source, target in (((2, 2), (2, 4)), ((2, 2), (2, 22)),
                           ((3, 2), (3, 14))):
        S = ffield.make_field(*source)
        T = ffield.make_field(*target)
        images = [ffield.embed(S, x, T) for x in range(S.q)]
        assert len(set(images)) == S.q
        assert images[:2] == [0, 1]
        for x in range(S.q):
            for y in range(S.q):
                assert images[S.add_enc(x, y)] == T.add_enc(images[x],
                                                            images[y])
                assert images[S.mul_enc(x, y)] == T.mul_enc(images[x],
                                                            images[y])


def test_embed_requires_subfield():
    F4 = ffield.make_field(2, 2)
    F8 = ffield.make_field(2, 3)
    with pytest.raises(NoEmbedding):
        ffield.embed(F4, F4.generator_enc(), F8)


def test_field_from_q():
    F = ffield.field_from_q(9)
    assert (F.p, F.a) == (3, 2)
    with pytest.raises(CompositeQ):
        ffield.field_from_q(12)


def _first_irreducible_by_scan(p, a):
    # every ascending coefficient tuple in lexicographic order, none skipped
    for tail in itertools.product(range(p), repeat=a):
        cand = tail + (1,)
        if oracles.brute_irreducible(list(cand), p):
            return cand


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 8),
                                 (2, 10), (3, 2), (3, 3), (3, 5), (5, 2),
                                 (5, 3), (7, 3), (251, 2)])
def test_default_modulus_matches_exhaustive_scan(p, a):
    assert ffield._smallest_irreducible(p, a) == _first_irreducible_by_scan(p, a)


def test_default_modulus_for_fields_above_table_cap():
    for q, (p, a) in ((2 ** 21, (2, 21)), (3 ** 13, (3, 13))):
        F = ffield.field_from_q(q)
        assert (F.p, F.a, F.q) == (p, a, q)
        assert F.modulus[0] != 0 and F.modulus[-1] == 1
        assert F._log is None
        x = p + 1
        assert F.mul_enc(x, F.inv_enc(x)) == 1

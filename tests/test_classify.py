import pytest

from stingray import (_manifest, classify, cyclo, ffield, fmatrix, fpoly,
                      groups)
from stingray._intmath import SplitMix64
from stingray.errors import (NoPpdPrime, NoUnimodularFactor, Singular,
                             StingrayUsageError, TooLarge, UnsupportedR)

F2 = ffield.make_field(2)
F3 = ffield.make_field(3)


def _phi5_companion():
    return fmatrix.companion(fpoly.DensePoly(F2, [1, 1, 1, 1, 1]))


def test_constructed_stingray_shape():
    g = fmatrix.block_diagonal([_phi5_companion(), fmatrix.identity(F2, 4)])
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.STINGRAY
    assert cls.e == 4
    assert cls.order == 5
    assert cls.fixed_dim == 4
    assert cls.semisimple
    assert cls.order_is_eppd
    assert cls.summary().startswith("STINGRAY(4)")
    assert classify.is_stingray_oracle(g, 4)


def test_fixed_dim_from_the_multiplicity_of_t_minus_1():
    # m, the multiplicity of t - 1 in the characteristic polynomial, is
    # the fixed dimension when m <= 1; at m = 2 the rank decides between a
    # Jordan block (1) and a semisimple action (2)
    c = _phi5_companion()
    jordan = fmatrix.DenseMatrix(F2, [[1, 1], [0, 1]])
    tm1 = fpoly.DensePoly(F2, [1, 1])
    rng = SplitMix64(0xF1D)
    for blocks, m, fixed in (([c], 0, 0),
                             ([c, fmatrix.identity(F2, 1)], 1, 1),
                             ([c, jordan], 2, 1),
                             ([c, fmatrix.identity(F2, 2)], 2, 2)):
        g = fmatrix.block_diagonal(blocks)
        d = g.nrows
        while True:
            x = fmatrix.DenseMatrix(F2, [[rng.randrange(2) for _ in range(d)]
                                         for _ in range(d)])
            if x.is_invertible():
                break
        g = x.inverse() * g * x
        assert dict(fpoly.factor(fmatrix.char_poly(g)).factors).get(
            tm1, 0) == m
        assert (classify.classify_element(g, 2).fixed_dim == fixed
                == d - (g - fmatrix.identity(F2, d)).rank())


def test_type_2i_from_phi17_octics():
    f = fpoly.cyclotomic_quotient(F2, 17)
    fac = fpoly.factor(f).factors
    assert [g.degree for g, _ in fac] == [8, 8]
    c1, c2 = fmatrix.companion(fac[0][0]), fmatrix.companion(fac[1][0])
    g = fmatrix.block_diagonal([c1, c2])
    cls = classify.classify_element(g, 8)
    assert cls.tag == classify.TYPE_2I
    assert cls.order == 17
    assert not classify.is_stingray_oracle(g, 8)


def test_type_2ii_repeated_block():
    c = _phi5_companion()
    g = fmatrix.block_diagonal([c, c])
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.TYPE_2II
    assert cls.order == 5
    assert cls.fixed_dim == 0
    assert not classify.is_stingray_oracle(g, 4)


def test_nonsemisimple_repeated_factor_is_not_ppd():
    f = fpoly.DensePoly(F2, [1, 1, 1, 1, 1])
    g = fmatrix.companion((f * f).monic())
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.NOT_PPD
    assert not cls.semisimple
    assert cls.order == 10


def test_identity_and_unipotent_are_not_ppd():
    assert classify.classify_element(fmatrix.identity(F2, 4), 2).tag == \
        classify.NOT_PPD
    u = fmatrix.DenseMatrix(F2, [[1, 1], [0, 1]])
    g = fmatrix.block_diagonal([u, fmatrix.identity(F2, 2)])
    assert classify.classify_element(g, 2).tag == classify.NOT_PPD


def test_ppd_general_two_distinct_blocks():
    # order-5 element of GL6(2) with two inequivalent quartic... use
    # Phi_5 block plus Phi_3 block: order 15, a 4-ppd element on a
    # 6-space with extra structure
    c5 = _phi5_companion()
    c3 = fmatrix.companion(fpoly.DensePoly(F2, [1, 1, 1]))
    g = fmatrix.block_diagonal([c5, c3])
    cls = classify.classify_element(g, 4)
    assert cls.tag in (classify.PPD_GENERAL, classify.NOT_PPD)
    assert cls.order == 15


def test_classify_matches_oracle_on_random_walks():
    for d, q in ((4, 2), (4, 3), (4, 4), (6, 2)):
        grp = groups.classical_generators("GL", d, q)
        state = groups.new_walk_state(grp, seed=333)
        for _ in range(120):
            g = groups.random_element(grp, state)
            cls = classify.classify_element(g, d // 2)
            assert (cls.tag == classify.STINGRAY and cls.e == d // 2) == \
                classify.is_stingray_oracle(g, d // 2)


def test_oracle_does_not_factor(monkeypatch):
    cases = []
    for case in _manifest.PERMMOD_CASES:
        mod = groups.deleted_perm_module(case["n"], case["p"])
        img = mod.to_matrix(groups.perm_from_cycles(case["n"], case["cycles"]))
        cases.append((img, case["e"], case["stingray"]))
    g = classify.construct_stingray(3, 8)
    cases += [(g, 4, True), (g, 2, False)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not factor polynomials")

    monkeypatch.setattr(fpoly, "factor", refuse)
    monkeypatch.setattr(fpoly, "factor_cached", refuse)
    for img, e, want in cases:
        assert classify.is_stingray_oracle(img, e) is want


def test_oracle_builds_the_image_only_at_kernel_dimension_d_minus_e(
        monkeypatch):
    # dim im(g-1) = e exactly when dim ker(g-1) = d-e (rank-nullity), so
    # an element whose fixed space has another dimension is rejected
    # without a row reduction for the image
    calls = []
    image = fmatrix.image
    monkeypatch.setattr(fmatrix, "image",
                        lambda g: calls.append(g) or image(g))
    rng = SplitMix64(41)
    rejected = 0
    for F, d in ((F2, 4), (F2, 6), (F3, 4), (ffield.make_field(2, 2), 4)):
        for _ in range(10):
            g = fmatrix.DenseMatrix(F, [[rng.randrange(F.q) for _ in range(d)]
                                        for _ in range(d)])
            if not g.is_invertible() or \
                    fmatrix.fixed_space(g).dim == d - d // 2:
                continue
            assert not classify.is_stingray_oracle(g, d // 2)
            rejected += 1
    assert rejected >= 20
    assert calls == []
    g = fmatrix.block_diagonal([_phi5_companion(), fmatrix.identity(F2, 4)])
    assert classify.is_stingray_oracle(g, 4)
    assert len(calls) == 1


def _conjugate(g, rng):
    F, d = g.field, g.nrows
    while True:
        c = fmatrix.DenseMatrix(F, [[rng.randrange(F.q) for _ in range(d)]
                                    for _ in range(d)])
        if c.is_invertible():
            return c.inverse() * g * c


def test_oracle_at_block_size_one():
    # a transvection has im(g-1) inside ker(g-1): the restriction's
    # characteristic polynomial is t - 1, irreducible but with cp(1) = 0;
    # a homology diag(c, 1, ..., 1), c not 0 or 1, is a 1-stingray element
    rng = SplitMix64(12)
    F5 = ffield.make_field(5)
    for F, d in ((F2, 3), (F5, 4)):
        u = fmatrix.identity(F, d).arr.copy()
        u[0, 1] = 1
        g = _conjugate(fmatrix.DenseMatrix(F, u), rng)
        assert not classify.is_stingray_oracle(g, 1)
        assert classify.classify_element(g, 1).tag == classify.NOT_PPD
    for c in (2, 3, 4):
        g = _conjugate(fmatrix.diagonal(F5, [c, 1, 1, 1]), rng)
        assert classify.is_stingray_oracle(g, 1)
        cls = classify.classify_element(g, 1)
        assert (cls.tag, cls.e, cls.fixed_dim) == (classify.STINGRAY, 1, 3)


def test_oracle_matches_classify_on_conjugated_blocks():
    # block(A, I) conjugated, for every e: A is the companion matrix of an
    # irreducible (a stingray element unless A = 1), of any polynomial
    # with nonzero constant term, or a random matrix
    rng = SplitMix64(77)
    for F, d in ((F2, 6), (F3, 5), (ffield.make_field(2, 2), 4)):
        for e in range(1, d):
            verdicts = []
            for i in range(18):
                if i % 3 == 2:
                    A = fmatrix.DenseMatrix(
                        F, [[rng.randrange(F.q) for _ in range(e)]
                            for _ in range(e)])
                else:
                    while True:
                        f = fpoly.DensePoly(
                            F, [rng.randrange(F.q) for _ in range(e)] + [1])
                        if f.coeffs[0] and (i % 3 or fpoly.is_irreducible(f)):
                            break
                    A = fmatrix.companion(f)
                g = _conjugate(fmatrix.block_diagonal(
                    [A, fmatrix.identity(F, d - e)]), rng)
                try:
                    cls = classify.classify_element(g, e)
                except Singular:
                    with pytest.raises(Singular):
                        classify.is_stingray_oracle(g, e)
                    continue
                verdicts.append(classify.is_stingray_oracle(g, e))
                assert verdicts[-1] == (cls.tag == classify.STINGRAY), g
            # GF(2) has no 1-stingray element: diag(c, 1, ...) needs c != 1
            assert False in verdicts
            assert True in verdicts or (F.q, e) == (2, 1)


def test_oracle_rejects_singular(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not factor polynomials")

    monkeypatch.setattr(fmatrix, "min_poly", refuse)
    monkeypatch.setattr(fpoly, "factor", refuse)
    monkeypatch.setattr(fpoly, "factor_cached", refuse)
    for g in (fmatrix.zeros(F2, 4), fmatrix.diagonal(F3, [1, 2, 0, 1])):
        with pytest.raises(Singular):
            classify.is_stingray_oracle(g, 2)


def test_construct_stingray_canonical_cases():
    for d, q in ((4, 4), (8, 2), (8, 3), (10, 3)):
        g = classify.construct_stingray(q, d)
        cls = classify.classify_element(g, d // 2)
        assert cls.tag == classify.STINGRAY and cls.e == d // 2
        assert classify.is_stingray_oracle(g, d // 2)
        assert cls.fixed_dim == d // 2


def test_construct_stingray_at_r_257():
    # 257 is the smallest ppd prime of 2^16 - 1 = 4^8 - 1 = 16^4 - 1
    for q, d in ((2, 32), (4, 16), (16, 8)):
        g = classify.construct_stingray(q, d)
        assert classify.is_stingray_oracle(g, d // 2), (q, d)
        assert fmatrix.matrix_order(g) == 257


def test_construct_stingray_det_one():
    for d, q in ((8, 3), (10, 3), (4, 5)):
        g = classify.construct_stingray(q, d, det_one=True)
        assert g.det() == 1
        assert classify.is_stingray_oracle(g, d // 2)


def test_construct_stingray_explicit_r():
    g = classify.construct_stingray(2, 8, r=5)
    assert fmatrix.matrix_order(g) == 5
    cls = classify.classify_element(g, 4)
    assert cls.tag == classify.STINGRAY
    with pytest.raises(NoPpdPrime):
        classify.construct_stingray(2, 8, r=7)   # ord_7(2)=3, not 4


def test_construct_stingray_no_ppd_prime():
    with pytest.raises(NoPpdPrime) as info:
        classify.construct_stingray(2, 12)
    assert "63" in str(info.value)


def test_construct_stingray_large_r_is_too_large(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("(t^r-1)/(t-1) must not be built")

    monkeypatch.setattr(fpoly, "cyclotomic_quotient", refuse)
    # 1984563001 is the only 8-ppd prime of 251; 8191 = 2^13 - 1 is prime
    for q, d, r, want in ((251, 16, None, 1984563001), (2, 26, None, 8191),
                          (2, 26, 8191, 8191)):
        with pytest.raises(TooLarge) as info:
            classify.construct_stingray(q, d, r=r)
        msg = str(info.value)
        assert "%d-ppd prime r=%d" % (d // 2, want) in msg, msg
        assert str(classify.MAX_CONSTRUCT_R) in msg


def test_construct_stingray_validation():
    with pytest.raises(StingrayUsageError):
        classify.construct_stingray(2, 7)


def test_order_nine_prime_power_at_2_6():
    # 9 divides 2^6-1 and o_9(2) = 6: the paper's prime-power remark
    phi9 = fpoly.DensePoly(F2, [1, 0, 0, 1, 0, 0, 1])
    assert fpoly.is_irreducible(phi9)
    g = fmatrix.block_diagonal([fmatrix.companion(phi9),
                                fmatrix.identity(F2, 6)])
    cls = classify.classify_element(g, 6)
    assert cls.order == 9
    assert cls.tag == classify.STINGRAY
    assert cls.e == 6
    assert cls.order_is_eppd              # prime power accepted here
    assert "prime-power" in cls.notes
    assert classify.is_stingray_oracle(g, 6)


def test_eigenvalue_multiplicities_stingray_element():
    g = classify.construct_stingray(2, 8, r=5)
    sol = classify.eigenvalue_multiplicities(g, 5)
    assert sol.mults[0] == 4
    assert sorted(sol.mults[1:]) == [0, 0, 1, 1] or \
        sorted(sol.mults[1:]) == [1, 1, 1, 1]
    assert sum(sol.mults) == 8 - 4 + sol.mults[0]


def test_eigenvalue_multiplicities_symcube_order3():
    mod = groups.sl2_module(5, groups.SYMCUBE)
    state = groups.new_walk_state(mod.group, seed=11)
    found = None
    for _ in range(500):
        g = groups.random_element(mod.group, state)
        n = fmatrix.matrix_order(g)
        if n % 3 == 0:
            found = g ** (n // 3)
            break
    assert found is not None
    sol = classify.eigenvalue_multiplicities(found, 3)
    assert sorted(sol.mults) == [1, 1, 2]
    assert sol.mults[0] == 2


def test_eigenvalue_multiplicities_validation():
    g = classify.construct_stingray(2, 8, r=5)
    with pytest.raises(Exception):
        classify.eigenvalue_multiplicities(g, 3)   # wrong order


def test_classify_rejects_singular():
    with pytest.raises(Singular):
        classify.classify_element(fmatrix.zeros(F2, 4), 2)


def test_classification_agrees_with_character_criterion():
    # brauer character value of a (d/2)-ppd element determines the tag
    g = classify.construct_stingray(3, 8, r=5)
    sol = classify.eigenvalue_multiplicities(g, 5)
    chi = cyclo.from_multiplicities(5, sol.mults)
    assert cyclo.stingray_criterion(5, 8, chi) == cyclo.STINGRAY
    h = fmatrix.block_diagonal([_phi5_companion(), _phi5_companion()])
    sol = classify.eigenvalue_multiplicities(h, 5)
    chi = cyclo.from_multiplicities(5, sol.mults)
    assert cyclo.stingray_criterion(5, 8, chi) == cyclo.TYPE_2II

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stingray import _manifest, classify, ffield, fmatrix, groups, harness
from stingray.errors import (NotPrime, ParseError, ReducibleModulus, Singular,
                             SingularGenerator, StingrayError,
                             StingrayUsageError)

import oracles


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def test_mgrp_round_trip_gl42(tmp_path):
    grp = groups.classical_generators("GL", 4, 2)
    p1 = tmp_path / "gl42.mgrp"
    harness.write_mgrp(grp, p1)
    parsed = harness.parse_mgrp(p1)
    assert parsed.group.dim == 4
    assert parsed.group.field.q == 2
    assert list(parsed.group.generators) == list(grp.generators)
    p2 = tmp_path / "copy.mgrp"
    harness.write_mgrp(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mgrp_round_trip_extension_field_with_comments(tmp_path):
    grp = groups.classical_generators("SL", 2, 9)
    obj = harness.MgrpFile(group=grp, comments=("# one", "# two"))
    p1 = tmp_path / "sl29.mgrp"
    harness.write_mgrp(obj, p1)
    parsed = harness.parse_mgrp(p1)
    assert parsed.comments == ("# one", "# two")
    assert parsed.group.field.modulus == grp.field.modulus
    p2 = tmp_path / "again.mgrp"
    harness.write_mgrp(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "modulus" in p1.read_text()


def test_mgrp_prime_field_has_no_modulus_line(tmp_path):
    p = tmp_path / "g.mgrp"
    harness.write_mgrp(groups.classical_generators("GL", 2, 3), p)
    assert "modulus" not in p.read_text()


def test_parse_errors_carry_line_numbers(tmp_path):
    p = str(tmp_path / "bad.mgrp")

    _write(p, "MGRF v1\n")
    with pytest.raises(ParseError) as e:
        harness.parse_mgrp(p)
    assert e.value.line == 1

    _write(p, "MGRP v1\np 4\na 1\ndim 1\nngens 1\n1\n")
    with pytest.raises(ParseError) as e:
        harness.parse_mgrp(p)
    assert e.value.line == 2 and "prime" in str(e.value)

    _write(p, "MGRP v1\np 2\na 2\ndim 1\nngens 1\n1\n")
    with pytest.raises(ParseError) as e:
        harness.parse_mgrp(p)
    assert "modulus" in str(e.value)

    # modulus forbidden for prime fields
    _write(p, "MGRP v1\np 2\na 1\nmodulus 1 1 1\ndim 1\nngens 1\n1\n")
    with pytest.raises(ParseError):
        harness.parse_mgrp(p)

    # entry out of range
    _write(p, "MGRP v1\np 2\na 1\ndim 2\nngens 1\n1 0\n0 7\n")
    with pytest.raises(ParseError):
        harness.parse_mgrp(p)

    # trailing junk after matrices that is not a comment
    _write(p, "MGRP v1\np 2\na 1\ndim 1\nngens 1\n1\nstray\n")
    with pytest.raises(ParseError):
        harness.parse_mgrp(p)

    # truncated matrix block
    _write(p, "MGRP v1\np 2\na 1\ndim 2\nngens 2\n1 0\n0 1\n")
    with pytest.raises(ParseError):
        harness.parse_mgrp(p)


def test_parse_singular_generator_index(tmp_path):
    p = str(tmp_path / "sing.mgrp")
    _write(p, "MGRP v1\np 2\na 1\ndim 2\nngens 2\n1 0\n0 1\n1 1\n1 1\n")
    with pytest.raises(SingularGenerator) as e:
        harness.parse_mgrp(p)
    assert e.value.index == 1
    assert isinstance(e.value, Singular)
    assert str(e.value) == "generator 1 is singular"


def test_parse_ranks_each_generator_once(tmp_path, monkeypatch):
    p = str(tmp_path / "two.mgrp")
    _write(p, "MGRP v1\np 2\na 1\ndim 2\nngens 2\n1 1\n0 1\n0 1\n1 0\n")
    calls = []
    rank = fmatrix.DenseMatrix.rank
    monkeypatch.setattr(fmatrix.DenseMatrix, "rank",
                        lambda m: calls.append(m) or rank(m))
    assert len(harness.parse_mgrp(p).group.generators) == 2
    assert len(calls) == 2


def test_parse_reducible_modulus(tmp_path):
    p = str(tmp_path / "red.mgrp")
    _write(p, "MGRP v1\np 2\na 2\nmodulus 1 0 1\ndim 1\nngens 1\n1\n")
    with pytest.raises(ReducibleModulus):
        harness.parse_mgrp(p)


def test_parse_non_ascii_is_a_parse_error(tmp_path):
    p = tmp_path / "cafe.mgrp"
    p.write_bytes("MGRP v1\np 2\na 1\ndim 1\nngens 1\n1\n# café\n"
                  .encode("utf-8"))
    with pytest.raises(ParseError) as e:
        harness.parse_mgrp(p)
    assert e.value.line == 7


_VALID_MGRP = b"\n".join(
    l.encode("ascii") for l in harness.mgrp_lines(harness.MgrpFile(
        group=groups.classical_generators("SL", 2, 9), comments=("# c",))))


def _parse_or_typed_error(path, data):
    path.write_bytes(data)
    try:
        assert isinstance(harness.parse_mgrp(path), harness.MgrpFile)
    except StingrayError:
        pass


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=300))
def test_parse_mgrp_fuzz_arbitrary_bytes(tmp_path, data):
    _parse_or_typed_error(tmp_path / "fuzz.mgrp", b"MGRP v1\n" + data)
    _parse_or_typed_error(tmp_path / "fuzz.mgrp", data)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(0, _VALID_MGRP.count(b"\n")),
       line=st.one_of(st.binary(max_size=40),
                      st.lists(st.integers(-3, 300), max_size=6).map(
                          lambda xs: " ".join(map(str, xs)).encode())),
       mode=st.sampled_from(["replace", "insert", "delete", "prefix"]))
def test_parse_mgrp_fuzz_line_mutations(tmp_path, index, line, mode):
    lines = _VALID_MGRP.split(b"\n")
    if mode == "replace":
        lines[index] = line.replace(b"\n", b" ")
    elif mode == "insert":
        lines.insert(index, line.replace(b"\n", b" "))
    elif mode == "delete":
        del lines[index]
    else:
        lines[index] = line.replace(b"\n", b" ") + lines[index]
    _parse_or_typed_error(tmp_path / "fuzz.mgrp", b"\n".join(lines) + b"\n")


def test_default_seed_env_override(monkeypatch):
    monkeypatch.delenv("STINGRAY_SEED", raising=False)
    assert harness.default_seed() == 0xC0FFEE
    monkeypatch.setenv("STINGRAY_SEED", "0x2A")
    assert harness.default_seed() == 42
    monkeypatch.setenv("STINGRAY_SEED", "17")
    assert harness.default_seed() == 17
    monkeypatch.setenv("STINGRAY_SEED", "zzz")
    with pytest.raises(StingrayUsageError):
        harness.default_seed()


@pytest.mark.parametrize("name", ["PERMMOD", "PROP122", "CHARACTERS",
                                  "PPDTABLE"])
def test_fast_suites_pass(name):
    report = harness.verify_suite(name)
    assert report.passed
    assert report.suite == name
    for line in report.lines():
        assert line.startswith(("CHECK ", "SUITE "))
    assert report.lines()[-1].startswith("SUITE %s PASS" % name)


def test_check_line_format():
    report = harness.verify_suite("CHARACTERS")
    for chk in report.checks:
        assert chk.line() == "CHECK %s %s expected=%s observed=%s" % (
            chk.check_id, "PASS" if chk.passed else "FAIL",
            chk.expected, chk.observed)


def test_suite_reports_are_deterministic():
    a = harness.verify_suite("PERMMOD").lines()
    b = harness.verify_suite("PERMMOD").lines()
    assert a == b


@pytest.mark.parametrize("seed", [groups.DEFAULT_SEED, 1],
                         ids=["default-seed", "seed-1"])
def test_verify_all_lines_are_pinned(seed):
    # tests/data/verify_all.txt holds the lines of the whole suite; any
    # change to a field, kernel or algorithm that moves a verdict or a count
    # shows up here, and no suite in ALL may depend on the seed
    path = os.path.join(os.path.dirname(__file__), "data", "verify_all.txt")
    with open(path) as fh:
        want = fh.read().splitlines()
    assert harness.verify_suite("ALL", seed=seed).lines() == want


def _sl2_orders(q):
    """{element: order} over all of SL2(q), by oracle arithmetic on
    encodings, elements as (a, b, c, d) for the rows (a, b), (c, d)."""
    F = ffield.field_from_q(q)
    mod = list(F.modulus) if F.modulus else None
    add = [[oracles.gf_add(x, y, F.p, F.a) for y in range(q)]
           for x in range(q)]
    mul = [[oracles.gf_mul(x, y, F.p, mod) for y in range(q)]
           for x in range(q)]
    neg = [add[x].index(0) for x in range(q)]

    def mat_mul(g, h):
        a, b, c, d = g
        e, f, u, v = h
        return (add[mul[a][e]][mul[b][u]], add[mul[a][f]][mul[b][v]],
                add[mul[c][e]][mul[d][u]], add[mul[c][f]][mul[d][v]])

    one = (1, 0, 0, 1)
    orders = {}
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if add[mul[a][d]][neg[mul[b][c]]] != 1:
                        continue
                    g, x, n = (a, b, c, d), (a, b, c, d), 1
                    while x != one:
                        x, n = mat_mul(x, g), n + 1
                    orders[g] = n
    return add, orders


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_order_r_classes_cover_sl2_by_brute_force(q):
    # every order-r element of SL2(q) has one of the enumerated traces, and
    # each trace holds |SL2(q)|/(q -+ 1) elements: one centralizer-sized
    # class in SL2(q), so one companion matrix per trace sees all of them
    add, orders = _sl2_orders(q)
    assert len(orders) == q * (q * q - 1)
    primes = [r for r in oracles.trial_factor(q * q - 1) if r % 2]
    assert primes
    for r in primes:
        classes = harness._order_r_classes(q, r)
        taus = [g.trace() for g in classes]
        assert len(set(taus)) == len(taus) == (r - 1) // 2
        by_trace = {}
        for (a, b, c, d), n in orders.items():
            if n == r:
                t = add[a][d]
                by_trace[t] = by_trace.get(t, 0) + 1
        assert sorted(by_trace) == sorted(taus)
        torus = q - 1 if (q - 1) % r == 0 else q + 1
        assert set(by_trace.values()) == {len(orders) // torus}


@pytest.mark.parametrize("case", _manifest.PSL2_CASES,
                         ids=[c["label"] for c in _manifest.PSL2_CASES])
def test_order_r_classes_of_manifest_cases(case):
    classes = harness._order_r_classes(case["q"], case["r"])
    assert len(classes) == (case["r"] - 1) // 2
    for g in classes:
        assert g.field.q == case["q"]
        assert g.det() == 1


def test_psl2_suite_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the PSL2 suite drew a random element")

    monkeypatch.setattr(groups, "random_element", refuse)
    monkeypatch.setattr(groups, "new_walk_state", refuse)
    assert harness.verify_suite("PSL2").passed


def test_unknown_suite():
    with pytest.raises(StingrayUsageError) as e:
        harness.verify_suite("BOGUS")
    assert str(e.value) == ("unknown suite 'BOGUS'; expected one of "
                            "PERMMOD|PSL2|PROP122|CHARACTERS|PPDTABLE|ALL|ATLAS")


def test_sample_stingray_gl42():
    grp = groups.classical_generators("GL", 4, 2)
    rep = harness.sample_stingray(grp, r=3, e=2, trials=1500, seed=7)
    tags = dict(rep.tag_counts)
    assert "STINGRAY(2)" in tags
    assert "TYPE_2II" in tags
    assert "TYPE_2I" not in tags
    assert rep.witness is not None
    assert classify.is_stingray_oracle(rep.witness, 2)
    assert rep.witness_trial >= 1
    assert rep.candidates == sum(tags.values())


def test_sample_stingray_sl44_finds_witness():
    grp = groups.classical_generators("SL", 4, 4)
    rep = harness.sample_stingray(grp, r=5, e=2, trials=2000, seed=1)
    assert rep.witness is not None
    assert classify.is_stingray_oracle(rep.witness, 2)


def test_sample_stingray_from_path(tmp_path):
    p = tmp_path / "g.mgrp"
    harness.write_mgrp(groups.classical_generators("GL", 4, 2), p)
    rep = harness.sample_stingray(str(p), r=3, e=2, trials=100, seed=2)
    assert rep.trials == 100
    assert "SAMPLE r=3 e=2" in rep.render()


def test_sample_stingray_usage_errors():
    grp = groups.classical_generators("GL", 4, 2)
    with pytest.raises(StingrayUsageError):
        harness.sample_stingray(grp, r=3, e=2, trials=0)
    with pytest.raises(NotPrime):
        harness.sample_stingray(grp, r=4, e=2, trials=10)


def test_atlas_suite_signature_checks(tmp_path):
    d = tmp_path / "atlas"
    d.mkdir()
    harness.write_mgrp(harness.MgrpFile(
        group=groups.classical_generators("GL", 4, 2),
        comments=("# expect: order=20160 dim=4 irreducible=yes "
                  "stingray-e2=yes",)), d / "gl42.mgrp")
    report = harness.verify_suite("ATLAS", atlas_dir=str(d))
    assert report.passed
    ids = [c.check_id for c in report.checks]
    assert any("ORDER" in i for i in ids)
    assert any("STINGRAY-E2" in i for i in ids)


def test_atlas_suite_needs_directory():
    with pytest.raises(StingrayUsageError):
        harness.verify_suite("ATLAS")


def test_atlas_suite_flags_wrong_signature(tmp_path):
    d = tmp_path / "atlas"
    d.mkdir()
    harness.write_mgrp(harness.MgrpFile(
        group=groups.classical_generators("GL", 4, 2),
        comments=("# expect: order=999",)), d / "gl42.mgrp")
    report = harness.verify_suite("ATLAS", atlas_dir=str(d))
    assert not report.passed

import os

import pytest

from stingray import classify, groups, harness
from stingray.errors import (NotPrime, ParseError, ReducibleModulus,
                             SingularGenerator, StingrayUsageError)


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


def test_parse_reducible_modulus(tmp_path):
    p = str(tmp_path / "red.mgrp")
    _write(p, "MGRP v1\np 2\na 2\nmodulus 1 0 1\ndim 1\nngens 1\n1\n")
    with pytest.raises(ReducibleModulus):
        harness.parse_mgrp(p)


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


def test_verify_all_lines_are_pinned():
    # tests/data/verify_all.txt holds the lines of the whole suite at the
    # default seed; any change to a field, kernel or algorithm that moves a
    # verdict, a count or a sampled draw shows up here
    path = os.path.join(os.path.dirname(__file__), "data", "verify_all.txt")
    with open(path) as fh:
        want = fh.read().splitlines()
    assert harness.verify_suite("ALL", seed=groups.DEFAULT_SEED).lines() == want


def test_unknown_suite():
    with pytest.raises(StingrayUsageError):
        harness.verify_suite("BOGUS")


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

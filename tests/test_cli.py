import re

import pytest

from stingray import cli, groups, harness
from stingray.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ppd_nonempty(capsys):
    code, out, _ = run(capsys, "ppd", "--q", "2", "--e", "4")
    assert code == 0
    assert out.splitlines() == ["5"]


def test_ppd_empty_exit_code(capsys):
    code, out, _ = run(capsys, "ppd", "--q", "2", "--e", "6")
    assert code == 3
    assert out == ""


def test_ppd_error_exit_codes(capsys):
    code, _, err = run(capsys, "ppd", "--q", "6", "--e", "2")
    assert code == 2 and "prime power" in err
    code, _, err = run(capsys, "ppd", "--q", "4", "--e", "0")
    assert code == 64


def test_usage_error_on_bad_flags(capsys):
    code, _, err = run(capsys, "ppd", "--q", "2")
    assert code == 64
    code, _, err = run(capsys, "nonsense")
    assert code == 64


def test_construct_classify_pipeline(capsys, tmp_path):
    out_file = str(tmp_path / "s.mgrp")
    code, _, _ = run(capsys, "construct", "stingray", "--q", "3", "--d", "8",
                     "--out", out_file)
    assert code == 0
    code, out, _ = run(capsys, "classify", "--file", out_file,
                       "--gen", "0", "--e", "4")
    assert code == 0
    assert out.startswith("STINGRAY(4)")
    assert "order=5" in out


def test_construct_to_stdout_is_mgrp(capsys):
    code, out, _ = run(capsys, "construct", "stingray", "--q", "2", "--d", "8")
    assert code == 0
    assert out.startswith("MGRP v1\n")
    assert "ngens 1" in out


def test_construct_det1(capsys, tmp_path):
    out_file = str(tmp_path / "d1.mgrp")
    code, _, _ = run(capsys, "construct", "stingray", "--q", "3", "--d", "10",
                     "--det1", "--out", out_file)
    assert code == 0
    grp = harness.parse_mgrp(out_file).group
    assert grp.generators[0].det() == 1


def test_construct_no_ppd_prime(capsys):
    code, _, err = run(capsys, "construct", "stingray", "--q", "2",
                       "--d", "12")
    assert code == 2
    assert "63" in err


def test_construct_large_ppd_prime_is_one_line_error(capsys):
    code, out, err = run(capsys, "construct", "stingray", "--q", "251",
                         "--d", "16")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "internal" not in err
    assert "r=1984563001" in err and "8-ppd" in err


def test_construct_delperm_and_order(capsys, tmp_path):
    f = str(tmp_path / "a7.mgrp")
    code, _, _ = run(capsys, "construct", "delperm", "--n", "7", "--p", "2",
                     "--out", f)
    assert code == 0
    code, out, _ = run(capsys, "order", "--file", f)
    assert code == 0
    assert out.strip() == "2520"          # |A_7|


def test_order_takes_no_seed(capsys, tmp_path, monkeypatch):
    # the order is deterministic: a junk STINGRAY_SEED is never read, and
    # an explicit --seed still parses
    f = str(tmp_path / "a7.mgrp")
    run(capsys, "construct", "delperm", "--n", "7", "--p", "2", "--out", f)
    monkeypatch.setenv("STINGRAY_SEED", "junk")
    for extra in ((), ("--seed", "5")):
        code, out, err = run(capsys, "order", "--file", f, *extra)
        assert (code, out.strip(), err) == (0, "2520", "")


def test_singular_generator_exit_code(capsys, tmp_path):
    f = tmp_path / "sing.mgrp"
    f.write_text("MGRP v1\np 2\na 1\ndim 2\nngens 2\n1 0\n0 1\n1 1\n1 1\n")
    code, out, err = run(capsys, "order", "--file", str(f))
    assert (code, out) == (2, "")
    assert err == "error: generator 1 is singular\n"


def test_order_of_single_generator(capsys, tmp_path):
    f = str(tmp_path / "g.mgrp")
    harness.write_mgrp(groups.classical_generators("GL", 4, 2), f)
    code, out, _ = run(capsys, "order", "--file", f, "--gen", "1")
    assert code == 0
    assert out.strip().isdigit()


def test_order_projective(capsys, tmp_path):
    f = str(tmp_path / "sl27.mgrp")
    harness.write_mgrp(groups.classical_generators("SL", 2, 7), f)
    code, out, _ = run(capsys, "order", "--file", f,
                       "--action", "projective")
    assert code == 0
    assert out.strip() == "168"


def test_irreducible_yes(capsys, tmp_path):
    f = str(tmp_path / "a9.mgrp")
    code, _, _ = run(capsys, "construct", "delperm", "--n", "9", "--p", "2",
                     "--out", f)
    code, out, _ = run(capsys, "irreducible", "--file", f)
    assert code == 0
    assert out.strip() == "YES"


def test_construct_sl2_specs(capsys, tmp_path):
    f = str(tmp_path / "m.mgrp")
    for spec in ("natural", "symcube", "twist:0,1"):
        q = "8" if spec.startswith("twist") else "5"
        code, _, _ = run(capsys, "construct", "sl2", "--q", q,
                         "--spec", spec, "--out", f)
        assert code == 0
    code, _, _ = run(capsys, "construct", "sl2", "--q", "8", "--spec", "bad")
    assert code == 64
    code, _, _ = run(capsys, "construct", "sl2", "--q", "8",
                     "--spec", "twist:1,0")
    assert code == 2


def test_solve_mult(capsys):
    code, out, _ = run(capsys, "solve-mult", "--r", "5", "--d", "8",
                       "--chi", "0,-1,0,0,-1")
    assert code == 0
    assert out.strip() == "2,1,2,2,1"
    code, out, _ = run(capsys, "solve-mult", "--r", "5", "--d", "8",
                       "--chi", "1,0,0,0,0")
    assert code == 0
    assert out.strip().startswith("NO SOLUTION")
    code, _, _ = run(capsys, "solve-mult", "--r", "5", "--d", "8",
                     "--chi", "1,2,3")
    assert code == 64


def test_sample_stingray_cli(capsys, tmp_path):
    f = str(tmp_path / "g.mgrp")
    harness.write_mgrp(groups.classical_generators("GL", 4, 2), f)
    w = str(tmp_path / "w.mgrp")
    code, out, _ = run(capsys, "sample-stingray", "--file", f, "--r", "3",
                       "--e", "2", "--trials", "400", "--seed", "5",
                       "--out", w)
    assert code == 0
    assert out.startswith("SAMPLE r=3 e=2 trials=400")
    assert "WITNESS trial=" in out
    parsed = harness.parse_mgrp(w)
    assert parsed.group.dim == 4
    code, _, _ = run(capsys, "sample-stingray", "--file", f, "--r", "3",
                     "--e", "2", "--trials", "0")
    assert code == 64


def test_verify_pass_and_output_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "CHARACTERS")
    assert code == 0
    lines = out.strip().splitlines()
    pattern = re.compile(r"^CHECK \S+ (PASS|FAIL) expected=.* observed=.*$")
    assert all(pattern.match(ln) for ln in lines[:-1])
    assert lines[-1] == "SUITE CHARACTERS PASS 5/5"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "WHAT")
    assert code == 64


def test_verify_fail_exit_code(capsys, tmp_path):
    d = tmp_path / "atlas"
    d.mkdir()
    harness.write_mgrp(harness.MgrpFile(
        group=groups.classical_generators("GL", 4, 2),
        comments=("# expect: order=1",)), d / "g.mgrp")
    code, out, _ = run(capsys, "verify", "--suite", "ATLAS",
                       "--atlas-dir", str(d))
    assert code == 1
    assert "FAIL" in out


def test_verify_reads_the_seed_only_for_atlas(capsys, tmp_path, monkeypatch):
    # the five fixed suites draw nothing at random, so a junk
    # STINGRAY_SEED does not stop them; ATLAS draws and still refuses it
    monkeypatch.setenv("STINGRAY_SEED", "junk")
    for argv in (("--suite", "PPDTABLE"), ("--suite", "ALL"),
                 ("--suite", "PPDTABLE", "--seed", "5")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, ""), argv
        assert " PASS " in out.splitlines()[-1]
    d = tmp_path / "atlas"
    d.mkdir()
    harness.write_mgrp(harness.MgrpFile(
        group=groups.classical_generators("GL", 2, 2),
        comments=("# expect: order=6",)), d / "g.mgrp")
    code, _, err = run(capsys, "verify", "--suite", "ATLAS",
                       "--atlas-dir", str(d))
    assert code == 64 and "STINGRAY_SEED" in err


def test_internal_error_is_one_line(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("kernel\nexploded")

    monkeypatch.setattr(cli, "_cmd_ppd", boom)
    code, out, err = run(capsys, "ppd", "--q", "2", "--e", "4")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: internal: RuntimeError: kernel exploded"]
    assert "Traceback" not in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "order", "--file", "/nonexistent/x.mgrp")
    assert code == 2


def test_seed_flag_changes_sampling(capsys, tmp_path):
    f = str(tmp_path / "g.mgrp")
    harness.write_mgrp(groups.classical_generators("GL", 4, 2), f)
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "sample-stingray", "--file", f, "--r", "3",
                           "--e", "2", "--trials", "50", "--seed", seed)
        assert code == 0
        outs.append(out)
    assert outs[0] != outs[1]

"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stingray import classify, ffield  # noqa: E402
from stingray.fmatrix import DenseMatrix  # noqa: E402


def test_self_time_on_nested_trace():
    # a[0,10] -> b[1,4] -> c[2,3];  a -> d[5,9];  e[11,12] at top level
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_span_tracer_nests_and_counts():
    tracer = tracing.SpanTracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    summary = tracer.summary()["layers"]
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert 0 <= summary["outer"]["self_s"] <= summary["outer"]["wall_s"]


def test_reference_seconds():
    ref = speed.REF_PROBE_S
    samples = [(0.0, ref), (10.0, 2 * ref), (12.0, 2 * ref), (30.0, ref)]
    got = speed.reference_seconds(
        [(1.0, 5.0),      # no probe inside: mean speed of the probes at 0, 10
         (9.0, 13.0),     # probes at 10 and 12, at half speed, are subtracted
         (40.0, 41.0)],   # after the last probe: its speed
        samples)
    want = [4.0 * (1 + 0.5) / 2, (4.0 - 4 * ref) / 2, 1.0]
    assert got == pytest.approx(want)


def test_sampler_takes_probes_until_stopped():
    sampler = speed.Sampler().start()
    end = speed.perf_counter() + 0.5
    while speed.perf_counter() < end:
        pass
    samples = sampler.stop()
    assert len(samples) >= 3
    assert all(d > 0 for _, d in samples)
    assert [s for s, _ in samples] == sorted(s for s, _ in samples)


def test_percentile_rule_needs_ten_samples_beyond():
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == 9


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name_re.fullmatch(n) for n in declared)
    assert len(declared) == len(set(declared))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == tracing.per_layer_specs())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_injected_wrong_verdict_is_a_counted_failure(monkeypatch):
    real = classify.is_stingray_oracle
    monkeypatch.setattr(classify, "is_stingray_oracle",
                        lambda g, e: not real(g, e))
    tally = workloads.run("classify-small", 7, npasses=1)
    assert tally.attempted == len(workloads.SMALL_PASS)
    assert tally.failures == {"wrong-verdict": tally.attempted}


def test_missed_deadline_is_a_counted_failure(monkeypatch):
    monkeypatch.setitem(workloads.DEADLINE_S, "classify-large", 1e-3)
    tally = workloads.run("classify-large", 7, npasses=1)
    assert tally.failures == {"raised-Deadline": len(workloads.LARGE_PASS)}


def test_verify_output_check():
    good = "".join("CHECK %s PASS expected=x observed=x\n" % c
                   for c in sorted(workloads.VERIFY_CHECK_IDS))
    assert workloads.check_verify_output(0, good) is None
    assert workloads.check_verify_output(1, good) == "exit-1"
    assert workloads.check_verify_output(0, good.split("\n", 1)[1]) == "wrong-check-set"
    assert (workloads.check_verify_output(0, good.replace("PASS", "FAIL", 1))
            == "check-failed")


@pytest.mark.parametrize("q", [4, 9, 8])
def test_regular_representation_is_multiplicative(q):
    F = ffield.field_from_q(q)
    rng = np.random.default_rng(q)
    g = DenseMatrix(F, rng.integers(0, q, size=(5, 5)))
    h = DenseMatrix(F, rng.integers(0, q, size=(5, 5)))
    lhs = oracle.regular_rep(F, (g * h).arr)
    rhs = np.mod(oracle.regular_rep(F, g.arr) @ oracle.regular_rep(F, h.arr), F.p)
    assert np.array_equal(lhs, rhs)
    assert oracle.is_invertible(F, g.arr) == (g.rank() == 5)


def test_invertibility_check():
    F = ffield.field_from_q(9)
    assert oracle.is_invertible(F, np.eye(4, dtype=np.int64))
    singular = np.array([[1, 2, 0], [1, 2, 0], [3, 4, 5]])
    assert not oracle.is_invertible(F, singular)


def test_order_check_accepts_exact_and_rejects_multiples():
    g = classify.construct_stingray(3, 8)      # order 5
    assert oracle.order_is_exact(g, 5)
    assert not oracle.order_is_exact(g, 10)
    assert not oracle.order_is_exact(g, 1)


def test_closed_forms():
    assert oracle.gl_order(4, 2) == 20160
    assert oracle.sl_order(2, 7) == 336
    assert oracle.sp_order(4, 3) == 51840
    assert oracle.alternating_order(7) == 2520

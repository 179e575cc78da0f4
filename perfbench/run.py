"""Benchmark of the stingray package; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-all, classify-small, classify-large, group-order (see
workloads.py).  With --trace 0 the workload runs untraced for S seconds of
timed work and reports the end-to-end metrics, with times corrected for the
host's speed (speed.py); with --trace 1 a fixed job
runs in fresh processes (untraced, spans, counts, untraced again) and the
per-layer metrics are reported, after checking that both traced processes
made the same calls and that all four gave the same answers.

The second-to-last line of output is a JSON report (environment, sample
counts, percentiles, failures); the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Self-tests:
python3 -m pytest perfbench/test_perfbench.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("item_ms_p50", "ms"), ("peak_rss_mb", "MB"))


def percentile(samples, pct):
    """Nearest-rank pct-th percentile, or None when fewer than ten samples
    lie above it (so p90 needs at least 100 samples)."""
    n = len(samples)
    rank = math.ceil(pct / 100 * n)
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _child(args):
    return subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup(name):
    """Median time, in reference seconds (speed.py), of fresh interpreters
    that import and build."""
    OUT_DIR.mkdir(exist_ok=True)
    samples = OUT_DIR / "setup.samples.json"
    _child(["setup", name, str(samples)])   # may write bytecode caches
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        _child(["setup", name, str(samples)])
        t1 = perf_counter()
        times += speed.reference_seconds(
            [(t0, t1)], json.loads(samples.read_text()))
    return statistics.median(times)


def environment(seed):
    from stingray import _kernels
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "kernels_backend": _kernels.backend(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(), "seed": seed}


def timed_run(name, seed, seconds):
    """End-to-end metrics of an untraced run of `seconds` timed work."""
    if name == "verify-all":
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "cli.samples.json"
        tally, samples = workloads.run_cli(
            seed, seconds, [sys.executable, str(HERE / "child.py"), "cli", str(path)],
            child_env(), path)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        sampler = speed.Sampler().start()
        try:
            tally = workloads.run(name, seed, seconds=seconds)
        finally:
            samples = sampler.stop()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    item_ref = speed.reference_seconds(tally.item_span, samples)
    # Means over the whole run, not medians: with the host's speed corrected
    # for, what spreads between seeds is the cost of the random inputs.  That
    # cost is spread over several modes (an item of GL(16,251) takes 40-600
    # ms, depending on how its characteristic polynomial factors).  Over ~30
    # items of a kind the median can jump from one mode to another; the mean
    # moves less.
    passes = len(tally.pass_s)
    total = sum(item_ref)
    metrics = {
        "setup_s": measure_setup(name),
        "wall_s": total / passes,
        "items_per_s": (tally.attempted - tally.failed) / total,
        "item_ms_p50": 1e3 * statistics.median(item_ref),
        "peak_rss_mb": rss_kb / 1024,
    }
    p90 = percentile(item_ref, 90)
    probe_ms = [1e3 * d for _, d in samples]
    report = {"passes": passes, "items": tally.attempted,
              "item_ms_p90": None if p90 is None else 1e3 * p90,
              "raw_wall_s": sum(tally.pass_s) / passes,
              "raw_item_ms_p50": 1e3 * statistics.median(tally.item_s),
              "probes": len(probe_ms),
              "probe_ms_quartiles": statistics.quantiles(probe_ms, n=4),
              "failures": dict(tally.failures), "digest": tally.digest.hexdigest()}
    return tally.attempted, tally.failed, metrics, report


def _job(name, seed, mode):
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("%s-%d-%s.json" % (name, seed, mode))
    _child(["job", name, str(seed), mode, str(out)])
    return json.loads(out.read_text())


def layer_metrics(spans, counts, untraced_s):
    """Every per-layer metric from the fixed-job summaries."""
    layers = spans["trace"]["layers"]
    calls = counts["trace"]["calls"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    lookups = layer("fpoly.factor_cached", "calls")
    draws = layer("groups.random_element", "calls")
    traced_s = sum(spans["pass_s"])
    derived = {
        "ffield.scalar.self_s": counts["trace"]["scalar_s"],
        "fpoly.factor_cached.hit_ratio":
            1 - spans["trace"]["factor_cache_misses"] / lookups if lookups else 0,
        "fpoly.factor.per_item": layer("fpoly.factor", "calls") / spans["attempted"],
        "harness.candidate_ratio":
            spans["trace"]["psl2_oracle_calls"] / draws if draws else 0,
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics = {}
    for metric, _unit, _better in tracing.per_layer_specs():
        if metric in derived:
            value = derived[metric]
        elif metric.startswith("ffield."):
            value = calls.get(metric[:-len(".calls")], 0)
        elif metric.endswith(".ops"):
            value = spans["trace"]["ops"].get(metric[:-len(".ops")], 0)
        else:
            base, key = metric.rsplit(".", 1)
            value = layer(base, key)
        metrics[metric] = value
    return metrics


def determinism_problems(spans, counts, plains):
    """Differences between runs of one seed that must not differ."""
    problems = []
    span_calls = {k: v["calls"] for k, v in spans["trace"]["layers"].items()}
    count_calls = {k: v for k, v in counts["trace"]["calls"].items()
                   if not k.startswith("ffield.")}
    if span_calls != count_calls:
        problems.append("call counts differ between the two traced runs")
    if len({run["digest"] for run in [spans, counts] + plains}) != 1:
        problems.append("answers differ between runs of one seed")
    return problems


def traced_run(name, seed):
    # Untraced runs before and after the traced ones; their mean is the
    # base of the tracing overhead, which drifts with the machine's speed.
    before = _job(name, seed, "plain")
    spans = _job(name, seed, "spans")
    counts = _job(name, seed, "counts")
    after = _job(name, seed, "plain")
    untraced_s = (sum(before["pass_s"]) + sum(after["pass_s"])) / 2
    problems = determinism_problems(spans, counts, [before, after])
    failed = sum(spans["failures"].values())
    report = {"passes": len(spans["pass_s"]), "items": spans["attempted"],
              "spans": spans["trace"]["spans"], "failures": spans["failures"],
              "determinism_problems": problems, "digest": spans["digest"]}
    return (spans["attempted"], failed, layer_metrics(spans, counts, untraced_s),
            report, not problems)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stingray" / "__init__.py").is_file():
        print("error: no stingray sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    if args.trace:
        attempted, failed, metrics, report, consistent = traced_run(
            args.workload, args.seed)
        units = {n: u for n, u, _ in tracing.per_layer_specs()}
    else:
        attempted, failed, metrics, report = timed_run(
            args.workload, args.seed, args.seconds)
        consistent = True
        units = dict(END_TO_END)
    env["loadavg_end"] = os.getloadavg()
    if max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]:
        print("warning: load average above nproc; timings are contended",
              file=sys.stderr)
    report.update(workload=args.workload, fail_ratio=failed / attempted)
    print(json.dumps({"env": env, "report": report}))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child processes of the benchmark.

    child.py setup WORKLOAD SAMPLES
        import stingray and build the workload's fields and generators;
        the parent times the whole process (set-up time of a fresh
        interpreter).  Speed samples (speed.py) go to SAMPLES.
    child.py cli SAMPLES ARG...
        ``stingray ARG...`` as the command line runs it, with speed
        samples going to SAMPLES.
    child.py job WORKLOAD SEED MODE OUT
        run the workload's fixed traced job (workloads.TRACE_PASSES) under
        MODE = plain | spans | counts and write a JSON summary to OUT.  The
        spans mode also writes every span next to it, as OUT with suffix
        .spans.json.
"""

import json
import sys
from pathlib import Path

import speed


def _setup(name, samples):
    speed.sample_to_file(samples)
    import stingray  # noqa: F401  (the import is what is timed)
    import workloads
    if name == "verify-all":
        import stingray.cli  # noqa: F401
    workloads.build(name)


def _cli(samples, argv):
    speed.sample_to_file(samples)
    from stingray import cli
    return cli.main(argv)


def _job(name, seed, mode, out):
    import stingray.cli  # noqa: F401  (every module loaded before wrapping)
    import tracing
    import workloads

    workloads.build(name)   # interned fields and groups, built untraced
    tracer = None if mode == "plain" else tracing.install(mode)

    def before_item(i):
        tracer.current_item = i

    tally = workloads.run(name, seed, npasses=workloads.TRACE_PASSES[name],
                          before_item=before_item if tracer else None)
    summary = tally.as_dict()
    if tracer is not None:
        summary["trace"] = tracer.summary()
    if mode == "spans":
        Path(out).with_suffix(".spans.json").write_text(json.dumps(tracer.dump()))
    Path(out).write_text(json.dumps(summary))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "cli":
        sys.exit(_cli(sys.argv[2], sys.argv[3:]))
    else:
        _job(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])

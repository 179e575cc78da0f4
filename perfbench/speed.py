"""Machine-speed correction of the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed flips, every
second or so and sometimes for minutes, between two levels about 1.5-1.8x
apart.  The guest sees no steal time, and CPU time slows as much as wall
time, so the likely cause is other load on the same physical cores.  A
median over a 20 s run then depends on how much of the run fell into the
slow phase, and runs of the same code spread by more than any useful bound.

A sampler therefore interrupts the measured process every SAMPLE_EVERY_S of
its CPU time and times `probe()`, a fixed piece of work in three parts that
look like the package's own: table lookups and small-integer arithmetic (as
in ffield), numpy calls on an 8x8 array (as in _kernels) and a schoolbook
polynomial product over lists (as in fpoly).  Each part alone tracks the
package badly: in the slow phase the pure-Python part slows by about 10%
less than group_order and classify_element do, the numpy part by about 7%
more.  The sum of the three tracked group_order of SP(4,3) and classify
items over GF(2), GF(3) and GF(9) within about 3% in a 4-minute recording.
A timed interval is then reported in reference seconds:

    (wall time - time spent in probes) * REF_PROBE_S * mean(1 / probe time)

over the probes taken inside it, or the nearest one on each side when none
was.  That is the wall time the same work takes on a machine on which one
probe takes REF_PROBE_S.  On the 2-vCPU VM the benchmark was built on, one
probe takes about REF_PROBE_S in the fast phase, so reference seconds are
close to the wall time a user sees there when the host is quiet.  The raw
wall times are reported alongside.
"""

import atexit
import json
import signal
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

import numpy as np

SAMPLE_EVERY_S = 0.05
REF_PROBE_S = 2e-3

_TABLE = [(7 * i + 3) % 251 for i in range(251)]
_SMALL = np.arange(64, dtype=np.int64).reshape(8, 8) % 7
_POLY = list(range(1, 40))


def probe():
    """About 2 ms of work on a quiet host, in three near-equal parts."""
    s, table = 0, _TABLE                  # table lookups, small-int arithmetic
    for i in range(6000):
        s = table[(s * 31 + i) % 251]
    m = _SMALL                            # numpy calls on an 8x8 array
    for _ in range(260):
        m = (m @ _SMALL) % 7
    for _ in range(4):                    # schoolbook product of polynomials
        prod = [0] * (2 * len(_POLY))
        for i, x in enumerate(_POLY):
            for j, y in enumerate(_POLY):
                prod[i + j] = (prod[i + j] + x * y) % 251
    return s, m, prod


class Sampler:
    """Times probe() now and then every SAMPLE_EVERY_S of process CPU time.

    `samples` is a list of (start, duration) pairs on the perf_counter
    clock, which all processes of one machine share.
    """

    def __init__(self):
        self.samples = []

    def take(self, *_signal_args):
        t0 = perf_counter()
        probe()
        self.samples.append((t0, perf_counter() - t0))

    def start(self):
        self.take()
        signal.signal(signal.SIGPROF, self.take)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.take()
        return self.samples


def sample_to_file(path):
    """Sample this process until it exits, then write the samples to `path`
    (used by the benchmark's child processes)."""
    sampler = Sampler().start()
    atexit.register(lambda: Path(path).write_text(json.dumps(sampler.stop())))


def reference_seconds(spans, samples):
    """Each (start, end) interval of wall time in `spans`, in reference
    seconds, from the (start, duration) probe `samples`."""
    samples = sorted(samples)
    if not samples:
        raise ValueError("no speed samples")
    starts = [start for start, _ in samples]
    out = []
    for t0, t1 in spans:
        lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
        inside = samples[lo:hi]
        near = inside or samples[max(lo - 1, 0):lo + 1]
        speed = sum(1 / d for _, d in near) / len(near)
        probing = sum(d for _, d in inside)
        out.append((t1 - t0 - probing) * REF_PROBE_S * speed)
    return out

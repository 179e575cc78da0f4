"""The four workloads: seeded inputs, the timed closed loop and its checks.

Every workload is a sequence of passes; a pass is a list of items, and each
item is one call into the package that the benchmark times from outside.

* verify-all      one pass = one ``stingray verify --suite ALL`` process, cold
                  caches, as a command-line user pays for it.  Mostly PSL2:
                  Krylov min_poly, GF(8/16/64) scalars, random-walk draws.
* classify-small  one pass = 15 items, classify_element then
                  is_stingray_oracle: 8 from GL(4,2), 4 from GL(8,3), 2 from
                  GL(6,4), 1 from GL(8,9).  Per-call overhead on 4x4..8x8
                  arrays and factor-cache reuse across items dominate.
* classify-large  one pass = 4 items of the same calls at GL(32,2), GL(48,2),
                  GL(16,9), GL(16,251).  Polynomial arithmetic dominates and
                  per-call overhead does not matter; a change aimed at
                  classify-small should not move it.
* group-order     one pass = group_order on GL(5,2), SL(3,5), GL(3,4),
                  SP(4,3) and the deleted module of A9 over F2.  The only
                  workload of the Schreier-Sims layer (inverse -> rref).
                  GL(6,2) is left out because it alone takes as long as a
                  pass.  GL(4,3) is left out so that the list has an odd
                  length: the median item is then always SL(3,5), not the
                  mean of two groups of different cost.

Items run one at a time (one client, closed loop).  Checks and input
generation run outside the timed interval.  A raised exception, a missed
per-item deadline or a failed check counts as a failure of that item.
"""

import contextlib
import hashlib
import io
import itertools
import json
import signal
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import oracle

WORKLOADS = ("verify-all", "classify-small", "classify-large", "group-order")

SMALL_PASS = ((2, 4),) * 8 + ((3, 8),) * 4 + ((4, 6),) * 2 + ((9, 8),)
LARGE_PASS = ((2, 32), (2, 48), (9, 16), (251, 16))
GROUP_PASS = (("GL", 5, 2), ("SL", 3, 5), ("GL", 3, 4), ("SP", 4, 3),
              ("A", 9, 2))

# Per-item deadlines, about ten times the slowest item seen.
DEADLINE_S = {"verify-all": 120.0, "classify-small": 5.0,
              "classify-large": 30.0, "group-order": 60.0}

# Fewest passes of a timed run, so that even the slowest workload gives a
# median of three.
MIN_PASSES = 3

# Passes of the fixed job in a traced run (a few seconds untraced each).
TRACE_PASSES = {"verify-all": 1, "classify-small": 40, "classify-large": 4,
                "group-order": 1}

VERIFY_CHECK_IDS = frozenset("""
PERMMOD-1-CHAR PERMMOD-1-STINGRAY PERMMOD-1-ORDER PERMMOD-2-CHAR
PERMMOD-2-STINGRAY PERMMOD-2-ORDER PERMMOD-3-CHAR PERMMOD-3-STINGRAY
PERMMOD-3-ORDER PERMMOD-4-CHAR PERMMOD-4-STINGRAY PERMMOD-4-ORDER
PERMMOD-5-CHAR PERMMOD-5-STINGRAY PERMMOD-5-ORDER PERMMOD-6-CHAR
PERMMOD-6-STINGRAY PERMMOD-6-ORDER PERMMOD-5-YCHAR PSL2-SYMCUBE-Q5-FOUND
PSL2-SYMCUBE-Q11-FOUND PSL2-SYMCUBE-Q7-NONE PSL2-SYMCUBE-Q7-DIAG
PSL2-TWIST01-Q8-FOUND PSL2-TWIST02-Q64-FOUND PSL2-TWIST01-Q16-NONE
PSL2-TWIST01-Q16-DIAG PROP122-9CYCLE-ORDER PROP122-9CYCLE-FIXDIM
PROP122-9CYCLE-STINGRAY6 PROP122-9X3-ORDER PROP122-9X3-FIXDIM
PROP122-9X3-STINGRAY6 CHAR-B5-MULTS CHAR-C13-TRIVMULT CHAR-CRIT-5-8-3
CHAR-CRIT-5-8-M2 CHAR-CRIT-3-4-1 PPD-2-6-EMPTY PPD-2-4-FIVE PPD-CONGRUENCE
PPD-CONSTRUCT-12-2
""".split())


def verify_argv(seed):
    return ["verify", "--suite", "ALL", "--seed", str(seed)]


def check_verify_output(returncode, stdout):
    """None when the CLI run passed every one of the fixed 42 checks."""
    if returncode != 0:
        return "exit-%d" % returncode
    checks = [line.split() for line in stdout.splitlines()
              if line.startswith("CHECK ")]
    ids = [c[1] for c in checks]
    if len(ids) != len(VERIFY_CHECK_IDS) or set(ids) != VERIFY_CHECK_IDS:
        return "wrong-check-set"
    if any(c[2] != "PASS" for c in checks):
        return "check-failed"
    return None


def build(name):
    """Fields and generators the workload needs, built by the package."""
    from stingray import ffield, groups
    if name == "classify-small":
        return [ffield.field_from_q(q) for q in sorted({q for q, _ in SMALL_PASS})]
    if name == "classify-large":
        return [ffield.field_from_q(q) for q in sorted({q for q, _ in LARGE_PASS})]
    if name == "group-order":
        return [groups.deleted_perm_module(d, q).group if fam == "A"
                else groups.classical_generators(fam, d, q)
                for fam, d, q in GROUP_PASS]
    return []


def _random_invertible(rng, field, d):
    """Uniform on GL(d, q) by rejection; the package is not called."""
    from stingray.fmatrix import DenseMatrix
    while True:
        arr = rng.integers(0, field.q, size=(d, d))
        if oracle.is_invertible(field, arr):
            return DenseMatrix(field, arr)


def _classify_items(name, seed):
    """Endless stream of passes of (label, call, check) items."""
    from stingray import classify, ffield

    shape = SMALL_PASS if name == "classify-small" else LARGE_PASS
    rng = np.random.default_rng(seed)

    def item(g, e):
        def call():
            cls = classify.classify_element(g, e)
            return cls.tag, cls.e, cls.order, classify.is_stingray_oracle(g, e)

        def check(result):
            tag, block, order, verdict = result
            if (tag == classify.STINGRAY and block == e) != verdict:
                return "wrong-verdict"
            if not oracle.order_is_exact(g, order):
                return "wrong-order"
            return None

        return call, check

    while True:
        batch = []
        for q, d in shape:
            g = _random_invertible(rng, ffield.field_from_q(q), d)
            batch.append(("GL(%d,%d)" % (d, q),) + item(g, d // 2))
        yield batch


CLOSED_FORM = {"GL": oracle.gl_order, "SL": oracle.sl_order,
               "SP": oracle.sp_order,
               "A": lambda n, _p: oracle.alternating_order(n)}


def _group_items():
    """The same pass every time: the list and its order are fixed."""
    from stingray import groups

    batch = []
    for (fam, d, q), grp in zip(GROUP_PASS, build("group-order")):
        want = CLOSED_FORM[fam](d, q)
        batch.append(("%s(%d,%d)" % (fam, d, q),
                      lambda grp=grp: groups.group_order(grp),
                      lambda got, want=want: None if got == want
                      else "wrong-order"))
    return itertools.repeat(batch)


def _verify_items(seed):
    """One in-process CLI call per pass (used by the traced runs)."""
    from stingray import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(verify_argv(seed))
        return code, out.getvalue()

    while True:
        yield [("verify-all", call, lambda res: check_verify_output(*res))]


def passes(name, seed):
    if name == "verify-all":
        return _verify_items(seed)
    if name == "group-order":
        return _group_items()
    return _classify_items(name, seed)


class Deadline(Exception):
    """Raised by the interval timer when an item overruns its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


class Tally:
    """Latencies, pass times, failures and a digest of every answer.

    Calls return plain data (tuples, ints, text), so the digest of their
    reprs is equal for two runs exactly when their answers are.
    """

    def __init__(self):
        self.item_s = []
        self.item_span = []      # (start, end) of each item, perf_counter
        self.pass_s = []
        self.attempted = 0
        self.failures = Counter()
        self.digest = hashlib.sha256()

    def record(self, label, t0, t1, result, failure):
        self.attempted += 1
        self.item_s.append(t1 - t0)
        self.item_span.append((t0, t1))
        if failure is not None:
            self.failures[failure] += 1
        self.digest.update(("%s %r\n" % (label, result)).encode())

    @property
    def failed(self):
        return sum(self.failures.values())

    def as_dict(self):
        return {"item_s": self.item_s, "pass_s": self.pass_s,
                "attempted": self.attempted, "failures": dict(self.failures),
                "digest": self.digest.hexdigest()}


def run(name, seed, seconds=None, npasses=None, before_item=None):
    """Run whole passes until `seconds` of timed work (and MIN_PASSES
    passes), or exactly `npasses` passes."""
    tally = Tally()
    limit = DEADLINE_S[name]
    stream = passes(name, seed)

    def more():
        done = len(tally.pass_s)
        if npasses is not None:
            return done < npasses
        return done < MIN_PASSES or sum(tally.pass_s) < seconds

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        while more():
            spent = 0.0
            for label, call, check in next(stream):
                if before_item is not None:
                    before_item(tally.attempted)
                result, failure = None, None
                signal.setitimer(signal.ITIMER_REAL, limit)
                t0 = perf_counter()
                try:
                    result = call()
                except Exception as exc:  # any raise is a counted failure
                    failure = "raised-" + type(exc).__name__
                    print("%s failed: %r" % (label, exc), file=sys.stderr)
                finally:
                    t1 = perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if failure is None:
                    failure = check(result)
                tally.record(label, t0, t1, result, failure)
                spent += t1 - t0
            tally.pass_s.append(spent)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return tally


def run_cli(seed, seconds, command, env, samples_path):
    """Time whole ``stingray verify`` processes until `seconds` have passed
    and at least MIN_PASSES ran.  `command` + verify_argv(seed) writes the
    process's speed samples (speed.sample_to_file) to `samples_path`; the
    samples of all processes are returned with the tally."""
    tally = Tally()
    samples = []
    while len(tally.pass_s) < MIN_PASSES or sum(tally.pass_s) < seconds:
        samples_path.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            proc = subprocess.run(command + verify_argv(seed), env=env,
                                  capture_output=True, text=True,
                                  timeout=DEADLINE_S["verify-all"])
            result = (proc.returncode, proc.stdout)
            failure = check_verify_output(*result)
        except subprocess.TimeoutExpired:
            result, failure = (None, ""), "raised-TimeoutExpired"
        t1 = perf_counter()
        tally.record("verify-all", t0, t1, result, failure)
        tally.pass_s.append(t1 - t0)
        if samples_path.exists():
            samples += json.loads(samples_path.read_text())
    return tally, samples

"""MGRP generator files, the verification suites, and random stingray
search.

MGRP v1 is a plain text format: the header names the field and shape,
then each generator follows as dim rows of dim whitespace-separated
canonical encodings, then optional '#' comment lines which round-trip
byte for byte.  Example:

    MGRP v1
    p 2
    a 1
    dim 2
    ngens 1
    0 1
    1 1
    # order 3

Every suite is deterministic: parameters come from _manifest.  The PSL2
suite decides its dichotomy over the conjugacy classes of order-r elements
of SL2(q); only the ATLAS stingray search and sample_stingray draw random
elements, on the given seed.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import _manifest, classify, cyclo, ffield, fmatrix, fpoly, groups, ppd
from ._intmath import is_prime, is_prime_power
from .errors import NoPpdPrime, NotPrime, ParseError, StingrayUsageError


def default_seed():
    env = os.environ.get("STINGRAY_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise StingrayUsageError(
                "STINGRAY_SEED must be an integer, got %r" % env)
    return groups.DEFAULT_SEED


# --- MGRP v1 ---

@dataclass(frozen=True)
class MgrpFile:
    group: groups.MatrixGroup
    comments: tuple      # trailing comment lines, verbatim, without newlines


def _header_int(lines, idx, key):
    if idx >= len(lines):
        raise ParseError("unexpected end of file, wanted '%s'" % key,
                         line=idx + 1)
    parts = lines[idx].split()
    if len(parts) != 2 or parts[0] != key:
        raise ParseError("expected '%s <int>', got %r" % (key, lines[idx]),
                         line=idx + 1)
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError("bad integer in '%s' line: %r" % (key, parts[1]),
                         line=idx + 1)


def parse_mgrp(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError("non-ASCII byte 0x%02x" % raw[exc.start],
                         line=raw.count(b"\n", 0, exc.start) + 1)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "MGRP v1":
        raise ParseError("missing 'MGRP v1' magic", line=1)
    idx = 1
    p = _header_int(lines, idx, "p")
    if not is_prime(p):
        raise ParseError("p=%d is not prime" % p, line=idx + 1)
    idx += 1
    a = _header_int(lines, idx, "a")
    if a < 1:
        raise ParseError("a must be >= 1", line=idx + 1)
    idx += 1
    modulus = None
    if a > 1:
        if idx >= len(lines) or not lines[idx].startswith("modulus"):
            raise ParseError("a=%d needs a modulus line" % a, line=idx + 1)
        parts = lines[idx].split()
        try:
            modulus = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise ParseError("bad modulus coefficients", line=idx + 1)
        if len(modulus) != a + 1:
            raise ParseError("modulus needs %d coefficients, got %d"
                             % (a + 1, len(modulus)), line=idx + 1)
        idx += 1
    elif idx < len(lines) and lines[idx].startswith("modulus"):
        raise ParseError("modulus line not allowed when a=1", line=idx + 1)
    dim = _header_int(lines, idx, "dim")
    if dim < 1:
        raise ParseError("dim must be >= 1", line=idx + 1)
    idx += 1
    ngens = _header_int(lines, idx, "ngens")
    if ngens < 1:
        raise ParseError("ngens must be >= 1", line=idx + 1)
    idx += 1

    field = ffield.make_field(p, a, modulus=modulus)   # ReducibleModulus passes
    mats = []
    for gi in range(ngens):
        rows = []
        for ri in range(dim):
            if idx >= len(lines):
                raise ParseError("unexpected end of file in generator %d"
                                 % gi, line=idx + 1)
            parts = lines[idx].split()
            try:
                row = [int(x) for x in parts]
            except ValueError:
                raise ParseError("bad matrix entry in %r" % lines[idx],
                                 line=idx + 1)
            if len(row) != dim:
                raise ParseError("expected %d entries, got %d"
                                 % (dim, len(row)), line=idx + 1)
            for x in row:
                if not 0 <= x < field.q:
                    raise ParseError("entry %d outside [0, %d)"
                                     % (x, field.q), line=idx + 1)
            rows.append(row)
            idx += 1
        mats.append(fmatrix.DenseMatrix(field, rows))
    comments = []
    for rest in lines[idx:]:
        if not rest.startswith("#"):
            raise ParseError("trailing junk after generators: %r" % rest,
                             line=idx + 1)
        comments.append(rest)
        idx += 1
    grp = groups.MatrixGroup(field, dim, mats)
    return MgrpFile(group=grp, comments=tuple(comments))


def mgrp_lines(obj):
    """Canonical file content for a MatrixGroup or MgrpFile, as a list
    of lines without terminators."""
    if isinstance(obj, MgrpFile):
        grp, comments = obj.group, obj.comments
    else:
        grp, comments = obj, ()
    F = grp.field
    out = ["MGRP v1", "p %d" % F.p, "a %d" % F.a]
    if F.a > 1:
        out.append("modulus " + " ".join(str(c) for c in F.modulus))
    out.append("dim %d" % grp.dim)
    out.append("ngens %d" % len(grp.generators))
    for g in grp.generators:
        for i in range(grp.dim):
            out.append(" ".join(str(int(x)) for x in g.arr[i]))
    out.extend(comments)
    return out


def write_mgrp(obj, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(mgrp_lines(obj)) + "\n")


# --- verification reports ---

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    expected: str
    observed: str
    passed: bool

    def line(self):
        return "CHECK %s %s expected=%s observed=%s" % (
            self.check_id, "PASS" if self.passed else "FAIL",
            self.expected, self.observed)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [c.line() for c in self.checks]
        npass = sum(1 for c in self.checks if c.passed)
        out.append("SUITE %s %s %d/%d" % (
            self.suite, "PASS" if self.passed else "FAIL",
            npass, len(self.checks)))
        return out

    def render(self):
        return "\n".join(self.lines())


def _check(checks, cid, desc, expected, observed):
    checks.append(CheckResult(check_id=cid, description=desc,
                              expected=str(expected), observed=str(observed),
                              passed=str(expected) == str(observed)))


def _fmt_poly(f):
    return ",".join(str(c) for c in f.coeffs)


# --- PERMMOD ---

def _perm_char_closed_form(field, cycle_lens, n, delta):
    """prod (t^len - 1) over the cycle type, divided by (t-1)^delta."""
    t = fpoly.x_poly(field)
    one = fpoly.constant(field, 1)
    acc = one
    total = 0
    for ln in cycle_lens:
        acc = acc * (t ** ln - one)
        total += ln
    acc = acc * (t - one) ** (n - total)    # fixed points
    tm1 = t - one
    for _ in range(delta):
        acc, rem = divmod(acc, tm1)
        assert rem.is_zero()
    return acc


def _suite_permmod():
    checks = []
    for k, case in enumerate(_manifest.PERMMOD_CASES, 1):
        n, p = case["n"], case["p"]
        mod = groups.deleted_perm_module(n, p)
        perm = groups.perm_from_cycles(n, case["cycles"])
        img = mod.to_matrix(perm)
        delta = 2 if n % p == 0 else 1
        exp_char = _perm_char_closed_form(mod.group.field,
                                          [len(c) for c in case["cycles"]],
                                          n, delta)
        obs_char = fmatrix.char_poly(img)
        _check(checks, "PERMMOD-%d-CHAR" % k,
               "char poly of %s on the deleted module" % case["label"],
               _fmt_poly(exp_char), _fmt_poly(obs_char))
        verdict = classify.is_stingray_oracle(img, case["e"])
        _check(checks, "PERMMOD-%d-STINGRAY" % k,
               "%s is a %d-stingray element" % (case["label"], case["e"]),
               "yes" if case["stingray"] else "no",
               "yes" if verdict else "no")
        _check(checks, "PERMMOD-%d-ORDER" % k,
               "element order of %s" % case["label"],
               case["order"], fmatrix.matrix_order(img))
    # the doubled-cycle line reads (t^5-1)^2 on the full permutation module
    case = _manifest.PERMMOD_CASES[4]
    F = ffield.make_field(case["p"])
    perm = groups.perm_from_cycles(case["n"], case["cycles"])
    arr = np.zeros((case["n"], case["n"]), dtype=np.int64)
    for i in range(case["n"]):
        arr[i, perm[i]] = 1
    t = fpoly.x_poly(F)
    one = fpoly.constant(F, 1)
    exp_y = (t ** 5 - one) ** 2
    obs_y = fmatrix.char_poly(fmatrix.DenseMatrix(F, arr))
    _check(checks, "PERMMOD-5-YCHAR",
           "char poly of 5sq-n10-p2 on the full permutation module",
           _fmt_poly(exp_y), _fmt_poly(obs_y))
    return VerifyReport(suite="PERMMOD", checks=tuple(checks))


# --- PSL2 ---

def _order_r_classes(q, r):
    """One element from each conjugacy class of order r in SL2(q), for an
    odd prime r other than p: the companion matrices of t^2 - tau t + 1,
    tau in GF(q), that have order r.  Such elements are semisimple, and two
    of them are conjugate in SL2(q) exactly when their traces agree
    (Fulton-Harris, Representation Theory, 5.2).  When r divides q^2 - 1
    there are (r-1)/2 classes, one per trace zeta + 1/zeta of a primitive
    r-th root of unity zeta; otherwise there are none."""
    F = ffield.field_from_q(q)
    out = []
    for tau in range(q):
        g = fmatrix.companion(fpoly.DensePoly(F, [1, F.neg_enc(tau), 1]))
        if fmatrix.matrix_order(g) == r:
            out.append(g)
    return out


def _is_split_semisimple(g):
    """True when g is diagonalizable over its own field: the characteristic
    polynomial splits into linear factors, each of exponent 1 in the
    minimal polynomial.  A non-linear factor decides without rank work."""
    factors = fpoly.factor_cached(fmatrix.char_poly(g)).factors
    if any(f.degree != 1 for f, _ in factors):
        return False
    return all(k == 1 for _, k in fmatrix._min_poly_factors(g, factors))


def _suite_psl2():
    checks = []
    for case in _manifest.PSL2_CASES:
        q, r, e = case["q"], case["r"], case["e"]
        label = case["label"].upper()
        mod = groups.sl2_module(q, case["module"])
        classes = _order_r_classes(q, r)
        found = stingray_hits = nondiag = 0
        for g in classes:
            img = mod.to_matrix(g)
            if classify.is_stingray_oracle(img, e):
                stingray_hits += 1
                cls = classify.classify_element(img, e)
                found += cls.tag == classify.STINGRAY and cls.e == e
            nondiag += not _is_split_semisimple(img)
        if case["expect"] == "found":
            _check(checks, "PSL2-%s-FOUND" % label,
                   "order-%d %d-stingray image exists at q=%d" % (r, e, q),
                   "found", "found" if found else "none")
        else:
            _check(checks, "PSL2-%s-NONE" % label,
                   "no %d-stingray among the %d classes of order-%d "
                   "elements at q=%d" % (e, len(classes), r, q),
                   "0", stingray_hits)
            _check(checks, "PSL2-%s-DIAG" % label,
                   "all %d classes of order-%d images diagonalizable over F%d"
                   % (len(classes), r, q),
                   "0", nondiag)
    return VerifyReport(suite="PSL2", checks=tuple(checks))


# --- PROP122 ---

def _suite_prop122():
    checks = []
    mod = groups.deleted_perm_module(_manifest.PROP122_N, _manifest.PROP122_P)
    for case in _manifest.PROP122_ELEMENTS:
        label = case["label"].upper()
        perm = groups.perm_from_cycles(_manifest.PROP122_N, case["cycles"])
        img = mod.to_matrix(perm)
        _check(checks, "PROP122-%s-ORDER" % label,
               "order of the %s image" % case["label"],
               _manifest.PROP122_ORDER, fmatrix.matrix_order(img))
        fdim = fmatrix.fixed_space(img).dim
        _check(checks, "PROP122-%s-FIXDIM" % label,
               "fixed space dim of %s is at most %d"
               % (case["label"], _manifest.PROP122_FIXED_DIM_MAX),
               "yes", "yes" if fdim <= _manifest.PROP122_FIXED_DIM_MAX
               else "no(dim=%d)" % fdim)
        verdict = classify.is_stingray_oracle(img, _manifest.PROP122_E)
        _check(checks, "PROP122-%s-STINGRAY6" % label,
               "%s is not a %d-stingray element"
               % (case["label"], _manifest.PROP122_E),
               "no", "yes" if verdict else "no")
    return VerifyReport(suite="PROP122", checks=tuple(checks))


# --- CHARACTERS ---

def _suite_characters():
    checks = []
    sol = cyclo.solve_multiplicities(-cyclo.b5(), 8, 5)
    _check(checks, "CHAR-B5-MULTS",
           "eigenvalue multiplicities for trace -b5 at d=8, r=5",
           "2,1,2,2,1", ",".join(str(m) for m in sol.mults))
    chi = -1 - cyclo.c13()
    pairs = ((chi, 4), (chi.galois(2), 4), (chi.galois(4), 4))
    tm = cyclo.trivial_multiplicity(pairs, 8, 13)
    _check(checks, "CHAR-C13-TRIVMULT",
           "trivial-character multiplicity for trace -1-c13 at d=8, r=13",
           "0", tm)
    _check(checks, "CHAR-CRIT-5-8-3",
           "criterion verdict for chi=3 at r=5, d=8",
           cyclo.STINGRAY, cyclo.stingray_criterion(5, 8, 3))
    _check(checks, "CHAR-CRIT-5-8-M2",
           "criterion verdict for chi=-2 at r=5, d=8",
           cyclo.TYPE_2II, cyclo.stingray_criterion(5, 8, -2))
    _check(checks, "CHAR-CRIT-3-4-1",
           "criterion verdict for chi=1 at r=3, d=4",
           cyclo.STINGRAY, cyclo.stingray_criterion(3, 4, 1))
    return VerifyReport(suite="CHARACTERS", checks=tuple(checks))


# --- PPDTABLE ---

def _suite_ppdtable():
    checks = []
    _check(checks, "PPD-2-6-EMPTY", "no 6-ppd prime for q=2",
           "empty", "empty" if ppd.primitive_prime_divisors(2, 6).is_empty
           else str(ppd.primitive_prime_divisors(2, 6).prime_list()))
    _check(checks, "PPD-2-4-FIVE", "the 4-ppd primes of q=2",
           "5", ",".join(str(r) for r in
                         ppd.primitive_prime_divisors(2, 4).prime_list()))
    violation = "none"
    for q in range(2, _manifest.PPDTABLE_QMAX + 1):
        if not is_prime_power(q):
            continue
        for e in range(2, _manifest.PPDTABLE_EMAX + 1):
            for r, _m in ppd.primitive_prime_divisors(q, e).primes:
                if r % e != 1:
                    violation = "q%d-e%d-r%d" % (q, e, r)
    _check(checks, "PPD-CONGRUENCE",
           "every ppd prime is 1 mod e for q<=%d, e<=%d"
           % (_manifest.PPDTABLE_QMAX, _manifest.PPDTABLE_EMAX),
           "none", violation)
    try:
        classify.construct_stingray(2, 12)
        observed = "no-error"
    except NoPpdPrime as exc:
        observed = ("NoPpdPrime" if "63" in str(exc)
                    else "NoPpdPrime-without-63")
    _check(checks, "PPD-CONSTRUCT-12-2",
           "construct_stingray(q=2, d=12) raises NoPpdPrime citing 2^6-1=63",
           "NoPpdPrime", observed)
    return VerifyReport(suite="PPDTABLE", checks=tuple(checks))


SUITES = {"PERMMOD": _suite_permmod, "PSL2": _suite_psl2,
          "PROP122": _suite_prop122, "CHARACTERS": _suite_characters,
          "PPDTABLE": _suite_ppdtable}


def verify_suite(name, seed=None, atlas_dir=None):
    """Run one named suite (or ALL, every SUITES entry in order, or ATLAS)
    and return its VerifyReport.  Only ATLAS draws at random, so only
    ATLAS reads the seed, default_seed() when it is None."""
    name = name.upper()
    if name in SUITES:
        return SUITES[name]()
    if name == "ALL":
        checks = []
        for sub in SUITES:
            checks.extend(verify_suite(sub).checks)
        return VerifyReport(suite="ALL", checks=tuple(checks))
    if name == "ATLAS":
        return _suite_atlas(atlas_dir,
                            default_seed() if seed is None else seed)
    raise StingrayUsageError("unknown suite %r; expected one of %s"
                             % (name, "|".join([*SUITES, "ALL", "ATLAS"])))


# --- optional user-supplied-files suite ---

def _suite_atlas(atlas_dir, seed):
    """Signature checks against user-supplied MGRP files.

    Each file may end with comment lines of the form
        # expect: order=2520 irreducible=yes stingray-e6=no
    Non-existence of stingray elements is checked by bounded random
    search, so a PASS there is a confidence statement, not a proof; the
    check id carries the draw budget.
    """
    if not atlas_dir:
        raise StingrayUsageError(
            "the ATLAS suite runs only on user-supplied MGRP files; "
            "pass a directory containing them")
    paths = sorted(p for p in os.listdir(atlas_dir) if p.endswith(".mgrp"))
    if not paths:
        raise StingrayUsageError("no .mgrp files in %r" % atlas_dir)
    checks = []
    for fname in paths:
        parsed = parse_mgrp(os.path.join(atlas_dir, fname))
        tag = fname[:-5].upper()
        expects = {}
        for c in parsed.comments:
            body = c.lstrip("#").strip()
            if body.startswith("expect:"):
                for kv in body[len("expect:"):].split():
                    key, _, val = kv.partition("=")
                    expects[key] = val
        for key, val in sorted(expects.items()):
            if key == "order":
                obs = groups.group_order(parsed.group)
                _check(checks, "ATLAS-%s-ORDER" % tag,
                       "group order of %s" % fname, val, obs)
            elif key == "dim":
                _check(checks, "ATLAS-%s-DIM" % tag,
                       "module dimension of %s" % fname, val,
                       parsed.group.dim)
            elif key == "irreducible":
                res = groups.is_irreducible(parsed.group, seed=seed)
                _check(checks, "ATLAS-%s-IRRED" % tag,
                       "irreducibility of %s" % fname, val.upper(),
                       res.status)
            elif key.startswith("stingray-e"):
                e = int(key[len("stingray-e"):])
                budget = _manifest.ATLAS_SEARCH_DRAWS
                st = groups.new_walk_state(parsed.group, seed=seed)
                found = "no"
                for _ in range(budget):
                    g = groups.random_element(parsed.group, st)
                    if classify.is_stingray_oracle(g, e):
                        found = "yes"
                        break
                _check(checks, "ATLAS-%s-STINGRAY-E%d-DRAWS%d"
                       % (tag, e, budget),
                       "bounded search for %d-stingray elements in %s "
                       "(non-existence is confidence only)" % (e, fname),
                       val, found)
            else:
                _check(checks, "ATLAS-%s-%s" % (tag, key.upper()),
                       "unrecognized expectation key", "known-key", key)
    return VerifyReport(suite="ATLAS", checks=tuple(checks))


# --- random stingray search ---

@dataclass(frozen=True)
class SampleReport:
    r: int
    e: int
    trials: int
    candidates: int          # draws whose order was divisible by r
    tag_counts: tuple        # ((tag, count), ...) sorted by tag
    witness: object          # first verified stingray image, or None
    witness_trial: int       # 1-based draw index, 0 when no witness

    def lines(self):
        out = ["SAMPLE r=%d e=%d trials=%d candidates=%d"
               % (self.r, self.e, self.trials, self.candidates)]
        for tag, count in self.tag_counts:
            out.append("TAG %s %d" % (tag, count))
        if self.witness is not None:
            out.append("WITNESS trial=%d" % self.witness_trial)
            for i in range(self.witness.nrows):
                out.append(" ".join(str(int(x)) for x in self.witness.arr[i]))
        else:
            out.append("WITNESS none")
        return out

    def render(self):
        return "\n".join(self.lines())


def sample_stingray(source, r, e, trials, seed=None):
    """Draw random elements, pass the order-r power trick, classify.

    source is an MGRP path, an MgrpFile, or a MatrixGroup.  A drawn g
    with order N divisible by r contributes the candidate g^(N/r) of
    exact order r; the report counts classification tags over all
    candidates and keeps the first oracle-verified stingray witness.
    """
    if trials < 1:
        raise StingrayUsageError("trials must be >= 1, got %d" % trials)
    if not is_prime(r):
        raise NotPrime("r must be prime, got %d" % r)
    if isinstance(source, MgrpFile):
        grp = source.group
    elif isinstance(source, groups.MatrixGroup):
        grp = source
    else:
        grp = parse_mgrp(source).group
    if seed is None:
        seed = default_seed()
    st = groups.new_walk_state(grp, seed=seed)
    counts = {}
    witness = None
    witness_trial = 0
    candidates = 0
    for trial in range(1, trials + 1):
        g = groups.random_element(grp, st)
        n = fmatrix.matrix_order(g)
        if n % r:
            continue
        candidates += 1
        h = g ** (n // r)
        cls = classify.classify_element(h, e)
        key = cls.summary().split(" ", 1)[0]
        counts[key] = counts.get(key, 0) + 1
        if (witness is None and cls.tag == classify.STINGRAY
                and cls.e == e and classify.is_stingray_oracle(h, e)):
            witness = h
            witness_trial = trial
    return SampleReport(r=r, e=e, trials=trials, candidates=candidates,
                        tag_counts=tuple(sorted(counts.items())),
                        witness=witness, witness_trial=witness_trial)

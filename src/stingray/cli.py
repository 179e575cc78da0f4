"""Command-line interface.

Subcommands map onto the library one to one: ``ppd`` enumerates
primitive prime divisors, ``classify`` tags a generator from an MGRP
file, ``construct`` builds stingray elements and explicit modules,
``order`` and ``irreducible`` run the group-level algorithms,
``solve-mult`` and ``sample-stingray`` cover the character and search
tools, and ``verify`` runs the named check suite.

Exit codes: 0 success (and suite PASS), 1 suite FAIL, 2 error while
computing, 3 empty ppd result, 64 usage error.  Every error is one line
on stderr; an unexpected exception is reported as
``error: internal: <type>: <message>``, never as a traceback.
"""

import argparse
import sys

from . import classify
from . import cyclo
from . import fmatrix
from . import groups
from . import harness
from . import ppd
from .errors import StingrayError, StingrayUsageError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_EMPTY = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for
    # computation errors, so route usage problems through our own code.
    def error(self, message):
        raise StingrayUsageError(message)


def _seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    return harness.default_seed()


def _load_group(path):
    return harness.parse_mgrp(path).group


def _pick_generator(grp, index):
    if index < 0 or index >= len(grp.generators):
        raise StingrayUsageError(
            "generator index %d out of range; file has %d"
            % (index, len(grp.generators)))
    return grp.generators[index]


def _emit_group(grp, out):
    if out is None:
        sys.stdout.write("\n".join(harness.mgrp_lines(grp)) + "\n")
    else:
        harness.write_mgrp(grp, out)


def _cmd_ppd(args):
    result = ppd.primitive_prime_divisors(args.q, args.e)
    for r in result.prime_list():
        print(r)
    return EXIT_EMPTY if result.is_empty else EXIT_OK


def _cmd_classify(args):
    grp = _load_group(args.file)
    g = _pick_generator(grp, args.gen)
    e = args.e if args.e is not None else grp.dim // 2
    cls = classify.classify_element(g, e)
    print(cls.summary())
    return EXIT_OK


def _cmd_construct_stingray(args):
    g = classify.construct_stingray(args.q, args.d, r=args.r,
                                    det_one=args.det1)
    grp = groups.MatrixGroup(g.field, args.d, [g],
                             label="stingray d=%d q=%d" % (args.d, args.q))
    _emit_group(grp, args.out)
    return EXIT_OK


def _cmd_construct_delperm(args):
    mod = groups.deleted_perm_module(args.n, args.p)
    _emit_group(mod.group, args.out)
    return EXIT_OK


def _parse_sl2_spec(text):
    if text == "natural":
        return groups.NATURAL
    if text == "symcube":
        return groups.SYMCUBE
    if text.startswith("twist:"):
        body = text[len("twist:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise StingrayUsageError(
                "twist spec must be twist:S,T, got %r" % text)
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise StingrayUsageError(
                "twist spec must be twist:S,T with integer S, T, got %r"
                % text)
        return groups.twist(s, t)
    raise StingrayUsageError(
        "module spec must be natural, symcube, or twist:S,T, got %r" % text)


def _cmd_construct_sl2(args):
    mod = groups.sl2_module(args.q, _parse_sl2_spec(args.spec))
    _emit_group(mod.group, args.out)
    return EXIT_OK


def _cmd_order(args):
    grp = _load_group(args.file)
    if args.gen is not None:
        g = _pick_generator(grp, args.gen)
        print(fmatrix.matrix_order(g))
        return EXIT_OK
    print(groups.group_order(grp, action=args.action))
    return EXIT_OK


def _cmd_irreducible(args):
    grp = _load_group(args.file)
    res = groups.is_irreducible(grp, seed=_seed(args))
    print(res.status)
    if res.status == "NO":
        print("WITNESS dim=%d of %d" % (res.witness.dim, grp.dim))
    return EXIT_OK


def _parse_chi(text, r):
    parts = text.split(",")
    if len(parts) != r:
        raise StingrayUsageError(
            "--chi needs %d comma-separated integers (powers of zeta_%d), "
            "got %d" % (r, r, len(parts)))
    try:
        coeffs = [int(c) for c in parts]
    except ValueError:
        raise StingrayUsageError("--chi entries must be integers: %r" % text)
    return cyclo.CyclotomicInt(r, coeffs)


def _cmd_solve_mult(args):
    chi = _parse_chi(args.chi, args.r)
    try:
        sol = cyclo.solve_multiplicities(chi, args.d, args.r)
    except StingrayError as exc:
        print("NO SOLUTION (%s)" % exc)
        return EXIT_OK
    print(",".join(str(m) for m in sol.mults))
    return EXIT_OK


def _cmd_sample_stingray(args):
    report = harness.sample_stingray(args.file, args.r, args.e, args.trials,
                                     seed=_seed(args))
    print(report.render())
    if args.out is not None and report.witness is not None:
        w = report.witness
        grp = groups.MatrixGroup(w.field, w.nrows, [w],
                                 label="sampled witness")
        harness.write_mgrp(grp, args.out)
    return EXIT_OK


def _cmd_verify(args):
    report = harness.verify_suite(args.suite, seed=args.seed,
                                  atlas_dir=args.atlas_dir)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser():
    top = _Parser(prog="stingray",
                  description="exact linear algebra over small finite "
                              "fields: ppd primes, stingray elements, "
                              "explicit modules, verification suites")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("ppd", help="list e-ppd primes of q^e - 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_ppd)

    p = sub.add_parser("classify", help="classify a generator from a file")
    p.add_argument("--file", required=True, metavar="M.mgrp")
    p.add_argument("--gen", type=int, required=True,
                   help="0-based generator index")
    p.add_argument("--e", type=int, default=None,
                   help="ppd exponent (default dim/2)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="build elements and modules")
    csub = p.add_subparsers(dest="what", metavar="WHAT")
    csub.required = True

    c = csub.add_parser("stingray", help="canonical (d/2)-stingray element")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--r", type=int, default=None,
                   help="ppd prime to use (default smallest)")
    c.add_argument("--det1", action="store_true",
                   help="force determinant 1")
    c.add_argument("--out", default=None, metavar="FILE")
    c.set_defaults(func=_cmd_construct_stingray)

    c = csub.add_parser("delperm", help="deleted permutation module of A_n")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--out", default=None, metavar="FILE")
    c.set_defaults(func=_cmd_construct_delperm)

    c = csub.add_parser("sl2", help="SL2(q) module generators")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--spec", required=True,
                   help="natural | symcube | twist:S,T")
    c.add_argument("--out", default=None, metavar="FILE")
    c.set_defaults(func=_cmd_construct_sl2)

    p = sub.add_parser("order", help="group order, or one generator's order")
    p.add_argument("--file", required=True, metavar="M.mgrp")
    p.add_argument("--gen", type=int, default=None,
                   help="report this generator's element order instead")
    p.add_argument("--action", choices=[groups.VECTORS, groups.PROJECTIVE],
                   default=groups.VECTORS)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("irreducible", help="Norton-style irreducibility test")
    p.add_argument("--file", required=True, metavar="M.mgrp")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_irreducible)

    p = sub.add_parser("solve-mult",
                       help="eigenvalue multiplicities from a character value")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--chi", required=True,
                   help="comma list b0,...,b_{r-1}: chi = sum b_j zeta^j")
    p.set_defaults(func=_cmd_solve_mult)

    p = sub.add_parser("sample-stingray",
                       help="random search for stingray elements")
    p.add_argument("--file", required=True, metavar="M.mgrp")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the witness, if any, as a 1-generator file")
    p.set_defaults(func=_cmd_sample_stingray)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   help="|".join([*harness.SUITES, "ALL", "ATLAS"]))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--atlas-dir", default=None, metavar="DIR",
                   help="directory of .mgrp files for the optional "
                        "signature-consistency suite")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except StingrayUsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except StingrayError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        msg = " ".join(str(exc).splitlines())
        print("error: internal: %s: %s" % (type(exc).__name__, msg),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: generate solutions, verify them, inspect the wheel
combinatorics, compute carriers, and run the acceptance suite.

All output is canonical JSON (sorted keys, compact separators, entries sorted
by index tuple) so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import acceptance, bd, closed_form, cyb, dunkl, frobenius, wheels
from .polyops import window_matrix
from .scalars import format_scalar, parse_scalar
from .tensorops import SparseOp, canonical_json, wedge_to_op


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _emit(args, obj):
    text = canonical_json(obj)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("cannot write output file %r: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)


# The largest n an operator file or an --n flag may name.  Checking CYB on
# V (x) V (x) V builds n^3 columns even for an empty file: `verify --lambda`
# peaks at about 42 MB at n = 32 and 65 MB at n = 40 (process max RSS, shared
# 2-core host, Python 3.11.7), growing with the n^3 columns.
MAX_N = 32


def _load_op2(path):
    """Read a two-leg operator file; any malformed content is a CliError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        op = SparseOp.from_json_obj(obj)
        # The strict reader gives every index tuple the length of the first one.
        if obj["entries"] and len(obj["entries"][0][0]) != 2:
            raise ValueError("expected two-leg index tuples")
        if op.n > MAX_N:
            raise ValueError("n must be at most %d, not %d" % (MAX_N, op.n))
        return op
    except (OSError, ValueError, KeyError, IndexError, TypeError, OverflowError,
            RecursionError) as exc:
        raise CliError("cannot read operator file %r: %s" % (path, exc))


def cmd_gen(args) -> int:
    m, n = args.m, args.n
    bd.require_coprime(m, n)
    if args.construction == "closed":
        op = closed_form.cg_closed_form(m, n)
    elif args.construction == "bd":
        op = wedge_to_op(bd.bd_r_matrix(n - m, n))
    elif m == 1:
        op = dunkl.r_via_dunkl_m1(n)
    elif m == 2:
        if args.c0 == 0:
            raise CliError("c0 must be nonzero for the m = 2 construction")
        op = dunkl.r_via_dunkl_m2(n, dunkl.CherednikParams(args.kappa, args.c0, args.c1, m=2))
    else:
        raise CliError("the dunkl construction requires m in {1, 2}")
    _emit(args, op.to_json_obj())
    return 0


def cmd_verify(args) -> int:
    op = _load_op2(args.infile)
    if args.lam is not None:
        residual = cyb.cyb_lambda(op, args.lam)
        ok = residual.is_zero()
        _emit(args, {"cyb_lambda_zero": ok, "lambda": format_scalar(args.lam),
                     "residual_nonzero_count": residual.count_nonzero()})
        return 0 if ok else 1
    report = cyb.find_lambda(op)
    _emit(args, report.to_json_obj())
    return 0 if report.classification != cyb.NOT_R_MATRIX else 1


def cmd_compare(args) -> int:
    a = _load_op2(args.file_a)
    b = _load_op2(args.file_b)
    if a.n != b.n:
        _emit(args, {"equal": False, "reason": "dimension mismatch"})
        return 1
    diff = a - b
    _emit(args, {"equal": diff.is_zero(), "differences": diff.to_json_obj()["entries"]})
    return 0 if diff.is_zero() else 1


def cmd_wheels(args) -> int:
    w = wheels.wheel(args.m, args.n)
    obj = {"m": w.m, "n": w.n, "seq": w.seq, "strings": w.strings,
           "minimal_elements": w.minimal_elements}
    if args.pair is not None:
        jp, lp = args.pair
        if not (1 <= jp <= w.n and 1 <= lp <= w.n):
            raise CliError("pair indices must lie in 1..n")
        obj["pair"] = [jp, lp]
        obj["sbar"] = sorted(wheels.sbar_closed(w, jp, lp))
    _emit(args, obj)
    return 0


def cmd_dunkl(args) -> int:
    if args.m == 1:
        if args.n < 1:
            raise CliError("n must be >= 1")
        params = dunkl.CherednikParams(args.kappa, args.c0, m=1)
        matrix = window_matrix(dunkl.dunkl_m1_combo(args.n, params), args.n)
    elif args.m == 2:
        if args.c0 == 0:
            raise CliError("c0 must be nonzero when m = 2")
        if args.n % 2 == 0:
            raise CliError("n must be odd when m = 2")
        params = dunkl.CherednikParams(args.kappa, args.c0, args.c1, m=2)
        matrix = dunkl.r_via_dunkl_m2(args.n, params)
    else:
        raise CliError("m must be 1 or 2")
    _emit(args, matrix.to_json_obj())
    return 0


def cmd_boundary(args) -> int:
    _emit(args, dunkl.b_cg(args.n, args.u, args.t).to_json_obj())
    return 0


def cmd_carrier(args) -> int:
    op = _load_op2(args.infile)
    try:
        car = frobenius.carrier(op)
    except ValueError as exc:
        raise CliError(str(exc), code=1)
    basis = [sorted(([list(pos), format_scalar(v)] for pos, v in mat.entries.items()))
             for mat in car.basis]
    obj = {"dimension": car.dimension, "bracket_closed": car.bracket_closed,
           "basis": basis}
    if car.bracket_closed and car.dimension:
        fd = frobenius.r_check(op, car)
        obj["frobenius"] = {"invertible": fd.invertible, "skew": fd.skew,
                            "functional_check": frobenius.cocycle_check(fd)}
    _emit(args, obj)
    return 0


def cmd_bd(args) -> int:
    m, n = args.m, args.n
    t = bd.cg_triple(m, n)
    obj = {"m": m, "n": n, "s0": sorted(t.s0), "s1": sorted(t.s1),
           "zeta": {str(k): t.zeta[k] for k in sorted(t.zeta)}}
    parts = {"alpha": bd.alpha_part, "beta": bd.beta_part,
             "gamma": lambda m_, n_: bd.gamma_part(n_), "r": bd.bd_r_matrix}
    obj["part"] = args.part
    obj["op"] = wedge_to_op(parts[args.part](m, n)).to_json_obj()
    _emit(args, obj)
    return 0


def cmd_acceptance(args) -> int:
    results = acceptance.run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print("%s  criterion %d: %s  [%s]" % (status, res.cid, res.name, res.detail))
        if not res.passed:
            failed += 1
    print("%d/%d criteria passed" % (len(results) - failed, len(results)))
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing usage, so every failure exits with JSON."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser():
    """The one parser of this process: parse_args keeps no state between calls."""
    parser = _Parser(prog="cgrm")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mn(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gen", help="generate a solution as canonical JSON")
    add_mn(p)
    p.add_argument("--construction", choices=("closed", "bd", "dunkl"), default="closed")
    p.add_argument("--kappa", default="1")
    p.add_argument("--c0", default="1")
    p.add_argument("--c1", default="0")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="classify an operator file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--out")

    p = sub.add_parser("compare", help="entry-wise diff of two operator files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out")

    p = sub.add_parser("wheels", help="strings, minimal elements, aligned index sets")
    add_mn(p)
    p.add_argument("--pair", type=int, nargs=2, metavar=("J", "L"))
    p.add_argument("--out")

    p = sub.add_parser("dunkl", help="window matrix of the Dunkl-side operator")
    add_mn(p)
    p.add_argument("--kappa", default="1")
    p.add_argument("--c0", default="1")
    p.add_argument("--c1", default="0")
    p.add_argument("--out")

    p = sub.add_parser("boundary", help="two-parameter boundary solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--out")

    p = sub.add_parser("carrier", help="carrier and Frobenius report for an operator file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("bd", help="triple data and root-data construction")
    add_mn(p)
    p.add_argument("--part", choices=("alpha", "beta", "gamma", "r"), default="r")
    p.add_argument("--out")

    sub.add_parser("acceptance", help="run the acceptance suite")
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "wheels": cmd_wheels,
    "dunkl": cmd_dunkl,
    "boundary": cmd_boundary,
    "carrier": cmd_carrier,
    "bd": cmd_bd,
    "acceptance": cmd_acceptance,
}


RATIONAL_FLAGS = {"kappa": "--kappa", "c0": "--c0", "c1": "--c1", "u": "--u", "t": "--t",
                  "lam": "--lambda"}


def _parse_rationals(args):
    """Replace the text of each rational flag in args by its Fraction."""
    for dest, flag in RATIONAL_FLAGS.items():
        text = getattr(args, dest, None)
        if text is not None:
            try:
                setattr(args, dest, parse_scalar(text))
            except ValueError:
                raise CliError("invalid rational for %s: %r" % (flag, text))


def _join_negative_values(argv):
    """Rewrite "--c0 -3/4" as "--c0=-3/4": argparse takes a separate "-3/4" for an
    option name, since it only recognizes integers and decimals as negative numbers."""
    out = []
    for arg in argv:
        if out and out[-1] in RATIONAL_FLAGS.values() and re.match(r"-[0-9./]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_values(argv))
        n = getattr(args, "n", None)
        if n is not None and n > MAX_N:
            raise CliError("n must be at most %d, not %d" % (MAX_N, n))
        _parse_rationals(args)
        return COMMANDS[args.command](args)
    except CliError as exc:
        sys.stdout.write(canonical_json({"error": str(exc)}))
        return exc.code
    except ValueError as exc:
        sys.stdout.write(canonical_json({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())

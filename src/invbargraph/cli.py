"""Command-line interface.

Subcommands: enumerate, stats, dist, totals, map, series, verify.
Exit codes: 0 success, 1 identity violation (or `verify` lost the process
running its sweep suites), 2 usage or guard error.
All numeric output is exact (decimal or num/den rational strings).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from invbargraph import bijections as bj
from invbargraph import gfseries as gf
from invbargraph import invseq, kernel, recur, verify
from invbargraph.invseq import InversionSequence, Permutation

# `enumerate` builds its whole output in memory.  Measured in process with the
# C kernel (Python 3.11, 2 cores, 8 GB): n = 9 takes 2.8 s and 54 MB peak RSS;
# n = 10 takes 26 s and 392 MB and writes 72 MB.  Each step up multiplies time
# and memory by about n, so n = 12 would need about 50 GB.
ENUMERATE_MAX = 10
# Recurrence tables (`dist`), one cap per kind from a 2 s budget: the largest n
# whose slowest engine and format stays under 2 s wall time, process start
# included.  Fresh runs of both engines and both formats, C kernel, Python
# 3.11 on a shared 2-core Xeon whose load moves these times by a fifth or
# more, alternating with the code before packed sums stopped copying ints
# and wide coefficients were read from one hex string (in brackets); each
# range is 20 runs, 5 per engine and format, or 40 over two batches.
# Area/sper: 0.91-1.48 s at 22 (0.94-1.62 s) and 1.22-2.44 s at 23
# (1.19-2.26 s); from 22 on a coefficient slot takes two 64-bit words, which
# doubles the packed ints.  Lda: 0.84-1.45 s at 50 (0.89-1.44 s), 0.92-1.69 s
# at 51 (0.99-1.87 s), 1.00-1.87 s at 52 (1.05-1.93 s), 1.23-2.07 s at 53
# (1.21-2.19 s), 1.16-1.92 s at 54 (1.46-2.28 s) and 1.36-2.14 s at 55
# (1.44-2.42 s).
# Csv and json take about as long, and neither engine is always the slower.
AREA_SPER_TABLE_MAX = 22
LDA_TABLE_MAX = 52
# `--engine brute` on the pure-Python kernel, from the same budget: 7 fresh
# runs each of csv and json per kind took 0.3-0.9 s at 9, but at 10 1.6-2.9 s
# for area/sper and 1.4-2.2 s for lda; lda at 11 takes 17.8 s in process.  On
# the C kernel the cap is the kernel's own limit, `kernel.MAX_N`.
BRUTE_MAX_PYTHON = 9
# `verify` sizes; the benchmark's verify-deep workload runs at these two caps.
# Against the same 2 s budget (all suites, fresh runs, 10 each unless stated,
# C kernel, Python 3.11 on the shared 2-core Xeon), with the sweep suites in a
# forked child and, in brackets, on one CPU (`taskset -c 0`, all in process):
# 0.4-0.6 s (0.4-0.6; 20 runs) at the defaults (nmax 7, order 8), where the
# child has most of the work, and 0.4-0.6 s (0.5-0.9) at the caps.  Above
# them, with the guards lifted: nmax 10 and 11 (order 12) 0.5-0.6 and 0.6-1.0 s
# (0.6-1.0 and 0.9-1.2) and nmax 12 3.2-5.8 s (3.1-5.1; 6 runs), where brute
# enumeration dominates; order 13, 14 and 16 (nmax 9) 0.4-0.6, 0.4-0.6 and
# 0.6-0.9 s (0.6-0.9, 0.6-0.9 and 1.0-1.2), where the gf suite and the table
# builds dominate: at order 16, in process, the gf suite took 0.21-0.30 s,
# the four lemma and three-term tables 0.12-0.17 s, and the recurrences
# suite 0.23-0.26 s, of which the area/sper row functional
# (`recur.check_an_functional`) took 0.08-0.11 s (3 runs).  On this host two
# busy processes each run slower than one alone, so the child saves less
# than the sweep suites' share.
VERIFY_NMAX_MAX = 9
VERIFY_ORDER_MAX = 12
# Largest n whose five totals all print under `invseq.DIGITS_MAX`, Python's
# default 4300-digit int->str limit (total_area and total_sper have 4299
# digits at 1556 and more than 4300 at 1557).  A totals call costs about
# 0.02 s at that size, so the digit limit, not time, is what binds.  The same
# limit bounds every integer the CLI reads (`invseq.INTEGER`); a `series`
# coefficient past it would be reported as too long to print, though none is
# at the caps below.
TOTALS_MAX = 1556
# Digits of each numerator and denominator of a rational parameter (`series`
# and `verify`), from the same 2 s budget: exact arithmetic at the point grows
# with its digits.  Fresh runs at the caps (`verify --nmax 9 --order 12`,
# `series --order 12`), random numerators and denominators of both signs with
# all D digits (13 runs each at 30, C kernel): at 30 `verify` takes 0.6-1.4 s
# with its sweep suites in a forked child and 0.8-1.4 s on one CPU (0.4-0.6
# and 0.6-1.0 s at one-digit points, 6 runs); measured before the child,
# when it took 1.1-1.7 s: `verify` at (10^29, 10^-29, 10^29) 0.8-1.0 s,
# `series A` 0.5-0.7 s and `series A1` 0.2-0.4 s; at 40 `verify` takes
# 1.2-1.8 s, and at 50 1.7-2.0 s, where `series A` passes the 4300-digit print
# limit.  At 4000 digits `verify` took 33 s and `series A1` more than 300 s.
RATIONAL_DIGITS_MAX = 30

# num or num/den: the integer syntax of `invseq.INTEGER` with at most
# RATIONAL_DIGITS_MAX digits, then a positive denominator of as many.
_RATIONAL_RE = re.compile(
    rf"\s*-?[0-9]{{1,{RATIONAL_DIGITS_MAX}}}(/[1-9][0-9]{{0,{RATIONAL_DIGITS_MAX - 1}}})?\s*",
    re.ASCII)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in one `error:` line (exit 2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -3 and -.5 as negative numbers, so `--y -1/3` would
        # take -1/3 for an option; a negative fraction is a value as well.
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message: str):
        raise UsageError(message)


def _int(text: str) -> int:
    """Type of the integer options: a plain decimal integer (no '+', '_' or '1e3')."""
    if not invseq.INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise UsageError(f"not a rational (use num or num/den, at most "
                         f"{RATIONAL_DIGITS_MAX} digits each): {text!r}")
    return Fraction(text)


def _number_text(x: int | Fraction) -> str:
    """x in decimal, or a usage error when it has more than `invseq.DIGITS_MAX` digits."""
    try:
        return str(x)
    except ValueError:  # Python's own message names a setting this program never changes
        raise UsageError(
            f"result too long to print: a number has more than {invseq.DIGITS_MAX} digits"
        ) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {out_path}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _record_text(record: dict, fmt: str) -> str:
    """One record as a JSON object, or as a csv header and row."""
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(map(str, record.values())) + "\n"
    return json.dumps(record) + "\n"


# -- subcommand handlers -------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= ENUMERATE_MAX:
        raise UsageError(f"n must be in 1..{ENUMERATE_MAX}")
    seqs = invseq.enumerate_sequences(n)
    if args.format == "json":
        text = json.dumps([list(rho.entries) for rho in seqs]) + "\n"
    else:
        text = "".join(rho.to_text() + "\n" for rho in seqs)
    _emit(text, args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    rho = InversionSequence.from_text(args.sequence)
    _emit(_record_text(invseq.stats(rho).to_json_obj(), args.format), args.out)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise UsageError("n must be positive")
    # C kernel at kernel.MAX_N = 12: 1.0-1.8 s for area/sper and 0.8-1.3 s for
    # lda (8 runs each, csv and json), inside the 2 s budget
    brute_max = kernel.MAX_N if kernel.BACKEND == "c" else BRUTE_MAX_PYTHON
    if args.engine == "brute" and n > brute_max:
        raise UsageError(f"brute enumeration is limited to n <= {brute_max}")
    cap = AREA_SPER_TABLE_MAX if args.kind == "area-sper" else LDA_TABLE_MAX
    if n > cap:
        raise UsageError(f"{args.kind} tables are limited to n <= {cap}")
    builders = {
        ("area-sper", "brute"): invseq.brute_dist_area_sper,
        ("area-sper", "lemma"): recur.a_table_lemma,
        ("area-sper", "threeterm"): recur.a_table_threeterm,
        ("lda", "brute"): invseq.brute_dist_lda,
        ("lda", "lemma"): recur.b_table_lemma,
        ("lda", "threeterm"): recur.b_table_threeterm,
    }
    table = builders[(args.kind, args.engine)](n)
    text = table.to_json() + "\n" if args.format == "json" else table.to_csv()
    _emit(text, args.out)
    return 0


def _cmd_totals(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= TOTALS_MAX:
        raise UsageError(f"n must be in 1..{TOTALS_MAX}")
    values = {stat: str(closed(n)) for stat, (closed, _, _) in verify.TOTALS.items()}
    _emit(_record_text(values, args.format), args.out)
    return 0


MAPS = {  # name: (type of the input, map); an involution is None off its domain
    "complement": (InversionSequence, bj.complement),
    "area-flip": (InversionSequence, bj.area_flip),
    "sper-involution": (InversionSequence, bj.sper_involution),
    "levels-involution": (InversionSequence, bj.levels_involution),
    "f": (InversionSequence, bj.f_levels_to_cycles),
    "f-inverse": (bj.CycleForm, bj.f_inverse),
    "g": (InversionSequence, bj.g_ascents),
    "g-inverse": (Permutation, bj.g_inverse),
}


def _cmd_map(args: argparse.Namespace) -> int:
    name, payload = args.map, args.input
    kind, apply = MAPS[name]
    image = apply(kind.from_text(payload))
    result = "undefined" if image is None else image.to_text()
    if args.format == "json":
        text = json.dumps({"map": name, "input": payload, "output": result}) + "\n"
    else:
        text = result + "\n"
    _emit(text, args.out)
    return 0


SERIES_FLAGS = ("p", "y")
SERIES = {  # name: (closed form, the flags of its parameters, in order)
    "A": (gf.expand_area_last_ogf, ("p", "y")),
    "A1": (gf.expand_area_ogf, ("p",)),
    "area-gf": (gf.total_area_gf, ("y",)),
    "tote1": (gf.total_levels_gf, ("y",)),
    "tote2": (gf.total_descents_gf, ("y",)),
    "tote3": (gf.total_ascents_gf, ("y",)),
}


def _cmd_series(args: argparse.Namespace) -> int:
    order = args.order
    if not 1 <= order <= VERIFY_ORDER_MAX:
        raise UsageError(f"order must be in 1..{VERIFY_ORDER_MAX}")

    def need(flag: str) -> Fraction:
        value = getattr(args, flag)
        if value is None:
            raise UsageError(f"series {args.which} requires --{flag}")
        return parse_rational(value)

    closed, flags = SERIES[args.which]
    for flag in SERIES_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            raise UsageError(f"series {args.which} does not read --{flag}")
    coeffs = [_number_text(c) for c in closed(*map(need, flags), order).coeffs]
    if args.format == "json":
        text = json.dumps(coeffs) + "\n"
    elif args.format == "csv":
        text = "".join(f"{k},{c}\n" for k, c in enumerate(coeffs))
    else:
        text = "".join(f"x^{k}\t{c}\n" for k, c in enumerate(coeffs))
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 3 <= args.nmax <= VERIFY_NMAX_MAX:
        raise UsageError(f"nmax must be in 3..{VERIFY_NMAX_MAX}")
    if not 1 <= args.order <= VERIFY_ORDER_MAX:
        raise UsageError(f"order must be in 1..{VERIFY_ORDER_MAX}")
    suites = verify.SUITES if args.suite == "all" else (args.suite,)
    point = None
    if args.p is not None or args.q is not None or args.r is not None:
        if args.p is None or args.q is None or args.r is None:
            raise UsageError("--p, --q and --r must be given together")
        point = (parse_rational(args.p), parse_rational(args.q), parse_rational(args.r))
        if point[1] == 0:
            raise UsageError("q must be nonzero for the kernel identity")
        if point[1] == point[2]:  # rho = 1 there: both identities would hold for any series
            raise UsageError("q and r must differ for the kernel identity")
    if args.out:
        _emit("", args.out)  # an unwritable path fails before the suites run
    results, ok = verify.run_verify(
        suites, nmax=args.nmax, order=args.order, seed=args.seed,
        point=point, corrupt=args.corrupt,
    )
    text = json.dumps([r.to_json_obj() for r in results], indent=2) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def _formats(p: argparse.ArgumentParser, *formats: str) -> None:
    """The output formats a command writes; the first is the default."""
    p.add_argument("--format", choices=formats, default=formats[0],
                   help=f"output format (default: {formats[0]})")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to a file instead of stdout")

    parser = _Parser(
        prog="invbargraph",
        description="Exact statistics on bargraphs of inversion sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all inversion sequences of length n")
    p.add_argument("-n", type=_int, required=True)
    _formats(p, "text", "json")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("stats", parents=[common],
                       help="bargraph statistics of one sequence")
    p.add_argument("sequence", help="comma-separated entries, e.g. 1,2,1,3,5,3")
    _formats(p, "json", "csv")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("dist", parents=[common],
                       help="distribution table for a statistic pair")
    p.add_argument("kind", choices=("area-sper", "lda"))
    p.add_argument("-n", type=_int, required=True)
    p.add_argument("--engine", choices=("brute", "lemma", "threeterm"),
                   default="lemma")
    _formats(p, "csv", "json")
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("totals", parents=[common],
                       help="closed-form statistic totals over all length-n sequences")
    p.add_argument("-n", type=_int, required=True)
    _formats(p, "json", "csv")
    p.set_defaults(handler=_cmd_totals)

    p = sub.add_parser("map", parents=[common],
                       help="apply one of the bijections or involutions")
    p.add_argument("map", choices=MAPS)
    p.add_argument("input", help="sequence, permutation, or cycle form")
    _formats(p, "text", "json")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("series", parents=[common],
                       help="exact coefficients of a closed-form generating function")
    p.add_argument("which", choices=SERIES)
    for flag in SERIES_FLAGS:
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--order", type=_int, default=verify.DEFAULT_ORDER)
    _formats(p, "text", "csv", "json")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", parents=[common],
                       help="machine-check the identity suites")
    p.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
    p.add_argument("--nmax", type=_int, default=verify.DEFAULT_NMAX)
    p.add_argument("--order", type=_int, default=verify.DEFAULT_ORDER)
    p.add_argument("--seed", type=_int, default=verify.DEFAULT_SEED)
    p.add_argument("--p", default=None, help="kernel-identity point, with --q and --r")
    p.add_argument("--q", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one table cell first (negative control; must fail)")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except verify.SweepChildError as err:  # no report: the run is not known to pass
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

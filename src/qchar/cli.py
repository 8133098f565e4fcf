"""Command-line harness.

Four subcommands: `series` renders one expression of the small q-series
language, whose builtins (expr.BUILTINS) name every character, `verify`
runs an identity family over a parameter grid, `oracle` cross-checks the
closed-form characters against a brute-force count of states, and
`asympt` tabulates coefficient growth against the analytic estimate.

Orders are given in q-units on the command line and doubled internally
(everything lives on the u = q^(1/2) lattice).  Exit codes are a stable
contract: 0 all checks passed, 1 an identity failed or held only below
the requested order, 2 usage or parse error, 3 resource limit hit, 4
internal error, 141 the reader closed stdout (the shell's code for a
process that SIGPIPE ended; nothing goes to stderr).

Reports are emitted in sorted parameter order no matter how they were
scheduled, and timings are zeroed unless --timings is given, so identical
invocations produce byte-identical output.

Only what every subcommand runs is imported up front: the worker pool,
the expression language and the oracle load inside the one subcommand
that uses them, so a `verify` or `asympt` call never pays for them.
"""

import argparse
import functools
import itertools
import json
import os
import sys

from .characters import growth_report
from .errors import ORACLE_MAX_NODES, ExprError, QcharError, ResourceLimit
from .identities import FAMILIES, check, check_domain
from .qseries import check_window, format_series

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


# -- grids -------------------------------------------------------------------


def parse_range(text: str):
    """Inclusive "a..b" or a single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


# A case is the argument tuple of identities.check for one grid point.  Cases
# are generated in sorted order and the worker pool preserves it.

# every grid axis some family takes, in grid-nesting order
AXES = tuple(dict.fromkeys(axis for fam in FAMILIES.values() for axis in fam.axes))


def _undeclared(name, args):
    """The flags given that family `name` does not take."""
    fam = FAMILIES[name]
    flags = [axis for axis in AXES
             if getattr(args, axis) is not None and axis not in fam.axes]
    if args.zwin is not None and fam.zwin is None:
        flags.append("zwin")
    return flags


def _family_cases(name, args):
    # each axis and --zwin apply only to the families that take them
    fam = FAMILIES[name]
    grids = [getattr(args, axis) or range(lo, hi + 1)
             for axis, (lo, hi) in fam.axes.items()]
    half = fam.zwin
    if half is not None and args.zwin is not None:
        half = args.zwin
    nu = 2 * args.order
    return [(name, nu, half, dict(zip(fam.axes, values)), args.timings)
            for values in itertools.product(*grids)]


# -- output ------------------------------------------------------------------


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _print_reports(reports, fmt):
    if fmt == "json":
        print(_dump_json([r.to_json_dict() for r in reports]))
        return
    if fmt == "csv":
        print("identity,params,order_u,verdict,first_diff_u_exp,lhs_coeff,rhs_coeff,ms")
        for r in reports:
            params = json.dumps(r.params, sort_keys=True).replace('"', "'")
            diff = "" if r.first_diff_u_exp is None else r.first_diff_u_exp
            lhs = "" if r.lhs_coeff is None else r.lhs_coeff
            rhs = "" if r.rhs_coeff is None else r.rhs_coeff
            print(f'{r.identity},"{params}",{r.order_u},{r.verdict},{diff},{lhs},{rhs},{r.ms}')
        return
    for r in reports:
        bits = [r.verdict.upper(), r.identity]
        bits += [f"{key}={r.params[key]}" for key in sorted(r.params)]
        bits.append(f"order_u={r.order_u}")
        if r.first_diff_u_exp is not None:
            bits.append(f"first_diff=u^{r.first_diff_u_exp}")
            bits.append(f"lhs={r.lhs_coeff} rhs={r.rhs_coeff}")
        if r.ms:
            bits.append(f"ms={r.ms:.1f}")
        print(" ".join(bits))
    passed = sum(1 for r in reports if r.passed())
    print(f"{passed}/{len(reports)} passed")


# -- subcommands -------------------------------------------------------------


def cmd_series(args) -> int:
    from .expr import evaluate

    try:
        qs = evaluate(args.expr, 2 * args.order)
    except ExprError as err:
        print(f"series: {err.render(args.expr)}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(_dump_json(qs.to_json_dict()))
    elif args.format == "csv":
        print("u_exp,coeff")
        for e, c in qs.items():
            print(f"{e},{c}")
    else:
        print(format_series(qs))
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.family == "all":
        families = list(FAMILIES)
    else:
        families = [args.family]
        flags = _undeclared(args.family, args)
        if flags:
            given = ", ".join(f"--{flag}" for flag in flags)
            print(f"verify: --family {args.family} does not take {given}",
                  file=sys.stderr)
            return EXIT_USAGE
    check_window(0, 2 * args.order)
    cases = [case for name in families for case in _family_cases(name, args)]
    lengths = [check_domain(name, nu, half, point)
               for name, nu, half, point, _ in cases]
    # longest point first, so the builds a grid shares are made once
    run = sorted(range(len(cases)), key=lambda i: -lengths[i])
    columns = zip(*(cases[i] for i in run))  # one iterable per argument of check
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(check, *columns))
    else:
        chunks = list(map(check, *columns))
    reports = [r for _, chunk in sorted(zip(run, chunks)) for r in chunk]
    _print_reports(reports, args.format)
    return EXIT_PASS if all(r.passed() for r in reports) else EXIT_FAIL


def cmd_oracle(args) -> int:
    check_window(0, 2 * args.qbound)
    from .oracle import oracle_vs_quasiparticle

    report = oracle_vs_quasiparticle(args.m, args.s, 2 * args.qbound,
                                     max_nodes=args.max_nodes)
    _print_reports([report], args.format)
    return EXIT_PASS if report.passed() else EXIT_FAIL


def cmd_asympt(args) -> int:
    check_window(0, 2 * args.nmax)
    rows = growth_report(args.m, args.nmax - 1)
    if args.format == "json":
        payload = [{"n": n, "a_n": str(a), "log_ratio": ratio}
                   for n, a, ratio in rows]
        print(_dump_json(payload))
    else:
        print("n,a_n,log_ratio")
        for n, a, ratio in rows:
            print(f"{n},{a},{ratio!r}")
    return EXIT_PASS


# -- argument plumbing -------------------------------------------------------


def _range_arg(text):
    try:
        return parse_range(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _int_at_least(lo):
    """argparse type: an integer no smaller than lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return parse


# built once per process, on first use: parsing leaves the parser
# unchanged, so every main() call shares it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qchar",
        description="Exact truncated q-series for level-1 characters: "
                    "compute, verify, cross-check, and tabulate growth.")
    sub = top.add_subparsers(dest="command", required=True)

    series = sub.add_parser("series", help="render one series")
    series.add_argument("--expr", required=True,
                        help="expression in the small q-series language")
    series.add_argument("--order", type=_int_at_least(1), default=200,
                        help="guaranteed order in q-units (default 200)")
    series.add_argument("--format", choices=("json", "text", "csv"),
                        default="text")
    series.set_defaults(func=cmd_series)

    verify = sub.add_parser("verify", help="run an identity family over a grid")
    verify.add_argument("--family", required=True,
                        choices=sorted(FAMILIES) + ["all"])
    for axis in AXES:
        verify.add_argument(f"--{axis}", type=_range_arg,
                            help='grid "a..b" or single value')
    verify.add_argument("--order", type=_int_at_least(1), default=200)
    verify.add_argument("--zwin", type=_int_at_least(0),
                        help="z-window half-width")
    verify.add_argument("--jobs", type=_int_at_least(1), default=1)
    verify.add_argument("--timings", action="store_true",
                        help="include wall-clock ms (breaks byte-identical output)")
    verify.add_argument("--format", choices=("json", "text", "csv"),
                        default="json")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="brute-force state-count cross-check")
    oracle.add_argument("--m", type=int, required=True)
    oracle.add_argument("--s", type=int, required=True)
    oracle.add_argument("--qbound", type=_int_at_least(1), required=True,
                        help="count states below this q-degree")
    oracle.add_argument("--max-nodes", type=_int_at_least(1),
                        default=ORACLE_MAX_NODES)
    oracle.add_argument("--format", choices=("json", "text", "csv"),
                        default="json")
    oracle.set_defaults(func=cmd_oracle)

    asympt = sub.add_parser("asympt", help="coefficient growth vs the estimate")
    asympt.add_argument("--m", type=int, required=True)
    asympt.add_argument("--nmax", type=_int_at_least(1), required=True,
                        help="number of rows (n = 0 .. nmax-1)")
    asympt.add_argument("--format", choices=("json", "csv"), default="csv")
    asympt.set_defaults(func=cmd_asympt)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone, so stop quietly; the interpreter's own
        # flush at exit must not find the dead pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ResourceLimit as err:
        print(f"qchar: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except QcharError as err:
        print(f"qchar: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:
        # a bug, kept apart from exit 1, which only a report can cause
        message = str(err).replace("\n", " ")
        print(f"qchar: internal error: {type(err).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

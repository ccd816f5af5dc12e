"""Command-line front end: evaluate expressions, run the identity suites,
print Green functions.

Exit codes: 0 success, 1 check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .checks import run_checks
from .config import ConfigError, load_config
from .expr import (
    Call,
    EvalEnv,
    EvalError,
    ExprSyntaxError,
    Gen,
    Lit,
    evaluate,
    format_value,
    parse_expr,
)
from .scalars import Scalar


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickalg",
        description="Exact symbolic engine for normal products, Wick contractions, "
        "time-ordered products and renormalisation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON config file")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument(
        "--renormalised",
        action="store_true",
        help="use the renormalised time-ordering inside S(...) and green(...)",
    )

    p_check = sub.add_parser(
        "check", parents=[common], help="run every identity suite against the config"
    )
    p_check.add_argument("--max-grade", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None)

    p_green = sub.add_parser(
        "green", parents=[common], help="print a two-point Green function series"
    )
    p_green.add_argument("i", type=int)
    p_green.add_argument("j", type=int)
    p_green.add_argument("lagrangian", help="expression for the interaction element")
    p_green.add_argument("--order", type=int, default=2)
    p_green.add_argument("--renormalised", action="store_true")
    return parser


def _print_value(args, node) -> int:
    """Evaluate an expression tree under the config and print its value."""
    config = load_config(args.config)
    env = EvalEnv(config.pairing, config.scheme, renormalised=args.renormalised)
    print(format_value(evaluate(node, env)))
    return 0


def _cmd_eval(args) -> int:
    return _print_value(args, parse_expr(args.expression))


def _cmd_check(args) -> int:
    config = load_config(args.config)
    reports = run_checks(
        config, max_grade=args.max_grade, trials=args.trials, seed=args.seed
    )
    failures = 0
    for report in reports:
        if report.status == "ok":
            print(f"ok    {report.name}")
        elif report.status == "skip":
            print(f"skip  {report.name} ({report.detail})")
        else:
            failures += 1
            print(f"FAIL  {report.name}")
            print(f"      counterexample: {report.detail}")
    ran = sum(1 for r in reports if r.status != "skip")
    print(f"{ran - failures}/{ran} laws passed"
          + (f", {failures} FAILED" if failures else ""))
    return 1 if failures else 0


def _cmd_green(args) -> int:
    """``eval "green(ei, ej, lagrangian, order)"`` spelled as a command."""
    node = Call("green", (Gen(args.i), Gen(args.j), parse_expr(args.lagrangian),
                          Lit(Scalar(args.order))))
    return _print_value(args, node)


@contextmanager
def _exact_int_strings():
    """Lift the interpreter's int/str digit limit (Python 3.11+) while the
    command runs, so an exact value prints in full however many digits its
    numerator or denominator has; the old limit is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"eval": _cmd_eval, "check": _cmd_check, "green": _cmd_green}[args.command]
    try:
        with _exact_int_strings():
            return command(args)
    except (ConfigError, ExprSyntaxError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()

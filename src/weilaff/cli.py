"""Command-line front end: run scenario files, the built-in suite, or one expression.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 on errors
(unparseable input, undeclared names, evaluation faults).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from .dsl import ParseError, Scenario, parse_scenario
from .report import CheckReport
from .runner import build_env, evaluate_expression, format_value, run_scenario

# surrogateescape reads each byte that is no UTF-8 as one of these; re caches the pattern
_NOT_UTF8 = "[\udc80-\udcff]"


def _emit(report: CheckReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(report)


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    bad = re.search(_NOT_UTF8, text)
    if bad:
        before = text[: bad.start()]
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        found = f"byte 0x{ord(bad[0]) - 0xDC00:02x}"
        print(f"{path}:{line}:{col}: expected UTF-8 text, found {found}", file=sys.stderr)
        return None
    return text


def _parse(path: str, text: str) -> Optional[Scenario]:
    """The scenario in ``text``, or None after a positional error on stderr."""
    try:
        return parse_scenario(text)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.column}: expected {exc.expected}, found {exc.found}",
              file=sys.stderr)
        return None


def _cmd_check(args) -> int:
    text = _read(args.file)
    if text is None:
        return 2
    scenario = _parse(args.file, text)
    if scenario is None:
        return 2
    report = run_scenario(scenario)
    _emit(report, args.json)
    return report.exit_code()


def _cmd_selftest(args) -> int:
    # imported here: ``check`` and ``eval`` never load the suite
    from .selftest import run_selftest

    report = run_selftest(grid=args.grid, seed=args.seed)
    _emit(report, args.json)
    return report.exit_code()


def _cmd_eval(args) -> int:
    text = _read(args.file)
    if text is None:
        return 2
    scenario = _parse(args.file, text)
    if scenario is None:
        return 2
    try:
        env = build_env(scenario)
        value = evaluate_expression(env, args.expr)
    except ParseError as exc:
        print(f"{exc.line}:{exc.column}: expected {exc.expected}, found {exc.found}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any evaluation fault is exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_value(value))
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  ``parse_args`` keeps no
    state in it: every call fills a fresh namespace from the defaults."""
    parser = argparse.ArgumentParser(
        prog="weilaff",
        description="exact checks for infinitesimal-neighborhood constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every check in a scenario file")
    p_check.add_argument("file", help="scenario file")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(fn=_cmd_check)

    p_self = sub.add_parser("selftest", help="run the built-in verification suite")
    p_self.add_argument("--grid", choices=("small", "full"), default="small")
    p_self.add_argument("--json", action="store_true", help="machine-readable report")
    p_self.add_argument("--seed", type=int, default=0, help="seed for generated inputs")
    p_self.set_defaults(fn=_cmd_selftest)

    p_eval = sub.add_parser("eval", help="evaluate one expression against a scenario")
    p_eval.add_argument("file", help="scenario file providing declarations")
    p_eval.add_argument("--expr", required=True, help="expression to evaluate")
    p_eval.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

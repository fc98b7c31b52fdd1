"""Command-line front end.

``workbench run FILE`` executes the checks in a definition file and
prints a report; ``workbench catalog`` lists the built-in objects;
``workbench paper-suite`` runs the bundled verification battery and
prints a one-page verdict.

Exit codes: 0 when every check passes, 1 when some check fails (or is
unsupported), 2 on usage, parse, or load errors, and when the input file
cannot be read or the ``--out`` report cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dsl
from .runner import (
    DEFAULT_ORDER,
    MAX_ORDER,
    LoadError,
    RunOptions,
    catalog_list,
    check_order,
    exit_code,
    load,
    render_structured,
    render_text,
    run_checks,
)
from .suite import render_suite, run_suite, suite_exit_code

__all__ = ["main"]


def _assumption_list(text: str) -> tuple[str, ...]:
    """Parse ``h!=0,xi!=0`` (or bare ``h,xi``) into parameter names."""
    names = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk.endswith("!=0"):
            chunk = chunk[: -len("!=0")].strip()
        if not chunk:
            raise argparse.ArgumentTypeError(
                f"cannot parse assumption list {text!r}")
        names.append(chunk)
    return tuple(names)


def _order(text: str) -> int:
    """An ``--order`` value, rejected before any work starts if out of range."""
    try:
        return check_order(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="Exact checks for Lie (super)bialgebras, classical "
                    "r-matrices, cohomology, and enveloping-algebra twists.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute the checks in a definition file")
    run_p.add_argument("file", help="definition file to execute")
    run_p.add_argument("--order", type=_order, default=DEFAULT_ORDER,
                       help="default truncation order for twist checks "
                            f"(default {DEFAULT_ORDER}, at most {MAX_ORDER})")
    run_p.add_argument("--format", choices=("text", "structured"),
                       default="text", help="report rendering")
    run_p.add_argument("--assume", type=_assumption_list, default=(),
                       metavar="h!=0,...",
                       help="parameters the coboundary solver may invert")
    run_p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")

    sub.add_parser("catalog", help="list the built-in catalog")

    suite_p = sub.add_parser(
        "paper-suite",
        help="run the bundled verification battery and print a verdict")
    suite_p.add_argument("--order", type=_order, default=DEFAULT_ORDER,
                         help="maximum twist truncation order "
                              f"(default {DEFAULT_ORDER}, at most {MAX_ORDER})")
    return parser


def _run_command(args) -> int:
    try:
        source = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"workbench: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    options = RunOptions(order=args.order, assume_nonzero=args.assume)
    try:
        _, checks = load(dsl.parse(source), options)
    except (dsl.ParseError, LoadError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    results = run_checks(checks)
    render = render_structured if args.format == "structured" else render_text
    report = render(results)
    if args.out is None:
        sys.stdout.write(report)
    else:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"workbench: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 2
    return exit_code(results)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "run":
        return _run_command(args)
    if args.command == "catalog":
        sys.stdout.write(catalog_list())
        return 0
    if args.command == "paper-suite":
        results = run_suite(args.order)
        sys.stdout.write(render_suite(results))
        return suite_exit_code(results)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front door: analyze, compare, and lattice model generation.

Exit codes for analyze/compare: 0 nonsingular termination (and, for
compare, equal spans), 1 input or usage error, 2 exhausted chain, 3
level cap reached, 4 span mismatch (compare only).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import __version__
from .chain import (
    TERMINATED_EXHAUSTED,
    TERMINATED_MAX_LEVEL,
    TERMINATED_NONSINGULAR,
    ChainError,
    ChainOptions,
    run_chain,
)
from .dirac import compare_spans, consistency_algorithm
from .lattice import LatticeSpec, build_schwinger
from .model import FirstOrderModel, ModelFormatError, load_model, save_model
from .reports import write_text, write_tree

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EXHAUSTED = 2
EXIT_MAX_LEVEL = 3
EXIT_SPANS_DIFFER = 4

_TERMINATION_EXIT = {
    TERMINATED_NONSINGULAR: EXIT_OK,
    TERMINATED_EXHAUSTED: EXIT_EXHAUSTED,
    TERMINATED_MAX_LEVEL: EXIT_MAX_LEVEL,
}


def _chain_options(args) -> ChainOptions:
    return ChainOptions(max_level=args.max_level, allow_truncation=not args.no_truncation)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-level", type=int, default=12, help="level cap (default 12)")
    p.add_argument(
        "--no-truncation",
        action="store_true",
        help="never retry on the column-truncated matrix",
    )
    p.add_argument(
        "--format", choices=["text", "tree"], default="text", help="report format"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="symchain",
        description="Exact constraint-chain analysis for first-order Lagrangians.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the constraint chain on a model file")
    p_analyze.add_argument("model", help="model file path")
    _add_analysis_flags(p_analyze)

    p_compare = sub.add_parser(
        "compare", help="run chain and consistency oracle, compare constraint spans"
    )
    p_compare.add_argument("model", help="model file path")
    _add_analysis_flags(p_compare)

    p_lattice = sub.add_parser("lattice", help="generate a lattice model file")
    p_lattice.add_argument("builder", choices=["schwinger"], help="model family")
    p_lattice.add_argument("--sites", type=int, default=3, help="lattice sites (default 3)")
    p_lattice.add_argument(
        "--spacing", default="1", help="lattice spacing as an exact rational (default 1)"
    )
    p_lattice.add_argument(
        "--scheme",
        choices=["central", "forward"],
        default="central",
        help="difference scheme (default central; needs an odd site count)",
    )
    p_lattice.add_argument("--out", help="output model file path")
    p_lattice.add_argument(
        "--analyze",
        action="store_true",
        help="run the chain/oracle comparison on the generated model",
    )
    _add_analysis_flags(p_lattice)
    return parser


def cmd_analyze(model: FirstOrderModel, args) -> int:
    report = run_chain(model, _chain_options(args))
    comparison = None
    oracle = None
    if report.termination.kind == TERMINATED_EXHAUSTED:
        # an exhausted chain has no completeness certificate: always
        # cross-check against the consistency oracle
        oracle = consistency_algorithm(model)
        comparison = compare_spans(report, oracle.constraints)
        if not comparison.equal:
            print(
                "warning: exhausted chain span differs from the consistency oracle",
                file=sys.stderr,
            )
    _write(args, report, comparison, oracle)
    return _TERMINATION_EXIT[report.termination.kind]


def cmd_compare(model: FirstOrderModel, args) -> int:
    report = run_chain(model, _chain_options(args))
    oracle = consistency_algorithm(model)
    comparison = compare_spans(report, oracle.constraints)
    _write(args, report, comparison, oracle)
    return EXIT_OK if comparison.equal else EXIT_SPANS_DIFFER


def _write(args, *parts) -> None:
    """Write the report to stdout, in the format ``args`` asks for, while it is rendered.

    A reader that closes the pipe early (``symchain ... | head``) ends the report, not the run.
    """
    try:
        (write_tree if args.format == "tree" else write_text)(sys.stdout.write, *parts)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:
        # the reader has gone: what is still buffered, and the flush at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _spacing(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--spacing must be an exact rational such as 1/2, not {text!r}") from None


def cmd_lattice(args) -> int:
    spec = LatticeSpec(
        sites=args.sites, spacing=_spacing(args.spacing), scheme=args.scheme
    )
    model = build_schwinger(spec)
    out = args.out
    if out is None and not args.analyze:
        out = f"{model.name}.model"
    if out is not None:
        save_model(model, out)
        print(f"wrote {out} ({len(model.zeta)} coordinates, "
              f"{len(model.primaries)} primaries)", file=sys.stderr)
    if args.analyze:
        return cmd_compare(model, args)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, and 2, the exhausted-chain code here, on a usage error
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where the interpreter sets no limit or has none
    try:
        if limit:  # a report prints ints of any length; the parser bounds the literals it reads
            sys.set_int_max_str_digits(0)
        if args.command == "lattice":
            return cmd_lattice(args)
        model = load_model(args.model)
        if args.command == "analyze":
            return cmd_analyze(model, args)
        return cmd_compare(model, args)
    except (ModelFormatError, ChainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end: gen | solve | bench | stats.

Exit codes: 0 success, 1 usage error, 2 runtime failure (unreadable files,
parse errors, and the like).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bench import parse_manifest, read_csv, run_bench, write_csv
from .branching import SCHEME_NAMES, parse_scheme
from .generators import FAMILIES, GEN_PARAMS, GenSpec
from .instance_io import ParseError, parse_instance, serialize_instance
from .search import Limits, Status, solve
from .stats import format_report


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _UsageError(f"{self.prog}: {message}")


def _in_range(convert, low, high=None):
    """An argparse ``type``: ``convert(text)``, rejected outside [low, high]."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid value: {text!r}")
        if not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"within [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{text!r} is not {bound}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="branchbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_gen.add_argument("--out", required=True, help="output path, - for stdout")
    for name in GEN_PARAMS:
        p_gen.add_argument(f"--{name}", type=int)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    p_solve.add_argument("--threshold", type=_in_range(Fraction, 0, 1), default=Fraction(1, 4))
    p_solve.add_argument("--kmax", type=_in_range(int, 1), default=4)
    p_solve.add_argument("--timeout-ms", type=_in_range(float, 0))
    p_solve.add_argument("--max-nodes", type=_in_range(int, 0))
    p_solve.add_argument("--trace", help="write one line per branch and forced commit here")

    p_bench = sub.add_parser("bench", help="run a manifest under many schemes")
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument(
        "--schemes", default=",".join(SCHEME_NAMES), help="comma separated names (default: all)"
    )
    p_bench.add_argument("--out", required=True, help="CSV path, - for stdout")
    p_bench.add_argument("--timeout-ms", type=_in_range(float, 0))
    p_bench.add_argument("--max-nodes", type=_in_range(int, 0))
    p_bench.add_argument("--jobs", type=_in_range(int, 1), default=1)

    p_stats = sub.add_parser("stats", help="summarize a results CSV")
    p_stats.add_argument("--results", required=True)
    p_stats.add_argument("--baseline", required=True)

    return parser


def _cmd_gen(args) -> int:
    params = {k: getattr(args, k) for k in GEN_PARAMS if getattr(args, k) is not None}
    try:
        problem = GenSpec(args.family, params).build()
    except ValueError as exc:
        raise _UsageError(f"branchbench gen: {exc}")
    text = serialize_instance(problem)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_solve(args) -> int:
    problem = parse_instance(Path(args.instance).read_text(encoding="utf-8"))
    scheme = parse_scheme(args.scheme, threshold_fraction=args.threshold, kmax=args.kmax)
    limits = Limits(max_nodes=args.max_nodes, wall_time_ms=args.timeout_ms)
    trace: Optional[list[str]] = [] if args.trace else None
    outcome = solve(problem, scheme, limits=limits, trace=trace)
    if args.trace:
        Path(args.trace).write_text(
            "".join(line + "\n" for line in trace), encoding="utf-8"
        )
    s = outcome.stats
    print(outcome.status.value)
    print(
        f"nodes={s.nodes} decisions={s.decisions} wipeouts={s.wipeouts} "
        f"backtracks={s.backtracks} elapsed_ms={s.elapsed_ms:.3f}"
    )
    if outcome.status is Status.SAT:
        pairs = zip(problem.names, outcome.assignment)
        print(" ".join(f"{name}={value}" for name, value in pairs))
    return 0


def _cmd_bench(args) -> int:
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not names:
        raise _UsageError("branchbench bench: no schemes given")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise _UsageError(f"branchbench bench: scheme {repeated[0]!r} given twice")
    try:
        schemes = [parse_scheme(name) for name in names]
    except ValueError as exc:
        raise _UsageError(f"branchbench bench: {exc}")
    manifest_path = Path(args.manifest)
    sources = parse_manifest(
        manifest_path.read_text(encoding="utf-8"), manifest_path.parent
    )
    limits = Limits(max_nodes=args.max_nodes, wall_time_ms=args.timeout_ms)
    records = run_bench(sources, schemes, limits=limits, jobs=args.jobs)
    if args.out == "-":
        write_csv(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(records, fh)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    with open(args.results, encoding="utf-8", newline="") as fh:
        records = read_csv(fh)
    sys.stdout.write(format_report(records, args.baseline))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits with 0 inside argparse
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"branchbench: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"branchbench: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"branchbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

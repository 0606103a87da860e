#!/usr/bin/env python3
"""Count the bytecodes one solve executes, per function.

    PYTHONPATH=src python3 scripts/opcount.py "langford n=6" 2way [--top N]

Builds the instance from its generator spec (``FAMILY key=value ...``),
compiles its tables, then solves it under the scheme with ``sys.settrace``
counting every opcode event, grouped by the code object that executed it.
Prints the total, then one line per function, most first: its count and
``file:first line qualified name``.  Code that runs in C (builtins, ``deque``
and ``dict`` methods) executes no bytecode and is not counted.  Unlike
times, the counts repeat exactly from run to run, so they compare two
versions of the engine on the same search without noise.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

from branchbench import search
from branchbench.branching import parse_scheme
from branchbench.generators import GenSpec


def count_opcodes(spec: str, scheme: str) -> Counter:
    """Opcodes executed by ``solve`` of ``spec`` under ``scheme``, per code
    object; the tables are compiled before counting starts."""
    problem = GenSpec.parse(spec).build()
    problem.tables
    parsed = parse_scheme(scheme)
    counts: Counter = Counter()

    def per_line(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return per_line

    def per_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_line

    # a cyclic collection during the solve would count the finalizers and
    # weakref callbacks of whatever garbage the caller left behind
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        search.solve(problem, parsed)
    finally:
        sys.settrace(previous)
        if enabled:
            gc.enable()
    return counts


def label(code) -> str:
    name = getattr(code, "co_qualname", code.co_name)
    return f"{Path(code.co_filename).name}:{code.co_firstlineno} {name}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("instance", help='generator spec, e.g. "langford n=6"')
    ap.add_argument("scheme", help="scheme name, e.g. 2way")
    ap.add_argument("--top", type=int, default=None, help="print only the N largest functions")
    args = ap.parse_args(argv)
    by_label: Counter = Counter()
    for code, n in count_opcodes(args.instance, args.scheme).items():
        by_label[label(code)] += n
    rows = sorted(by_label.items(), key=lambda kv: (-kv[1], kv[0]))
    print(f"{sum(by_label.values()):>10} total")
    for name, n in rows[: args.top]:
        print(f"{n:>10} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the golden behaviour corpus under ``tests/golden/``.

    PYTHONPATH=src python3 scripts/write_golden.py [--out tests/golden]

Solves every corpus instance (the core sources, then each line of
``suites/desk.txt`` they lack) under all seven schemes (default threshold and
kmax) and writes one JSON record per (instance, scheme) to ``corpus.jsonl``:
the instance source, the scheme, status, nodes, decisions, wipeouts,
backtracks and the sha256 of the search trace.  It also writes ``nary.csp``,
the one instance with ternary constraints, so the corpus does not depend on
a generator outside the library.  ``tests/test_golden.py`` re-solves every
record and compares.  Rewriting the corpus is a deliberate act: a change
that is meant to keep the search as it was must leave both files
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import GenSpec
from branchbench.instance_io import parse_instance, serialize_instance
from branchbench.model import Constraint, ExtensionalAllowed, Intensional, Problem
from branchbench.search import solve

ROOT = Path(__file__).resolve().parent.parent
NARY_FILE = "nary.csp"

CORE_SOURCES = (
    "gen pigeons n=7",
    "gen langford n=7",
    "gen langford n=8",
    "gen randomb n=20 d=10 p1=90 p2=41 seed=1",
    "gen forced n=20 d=10 p1=90 p2=44 seed=1",
    "gen qwh order=9 holes=50 seed=1",
    "gen coloring n=25 edges=90 k=4 seed=1",
    f"file {NARY_FILE}",
)
# then every line of the desk suite not among them, in suite order, so the
# corpus pins each desk source (comments and blank lines dropped as in a manifest)
_DESK = [
    raw.split("#", 1)[0].strip()
    for raw in (ROOT / "suites" / "desk.txt").read_text(encoding="utf-8").splitlines()
]
SOURCES = CORE_SOURCES + tuple(s for s in _DESK if s and s not in CORE_SOURCES)


def nary_problem(seed: int = 5, n: int = 12, d: int = 4, m: int = 16, extra: int = 14) -> Problem:
    """Ternary allowed tables and sums plus binary ne, around a planted solution."""
    rng = random.Random(seed)
    names = tuple(f"v{i}" for i in range(n))
    planted = [rng.randrange(d) for _ in range(n)]
    triples = sorted(rng.sample(list(itertools.combinations(range(n), 3)), m))
    all_tuples = list(itertools.product(range(d), repeat=3))
    cons: list[Constraint] = []
    for k, scope in enumerate(triples):
        var_names = tuple(names[x] for x in scope)
        if k % 2 == 0:
            allowed = set(rng.sample(all_tuples, extra))
            allowed.add(tuple(planted[x] for x in scope))
            rel = ExtensionalAllowed(frozenset(allowed))
        else:
            a, b, c = (VarRef(v) for v in var_names)
            total = sum(planted[x] for x in scope)
            rel = Intensional(Call("le", (Call("add", (Call("add", (a, b)), c)), Const(total))))
        cons.append(Constraint(len(cons), scope, var_names, rel))
    for u, v in sorted(rng.sample(list(itertools.combinations(range(n), 2)), 8)):
        if planted[u] != planted[v]:
            rel = Intensional(Call("ne", (VarRef(names[u]), VarRef(names[v]))))
            cons.append(Constraint(len(cons), (u, v), (names[u], names[v]), rel))
    return Problem(names, (tuple(range(d)),) * n, tuple(cons))


def load_source(source: str, directory: Path) -> Problem:
    """Build ``gen FAMILY k=v ...`` or read ``file NAME`` relative to ``directory``."""
    kind, _, rest = source.partition(" ")
    if kind == "gen":
        return GenSpec.parse(rest).build()
    if kind == "file":
        return parse_instance((directory / rest).read_text(encoding="utf-8"))
    raise ValueError(f"unknown corpus source {source!r}")


def record(source: str, problem: Problem, scheme_name: str) -> dict:
    """The pinned behaviour of one (instance, scheme) solve."""
    trace: list[str] = []
    outcome = solve(problem, parse_scheme(scheme_name), trace=trace)
    s = outcome.stats
    return {
        "source": source,
        "scheme": scheme_name,
        "status": outcome.status.value,
        "nodes": s.nodes,
        "decisions": s.decisions,
        "wipeouts": s.wipeouts,
        "backtracks": s.backtracks,
        "trace_sha256": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "golden")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / NARY_FILE).write_text(serialize_instance(nary_problem()), encoding="utf-8")
    lines = []
    for source in SOURCES:
        problem = load_source(source, args.out)
        for scheme_name in SCHEME_NAMES:
            lines.append(json.dumps(record(source, problem, scheme_name), sort_keys=True))
    (args.out / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {args.out / 'corpus.jsonl'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

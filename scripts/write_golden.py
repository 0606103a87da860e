#!/usr/bin/env python3
"""Write every search pin under ``tests/golden/``.

    PYTHONPATH=src python3 scripts/write_golden.py [--out tests/golden]

Solves every corpus instance (the core sources, then each line of
``suites/desk.txt`` they lack) under all seven schemes (default threshold and
kmax) and writes one JSON record per (instance, scheme) to ``corpus.jsonl``:
the instance source, the scheme, status, nodes, decisions, wipeouts,
backtracks and the sha256 of the search trace.  It also writes ``nary.csp``,
the one instance with ternary constraints, so the corpus does not depend on
a generator outside the library.  ``tests/test_golden.py`` re-solves every
record and compares.

``pins.json`` holds the revise calls, and those that removed a value, of a
traced solve of each ``REVISE_CASES`` pair (removals show only the latter;
``revisions_effective`` leaves out the removals that a singleton's walk makes
itself, with no revise call, so it no longer counts every removal);
the ``tie_free_seeds`` scan; and each workload's ``search_digest`` and traced
revision counts from ``perfbench/run.py --workload W --seed 1 --seconds 0
--trace 1``, which checks that every span it wraps fired and the traced search
against the untraced one.  ``sweep`` fires every span; ``proof`` checks the
revise counter where propagate and revise take most of the time; ``sets``
alone reaches ``clustering.xmeans``, which plans with all scores equal skip.
When a run exits non-zero or prints no digest or result, nothing is written
and the exit code is 1.  Rewriting the pins is a deliberate act: a change
that is meant to keep the search as it was must leave all three files
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import random
import re
import sys
from pathlib import Path

import perf

from branchbench import search
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.exprs import Call, Const, VarRef
from branchbench.generators import GenSpec, gen_randomb
from branchbench.heuristics import score_domain
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
REVISE_CASES = (
    ("gen forced n=30 d=20 p1=150 p2=180 seed=1", "clust-2way"),
    ("gen langford n=6", "2way"),
    ("gen langford n=6", "dway"),
    (f"file {NARY_FILE}", "dway"),
    # ne constraints only: a walk of more than one value lists none of them
    # and a singleton's walk ANDs them itself, so no revise call is made
    ("gen qwh order=9 holes=50 seed=1", "dway"),
)
REVISIONS = ("revisions", "revisions_effective")
WORKLOADS = ("sweep", "proof", "sets")


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


def revise_counts(problem: Problem, scheme_name: str) -> dict:
    """Revise calls, and those that removed a value, of one traced solve."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        solve(problem, parse_scheme(scheme_name))
    return {k: tracer.counts[f"propagation.{k}"] for k in REVISIONS}


def bench_pin(result: dict | None, stdout: str) -> dict:
    """The search digest and traced revision counts of one ``run.py`` run,
    given as :func:`perf.run` returns it; ValueError if the run failed or
    printed no digest, or its result holds no revision counts."""
    if result is None:
        raise ValueError("the run failed or printed no JSON result line")
    digest = re.search(r"^search_digest ([0-9a-f]{64})$", stdout, re.MULTILINE)
    if digest is None:
        raise ValueError("no search_digest line")
    try:
        counts = {k: int(result["metrics"][f"propagation.{k}"]["value"]) for k in REVISIONS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"no revision counts in the result: {exc!r}") from exc
    return {"search_digest": digest.group(1), **counts}


@contextlib.contextmanager
def promise_ties():
    """Wrap ``search.plan`` while the block runs and yield the list of branch
    variables, one per branch node, at which ``score_domain`` scored two
    values equally (a promise tie)."""
    inner = search.plan
    ties: list[int] = []

    def recording_plan(scheme, state, x):
        scores = [score for _, score in score_domain(state, x)]
        if len(set(scores)) < len(scores):
            ties.append(x)
        return inner(scheme, state, x)

    search.plan = recording_plan
    try:
        yield ties
    finally:
        search.plan = inner


def tie_free_seeds() -> list[int]:
    """The first 30 seeds in ``range(260)`` for which
    ``gen_randomb(16, 10, 70, 41, seed)`` takes 12 to 4000 nodes under
    ``dway`` and neither the ``dway`` nor the ``2way`` search meets a
    promise tie (see :func:`promise_ties`)."""
    found: list[int] = []
    with promise_ties() as ties:
        for seed in range(260):
            problem = gen_randomb(16, 10, 70, 41, seed)
            ties.clear()
            out = solve(problem, parse_scheme("dway"))
            if ties or not 12 <= out.stats.nodes <= 4000:
                continue
            solve(problem, parse_scheme("2way"))
            if not ties:
                found.append(seed)
                if len(found) == 30:
                    break
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "golden")
    args = ap.parse_args()
    benchmark = {}
    for workload in WORKLOADS:
        result, stdout = perf.run(ROOT, workload, 1, 0, 1)
        try:
            benchmark[workload] = bench_pin(result, stdout)
        except ValueError as exc:
            print(f"write_golden: {workload}: {exc}; nothing written", file=sys.stderr)
            return 1
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / NARY_FILE).write_text(serialize_instance(nary_problem()), encoding="utf-8")
    lines = []
    for source in SOURCES:
        problem = load_source(source, args.out)
        for scheme_name in SCHEME_NAMES:
            lines.append(json.dumps(record(source, problem, scheme_name), sort_keys=True))
    (args.out / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    pins = {"benchmark": benchmark, "revise_counts": {}, "tie_free_seeds": tie_free_seeds()}
    for source, scheme_name in REVISE_CASES:
        counts = revise_counts(load_source(source, args.out), scheme_name)
        pins["revise_counts"].setdefault(source, {})[scheme_name] = counts
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    (args.out / "pins.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(lines)} records and the search pins to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # perfbench.tracing counts the revise calls
    sys.exit(main())

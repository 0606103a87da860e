"""Workload inputs, the closed-loop round, and the checks on every result.

A *task* is one solve of one instance under one scheme.  A *round* is one
pass over a workload: build its inputs from the seed, run its tasks back to
back (each starts when the previous one returns), and check every result.
Inputs are rebuilt in every round, so each round pays the set-up cost a user
pays.  Before the timed rounds a *reference pass* solves the same inputs with
the search trace on; it settles each instance's verdict, re-checks every
satisfying assignment and records the search fingerprint that every timed
task must reproduce.

The library is called through module attributes (``search.solve``,
``bench.run_bench``, ...) so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import random
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from branchbench import bench, branching, generators, instance_io, search, stats
from branchbench.exprs import Call, Const, VarRef
from branchbench.model import (
    Constraint,
    ExtensionalAllowed,
    ExtensionalForbidden,
    Intensional,
    Problem,
)

SCHEME_NAMES = branching.SCHEME_NAMES
SCHEMES = {name: branching.parse_scheme(name) for name in SCHEME_NAMES}
BASELINE_SCHEME = "2way"


@dataclass(frozen=True)
class Instance:
    name: str
    problem: Problem  # as generated: the reference the checker uses
    truth: Optional[bool]  # satisfiable?  None: the 7 schemes must agree
    schemes: tuple[str, ...]  # schemes the timed rounds run on it


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[Instance]]
    max_nodes: int  # per solve, about ten times the largest count on the seed
    via_files: bool  # written to instance files and swept by run_bench


@dataclass(frozen=True)
class TaskResult:
    instance: str
    scheme: str
    status: str  # sat, unsat, limit or error
    nodes: int
    decisions: int
    wipeouts: int
    backtracks: Optional[int]  # run_bench records do not carry it
    elapsed_ms: float
    assignment: Optional[tuple[int, ...]] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class Fingerprint:
    status: str
    nodes: int
    decisions: int
    wipeouts: int
    backtracks: Optional[int]
    trace_sha256: str

    def line(self, instance: str, scheme: str) -> str:
        return (
            f"fingerprint {instance} {scheme} status={self.status} nodes={self.nodes} "
            f"decisions={self.decisions} wipeouts={self.wipeouts} "
            f"backtracks={self.backtracks} trace_sha256={self.trace_sha256}"
        )


@dataclass
class Reference:
    fingerprints: dict[tuple[str, str], Fingerprint]
    verdicts: dict[str, Optional[str]]  # None: no trusted verdict
    failures: list[str]
    attempted: int


@dataclass
class Inputs:
    instances: list[Instance]
    texts: Optional[list[str]] = None  # instance files, for via_files workloads
    sources: Optional[list[bench.InstanceSource]] = None


@dataclass
class Round:
    setup_s: float
    wall_s: float
    results: list[TaskResult]
    attempted: int
    failures: list[str]
    scale: float = 1.0  # machine-speed factor for the round's times (speed.py)


class TraceHash:
    """``solve(trace=...)`` sink that hashes the lines instead of keeping them.

    The digest equals sha256 of the trace lines, each followed by a newline.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def append(self, line: str) -> None:
        self._hash.update(line.encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- instances -------------------------------------------------------------

def known_verdict(spec: generators.GenSpec) -> Optional[bool]:
    """Satisfiability the family fixes, or None when only search can tell."""
    if spec.family == "pigeons":
        return False  # n pigeons, n - 1 holes
    if spec.family == "langford":
        return spec.params["n"] % 4 in (0, 3)  # Davies (1959)
    if spec.family in ("forced", "qwh"):
        return True  # a planted solution / a blanked complete Latin square
    return None


def _generated(text: str, schemes: tuple[str, ...]) -> Instance:
    spec = generators.GenSpec.parse(text)
    return Instance(spec.name(), spec.build(), known_verdict(spec), schemes)


def _draw(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _scope_names(names: list[str], scope: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(names[x] for x in scope)


def ternary_allowed(tag: int, n: int = 9, d: int = 4, m: int = 8, extra: int = 20) -> Instance:
    """Ternary ``allowed`` tables around a planted solution (so satisfiable)."""
    rng = random.Random(tag)
    names = [f"v{i}" for i in range(n)]
    planted = [rng.randrange(d) for _ in range(n)]
    scopes = sorted(rng.sample(list(itertools.combinations(range(n), 3)), m))
    all_tuples = list(itertools.product(range(d), repeat=3))
    constraints = []
    for scope in scopes:
        allowed = set(rng.sample(all_tuples, extra))
        allowed.add(tuple(planted[x] for x in scope))
        constraints.append(
            Constraint(
                len(constraints), scope, _scope_names(names, scope),
                ExtensionalAllowed(frozenset(allowed)),
            )
        )
    problem = Problem(tuple(names), (tuple(range(d)),) * n, tuple(constraints))
    return Instance(f"ternary-{n}-{d}-{m}-s{tag}", problem, True, SCHEME_NAMES)


def ternary_sums(tag: int, n: int = 9, d: int = 5, m: int = 8) -> Instance:
    """Intensional ``x+y+z = s`` or ``x+y+z <= s`` around a planted solution."""
    rng = random.Random(tag)
    names = [f"v{i}" for i in range(n)]
    planted = [rng.randrange(d) for _ in range(n)]
    scopes = sorted(rng.sample(list(itertools.combinations(range(n), 3)), m))
    constraints = []
    for scope in scopes:
        a, b, c = (VarRef(names[x]) for x in scope)
        total = sum(planted[x] for x in scope)
        op = "eq" if rng.random() < 0.5 else "le"
        expr = Call(op, (Call("add", (Call("add", (a, b)), c)), Const(total)))
        constraints.append(
            Constraint(len(constraints), scope, _scope_names(names, scope), Intensional(expr))
        )
    problem = Problem(tuple(names), (tuple(range(d)),) * n, tuple(constraints))
    return Instance(f"sums-{n}-{d}-{m}-s{tag}", problem, True, SCHEME_NAMES)


def _proof(rng: random.Random) -> list[Instance]:
    # langford has no random parameters: this workload does not use the seed
    return [_generated("langford n=9", ("2way", "dway"))]


def _sets(rng: random.Random) -> list[Instance]:
    return [
        _generated("pigeons n=9", ("clust-2way", "clust-dway")),
        _generated(
            f"randomb n=25 d=16 p1=120 p2=120 seed={_draw(rng)}", ("clust-dway", "ties-dway")
        ),
    ]


def _sweep(rng: random.Random) -> list[Instance]:
    texts = ["pigeons n=5", "pigeons n=6"]
    texts += [f"langford n={n}" for n in (4, 5, 6, 7)]
    texts += [
        f"randomb n=16 d=10 p1=70 p2={p2} seed={_draw(rng)}" for p2 in (30, 30, 30, 55, 55, 55)
    ]
    texts += [f"forced n=16 d=10 p1=70 p2=44 seed={_draw(rng)}" for _ in range(5)]
    texts += [f"qwh order=5 holes=14 seed={_draw(rng)}" for _ in range(5)]
    texts += [f"coloring n=14 edges=30 k=3 seed={_draw(rng)}" for _ in range(4)]
    out = [_generated(text, SCHEME_NAMES) for text in texts]
    out += [ternary_allowed(_draw(rng)) for _ in range(2)]
    out += [ternary_sums(_draw(rng)) for _ in range(2)]
    return out


WORKLOADS = {
    "proof": Workload(_proof, max_nodes=250_000, via_files=False),
    "sets": Workload(_sets, max_nodes=1_000_000, via_files=False),
    "sweep": Workload(_sweep, max_nodes=20_000, via_files=True),
}


# -- checking ----------------------------------------------------------------

_BINARY_OPS = {
    "add": operator.add, "sub": operator.sub,
    "eq": operator.eq, "ne": operator.ne,
    "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def _evaluate(expr, env: dict[str, int]) -> int:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, VarRef):
        return env[expr.name]
    if expr.op not in _BINARY_OPS:
        raise ValueError(f"the checker does not evaluate {expr.op!r}")
    a, b = (_evaluate(arg, env) for arg in expr.args)
    return int(_BINARY_OPS[expr.op](a, b))


def check_assignment(problem: Problem, values) -> Optional[str]:
    """Why ``values`` fails ``problem``, or None when it satisfies it.

    Written apart from the library's own ``verify``/``check_tuple`` so that a
    bug there cannot vouch for itself.
    """
    if len(values) != len(problem.names):
        return f"assignment has {len(values)} values for {len(problem.names)} variables"
    for name, dom, v in zip(problem.names, problem.domains, values):
        if v not in dom:
            return f"{name}={v} is outside its domain"
    for c in problem.constraints:
        tup = tuple(values[x] for x in c.scope)
        rel = c.relation
        if isinstance(rel, ExtensionalAllowed):
            ok = tup in rel.tuples
        elif isinstance(rel, ExtensionalForbidden):
            ok = tup not in rel.tuples
        elif isinstance(rel, Intensional):
            ok = _evaluate(rel.expr, dict(zip(c.var_names, tup))) != 0
        else:
            return f"constraint {c.cid} has an unknown relation"
        if not ok:
            return f"constraint {c.cid} on {c.var_names} is violated by {tup}"
    return None


def _task_failure(r: TaskResult, inst: Instance, verdict: Optional[str]) -> Optional[str]:
    if r.error is not None:
        return r.error
    if r.status == "limit":
        return "hit the node limit"
    if verdict is None:
        return "instance has no trusted verdict"
    if r.status != verdict:
        return f"verdict {r.status}, expected {verdict}"
    if r.assignment is not None:
        return check_assignment(inst.problem, r.assignment)
    return None


def check_results(
    results: list[TaskResult], instances: list[Instance], ref: Reference
) -> list[str]:
    """One message per failed task: wrong verdict, bad assignment, or a
    search that differs from the reference pass."""
    by_name = {inst.name: inst for inst in instances}
    failures = []
    for r in results:
        where = f"{r.instance} {r.scheme}"
        inst = by_name.get(r.instance)
        if inst is None:
            failures.append(f"{where}: unknown instance")
            continue
        failure = _task_failure(r, inst, ref.verdicts.get(r.instance))
        fp = ref.fingerprints.get((r.instance, r.scheme))
        if failure is None and fp is None:
            failure = "no reference fingerprint"
        elif failure is None:
            got = (r.status, r.nodes, r.decisions, r.wipeouts)
            want = (fp.status, fp.nodes, fp.decisions, fp.wipeouts)
            if got != want or r.backtracks not in (None, fp.backtracks):
                failure = f"search differs from the reference pass: {got} vs {want}"
        if failure is not None:
            failures.append(f"{where}: {failure}")
    return failures


# -- running -------------------------------------------------------------------

def set_up(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Build the round's inputs: problems compiled up front, or files."""
    instances = workload.build(random.Random(seed))
    if not workload.via_files:
        for inst in instances:
            inst.problem.tables
        return Inputs(instances)
    texts = []
    for inst in instances:
        text = instance_io.serialize_instance(inst.problem)
        (workdir / f"{inst.name}.csp").write_text(text, encoding="utf-8")
        texts.append(text)
    manifest = "".join(f"{inst.name}.csp\n" for inst in instances)
    return Inputs(instances, texts, bench.parse_manifest(manifest, workdir))


def solve_task(
    instance: str, problem: Problem, scheme: str, limits: search.Limits, trace=None
) -> TaskResult:
    try:
        out = search.solve(problem, SCHEMES[scheme], limits=limits, trace=trace)
    except Exception as exc:  # one bad task must not end the run
        traceback.print_exc(file=sys.stderr)
        return TaskResult(instance, scheme, "error", 0, 0, 0, None, 0.0, error=repr(exc))
    s = out.stats
    return TaskResult(
        instance, scheme, out.status.value, s.nodes, s.decisions, s.wipeouts,
        s.backtracks, s.elapsed_ms, out.assignment,
    )


def _sweep_tasks(inputs: Inputs, limits: search.Limits) -> tuple[list[TaskResult], list[str]]:
    """run_bench over the manifest x all schemes, then the text report."""
    expected = [(src.name, name) for src in inputs.sources for name in SCHEME_NAMES]
    try:
        records = bench.run_bench(
            inputs.sources, list(SCHEMES.values()), limits=limits, seed=0, jobs=1
        )
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [
            TaskResult(i, s, "error", 0, 0, 0, None, 0.0, error=repr(exc)) for i, s in expected
        ], []
    results = [
        TaskResult(r.instance, r.scheme, r.status, r.nodes, r.decisions, r.wipeouts,
                   None, r.elapsed_ms)
        for r in records
    ]
    failures = []
    if [(r.instance, r.scheme) for r in results] != expected:
        failures.append("run_bench records are not in task order")
    try:
        report = stats.format_report(records, BASELINE_SCHEME)
        missing = [s for s in SCHEME_NAMES if s != BASELINE_SCHEME and s not in report]
        if missing:
            failures.append(f"report lacks schemes {missing}")
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        failures.append(f"format_report raised {exc!r}")
    return results, failures


def run_round(
    workload: Workload, seed: int, work_root: Path, ref: Reference
) -> Round:
    limits = search.Limits(max_nodes=workload.max_nodes)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        started = time.perf_counter()
        inputs = set_up(workload, seed, Path(tmp))
        setup_done = time.perf_counter()
        if workload.via_files:
            results, failures = _sweep_tasks(inputs, limits)
        else:
            failures = []
            results = [
                solve_task(inst.name, inst.problem, name, limits)
                for inst in inputs.instances
                for name in inst.schemes
            ]
        failures += check_results(results, inputs.instances, ref)
        wall = time.perf_counter() - started
    attempted = len(results) + (1 if workload.via_files else 0)  # + the report
    return Round(setup_done - started, wall, results, attempted, failures)


def reference_pass(workload: Workload, seed: int, work_root: Path) -> Reference:
    """Solve every task with the trace on; settle verdicts; check assignments.

    Instances without a known verdict are solved under all seven schemes,
    which must agree.  Instance files are parsed back and must equal the
    generated problem.
    """
    limits = search.Limits(max_nodes=workload.max_nodes)
    ref = Reference({}, {}, [], 0)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        inputs = set_up(workload, seed, Path(tmp))
        for k, inst in enumerate(inputs.instances):
            problem = inst.problem
            if inputs.texts is not None:
                ref.attempted += 1
                try:
                    problem = instance_io.parse_instance(inputs.texts[k])
                except instance_io.ParseError as exc:
                    ref.failures.append(f"{inst.name}: instance file does not parse: {exc}")
                    ref.verdicts[inst.name] = None
                    continue
                if problem != inst.problem:
                    ref.failures.append(f"{inst.name}: parsed file differs from the instance")
            schemes = SCHEME_NAMES if inst.truth is None else inst.schemes
            results = []
            for name in schemes:
                sink = TraceHash()
                r = solve_task(inst.name, problem, name, limits, trace=sink)
                results.append(r)
                ref.fingerprints[(inst.name, name)] = Fingerprint(
                    r.status, r.nodes, r.decisions, r.wipeouts, r.backtracks, sink.hexdigest()
                )
            if inst.truth is not None:
                verdict = "sat" if inst.truth else "unsat"
            else:
                seen = {r.status for r in results}
                verdict = seen.pop() if len(seen) == 1 and seen <= {"sat", "unsat"} else None
            ref.verdicts[inst.name] = verdict
            ref.attempted += len(results)
            for r in results:
                failure = _task_failure(r, inst, verdict)
                if failure is not None:
                    ref.failures.append(f"{inst.name} {r.scheme}: {failure}")
    return ref

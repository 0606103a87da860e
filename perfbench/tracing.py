"""Spans and counters at the library's module boundaries, for the traced run.

``Tracer.installed()`` replaces module-level names (``search.plan``,
``branching.xmeans``, ``SearchState.undo_to``, ...) with wrappers that record
a span per call: its name, start, end and the enclosing span.  Self time is
a span's duration minus the part its child spans cover.  Calls too frequent
for a span (``revise``, ``check_tuple``) are only counted.  Everything stays
in memory and is summarised after each traced round.

The wrappers sit on names the library looks up at call time; if the library
later imports a name some other way, its span stops firing.  ``summary``
reports call counts, so the run checks that every boundary it expects fired.
"""

from __future__ import annotations

import time
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from branchbench import bench, branching, generators, model, propagation, search, stats

SPANS = (
    "search.solve",
    "heuristics.select_variable",
    "branching.plan",
    "heuristics.score_domain",
    "clustering.xmeans",
    "propagation.propagate",
    "propagation.establish_root_gac",
    "model.undo_to",
    "model.tables",
    "generators.build",
    "instance_io.parse_instance",
    "bench.run_bench",
    "stats.format_report",
)


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Span and counter store; ``installed()`` puts the wrappers in place."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self.counts: Counter = Counter()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self._compiled: dict[int, weakref.ref] = {}

    def _span(self, name: str, fn):
        name_id = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the boundaries for the duration of the block."""
        counts = self.counts
        patches = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def solve(*args, _solve=search.solve, **kwargs):
            out = _solve(*args, **kwargs)
            counts["search.nodes"] += out.stats.nodes
            counts["search.wipeouts"] += out.stats.wipeouts
            counts["search.backtracks"] += out.stats.backtracks
            return out

        def plan(*args, _plan=search.plan):
            out = _plan(*args)
            if any(len(s) > 1 for s in out.sets):
                counts["branching.set_plans"] += 1
            return out

        def xmeans(*args, _xmeans=branching.xmeans, **kwargs):
            out = _xmeans(*args, **kwargs)
            if out.k == 1:
                counts["clustering.k1"] += 1
            return out

        def revise(*args, _revise=propagation.revise):
            counts["propagation.revisions"] += 1
            removed = _revise(*args)
            if removed:
                counts["propagation.revisions_effective"] += 1
            return removed

        def undo_to(state, token, _undo=model.SearchState.undo_to):
            before = len(state.trail)
            _undo(state, token)
            counts["model.trail_restored"] += before - len(state.trail)

        def parse_instance(text, _parse=bench.parse_instance):
            counts["instance_io.bytes_parsed"] += len(text.encode())
            return _parse(text)

        tables_getter = model.Problem.tables.fget
        compiled = self._compiled

        def tables(problem):
            # a problem's first request compiles its tables; the weak
            # reference drops the id when the problem dies, so a reused id
            # counts again without keeping every problem alive
            key = id(problem)
            if key not in compiled:
                compiled[key] = weakref.ref(problem, lambda _, key=key: compiled.pop(key, None))
                counts["model.compile_calls"] += 1
            return tables_getter(problem)

        span = self._span
        try:
            traced_solve = span("search.solve", solve)
            patch(search, "solve", traced_solve)
            patch(bench, "solve", traced_solve)
            patch(search, "select_variable",
                  span("heuristics.select_variable", search.select_variable))
            patch(search, "plan", span("branching.plan", plan))
            patch(branching, "score_domain",
                  span("heuristics.score_domain", branching.score_domain))
            patch(branching, "xmeans", span("clustering.xmeans", xmeans))
            patch(search, "propagate", span("propagation.propagate", search.propagate))
            patch(search, "establish_root_gac",
                  span("propagation.establish_root_gac", search.establish_root_gac))
            patch(model.SearchState, "undo_to", span("model.undo_to", undo_to))
            patch(model.Problem, "tables", property(span("model.tables", tables)))
            patch(generators.GenSpec, "build",
                  span("generators.build", generators.GenSpec.build))
            patch(bench, "parse_instance", span("instance_io.parse_instance", parse_instance))
            patch(bench, "run_bench", span("bench.run_bench", bench.run_bench))
            patch(stats, "format_report", span("stats.format_report", stats.format_report))
            patch(propagation, "revise", revise)
            for owner in (model, propagation, search):
                patch(owner, "check_tuple",
                      counted("model.check_tuple_calls", owner.check_tuple))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, SpanTotals]:
        """Calls, total and self time per span name; clears the spans."""
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(SPANS)
        total = [0.0] * len(SPANS)
        own = [0.0] * len(SPANS)
        for i in range(n):
            k = names[i]
            d = ends[i] - starts[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        for arr in (names, parents, starts, ends):
            del arr[:]
        self._compiled.clear()
        return {name: SpanTotals(calls[k], total[k], own[k]) for k, name in enumerate(SPANS)}

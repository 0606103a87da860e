"""The benchmark's tracer patches library names and reads library results.

``perfbench/tracing.py`` wraps module attributes it looks up by name
(``owner.__dict__[attr]``), so a library change that removes or renames one
of them breaks every traced benchmark run.  Its ``plan`` wrapper also reads
``len(s)`` for each ``s`` in ``BranchPlan.sets`` to count set plans, and its
``undo_to`` wrapper reads ``len(state.trail)``.  Entering and leaving the
tracer's context, and short traced solves, catch all of these in seconds.  ``perfbench/run.py`` reads ``branchbench.SCHEME_NAMES`` from the
package itself, which is the one name the package re-exports.
"""

from pathlib import Path

import pytest

import branchbench
from branchbench import branching, propagation, search
from branchbench.branching import parse_scheme
from branchbench.generators import gen_langford
from util import PINS
import write_golden

ROOT = Path(__file__).resolve().parent.parent


def test_package_exports_the_scheme_names():
    assert branchbench.SCHEME_NAMES == branching.SCHEME_NAMES


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    originals = (propagation.revise, search.solve, search.plan)
    with Tracer().installed():
        assert propagation.revise is not originals[0]
    assert (propagation.revise, search.solve, search.plan) == originals


def test_traced_solve_counts_set_plans_and_runs_the_same_search(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    # clust-2way branches on a set at a few choice points of this instance
    source, scheme_name = "gen forced n=30 d=20 p1=150 p2=180 seed=1", "clust-2way"
    problem = write_golden.load_source(source, ROOT / "tests" / "golden")
    scheme = parse_scheme(scheme_name)
    untraced = search.solve(problem, scheme)
    tracer = Tracer()
    with tracer.installed():
        traced = search.solve(problem, scheme)
    assert tracer.counts["branching.set_plans"] > 0
    assert traced.stats.nodes == untraced.stats.nodes
    assert traced.status is untraced.status
    # as in test_traced_solve_makes_the_pinned_revise_calls
    pinned = PINS["revise_counts"][source][scheme_name]
    assert tracer.counts["propagation.revisions"] == pinned["revisions"]
    assert tracer.counts["propagation.revisions_effective"] == pinned["revisions_effective"]


@pytest.mark.parametrize(
    "source, scheme",
    [
        ("gen langford n=6", "2way"),
        ("gen langford n=6", "dway"),
        # ternary allowed tables and sums: revised by scanning compiled rows
        ("file nary.csp", "dway"),
        # ne constraints only: a walk of more than one value lists none of
        # them and a singleton's walk ANDs them itself, so the pin is zero
        ("gen qwh order=9 holes=50 seed=1", "dway"),
    ],
    # named by instance and scheme only, so a re-pinned count keeps the name
    ids=["langford 6-2way", "langford 6-dway", "nary-dway", "qwh 9-dway"],
)
def test_traced_solve_makes_the_pinned_revise_calls(monkeypatch, source, scheme):
    """Every revise call counts, including those that remove nothing: the
    walks of variables with more than one value and every non-binary arc
    make them.  A singleton's walk revises its binary arcs itself, with one
    AND, and makes no revise call for them.

    The removals show only the revisions that remove values; the number of
    revise calls is pinned in ``tests/golden/pins.json``, so a queue change
    that revises more or fewer arcs (the same fixpoint, at a different cost)
    shows.  A case missing from the pins fails with a KeyError.
    """
    monkeypatch.syspath_prepend(str(ROOT))
    pinned = PINS["revise_counts"][source][scheme]
    problem = write_golden.load_source(source, ROOT / "tests" / "golden")
    assert write_golden.revise_counts(problem, scheme) == pinned


def test_traced_solve_fires_the_undo_span_and_counts_restored_levels(monkeypatch):
    """``model.undo_to`` is a span, and ``model.trail_restored`` adds how far
    each call shortens ``state.trail``.  A frame undoes only the one level
    its branch opened, so the counter moves by one per call, and search
    makes one call per backtrack.  ``scripts/perf.py`` fails a run whose
    counter never moves."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        out = search.solve(gen_langford(6), parse_scheme("2way"))
    undo = tracer.summary()["model.undo_to"]
    assert undo.calls == out.stats.backtracks > 0
    assert tracer.counts["model.trail_restored"] == undo.calls

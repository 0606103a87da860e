"""The benchmark's tracer patches library names and reads library results.

``perfbench/tracing.py`` wraps module attributes it looks up by name
(``owner.__dict__[attr]``), so a library change that removes or renames one
of them breaks every traced benchmark run.  Its ``plan`` wrapper also reads
``len(s)`` for each ``s`` in ``BranchPlan.sets`` to count set plans.  Entering
and leaving the tracer's context, and one short traced solve, catch both in
seconds.
"""

from pathlib import Path

from branchbench import propagation, search
from branchbench.branching import parse_scheme
from branchbench.generators import gen_forced

ROOT = Path(__file__).resolve().parent.parent


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
    problem = gen_forced(30, 20, 150, 180, 1)
    scheme = parse_scheme("clust-2way")
    untraced = search.solve(problem, scheme)
    tracer = Tracer()
    with tracer.installed():
        traced = search.solve(problem, scheme)
    assert tracer.counts["branching.set_plans"] > 0
    assert traced.stats.nodes == untraced.stats.nodes
    assert traced.status is untraced.status

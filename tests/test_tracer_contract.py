"""The benchmark's tracer patches library names; they must all exist.

``perfbench/tracing.py`` wraps module attributes it looks up by name
(``owner.__dict__[attr]``), so a library change that removes or renames one
of them breaks every traced benchmark run.  Entering and leaving the
tracer's context here catches that in milliseconds.
"""

from pathlib import Path

from branchbench import propagation, search

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    originals = (propagation.revise, search.solve, search.plan)
    with Tracer().installed():
        assert propagation.revise is not originals[0]
    assert (propagation.revise, search.solve, search.plan) == originals

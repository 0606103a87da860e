"""Golden behaviour corpus: the search must match the records pinned on disk.

``scripts/write_golden.py`` wrote ``tests/golden/corpus.jsonl``; this test
re-solves every (instance, scheme) pair with the same record function and
compares status, counters and trace hash.  A change that alters the search on
purpose regenerates the corpus with that script and says so.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("write_golden", ROOT / "scripts" / "write_golden.py")
write_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_golden)

RECORDS = [
    json.loads(line)
    for line in (GOLDEN / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
]


def test_corpus_covers_every_source_and_scheme():
    from branchbench.branching import SCHEME_NAMES

    pairs = [(r["source"], r["scheme"]) for r in RECORDS]
    assert pairs == [(s, k) for s in write_golden.SOURCES for k in SCHEME_NAMES]


def test_nary_file_is_the_written_instance():
    from branchbench.instance_io import serialize_instance

    text = (GOLDEN / write_golden.NARY_FILE).read_text(encoding="utf-8")
    assert text == serialize_instance(write_golden.nary_problem())


@pytest.mark.parametrize("source", write_golden.SOURCES)
def test_search_matches_golden_records(source):
    problem = write_golden.load_source(source, GOLDEN)
    for pinned in (r for r in RECORDS if r["source"] == source):
        assert write_golden.record(source, problem, pinned["scheme"]) == pinned


@pytest.mark.parametrize("source", write_golden.SOURCES)
def test_walk_tables_list_the_arcs_the_slack_test_keeps(source):
    """``walk[x][s]`` lists, in ascending ``(cid, var)`` order, the arcs of
    every constraint on ``x`` at its other scope variables whose slack ``s``
    does not exceed, for every size ``s`` of ``x``; equal tuples are one
    object."""
    problem = write_golden.load_source(source, GOLDEN)
    tables = problem.tables
    arcs_of = list(zip(tables.arc_cid, tables.arc_var))
    assert arcs_of == sorted((c.cid, y) for c in problem.constraints for y in c.scope)
    for x in range(problem.n_vars):
        arcs = [
            a for a, (cid, y) in enumerate(arcs_of)
            if y != x and x in problem.constraints[cid].scope
        ]
        walk = tables.walk[x]
        for s in range(1, len(tables.values[x]) + 1):
            assert walk[s] == tuple(a for a in arcs if s <= tables.arc_slack[a])
        assert len({id(t) for t in walk[1:]}) == len(set(walk[1:]))

"""Golden behaviour corpus: the search must match the records pinned on disk.

``scripts/write_golden.py`` wrote ``tests/golden/corpus.jsonl``; this test
re-solves every (instance, scheme) pair with the same record function and
compares status, counters and trace hash.  A change that alters the search on
purpose regenerates every pin with that script and says so.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from util import PINS
import write_golden

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

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


def test_pins_hold_every_case_workload_and_seed():
    # a dropped or extra entry fails here, not as a skipped or missing case
    assert sorted(PINS) == ["benchmark", "revise_counts", "tie_free_seeds"]
    cases = [(s, k) for s, by_scheme in PINS["revise_counts"].items() for k in by_scheme]
    assert sorted(cases) == sorted(write_golden.REVISE_CASES)
    assert sorted(PINS["benchmark"]) == sorted(write_golden.WORKLOADS)
    assert len(PINS["tie_free_seeds"]) == 30


# the tail of one traced perfbench/run.py output, as bench_pin reads it
RUN_OUTPUT = "\n".join([
    "metrics:",
    "search_digest " + "0f" * 32,
    json.dumps({"correct": True, "metrics": {
        "propagation.revisions": {"value": 1234.0, "unit": "count"},
        "propagation.revisions_effective": {"value": 56, "unit": "count"},
    }}),
]) + "\n"


def test_bench_pin_reads_the_digest_and_both_counts():
    pin = write_golden.bench_pin(0, RUN_OUTPUT)
    assert pin == {"search_digest": "0f" * 32, "revisions": 1234, "revisions_effective": 56}
    assert type(pin["revisions"]) is int and type(pin["revisions_effective"]) is int


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (1, RUN_OUTPUT),
        (0, RUN_OUTPUT.replace("search_digest ", "")),
        (0, RUN_OUTPUT + "FAIL proof: traced nodes differ\n"),
    ],
    ids=["non-zero exit", "no digest line", "last line not JSON"],
)
def test_bench_pin_rejects_a_failed_run(returncode, stdout):
    with pytest.raises(ValueError):
        write_golden.bench_pin(returncode, stdout)


@pytest.mark.parametrize("source", write_golden.SOURCES)
def test_search_matches_golden_records(source):
    problem = write_golden.load_source(source, GOLDEN)
    for pinned in (r for r in RECORDS if r["source"] == source):
        assert write_golden.record(source, problem, pinned["scheme"]) == pinned


@pytest.mark.parametrize("source", write_golden.SOURCES)
def test_walk_tables_list_the_arcs_the_slack_test_keeps(source):
    """``walk[x][s]`` lists, in ascending ``(cid, var)`` order, the entries
    of the arcs of every constraint on ``x`` at its other scope variables
    whose slack (by ``oracles.binary_slack``) ``s`` does not exceed, for
    every size ``s`` of ``x``; ``tables.unary`` lists the unary arcs; each
    entry carries the arc's own fields, and equal tuples are one object."""
    from branchbench.model import CHUNK_BITS
    from oracles import binary_slack
    from util import arc_ids

    problem = write_golden.load_source(source, GOLDEN)
    tables = problem.tables
    arcs_of = arc_ids(problem)
    # every arc's entry: the unary ones, and those a walk lists at size 0
    entries = {e[0]: e for e in tables.unary}
    for walk in tables.walk:
        for e in walk[0]:
            assert entries.setdefault(e[0], e) is e
    assert sorted(entries) == list(range(len(arcs_of)))
    for a, (b, cid, y, opp) in sorted(entries.items()):
        assert (b, (cid, y)) == (a, arcs_of[a])
        assert y == tables.arc_var[a]
        # opp[j], the supports of partner bit j, is the cover entry of that bit alone
        cover = tables.arc_cover[a]
        assert (opp is None) == (cover is None)
        if opp is not None:
            assert opp == tuple(
                cover[j // CHUNK_BITS][1 << j % CHUNK_BITS] for j in range(len(opp))
            )
    # a non-binary arc has no slack: every size lists it
    slack = [
        binary_slack(problem.constraints[cid], problem.domains, y)
        if len(problem.constraints[cid].scope) == 2 else float("inf")
        for cid, y in arcs_of
    ]
    for x in range(problem.n_vars):
        arcs = [
            a for a, (cid, y) in enumerate(arcs_of)
            if y != x and x in problem.constraints[cid].scope
        ]
        walk = tables.walk[x]
        for s in range(1, len(tables.values[x]) + 1):
            assert tuple(e[0] for e in walk[s]) == tuple(a for a in arcs if s <= slack[a])
            for entry in walk[s]:
                assert entry is entries[entry[0]]
        assert len({id(t) for t in walk[1:]}) == len(set(walk[1:]))

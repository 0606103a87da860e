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
import perf
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


def pin_of(returncode, stdout):
    """``bench_pin`` of one run, given its result as ``perf.run`` reads it."""
    return write_golden.bench_pin(perf.parse_result(returncode, stdout), stdout)


def test_bench_pin_reads_the_digest_and_both_counts():
    pin = pin_of(0, RUN_OUTPUT)
    assert pin == {"search_digest": "0f" * 32, "revisions": 1234, "revisions_effective": 56}
    assert type(pin["revisions"]) is int and type(pin["revisions_effective"]) is int


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (1, RUN_OUTPUT),
        (0, RUN_OUTPUT.replace("search_digest ", "")),
        (0, RUN_OUTPUT + "FAIL proof: traced nodes differ\n"),
        (0, RUN_OUTPUT + json.dumps({"correct": True, "metrics": {}}) + "\n"),
    ],
    ids=["non-zero exit", "no digest line", "last line not JSON", "no revision counts"],
)
def test_bench_pin_rejects_a_failed_run(returncode, stdout):
    with pytest.raises(ValueError):
        pin_of(returncode, stdout)


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
    every size ``s`` of ``x``; a unary constraint has no arc and cuts its
    variable's root mask instead; each entry carries the arc's own fields,
    and equal tuples are one object."""
    from branchbench.model import check_tuple
    from oracles import binary_slack
    from util import arc_entries

    problem = write_golden.load_source(source, GOLDEN)
    tables = problem.tables
    entries = arc_entries(problem)
    assert all(len(problem.constraints[e[0]].scope) > 1 for e in entries)
    assert tables.root_masks == [
        sum(1 << i for i, v in enumerate(dom)
            if all(check_tuple(c, (v,)) for c in problem.constraints if c.scope == (x,)))
        for x, dom in enumerate(problem.domains)
    ]
    for cid, y, _, partner in entries:
        scope = problem.constraints[cid].scope
        if len(scope) != 2:
            assert partner is None
            continue
        (other,) = (z for z in scope if z != y)
        assert partner == other
    # a non-binary arc has no slack: every size lists it
    slack = [
        binary_slack(problem.constraints[e[0]], problem.domains, e[1])
        if e[3] is not None else float("inf")
        for e in entries
    ]
    for x in range(problem.n_vars):
        arcs = [
            (e, sl) for e, sl in zip(entries, slack)
            if e[1] != x and x in problem.constraints[e[0]].scope
        ]
        walk = tables.walk[x]
        for s in range(1, len(problem.domains[x]) + 1):
            listed = [e for e, sl in arcs if s <= sl]
            assert len(walk[s]) == len(listed)
            assert all(got is e for got, e in zip(walk[s], listed))
        assert len({id(t) for t in walk[1:]}) == len(set(walk[1:]))

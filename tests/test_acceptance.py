"""Acceptance checks, one test per shipping criterion.

Each test prints a single PASS line when its criterion holds; a pytest
failure on any of them is the corresponding FAIL line.  Stated wall-clock
budgets are asserted, so a pathological slowdown fails loudly instead of
silently degrading.
"""

import math
import time
from pathlib import Path

import pytest

from branchbench.bench import RunRecord, read_csv
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.clustering import bic, xmeans
from branchbench.cli import main
from branchbench.generators import (
    GenSpec,
    gen_forced,
    gen_langford,
    gen_pigeons,
    gen_qwh,
    gen_randomb,
)
from branchbench.model import SearchState
from branchbench.propagation import establish_root_gac
from branchbench.search import Status, solve, verify
from branchbench.stats import categorize, folded_ratio, paired_ttest
from oracles import best_contiguous_partition, brute_force_sat, gac_fixpoint
from util import PINS, domain_values, random_problem, score_vector
import write_golden

ALL_SCHEMES = tuple(parse_scheme(name) for name in SCHEME_NAMES)


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num} PASS - {detail}")


def test_criterion_1_verdicts_match_brute_force():
    started = time.monotonic()
    sat = unsat = 0
    for seed in range(500):
        problem = random_problem(seed, max_vars=6, max_dom=5)
        expected = brute_force_sat(problem)
        sat += expected
        unsat += not expected
        for scheme in ALL_SCHEMES:
            out = solve(problem, scheme)
            assert (out.status is Status.SAT) == expected, (seed, scheme.name)
            if expected:
                assert verify(problem, out.assignment), (seed, scheme.name)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(1, f"500 instances ({sat} sat, {unsat} unsat) x 7 schemes, {elapsed:.1f}s")


def test_criterion_2_propagation_reaches_oracle_fixpoint():
    started = time.monotonic()
    wipeouts = 0
    for seed in range(1000):
        problem = random_problem(seed)
        state = SearchState(problem)
        state.push_level()
        wiped = not establish_root_gac(state)
        expected = gac_fixpoint(problem)
        if wiped:
            wipeouts += 1
            assert expected is None, seed
            continue
        got = [domain_values(state, x) for x in range(problem.n_vars)]
        assert got == expected, seed
        assert establish_root_gac(state), seed
        after = [domain_values(state, x) for x in range(problem.n_vars)]
        assert after == got, seed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(2, f"1000 instances ({wipeouts} root wipeouts), fixpoint + idempotence, {elapsed:.1f}s")


# randomb instances whose full searches never see a promise tie under the
# plain schemes, pinned by scripts/write_golden.py from its tie_free_seeds
# scan, whose docstring states the rule (criterion 3 re-checks each seed
# below with the writer's promise_ties, and
# test_tie_free_seeds_are_the_scan_result the pin)
TIE_FREE_SEEDS = PINS["tie_free_seeds"]


def test_tie_free_seeds_are_the_scan_result():
    assert TIE_FREE_SEEDS == write_golden.tie_free_seeds()


def traced(problem, scheme_name, **scheme_kwargs):
    trace: list[str] = []
    out = solve(problem, parse_scheme(scheme_name, **scheme_kwargs), trace=trace)
    return out, trace


def test_criterion_3_degenerate_schemes_equal_their_base():
    checked_nodes = 0
    with write_golden.promise_ties() as ties:
        for seed in TIE_FREE_SEEDS:
            problem = gen_randomb(16, 10, 70, 41, seed)
            for tied, base in (("ties-dway", "dway"), ("ties-2way", "2way")):
                out_t, trace_t = traced(problem, tied)
                out_b, trace_b = traced(problem, base)
                assert trace_t == trace_b, (seed, tied)
                assert out_t.status is out_b.status
                checked_nodes += out_b.stats.nodes
            assert not ties, (seed, "promise tie at a branch node")

    for seed in range(50):
        problem = random_problem(seed)
        for clustered, base in (("clust-dway", "dway"), ("clust-2way", "2way")):
            _, trace_c = traced(problem, clustered, kmax=1)
            _, trace_b = traced(problem, base)
            assert trace_c == trace_b, (seed, clustered)

    for seed in range(50, 100):
        problem = random_problem(seed)
        _, trace_s = traced(problem, "split", threshold_fraction=1)
        _, trace_b = traced(problem, "2way")
        assert trace_s == trace_b, seed

    report(
        3,
        f"ties=base over {len(TIE_FREE_SEEDS)} tie-free runs ({checked_nodes} nodes), "
        "clust kmax=1 and split threshold=1 collapse on 50 instances each",
    )


def test_criterion_4_family_ground_truth():
    started = time.monotonic()
    for n in range(2, 9):
        problem = gen_pigeons(n)
        for scheme in ALL_SCHEMES:
            assert solve(problem, scheme).status is Status.UNSAT, (n, scheme.name)

    for n in range(3, 9):
        problem = gen_langford(n)
        expected_sat = n % 4 in (0, 3)
        for scheme in ALL_SCHEMES:
            out = solve(problem, scheme)
            assert (out.status is Status.SAT) == expected_sat, (n, scheme.name)
            if expected_sat:
                assert verify(problem, out.assignment)

    hard = gen_langford(10)
    for scheme in ALL_SCHEMES:
        assert solve(hard, scheme).status is Status.UNSAT, scheme.name

    forced_params = ((16, 10, 70, 44, 1), (16, 10, 70, 44, 2), (12, 8, 60, 50, 4))
    for params in forced_params:
        problem = gen_forced(*params)
        for scheme in ALL_SCHEMES:
            out = solve(problem, scheme)
            assert out.status is Status.SAT, (params, scheme.name)
            assert verify(problem, out.assignment)

    qwh_params = ((4, 12, 2), (4, 16, 3), (5, 14, 1))
    for params in qwh_params:
        problem = gen_qwh(*params)
        for scheme in ALL_SCHEMES:
            out = solve(problem, scheme)
            assert out.status is Status.SAT, (params, scheme.name)
            assert verify(problem, out.assignment)

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(4, f"pigeons 2..8, langford 3..8 + 10, forced, qwh x 7 schemes, {elapsed:.1f}s")


def achieved_bic(scores, clustering):
    pts = [float(s) for s in scores]
    assignment = [0] * len(pts)
    for j, cluster in enumerate(clustering.clusters):
        for i in cluster:
            assignment[i] = j
    centroids = [sum(pts[i] for i in c) / len(c) for c in clustering.clusters]
    return bic(pts, assignment, centroids)


def test_criterion_5_clustering_matches_exhaustive_oracle():
    started = time.monotonic()

    cl = xmeans([1.0, 1.0, 1.0, 10.0, 10.0])
    assert cl.k == 2 and cl.clusters == ((3, 4), (0, 1, 2))
    assert xmeans([7.0] * 9).k == 1

    for seed in range(200):
        scores = score_vector(seed)
        assert len(scores) <= 30
        cl = xmeans(scores, kmax=4)

        flat = sorted(i for c in cl.clusters for i in c)
        assert flat == list(range(len(scores))), seed
        assert 1 <= cl.k <= min(4, len(set(scores))), seed
        label = {i: j for j, c in enumerate(cl.clusters) for i in c}
        for i, a in enumerate(scores):
            for other in range(i + 1, len(scores)):
                if scores[other] == a:
                    assert label[i] == label[other], seed
        for j in range(cl.k - 1):
            assert min(scores[i] for i in cl.clusters[j]) > max(
                scores[i] for i in cl.clusters[j + 1]
            ), seed

        _, best = best_contiguous_partition(scores, 4)
        assert achieved_bic(scores, cl) == pytest.approx(best, abs=1e-9), seed

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(5, f"hand cases + 200 vectors, BIC within 1e-9 of oracle, {elapsed:.1f}s")


def test_criterion_6_statistics_closed_forms():
    # a two-point sample constructed to have exactly this mean and sd
    delta = 456.0 * math.sqrt(59.0 / 60.0)
    diffs = [-241.0 - delta] * 30 + [-241.0 + delta] * 30
    r = paired_ttest(diffs)
    assert r.n == 60
    assert r.mean == pytest.approx(-241.0, abs=1e-9)
    assert r.sd == pytest.approx(456.0, rel=1e-12)
    assert -4.15 <= r.t <= -4.05
    assert abs(r.ci95[0] - (-358.8)) <= 3.0
    assert abs(r.ci95[1] - (-123.2)) <= 3.0

    assert folded_ratio(250.0, 100.0) == 2.5
    assert folded_ratio(100.0, 250.0) == -2.5
    assert folded_ratio(7.0, 7.0) == 1.0

    def rec(instance, scheme, ms, status="sat"):
        return RunRecord(instance, scheme, status, 10, 5, 1, 0, ms)

    records = [
        rec("a-1", "dway", 100.0), rec("a-1", "split", 40.0),   # 2.5x faster
        rec("a-2", "dway", 30.0), rec("a-2", "split", 90.0),    # 3x slower
        rec("a-3", "dway", 50.0), rec("a-3", "split", 50.0),    # even
        rec("a-4", "dway", 10.0), rec("a-4", "split", 1.0, status="limit"),
    ]
    (row,) = categorize(records, "dway")
    assert row.pairs == 3 and row.excluded == 1
    third = pytest.approx(100.0 / 3.0)
    assert row.percentages[">1"] == third and row.percentages[">2"] == third
    assert row.percentages[">3"] == 0.0
    assert row.percentages["<1"] == third
    assert row.percentages["<2"] == third and row.percentages["<3"] == third

    report(6, f"n=60 sample: t={r.t:.3f}, ci=({r.ci95[0]:.1f}, {r.ci95[1]:.1f}); fold/bucket conventions exact")


def test_criterion_7_determinism():
    instances = (
        gen_pigeons(6),
        gen_langford(4),
        gen_randomb(16, 10, 70, 41, 5),
    )
    for problem in instances:
        for scheme in ALL_SCHEMES:
            first: list[str] = []
            second: list[str] = []
            a = solve(problem, scheme, trace=first)
            b = solve(problem, scheme, trace=second)
            assert first == second
            assert a.stats.nodes == b.stats.nodes
            assert a.stats.decisions == b.stats.decisions

    specs = (
        "pigeons n=6", "langford n=7", "randomb n=10 d=6 p1=25 p2=30 seed=9",
        "forced n=10 d=6 p1=25 p2=30 seed=9", "qwh order=4 holes=9 seed=3",
        "coloring n=10 edges=20 k=3 seed=2",
    )
    from branchbench.instance_io import serialize_instance

    for text in specs:
        once = serialize_instance(GenSpec.parse(text).build())
        again = serialize_instance(GenSpec.parse(text).build())
        assert once == again, text

    report(7, "repeated solves trace-identical; generator output byte-identical")


DESK_SUITE = Path(__file__).resolve().parent.parent / "suites" / "desk.txt"


def test_criterion_8_end_to_end_pipeline(tmp_path, capsys):
    started = time.monotonic()
    results = tmp_path / "results.csv"

    # every scheme by default, as in the desk sweep of the README
    assert main(["bench", "--manifest", str(DESK_SUITE), "--out", str(results)]) == 0
    with open(results, encoding="utf-8", newline="") as fh:
        records = read_csv(fh)
    assert len(records) == 20 * 7
    assert {r.scheme for r in records} == set(SCHEME_NAMES)
    assert all(r.status in ("sat", "unsat") for r in records)

    capsys.readouterr()
    assert main(["stats", "--results", str(results), "--baseline", "2way"]) == 0
    out = capsys.readouterr().out
    assert "mean folded ratios vs 2way" in out
    assert "% of instances faster" in out
    assert "paired t-test" in out
    # a complete report: no empty fold cells, no underpopulated t-tests
    assert "(not enough pairs)" not in out
    # 6 instance classes x 6 non-baseline schemes in the speedup table,
    # every time and node fold populated with a number
    lines = out.splitlines()
    classes = {"pigeons", "langford", "coloring", "randomb", "forced", "qwh"}
    fold_rows = [l.split() for l in lines if l.split() and l.split()[0] in classes]
    assert len(fold_rows) == 36
    for cls, scheme_name, time_fold, node_fold, pairs in fold_rows:
        float(time_fold)
        float(node_fold)
        assert int(pairs) > 0

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(8, f"gen -> bench (20 x 7) -> stats complete report, {elapsed:.1f}s")

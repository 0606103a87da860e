"""``scripts/pairs.py``: result parsing, the sign test and the table, on
canned ``perfbench/run.py`` output."""

import json

import pytest

import pairs
import perf


def run_output(correct=True, failed=0, digest="0f" * 32, **values):
    """The tail of one untraced ``run.py --workload W`` output."""
    metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
    return "\n".join([
        "metrics:",
        "search_digest " + digest,
        json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def parse_run(workload, returncode, stdout):
    """What ``pairs.py`` keeps of one run: ``perf.run``'s parse, then its own check."""
    return pairs.metrics_of(workload, perf.parse_result(returncode, stdout))


def test_parse_run_names_each_metric_by_its_workload():
    got = parse_run("proof", 0, run_output(solve_s=1.25, nodes=40609))
    assert got == {"proof.solve_s": 1.25, "proof.nodes": 40609.0}


def test_parse_run_keeps_the_names_of_an_all_run():
    got = parse_run("all", 0, run_output(**{"sets.wall_s": 2.0, "sweep.wall_s": 0.4}))
    assert got == {"sets.wall_s": 2.0, "sweep.wall_s": 0.4}


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (1, run_output(correct=False, failed=1, solve_s=1.0)),
        (0, run_output(correct=False, failed=0, solve_s=1.0)),
        (0, run_output(failed=2, solve_s=1.0)),
        (1, run_output(solve_s=1.0)),
        (0, run_output(solve_s=1.0) + "FAIL proof: nodes differ\n"),
        (2, ""),
    ],
    ids=["failed task", "incorrect", "failed count", "non-zero exit", "last line not JSON",
         "no output"],
)
def test_parse_run_rejects_a_failed_run(returncode, stdout):
    assert parse_run("proof", returncode, stdout) is None


def test_sign_test_is_exact_and_two_sided():
    assert round(pairs.sign_test(9, 1), 3) == 0.021
    assert round(pairs.sign_test(8, 2), 3) == 0.109
    assert pairs.sign_test(1, 9) == pairs.sign_test(9, 1)
    assert pairs.sign_test(10, 0) == 2 / 1024
    assert pairs.sign_test(5, 5) == pairs.sign_test(0, 0) == 1.0


def test_summary_counts_the_pairs_the_change_is_better_in():
    better = {"solve_s": "lower", "nodes_per_s": "higher", "nodes": "lower"}
    base = [{"proof.solve_s": s, "proof.nodes_per_s": 100.0 / s, "proof.nodes": 7.0}
            for s in (1.2, 1.3, 1.25, 1.22, 1.31, 1.24, 1.28, 1.21, 1.26, 1.27)]
    change = [{"proof.solve_s": s * 0.9, "proof.nodes_per_s": 100.0 / (s * 0.9),
               "proof.nodes": 7.0} for s in (1.2, 1.3, 1.25, 1.22, 1.31, 1.24, 1.28, 1.21,
                                             1.26, 1.5)]
    header, *rows = pairs.summary_rows(base, change, better)
    assert [r.split()[0] for r in rows] == ["proof.solve_s", "proof.nodes_per_s", "proof.nodes"]
    solve, rate, nodes = (r.split() for r in rows)
    assert solve[-2:] == ["9/10", "0.021"] and rate[-2:] == ["9/10", "0.021"]
    # equal counts are ties: no pair is won and p is 1
    assert nodes[-3:] == ["1.000", "0/10", "1.000"]
    assert float(solve[1]) == pytest.approx(1.255)



def pair_differences(workload, base_stdout, change_stdout):
    """What ``pairs.py --same-search`` fails a pair on, from both sides' output."""
    return pairs.search_differences(
        workload,
        (parse_run(workload, 0, base_stdout), base_stdout),
        (parse_run(workload, 0, change_stdout), change_stdout),
    )


def all_output(*digests):
    """``run.py --workload all``: each child's output, then the merged line."""
    metrics = {f"{w}.nodes": {"value": 7, "unit": "count"} for w in pairs.WORKLOADS}
    merged = {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}
    return "".join(run_output(digest=d, nodes=7) for d in digests) + json.dumps(merged) + "\n"


def test_same_search_fails_a_pair_whose_digests_differ_with_equal_nodes():
    same = run_output(solve_s=1.0, nodes=40609)
    assert pair_differences("proof", same, same) == []
    assert pair_differences("proof", same, run_output(digest="1e" * 32, solve_s=1.0,
                                                      nodes=40609)) == ["proof.search_digest"]
    assert pair_differences("proof", same, run_output(solve_s=1.0, nodes=40610)) == [
        "proof.nodes"
    ]
    # a side that printed no digest line differs too
    assert pair_differences("proof", same, same.replace("search_digest ", "digest ")) == [
        "proof.search_digest"
    ]
    # in an all run, the differing line names its workload
    base = all_output("0f" * 32, "3c" * 32, "2d" * 32)
    assert pair_differences("all", base, base) == []
    assert pair_differences("all", base, all_output("0f" * 32, "4b" * 32, "2d" * 32)) == [
        "sets.search_digest"
    ]

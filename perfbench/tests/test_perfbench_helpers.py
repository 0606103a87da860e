"""Unit tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import hashlib
import json
from pathlib import Path

import pytest

from branchbench.branching import parse_scheme
from branchbench.instance_io import serialize_instance
from branchbench.search import Status, solve
from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_checker_accepts_a_solution_and_rejects_corruptions():
    inst = workloads._generated("forced n=12 d=6 p1=30 p2=20 seed=4", ("2way",))
    out = solve(inst.problem, parse_scheme("2way"))
    assert out.status is Status.SAT
    good = list(out.assignment)
    assert workloads.check_assignment(inst.problem, good) is None

    outside = good.copy()
    outside[0] = 99
    assert "outside its domain" in workloads.check_assignment(inst.problem, outside)
    assert "values for" in workloads.check_assignment(inst.problem, good[:-1])

    # some single-value change breaks a constraint of the planted instance
    violated = []
    for x in range(len(good)):
        for v in inst.problem.domains[x]:
            bad = good.copy()
            bad[x] = v
            msg = workloads.check_assignment(inst.problem, bad)
            if v != good[x] and msg is not None:
                violated.append(msg)
    assert violated and all("is violated by" in m for m in violated)


def test_checker_evaluates_nary_sums():
    inst = workloads.ternary_sums(3)
    out = solve(inst.problem, parse_scheme("dway"))
    assert out.status is Status.SAT
    assert workloads.check_assignment(inst.problem, out.assignment) is None
    c = next(c for c in inst.problem.constraints if c.relation.expr.op == "eq")
    bad = list(out.assignment)
    bad[c.scope[0]] = (bad[c.scope[0]] + 1) % len(inst.problem.domains[c.scope[0]])
    assert workloads.check_assignment(inst.problem, bad) is not None


@pytest.mark.parametrize(
    "make, tag, digest",
    [
        (workloads.ternary_allowed, 1,
         "67f7154ec9d6eea55909c5ef79eb202854c04a2c14c24bd725cc472415c5309b"),
        (workloads.ternary_sums, 1,
         "cec906734d2ce1976dc32fe358b7a366f5f17139793e53259335e320ac2de58c"),
    ],
)
def test_nary_instance_files_are_byte_stable(make, tag, digest):
    text = serialize_instance(make(tag).problem)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert serialize_instance(make(tag + 1).problem) != text


def test_sweep_files_depend_only_on_the_seed(tmp_path):
    sweep = workloads.WORKLOADS["sweep"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        workloads.set_up(sweep, seed, d)

    def files(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(dirs[0]) == files(dirs[1])
    assert len(files(dirs[0])) == 30
    assert files(dirs[0]) != files(dirs[2])
    nary = [name for name in files(dirs[0]) if name.startswith(("ternary-", "sums-"))]
    assert len(nary) == 4


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0], 0.9) == 3.0


@pytest.mark.parametrize("n", [1, 19, 20, 99, 100, 109, 110, 999, 1000, 5000, 20000])
def test_tail_quantile_keeps_ten_samples_beyond(n):
    q = run.tail_quantile(n)
    ladder = (0.5, 0.9, 0.99, 0.999)
    if q is None:
        assert all(run.samples_beyond(n, p) < run.TAIL_MIN for p in ladder)
        return
    assert run.samples_beyond(n, q) >= run.TAIL_MIN
    higher = [p for p in ladder if p > q]
    assert all(run.samples_beyond(n, p) < run.TAIL_MIN for p in higher)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)

#!/usr/bin/env python3
"""Single-command benchmark for the branchbench library.

    python3 perfbench/run.py --workload proof --seed 1 --seconds 20 --trace 0

Runs one workload (``proof``, ``sets`` or ``sweep``; ``all`` runs each in a
child process) in a closed loop for ``--seconds`` and prints its metrics by
name and unit, the search fingerprint of every task, and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  Times are
scaled to the machine's reference speed (``speed.py``).  The exit code is 1
when any check failed and 2 when the library cannot be imported from this
checkout's ``src``.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("proof", "sets", "sweep")
SCHEME_NAMES = ("dway", "2way", "split", "ties-dway", "ties-2way", "clust-dway", "clust-2way")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "nodes_per_s": "1/s",
    "nodes": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "propagation.propagate_s": "s",
    "propagation.root_gac_s": "s",
    "propagation.revisions": "count",
    "propagation.revisions_effective": "count",
    "propagation.effective_ratio": "ratio",
    "propagation.revisions_per_node": "ratio",
    "heuristics.select_s": "s",
    "heuristics.select_calls": "count",
    "heuristics.score_s": "s",
    "heuristics.score_calls": "count",
    "branching.plan_self_s": "s",
    "branching.plan_calls": "count",
    "branching.set_ratio": "ratio",
    "clustering.xmeans_s": "s",
    "clustering.xmeans_calls": "count",
    "clustering.k1_ratio": "ratio",
    "model.compile_s": "s",
    "model.compile_calls": "count",
    "model.undo_s": "s",
    "model.undo_calls": "count",
    "model.trail_restored": "count",
    "model.check_tuple_calls": "count",
    "instance_io.parse_s": "s",
    "instance_io.bytes_parsed": "bytes",
    "generators.build_s": "s",
    "bench.run_bench_self_s": "s",
    "bench.task_p50_ms": "ms",
    "bench.task_p90_ms": "ms",
    "bench.task_samples": "count",
    "stats.report_s": "s",
    "search.self_s": "s",
    "search.backtracks": "count",
    "search.wipeouts": "count",
    **{f"search.nodes_per_s.{scheme}": "1/s" for scheme in SCHEME_NAMES},
    "tracing_overhead_s": "s",
}

TAIL_MIN = 10  # samples that must lie beyond a reported tail percentile


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    return n - max(1, math.ceil(q * n))


def tail_quantile(n: int, ladder=(0.5, 0.9, 0.99, 0.999)) -> Optional[float]:
    """Highest quantile in ``ladder`` with at least TAIL_MIN samples beyond it."""
    best = None
    for q in ladder:
        if samples_beyond(n, q) >= TAIL_MIN:
            best = q
    return best


def _import_library() -> None:
    """Import branchbench from this checkout's ``src``, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import branchbench
    except ImportError as exc:
        print(f"perfbench: cannot import branchbench from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(branchbench.__file__).resolve().is_relative_to(src):
        print(f"perfbench: branchbench resolved to {branchbench.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    if tuple(branchbench.SCHEME_NAMES) != SCHEME_NAMES:
        print(f"perfbench: unexpected schemes {branchbench.SCHEME_NAMES}", file=sys.stderr)
        sys.exit(2)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _end_to_end(rounds) -> dict[str, float]:
    solve_s = [r.scale * sum(t.elapsed_ms for t in r.results) / 1000.0 for r in rounds]
    nodes = [sum(t.nodes for t in r.results) for r in rounds]
    return {
        "wall_s": statistics.median(r.scale * r.wall_s for r in rounds),
        "setup_s": statistics.median(r.scale * r.setup_s for r in rounds),
        "solve_s": statistics.median(solve_s),
        "nodes_per_s": statistics.median(n / s for n, s in zip(nodes, solve_s)),
        "nodes": statistics.median(nodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _task_percentiles(tasks: list[float]) -> tuple[float, float]:
    """p50 and p90 of the run_bench task times, and the tail they allow."""
    if not tasks:
        return 0.0, 0.0
    n = len(tasks)
    q = tail_quantile(n)
    tail = "none" if q is None else f"p{q * 100:g} = {percentile(tasks, q):.3f} ms"
    print(f"run_bench task times: {n} samples, {samples_beyond(n, 0.9)} beyond p90; "
          f"highest percentile with {TAIL_MIN} beyond: {tail}")
    return percentile(tasks, 0.5), percentile(tasks, 0.9)


def _per_layer(untraced, traced, summaries, counts) -> dict[str, float]:
    """Per-round means over the traced rounds; node rates from untraced ones."""
    k = len(traced)
    calls, total, own = {}, {}, {}
    for name in summaries[0]:
        calls[name] = sum(s[name].calls for s in summaries) / k
        total[name] = sum(r.scale * s[name].total_s for r, s in zip(traced, summaries)) / k
        own[name] = sum(r.scale * s[name].self_s for r, s in zip(traced, summaries)) / k
    c = {key: counts.get(key, 0) / k for key in (
        "propagation.revisions", "propagation.revisions_effective", "search.nodes",
        "branching.set_plans", "clustering.k1", "model.compile_calls",
        "model.trail_restored", "model.check_tuple_calls", "instance_io.bytes_parsed",
        "search.backtracks", "search.wipeouts",
    )}
    out = {
        "propagation.propagate_s": total["propagation.propagate"],
        "propagation.root_gac_s": total["propagation.establish_root_gac"],
        "propagation.revisions": c["propagation.revisions"],
        "propagation.revisions_effective": c["propagation.revisions_effective"],
        "propagation.effective_ratio": _ratio(
            c["propagation.revisions_effective"], c["propagation.revisions"]),
        "propagation.revisions_per_node": _ratio(c["propagation.revisions"], c["search.nodes"]),
        "heuristics.select_s": total["heuristics.select_variable"],
        "heuristics.select_calls": calls["heuristics.select_variable"],
        "heuristics.score_s": total["heuristics.score_domain"],
        "heuristics.score_calls": calls["heuristics.score_domain"],
        "branching.plan_self_s": own["branching.plan"],
        "branching.plan_calls": calls["branching.plan"],
        "branching.set_ratio": _ratio(c["branching.set_plans"], calls["branching.plan"]),
        "clustering.xmeans_s": total["clustering.xmeans"],
        "clustering.xmeans_calls": calls["clustering.xmeans"],
        "clustering.k1_ratio": _ratio(c["clustering.k1"], calls["clustering.xmeans"]),
        "model.compile_s": total["model.tables"],
        "model.compile_calls": c["model.compile_calls"],
        "model.undo_s": total["model.undo_to"],
        "model.undo_calls": calls["model.undo_to"],
        "model.trail_restored": c["model.trail_restored"],
        "model.check_tuple_calls": c["model.check_tuple_calls"],
        "instance_io.parse_s": total["instance_io.parse_instance"],
        "instance_io.bytes_parsed": c["instance_io.bytes_parsed"],
        "generators.build_s": total["generators.build"],
        "bench.run_bench_self_s": own["bench.run_bench"],
        "stats.report_s": total["stats.format_report"],
        "search.self_s": own["search.solve"],
        "search.backtracks": c["search.backtracks"],
        "search.wipeouts": c["search.wipeouts"],
    }
    # run_bench task latency, from the untraced rounds; only sweep calls run_bench
    tasks = []
    if calls["bench.run_bench"]:
        tasks = [r.scale * t.elapsed_ms for r in untraced for t in r.results]
    out["bench.task_p50_ms"], out["bench.task_p90_ms"] = _task_percentiles(tasks)
    out["bench.task_samples"] = len(tasks)
    for scheme in SCHEME_NAMES:
        done = [(r.scale, t) for r in untraced for t in r.results if t.scheme == scheme]
        seconds = sum(scale * t.elapsed_ms for scale, t in done) / 1000.0
        out[f"search.nodes_per_s.{scheme}"] = _ratio(sum(t.nodes for _, t in done), seconds)
    out["tracing_overhead_s"] = statistics.median(
        r.scale * r.wall_s for r in traced
    ) - statistics.median(r.scale * r.wall_s for r in untraced)
    return out


def _layer_shares(metrics: dict[str, float], traced_wall: float) -> None:
    layers = {
        "propagation": metrics["propagation.propagate_s"] + metrics["propagation.root_gac_s"],
        "heuristics": metrics["heuristics.select_s"] + metrics["heuristics.score_s"],
        "branching": metrics["branching.plan_self_s"],
        "clustering": metrics["clustering.xmeans_s"],
        "model": metrics["model.compile_s"] + metrics["model.undo_s"],
        "instance_io": metrics["instance_io.parse_s"],
        "generators": metrics["generators.build_s"],
        "bench": metrics["bench.run_bench_self_s"],
        "stats": metrics["stats.report_s"],
        "search": metrics["search.self_s"],
    }
    layers["(outside spans)"] = traced_wall - sum(layers.values())
    print(f"self time per layer, share of the traced round ({traced_wall:.3f} s):")
    for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<16} {seconds:10.4f} s {100.0 * seconds / traced_wall:6.1f}%")


def _self_check(workload_name, untraced, traced, summaries, counts) -> list[str]:
    """The traced run fired every boundary it should and ran the same search."""
    from perfbench.tracing import SPANS

    expected = {
        "search.solve", "heuristics.select_variable", "branching.plan",
        "heuristics.score_domain", "propagation.propagate",
        "propagation.establish_root_gac", "model.undo_to", "model.tables",
        "generators.build",
    }
    if workload_name == "sets":
        expected.add("clustering.xmeans")
    if workload_name == "sweep":
        expected = set(SPANS)
    failures = [
        f"traced run: span {name} never fired"
        for name in sorted(expected)
        if all(s[name].calls == 0 for s in summaries)
    ]
    for key in ("propagation.revisions", "model.check_tuple_calls"):
        if not counts.get(key):
            failures.append(f"traced run: counter {key} never moved")

    def totals(r):
        return (sum(t.nodes for t in r.results), sum(t.wipeouts for t in r.results))

    seen = {totals(r) for r in untraced + traced}
    if len(seen) != 1:
        failures.append(f"rounds differ in (nodes, wipeouts): {sorted(seen)}")
    if counts.get("search.nodes", 0) != sum(t.nodes for r in traced for t in r.results):
        failures.append("traced run: the solve span missed some solves")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_library()
    from perfbench import speed, tracing, workloads

    workload = workloads.WORKLOADS[name]
    probe = speed.SpeedProbe()
    tracer = tracing.Tracer() if trace else None
    untraced, traced, summaries = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        ref = workloads.reference_pass(workload, seed, work)  # also warms up
        kernel_s = [probe.measure()]

        def timed_round(out: list) -> None:
            r = workloads.run_round(workload, seed, work, ref)
            kernel_s.append(probe.measure())
            r.scale = speed.REFERENCE_S / statistics.mean(kernel_s[-2:])
            out.append(r)

        started = time.perf_counter()
        while True:
            timed_round(untraced)
            if tracer is not None:
                with tracer.installed():
                    timed_round(traced)
                summaries.append(tracer.summary())
            if time.perf_counter() - started >= seconds:
                break
        measured_s = time.perf_counter() - started

    rounds = untraced + traced
    failures = ref.failures + [f for r in rounds for f in r.failures]
    attempted = ref.attempted + sum(r.attempted for r in rounds)
    scales = [r.scale for r in rounds]
    print(
        f"workload {name}, seed {seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"rounds in {measured_s:.1f} s, {attempted} tasks attempted"
    )
    print(
        f"speed scale per round: median {statistics.median(scales):.3f} "
        f"(min {min(scales):.3f}, max {max(scales):.3f}); unscaled wall_s median "
        f"{statistics.median(r.wall_s for r in untraced):.4f} s"
    )
    if trace:
        failures += _self_check(name, untraced, traced, summaries, tracer.counts)
        metrics = _per_layer(untraced, traced, summaries, tracer.counts)
        units = PER_LAYER_UNITS
        _layer_shares(metrics, statistics.mean(r.scale * r.wall_s for r in traced))
    else:
        metrics = _end_to_end(untraced)
        units = END_TO_END_UNITS
    print("metrics:")
    for key, unit in units.items():
        print(f"  {key:<36} {metrics[key]:>16.6g} {unit}")

    lines = [fp.line(i, s) for (i, s), fp in ref.fingerprints.items()]
    print("\n".join(lines))
    print("search_digest " + hashlib.sha256("\n".join(lines).encode()).hexdigest())
    for message in failures[:20]:
        print("FAIL " + message)
    if len(failures) > 20:
        print(f"FAIL ... and {len(failures) - 20} more")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process; one merged JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        code = max(code, child.returncode)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            merged["attempted"] += 1
            merged["failed"] += 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    if code == 2:
        return 2  # the library could not be imported: print no result
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

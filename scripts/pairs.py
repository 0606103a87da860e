#!/usr/bin/env python3
"""Alternating base/change runs of the benchmark, with a sign test per metric.

    python3 scripts/pairs.py --base REV [--workload all] [--same-search]

Exports ``REV`` and ``HEAD`` with ``git archive`` into two temporary
directories and runs ``perfbench/run.py --workload W --seed <pair>
--seconds S --trace 0`` in each for 10 pairs, the base first in odd pairs
and the change first in even ones; ``S`` is ``run_seconds`` from
``BENCHMARK.json``, as in ``scripts/perf.py``.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` it prints the base's median and
quartiles, the change's median, their ratio, the number of pairs in which
the change was better, and the exact two-sided sign-test p-value over the
pairs that differ.  ``HEAD`` must name the code that runs, so when
``git status --porcelain`` shows any change under ``src``, ``perfbench`` or
``BENCHMARK.json`` nothing runs and the exit code is 1.  The exit code is
also 1 when any run fails, is incorrect or prints no result, and, with
``--same-search``, when a pair's two sides differ in the search: in any
workload's ``nodes`` or in its ``search_digest`` line, the hash of every
task's search fingerprint.
"""

from __future__ import annotations

import argparse
import math
import re
import statistics
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from perf import ROOT, benchmark, git, run, uncommitted

WORKLOADS = ("proof", "sets", "sweep")
PAIRS = 10


def metrics_of(workload: str, result: dict | None) -> dict[str, float] | None:
    """The end-to-end metrics of one ``run.py`` result as ``{"W.metric":
    value}``, or None if there is no result or it reports itself incorrect
    or a failed task."""
    try:
        if not result["correct"] or result["failed"]:
            return None
        metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    if workload == "all":
        return metrics  # run.py already names each metric by its workload
    return {f"{workload}.{k}": v for k, v in metrics.items()}


def search_digests(stdout: str) -> list[str]:
    """The ``search_digest`` lines of one ``run.py`` output, one per workload
    run, in order."""
    return re.findall(r"^search_digest .*$", stdout, re.MULTILINE)


def search_differences(workload: str, base: tuple[dict, str], change: tuple[dict, str]
                       ) -> list[str]:
    """Where one pair's two runs, each given as its metrics (as
    :func:`metrics_of` returns them) and its output, differ in the search:
    each ``W.nodes`` metric that differs, then ``W.search_digest`` for each
    workload whose digest line differs or is missing."""
    (base_metrics, base_out), (change_metrics, change_out) = base, change
    differ = [k for k in base_metrics if k.endswith(".nodes")
              and base_metrics[k] != change_metrics.get(k)]
    names = WORKLOADS if workload == "all" else (workload,)
    lines = zip_longest(search_digests(base_out), search_digests(change_out))
    differ += [f"{name}.search_digest" for name, (b, c) in zip(names, lines)
               if b is None or b != c]
    return differ


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties left out), from the binomial distribution with p = 1/2."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary_rows(base: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """One table line per ``W.metric`` present in every run: base median
    [Q1, Q3], change median, ratio, pairs the change was better in, p."""
    rows = [f"{'metric':<20} {'base median [Q1, Q3]':>34} {'change':>11} "
            f"{'ratio':>6} {'ahead':>6} {'p':>6}"]
    keys = [k for k in base[0]
            if k.split(".", 1)[1] in better and all(k in r for r in base + change)]
    for key in keys:
        lower = better[key.split(".", 1)[1]] == "lower"
        b = [r[key] for r in base]
        c = [r[key] for r in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(b, c))
        q1, bmed, q3 = quartiles(b)
        cmed = statistics.median(c)
        ratio = cmed / bmed if bmed else float("nan")
        rows.append(
            f"{key:<20} {bmed:>11.5g} [{q1:>9.5g}, {q3:>9.5g}] {cmed:>11.5g} "
            f"{ratio:>6.3f} {f'{wins}/{len(b)}':>6} {sign_test(wins, losses):>6.3f}"
        )
    return rows


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into the empty directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the revision to compare HEAD against")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--same-search", action="store_true",
                    help="also fail when a pair's nodes or search digests differ "
                         "between the sides")
    args = ap.parse_args(argv)
    if uncommitted("pairs"):
        return 1
    seconds, spec = benchmark()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev, head_rev = git("rev-parse", args.base), git("rev-parse", "HEAD")
    print(f"base {base_rev}\nchange {head_rev}\n{PAIRS} pairs of "
          f"--workload {args.workload} --seconds {seconds:g}, seed = pair number")
    results: dict[str, list[dict]] = {"base": [], "change": []}
    bad = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for side, rev in (("base", base_rev), ("change", head_rev)):
            trees[side].mkdir()
            export(rev, trees[side])
        for pair in range(1, PAIRS + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            got = {}
            for side in order:
                result, stdout = run(trees[side], args.workload, pair, seconds, 0)
                got[side] = (metrics_of(args.workload, result), stdout)
            failed = [side for side in order if got[side][0] is None]
            if failed:
                bad.append(f"pair {pair}: {' and '.join(failed)} run failed")
            else:
                for side in order:
                    results[side].append(got[side][0])
                differ = search_differences(args.workload, got["base"], got["change"])
                if args.same_search and differ:
                    bad.append(f"pair {pair}: search differs in {', '.join(differ)}")
            print(f"pair {pair}/{PAIRS}: {'failed' if failed else 'ok'}",
                  file=sys.stderr, flush=True)
    if results["base"]:
        print("\n".join(summary_rows(results["base"], results["change"], better)))
    for message in bad:
        print("FAIL " + message)
    return 1 if bad or not results["base"] else 0


if __name__ == "__main__":
    sys.exit(main())

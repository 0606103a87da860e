#!/usr/bin/env python3
"""Write the next perf trajectory file, ``BENCH_<n>.json``, at the repo root.

    python3 scripts/perf.py

Runs ``perfbench/run.py --workload all`` twice on this checkout, once
untraced (the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics), with seed 1 and ``--seconds`` set to ``run_seconds`` from
``BENCHMARK.json``.  The file holds the final JSON line of each run, the
output of ``git rev-parse HEAD``, the Python version and ``os.cpu_count()``;
``n`` is one more than the highest existing number.  The hash must name the
code that ran, so when ``git status --porcelain`` shows any change under
``src``, ``perfbench`` or ``BENCHMARK.json`` nothing runs, nothing is written
and the exit code is 1.  The same holds when either run fails a check or
prints no result.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def next_path() -> Path:
    taken = [
        int(m.group(1))
        for p in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
    ]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.rstrip()


def uncommitted(prog: str) -> bool:
    """True when ``git status --porcelain`` shows a change under ``src``,
    ``perfbench`` or ``BENCHMARK.json``, which a recorded hash would not
    name; the changes then go to stderr, after ``prog``'s prefix."""
    changed = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    if changed:
        print(f"{prog}: uncommitted changes; commit them first:\n{changed}", file=sys.stderr)
    return bool(changed)


def benchmark() -> tuple[float, dict]:
    """``run_seconds`` from ``BENCHMARK.json``, each run's ``--seconds``, and
    the whole file."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["run_seconds"], spec


def parse_result(returncode: int, stdout: str) -> dict | None:
    """The final JSON line of one ``run.py`` output, or None if the run exited
    non-zero or its last line is not JSON."""
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int
        ) -> tuple[dict | None, str]:
    """The final JSON line of one ``perfbench/run.py`` run in ``tree``, or None
    on failure, when the tail of the run's output goes to stderr; and the
    run's whole output."""
    child = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False, cwd=tree,
    )
    result = parse_result(child.returncode, child.stdout)
    if result is None:
        sys.stderr.write(child.stdout[-2000:])
    return result, child.stdout


def main() -> int:
    if uncommitted("perf"):
        return 1
    seconds = benchmark()[0]
    untraced = run(ROOT, "all", SEED, seconds, 0)[0]
    traced = run(ROOT, "all", SEED, seconds, 1)[0] if untraced is not None else None
    if traced is None:
        print("perf: a benchmark run failed; no BENCH file written", file=sys.stderr)
        return 1
    record = {
        "git_rev": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": seconds,
        "untraced": untraced,
        "traced": traced,
    }
    path = next_path()
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

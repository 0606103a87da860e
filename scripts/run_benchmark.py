#!/usr/bin/env python3
"""Desk-scale benchmark: generate a suite, sweep all schemes, print the report.

Writes the manifest, the results CSV, and the text report into --out-dir,
then prints the report.  The default suite keeps every run under a second;
--large adds instances that take minutes and shows actual search-time spread.
"""

import argparse
import sys
import time
from pathlib import Path

from branchbench.bench import parse_manifest, run_bench, write_csv
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.cli import _in_range
from branchbench.search import Limits
from branchbench.stats import format_report

SMALL_SUITE = """\
gen pigeons n=4
gen pigeons n=5
gen pigeons n=6
gen langford n=4
gen langford n=5
gen langford n=6
gen langford n=7
gen coloring n=12 edges=30 k=3 seed=1
gen coloring n=12 edges=30 k=3 seed=2
gen coloring n=14 edges=34 k=3 seed=5
gen randomb n=16 d=10 p1=70 p2=41 seed=5
gen randomb n=16 d=10 p1=70 p2=41 seed=8
gen randomb n=16 d=10 p1=70 p2=41 seed=10
gen randomb n=16 d=10 p1=70 p2=38 seed=43
gen forced n=16 d=10 p1=70 p2=44 seed=1
gen forced n=16 d=10 p1=70 p2=44 seed=2
gen forced n=16 d=10 p1=70 p2=44 seed=3
gen qwh order=4 holes=12 seed=2
gen qwh order=4 holes=14 seed=1
gen qwh order=4 holes=16 seed=3
"""

LARGE_EXTRA = """\
gen pigeons n=8
gen langford n=8
gen langford n=10
gen qwh order=5 holes=14 seed=1
gen qwh order=5 holes=18 seed=2
gen randomb n=20 d=10 p1=90 p2=41 seed=1
gen randomb n=20 d=10 p1=90 p2=41 seed=2
gen forced n=20 d=10 p1=90 p2=44 seed=1
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("bench-out"))
    ap.add_argument("--schemes", default=",".join(SCHEME_NAMES))
    ap.add_argument("--baseline", default="2way")
    ap.add_argument("--jobs", type=_in_range(int, 1), default=1,
                    help="worker processes; each takes whole instances")
    ap.add_argument("--timeout-ms", type=_in_range(float, 0), default=None)
    ap.add_argument("--large", action="store_true", help="add the slow instances")
    ap.add_argument("--manifest", type=Path, help="use this manifest instead")
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.manifest:
        manifest_path = args.manifest
    else:
        manifest_path = args.out_dir / "suite.txt"
        text = SMALL_SUITE + (LARGE_EXTRA if args.large else "")
        manifest_path.write_text(text, encoding="utf-8")

    sources = parse_manifest(
        manifest_path.read_text(encoding="utf-8"), manifest_path.parent
    )
    schemes = [parse_scheme(s.strip()) for s in args.schemes.split(",") if s.strip()]
    print(f"{len(sources)} instances x {len(schemes)} schemes (jobs {args.jobs})", file=sys.stderr)

    started = time.monotonic()
    records = run_bench(
        sources,
        schemes,
        limits=Limits(wall_time_ms=args.timeout_ms),
        jobs=args.jobs,
    )
    print(f"bench done in {time.monotonic() - started:.1f}s", file=sys.stderr)

    csv_path = args.out_dir / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_csv(records, fh)

    report = format_report(records, args.baseline)
    (args.out_dir / "report.txt").write_text(report, encoding="utf-8")
    print(report)
    print(f"results: {csv_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

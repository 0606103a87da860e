"""Batch runner: manifests of instances, scheme sweeps, CSV results.

A manifest is a text file with one instance per line, either a path to an
instance file (resolved against the manifest's directory) or an inline
generator call:

    gen pigeons n=6
    gen randomb n=20 d=10 p1=40 p2=55 seed=3
    boards/hard-one.csp

Blank lines and `#` comments are skipped.  Every solve is deterministic, so
without a time limit a row's counters depend only on its instance and scheme,
never on ``jobs``; generator lines carry their own seeds.

``run_bench`` loads and compiles each instance once and solves that one
problem under each scheme in order; with ``jobs > 1`` the unit of parallel
work is an instance, not an (instance, scheme) pair.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

from .branching import Scheme
from .generators import GenSpec
from .instance_io import parse_instance
from .model import Problem
from .search import Limits, solve

CSV_COLUMNS = (
    "instance",
    "scheme",
    "status",
    "nodes",
    "decisions",
    "wipeouts",
    "backtracks",
    "elapsed_ms",
)


@dataclass(frozen=True)
class RunRecord:
    instance: str
    scheme: str
    status: str
    nodes: int
    decisions: int
    wipeouts: int
    backtracks: int
    elapsed_ms: float


@dataclass(frozen=True)
class InstanceSource:
    """A named instance, backed by a file or by a generator call."""

    name: str
    path: Optional[str] = None
    genspec: Optional[GenSpec] = None

    def __post_init__(self):
        if (self.path is None) == (self.genspec is None):
            raise ValueError("exactly one of path or genspec must be given")

    def load(self) -> Problem:
        if self.genspec is not None:
            return self.genspec.build()
        return parse_instance(Path(self.path).read_text(encoding="utf-8"))


def parse_manifest(text: str, base_dir: Union[str, Path] = ".") -> list[InstanceSource]:
    base = Path(base_dir)
    sources = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gen "):
            spec = GenSpec.parse(line[4:])
            sources.append(InstanceSource(spec.name(), genspec=spec))
        else:
            path = base / line
            sources.append(InstanceSource(path.stem, path=str(path)))
    return sources


def _run_instance(task) -> list[RunRecord]:
    source, schemes, limits = task
    # one load and one table compile, shared by every scheme: a Problem is
    # immutable and solve() keeps all search state in its own SearchState
    problem = source.load()
    records = []
    for scheme in schemes:
        outcome = solve(problem, scheme, limits=limits)
        s = outcome.stats
        records.append(
            RunRecord(
                instance=source.name,
                scheme=scheme.kind.value,
                status=outcome.status.value,
                nodes=s.nodes,
                decisions=s.decisions,
                wipeouts=s.wipeouts,
                backtracks=s.backtracks,
                elapsed_ms=s.elapsed_ms,
            )
        )
    return records


def run_bench(
    sources: Sequence[InstanceSource],
    schemes: Sequence[Scheme],
    limits: Optional[Limits] = None,
    seed: int = 0,
    jobs: int = 1,
) -> list[RunRecord]:
    """Run every scheme on every instance; rows come back instance by
    instance, schemes in the given order within each.

    Each instance is loaded and compiled once, then solved under each
    scheme in turn.  With ``jobs > 1`` the unit of parallel work is an
    instance, so a manifest with fewer instances than ``jobs`` leaves
    workers idle.

    ``seed`` is accepted and ignored: no solve draws a random number.  It
    stays only because the benchmark harness (``perfbench/workloads.py``)
    still passes ``seed=0``; remove it once that caller stops passing it.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    schemes = tuple(schemes)
    tasks = [(source, schemes, limits) for source in sources]
    if jobs == 1 or len(tasks) <= 1:
        per_instance = map(_run_instance, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_instance = list(pool.map(_run_instance, tasks))
    return [record for records in per_instance for record in records]


def write_csv(records: Iterable[RunRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.instance,
                r.scheme,
                r.status,
                r.nodes,
                r.decisions,
                r.wipeouts,
                r.backtracks,
                repr(r.elapsed_ms),
            ]
        )


def read_csv(source: IO[str]) -> list[RunRecord]:
    reader = csv.reader(source)
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValueError(f"unexpected results header: {header!r}")
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"malformed results row: {row!r}")
        records.append(
            RunRecord(
                instance=row[0],
                scheme=row[1],
                status=row[2],
                nodes=int(row[3]),
                decisions=int(row[4]),
                wipeouts=int(row[5]),
                backtracks=int(row[6]),
                elapsed_ms=float(row[7]),
            )
        )
    return records

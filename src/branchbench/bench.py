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
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union, get_type_hints

from .branching import Scheme
from .generators import GenSpec
from .instance_io import parse_instance
from .model import Problem
from .search import Limits, Status, solve


@dataclass(frozen=True)
class RunRecord:
    """One result row: its fields are the results CSV's columns, in order.

    Every field after ``status`` is a ``RunStats`` counter of the same name.
    """

    instance: str
    scheme: str
    status: str
    nodes: int
    decisions: int
    wipeouts: int
    backtracks: int
    elapsed_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))
# the type of each column, which also converts its cell text back
_CELL_TYPES = tuple(get_type_hints(RunRecord).values())
_STATUSES = frozenset(status.value for status in Status)


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
        # every RunStats counter by name: one RunRecord lacks raises TypeError
        records.append(RunRecord(
            instance=source.name, scheme=scheme.kind.value, status=outcome.status.value,
            **vars(outcome.stats),
        ))
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
    writer.writerows(astuple(r) for r in records)


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
        record = RunRecord(*(cell(text) for cell, text in zip(_CELL_TYPES, row)))
        # the fields after instance, scheme and status are the counters
        if (record.status not in _STATUSES or min(astuple(record)[3:]) < 0
                or not math.isfinite(record.elapsed_ms)):
            raise ValueError(f"malformed results row: {row!r}")
        records.append(record)
    return records

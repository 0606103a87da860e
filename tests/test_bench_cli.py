"""Benchmark runner, manifest parsing, CSV round trips, and the CLI."""

import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest

from branchbench.bench import (
    CSV_COLUMNS,
    InstanceSource,
    RunRecord,
    parse_manifest,
    read_csv,
    run_bench,
    write_csv,
)
from branchbench.branching import SCHEME_NAMES, parse_scheme
from branchbench.cli import main
from branchbench.generators import GenSpec, gen_langford, gen_pigeons
from branchbench.instance_io import parse_instance, serialize_instance
from branchbench.search import Limits, RunStats, solve
from util import TRACE_LINE

ROOT = Path(__file__).resolve().parent.parent


# -------------------------------------------------------------- manifests

def test_parse_manifest_mixed_lines():
    text = (
        "# suite header\n"
        "gen pigeons n=4\n"
        "boards/a.csp   # relative to the manifest\n"
        "gen qwh order=3 holes=2 seed=7\n"
        "\n"
        "nested/deep.csp\n"
    )
    sources = parse_manifest(text, "/data")
    assert [s.name for s in sources] == ["pigeons-4", "a", "qwh-3-2-s7", "deep"]
    assert sources[0].genspec == GenSpec("pigeons", {"n": 4})
    assert sources[1].path == str(Path("/data/boards/a.csp"))
    assert sources[3].path == str(Path("/data/nested/deep.csp"))


def test_parse_manifest_rejects_bad_gen_lines():
    with pytest.raises(ValueError):
        parse_manifest("gen pigeons n=four\n")
    with pytest.raises(ValueError):
        parse_manifest("gen nosuch n=4\n")
    with pytest.raises(ValueError):
        parse_manifest("gen pigeons\n")  # n missing
    with pytest.raises(ValueError, match="'n'"):
        parse_manifest("gen pigeons n=5 n=6\n")
    with pytest.raises(ValueError, match="^manifest line 3: "):
        parse_manifest("gen pigeons n=4\n# comment\ngen pigeons n=four\n")


def test_parse_manifest_rejects_a_repeated_instance_name():
    # results rows are keyed by name, so two instances may not share one
    with pytest.raises(ValueError, match=r"lines 1 and 3 both name instance 'x'"):
        parse_manifest("a/x.csp\ngen pigeons n=4\nb/x.csp\n", "/data")
    with pytest.raises(ValueError, match=r"lines 2 and 4 both name instance 'pigeons-4'"):
        parse_manifest("\ngen pigeons n=4\n\ngen pigeons n=4\n")


def test_instance_source_needs_exactly_one_backing():
    with pytest.raises(ValueError):
        InstanceSource("x")
    with pytest.raises(ValueError):
        InstanceSource("x", path="a.csp", genspec=GenSpec("pigeons", {"n": 3}))


def test_instance_source_loads_files_and_generators(tmp_path):
    problem = gen_pigeons(3)
    path = tmp_path / "p3.csp"
    path.write_text(serialize_instance(problem), encoding="utf-8")
    from_file = InstanceSource("p3", path=str(path)).load()
    from_gen = InstanceSource("p3", genspec=GenSpec("pigeons", {"n": 3})).load()
    assert from_file == problem
    assert from_gen == problem


# ----------------------------------------------------------------- runner

def bench_fields(records):
    return [
        (r.instance, r.scheme, r.status, r.nodes, r.decisions, r.wipeouts, r.backtracks)
        for r in records
    ]


SOURCES = (
    InstanceSource("pigeons-3", genspec=GenSpec("pigeons", {"n": 3})),
    InstanceSource("pigeons-4", genspec=GenSpec("pigeons", {"n": 4})),
)
SCHEMES = (parse_scheme("dway"), parse_scheme("2way"))


def test_run_bench_order_and_reproducibility():
    a = run_bench(SOURCES, SCHEMES)
    b = run_bench(SOURCES, SCHEMES)
    assert [(r.instance, r.scheme) for r in a] == [
        ("pigeons-3", "dway"),
        ("pigeons-3", "2way"),
        ("pigeons-4", "dway"),
        ("pigeons-4", "2way"),
    ]
    assert all(r.status == "unsat" for r in a)
    assert bench_fields(a) == bench_fields(b)
    # the benchmark harness still passes seed=; it must change nothing
    assert bench_fields(run_bench(SOURCES, SCHEMES, seed=6)) == bench_fields(a)


def test_run_bench_parallel_matches_sequential():
    seq = run_bench(SOURCES, SCHEMES, jobs=1)
    par = run_bench(SOURCES, SCHEMES, jobs=2)
    assert bench_fields(seq) == bench_fields(par)


def test_run_bench_validates_jobs():
    with pytest.raises(ValueError):
        run_bench(SOURCES, SCHEMES, jobs=0)


@dataclass(frozen=True)
class CountingSource(InstanceSource):
    """An InstanceSource that records each load() call."""

    loads: list = field(default_factory=list, compare=False)

    def load(self):
        self.loads.append(self.name)
        return super().load()


ALL_SCHEMES = tuple(parse_scheme(name) for name in SCHEME_NAMES)


def fresh_fields(sources, schemes, limits=None):
    """bench_fields of solving each (source, scheme) on a newly loaded problem."""
    rows = []
    for source in sources:
        for scheme in schemes:
            out = solve(source.load(), scheme, limits=limits)
            s = out.stats
            rows.append((source.name, scheme.name, out.status.value,
                         s.nodes, s.decisions, s.wipeouts, s.backtracks))
    return rows


def test_run_bench_loads_each_instance_once(tmp_path):
    path = tmp_path / "langford-7.csp"
    path.write_text(serialize_instance(gen_langford(7)), encoding="utf-8")
    sources = [
        CountingSource("langford-7", path=str(path)),
        CountingSource("pigeons-5", genspec=GenSpec("pigeons", {"n": 5})),
        CountingSource("nary", path=str(ROOT / "tests" / "golden" / "nary.csp")),
    ]
    records = run_bench(sources, ALL_SCHEMES, jobs=1)
    assert [s.loads for s in sources] == [[s.name] for s in sources]
    expected = fresh_fields(sources, ALL_SCHEMES)
    assert bench_fields(records) == expected
    assert {r.status for r in records} == {"sat", "unsat"}

    # workers load pickled copies; plain sources keep the test module out of them
    plain = [InstanceSource(s.name, s.path, s.genspec) for s in sources]
    assert bench_fields(run_bench(plain, ALL_SCHEMES, jobs=2)) == expected


def test_run_bench_reuses_the_problem_after_early_exits():
    # langford 8 takes more nodes under split than under dway (tests/golden):
    # with a limit from dway's count to one below split's the first solve stops
    # at the limit and the second finds a solution, and both leave the shared
    # problem as it was
    corpus = (ROOT / "tests" / "golden" / "corpus.jsonl").read_text().splitlines()
    nodes = {
        r["scheme"]: r["nodes"] for r in map(json.loads, corpus) if r["source"] == "gen langford n=8"
    }
    assert nodes["split"] > nodes["dway"]
    order = ("split", "dway", "2way", "ties-dway", "ties-2way", "clust-dway", "clust-2way")
    schemes = [parse_scheme(name) for name in order]
    limits = Limits(max_nodes=(nodes["split"] + nodes["dway"]) // 2)
    source = CountingSource("langford-8", genspec=GenSpec("langford", {"n": 8}))
    records = run_bench([source], schemes, limits=limits)
    assert source.loads == [source.name]
    assert [r.status for r in records[:2]] == ["limit", "sat"]
    assert bench_fields(records) == fresh_fields([source], schemes, limits)


# -------------------------------------------------------------------- CSV

def test_csv_round_trip_is_exact():
    records = [
        RunRecord("a-1", "dway", "sat", 10, 5, 2, 7, 0.1 + 0.2),
        RunRecord("b-2", "clust-2way", "limit", 0, 0, 0, 2**63, 1234.5678901234),
    ]
    (ran,) = run_bench(SOURCES[1:], SCHEMES[1:])
    records.append(ran)
    buf = io.StringIO()
    write_csv(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = read_csv(io.StringIO(text))
    assert back == records
    expected = solve(SOURCES[1].load(), SCHEMES[1]).stats.backtracks
    assert back[-1].backtracks == expected > 0


def test_csv_columns_are_the_run_record_fields():
    # a row is the instance, the scheme, the status, then every solve counter
    counters = tuple(f.name for f in fields(RunStats))
    assert CSV_COLUMNS == ("instance", "scheme", "status") + counters


def test_csv_rejects_foreign_headers_and_bad_rows():
    with pytest.raises(ValueError, match="header"):
        read_csv(io.StringIO("a,b,c\n"))
    good_header = ",".join(CSV_COLUMNS)
    with pytest.raises(ValueError, match="malformed"):
        read_csv(io.StringIO(good_header + "\nx,dway,sat,1,1\n"))
    for bad in ("x,dway,sat,1,1,1,1,inf", "x,dway,sat,1,1,1,1,nan", "x,dway,sat,1,1,1,1,-1",
                "x,dway,sat,1,-1,1,1,2.0", "x,dway,bogus,1,1,1,1,2.0"):
        with pytest.raises(ValueError, match="malformed"):
            read_csv(io.StringIO(f"{good_header}\n{bad}\n"))
    assert read_csv(io.StringIO(f"{good_header}\nx,dway,sat,0,0,0,0,0.0\n"))[0].elapsed_ms == 0.0
    # a repeated (instance, scheme) pair, as in two concatenated sweeps, would
    # halve the pairs stats sees; it is an error naming the pair
    repeated = (f"{good_header}\npigeons-4,dway,unsat,99,97,50,49,9.0\n"
                "pigeons-4,2way,unsat,20,18,10,9,2.0\npigeons-4,dway,unsat,0,0,0,0,1.0\n")
    with pytest.raises(ValueError, match="instance 'pigeons-4', scheme 'dway'"):
        read_csv(io.StringIO(repeated))


# -------------------------------------------------------------------- CLI

def test_cli_gen_writes_parseable_instance(tmp_path):
    out = tmp_path / "p4.csp"
    assert main(["gen", "--family", "pigeons", "--n", "4", "--out", str(out)]) == 0
    assert parse_instance(out.read_text(encoding="utf-8")) == gen_pigeons(4)


def test_cli_gen_to_stdout(capsys):
    assert main(["gen", "--family", "pigeons", "--n", "3", "--out", "-"]) == 0
    assert parse_instance(capsys.readouterr().out) == gen_pigeons(3)


def test_cli_gen_usage_errors(tmp_path):
    out = str(tmp_path / "x.csp")
    assert main(["gen", "--family", "pigeons", "--out", out]) == 1  # n missing
    assert main(["gen", "--family", "nosuch", "--n", "3", "--out", out]) == 1
    assert main(["gen", "--family", "pigeons", "--n", "3", "--d", "2", "--out", out]) == 1
    # out-of-range family parameters, rejected when the instance is built
    assert main(["gen", "--family", "pigeons", "--n", "1", "--out", "-"]) == 1
    randomb = ["--n", "5", "--d", "3", "--p1", "99", "--p2", "1", "--seed", "1"]
    assert main(["gen", "--family", "randomb", *randomb, "--out", "-"]) == 1


def test_cli_solve_reports_unsat(tmp_path, capsys):
    inst = tmp_path / "p4.csp"
    main(["gen", "--family", "pigeons", "--n", "4", "--out", str(inst)])
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--scheme", "2way"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "unsat"
    assert re.match(
        r"^nodes=\d+ decisions=\d+ wipeouts=\d+ backtracks=\d+ "
        r"elapsed_ms=\d+\.\d{3}$",
        lines[1],
    )
    assert len(lines) == 2


def test_cli_solve_reports_sat_assignment_and_trace(tmp_path, capsys):
    inst = tmp_path / "l4.csp"
    trace = tmp_path / "l4.trace"
    main(["gen", "--family", "langford", "--n", "4", "--out", str(inst)])
    capsys.readouterr()
    code = main(
        [
            "solve",
            "--instance", str(inst),
            "--scheme", "ties-dway",
            "--trace", str(trace),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sat"
    assert re.fullmatch(r"(\S+=-?\d+)( \S+=-?\d+)*", lines[2])
    trace_lines = trace.read_text(encoding="utf-8").splitlines()
    assert trace_lines
    assert all(TRACE_LINE.match(line) for line in trace_lines)


def test_cli_solve_runtime_failures(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "no.csp"), "--scheme", "dway"]) == 2
    garbage = tmp_path / "bad.csp"
    garbage.write_text("var x 0..\n", encoding="utf-8")
    assert main(["solve", "--instance", str(garbage), "--scheme", "dway"]) == 2


def test_cli_solve_rejects_an_instance_over_the_table_cap(tmp_path, capsys):
    big = tmp_path / "big.csp"
    big.write_text(
        "csp 1\nvar x 0..40\nvar y 0..39\nvar z 0..39\n"
        "con int (x,y,z) : le(add(add(x,y),z),5)\n",
        encoding="utf-8",
    )
    assert main(["solve", "--instance", str(big), "--scheme", "dway"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "65600 candidate tuples" in captured.err
    assert "MAX_TABLE_TUPLES" in captured.err
    # a whole-problem error has no position to report
    assert "line 0" not in captured.err


def test_cli_bench_and_stats_end_to_end(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    manifest.write_text(
        "gen pigeons n=4\ngen langford n=4\ngen qwh order=3 holes=4 seed=1\n",
        encoding="utf-8",
    )
    out = tmp_path / "results.csv"
    code = main(
        [
            "bench",
            "--manifest", str(manifest),
            "--schemes", "dway,2way,split",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "wrote 9 records" in capsys.readouterr().out
    with open(out, encoding="utf-8", newline="") as fh:
        records = read_csv(fh)
    assert len(records) == 9
    assert {r.instance for r in records} == {"pigeons-4", "langford-4", "qwh-3-4-s1"}

    assert main(["stats", "--results", str(out), "--baseline", "dway"]) == 0
    report = capsys.readouterr().out
    for needle in ("mean folded ratios", "% of instances", "paired t-test"):
        assert needle in report

    # every table is always printed: there are no table switches
    assert main(["stats", "--results", str(out), "--baseline", "dway", "--ttest"]) == 1

    assert main(["stats", "--results", str(out), "--baseline", "nosuch"]) == 2


def test_cli_stats_prints_the_pinned_report(tmp_path, capsys):
    golden = ROOT / "tests" / "golden"
    code = main(["stats", "--results", str(golden / "results.csv"), "--baseline", "2way"])
    assert code == 0
    assert capsys.readouterr().out == (golden / "report.txt").read_text(encoding="utf-8")
    twice = tmp_path / "twice.csv"
    rows = (golden / "results.csv").read_text(encoding="utf-8")
    twice.write_text(rows + rows.split("\n", 2)[1] + "\n", encoding="utf-8")
    assert main(["stats", "--results", str(twice), "--baseline", "2way"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeated results row" in captured.err


def test_cli_bench_to_stdout(tmp_path, capsys):
    manifest = tmp_path / "one.txt"
    manifest.write_text("gen pigeons n=3\n", encoding="utf-8")
    code = main(["bench", "--manifest", str(manifest), "--schemes", "dway", "--out", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(out.splitlines()) == 2

    # without --schemes every scheme runs, in SCHEME_NAMES order
    assert main(["bench", "--manifest", str(manifest), "--out", "-"]) == 0
    rows = read_csv(io.StringIO(capsys.readouterr().out))
    assert [r.scheme for r in rows] == list(SCHEME_NAMES)


def test_cli_bench_max_nodes_caps_every_row(tmp_path, capsys):
    manifest = tmp_path / "one.txt"
    manifest.write_text("gen pigeons n=5\n", encoding="utf-8")
    common = ["bench", "--manifest", str(manifest), "--schemes", "dway,2way", "--out", "-"]
    assert main(common + ["--max-nodes", "7"]) == 0
    rows = read_csv(io.StringIO(capsys.readouterr().out))
    assert [(r.scheme, r.status, r.nodes) for r in rows] == [
        ("dway", "limit", 7),
        ("2way", "limit", 7),
    ]
    # the uncapped proof takes more nodes than that
    assert main(common) == 0
    rows = read_csv(io.StringIO(capsys.readouterr().out))
    assert all(r.status == "unsat" and r.nodes > 7 for r in rows)


def test_cli_bench_usage_errors(tmp_path):
    manifest = tmp_path / "one.txt"
    manifest.write_text("gen pigeons n=3\n", encoding="utf-8")
    common = ["bench", "--manifest", str(manifest), "--out", "-"]
    assert main(common + ["--schemes", "triway"]) == 1
    assert main(common + ["--schemes", " , "]) == 1
    assert main(common + ["--schemes", "2way,dway,2way"]) == 1
    assert main(common + ["--schemes", "dway", "--jobs", "0"]) == 1
    assert main(common + ["--schemes", "dway", "--timeout-ms", "-1"]) == 1
    assert main(common + ["--schemes", "dway", "--max-nodes", "-1"]) == 1
    assert main(common + ["--schemes", "dway", "--max-nodes", "two"]) == 1
    assert main(["bench", "--manifest", str(tmp_path / "no.txt"), "--schemes", "dway", "--out", "-"]) == 2


def test_cli_bench_rejects_a_manifest_that_repeats_a_name(tmp_path, capsys):
    for sub, n in (("a", 5), ("b", 6)):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.csp").write_text(
            serialize_instance(gen_pigeons(n)), encoding="utf-8"
        )
    manifest = tmp_path / "suite.txt"
    manifest.write_text("a/x.csp\nb/x.csp\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    args = ["bench", "--manifest", str(manifest), "--schemes", "2way,dway", "--out", str(out)]
    assert main(args) == 2
    assert "lines 1 and 2 both name instance 'x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [["--jobs", "0"], ["--jobs", "two"], ["--timeout-ms", "-1"], ["--timeout-ms", "nan"]],
    ids=" ".join,
)
def test_cli_bench_rejects_bad_options(tmp_path, bad):
    manifest = tmp_path / "one.txt"
    manifest.write_text("gen pigeons n=3\n", encoding="utf-8")
    out = tmp_path / "results.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "branchbench.cli", "bench",
         "--manifest", str(manifest), "--out", str(out), *bad],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"branchbench bench: argument {bad[0]}: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_top_level_usage():
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["solve"]) == 1  # required arguments missing
    # out-of-range options fail in argparse, before the (missing) file is read
    solve_cmd = ["solve", "--instance", "no.csp", "--scheme", "dway"]
    assert main(solve_cmd) == 2
    assert main(solve_cmd + ["--kmax", "0"]) == 1
    assert main(solve_cmd + ["--threshold", "3/2"]) == 1
    assert main(solve_cmd + ["--threshold", "1/0"]) == 1
    assert main(solve_cmd + ["--max-nodes", "-5"]) == 1
    assert main(solve_cmd + ["--timeout-ms", "-1"]) == 1
    assert main(solve_cmd + ["--seed", "3"]) == 1  # no such option
    assert main(["nosuch"]) == 1

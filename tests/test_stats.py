"""Report statistics: folded ratios, Student-t machinery, aggregation."""

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchbench.bench import RunRecord, read_csv
from branchbench.stats import (
    categorize,
    folded_ratio,
    format_report,
    instance_class,
    paired_ttest,
    regularized_incomplete_beta,
    speedups,
    student_t_cdf,
    student_t_quantile,
    ttest_vs_base,
)

positive = st.floats(1e-6, 1e6, allow_nan=False)


# ----------------------------------------------------------- folded ratio

def test_folded_ratio_exact_cases():
    assert folded_ratio(6.0, 3.0) == 2.0
    assert folded_ratio(3.0, 6.0) == -2.0
    assert folded_ratio(5.0, 5.0) == 1.0
    assert folded_ratio(2.5, 1.0) == 2.5


def test_folded_ratio_requires_positive_times():
    with pytest.raises(ValueError):
        folded_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        folded_ratio(1.0, -2.0)


@given(positive, positive)
def test_folded_ratio_antisymmetric_and_folded(a, b):
    f = folded_ratio(a, b)
    assert abs(f) >= 1.0
    if a != b:
        assert f == pytest.approx(-folded_ratio(b, a), rel=1e-9)


@given(positive, positive, st.floats(1e-3, 1e3, allow_nan=False))
def test_folded_ratio_scale_invariant(a, b, c):
    assert folded_ratio(c * a, c * b) == pytest.approx(folded_ratio(a, b), rel=1e-9)


# ------------------------------------------------- Student-t distribution

# reference quantiles computed with an independent statistics library
# (scipy.stats.t.ppf) and frozen here; columns are
# p = 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999
QUANTILES = {
    1: (0.324919696, 1.000000000, 3.077683537, 6.313751515, 12.706204736, 31.820515954, 318.308838986),
    2: (0.288675135, 0.816496581, 1.885618083, 2.919985580, 4.302652730, 6.964556734, 22.327124770),
    3: (0.276670662, 0.764892328, 1.637744354, 2.353363435, 3.182446305, 4.540702858, 10.214531852),
    5: (0.267180866, 0.726686844, 1.475884049, 2.015048373, 2.570581836, 3.364929999, 5.893429531),
    10: (0.260184829, 0.699812061, 1.372183641, 1.812461123, 2.228138852, 2.763769458, 4.143700494),
    30: (0.255605365, 0.682755693, 1.310415025, 1.697260887, 2.042272456, 2.457261542, 3.385184867),
    100: (0.254022182, 0.676951043, 1.290074761, 1.660234326, 1.983971518, 2.364217366, 3.173739494),
}
PS = (0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999)

# scipy.stats.t.cdf reference values
CDFS = {
    (0.5, 1): 0.647583617650,
    (1.7, 1): 0.830746972670,
    (4.0, 1): 0.922020869623,
    (0.5, 2): 0.666666666667,
    (1.7, 2): 0.884383286899,
    (4.0, 2): 0.971404520791,
    (0.5, 5): 0.680850564180,
    (1.7, 5): 0.925061606576,
    (4.0, 5): 0.994838292260,
    (0.5, 20): 0.688734078859,
    (1.7, 20): 0.947684413602,
    (4.0, 20): 0.999648238353,
}

T975_DOF2 = 4.302652729696142


def test_incomplete_beta_boundaries():
    assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
    assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0
    assert regularized_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


@given(st.floats(0.01, 0.99), st.floats(0.5, 20.0), st.floats(0.5, 20.0))
def test_incomplete_beta_reflection(x, a, b):
    left = regularized_incomplete_beta(x, a, b)
    right = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
    assert left == pytest.approx(right, abs=1e-9)


@pytest.mark.parametrize("key", sorted(CDFS))
def test_t_cdf_matches_reference(key):
    t, dof = key
    assert student_t_cdf(t, dof) == pytest.approx(CDFS[key], abs=1e-9)
    assert student_t_cdf(-t, dof) == pytest.approx(1.0 - CDFS[key], abs=1e-9)


def test_t_cdf_center_and_validation():
    assert student_t_cdf(0.0, 7) == 0.5
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0)


@pytest.mark.parametrize("dof", sorted(QUANTILES))
def test_t_quantile_matches_reference(dof):
    for p, expected in zip(PS, QUANTILES[dof]):
        assert student_t_quantile(p, dof) == pytest.approx(expected, abs=1e-6)


def test_t_quantile_symmetry_and_validation():
    assert student_t_quantile(0.5, 9) == 0.0
    assert student_t_quantile(0.025, 7) == pytest.approx(
        -student_t_quantile(0.975, 7), abs=1e-12
    )
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 3)
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 3)


@given(st.floats(0.01, 0.99), st.integers(1, 60))
def test_t_quantile_inverts_cdf(p, dof):
    q = student_t_quantile(p, dof)
    assert student_t_cdf(q, dof) == pytest.approx(p, abs=1e-6)


# ---------------------------------------------------------- paired t-test

def test_paired_ttest_hand_example():
    r = paired_ttest([1.0, 2.0, 3.0])
    assert r.n == 3
    assert r.mean == pytest.approx(2.0)
    assert r.sd == pytest.approx(1.0)
    assert r.t == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    half = T975_DOF2 / math.sqrt(3.0)
    assert r.ci95[0] == pytest.approx(2.0 - half, abs=1e-6)
    assert r.ci95[1] == pytest.approx(2.0 + half, abs=1e-6)


def test_paired_ttest_degenerate_spreads():
    up = paired_ttest([4.0, 4.0, 4.0])
    assert up.sd == 0.0 and up.t == math.inf and up.ci95 == (4.0, 4.0)
    down = paired_ttest([-4.0, -4.0])
    assert down.t == -math.inf
    flat = paired_ttest([0.0, 0.0, 0.0])
    assert flat.t == 0.0 and flat.ci95 == (0.0, 0.0)


def test_paired_ttest_needs_two_diffs():
    with pytest.raises(ValueError):
        paired_ttest([1.0])


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20), st.floats(-1e3, 1e3))
def test_paired_ttest_shift_moves_mean_and_ci(diffs, c):
    base = paired_ttest(diffs)
    moved = paired_ttest([d + c for d in diffs])
    assert moved.mean == pytest.approx(base.mean + c, abs=1e-6)
    assert moved.sd == pytest.approx(base.sd, abs=1e-6)
    assert moved.ci95[0] == pytest.approx(base.ci95[0] + c, abs=1e-6)
    assert moved.ci95[1] == pytest.approx(base.ci95[1] + c, abs=1e-6)


# ------------------------------------------------------------ aggregation

def rec(instance, scheme, elapsed, status="sat", nodes=100):
    return RunRecord(instance, scheme, status, nodes, nodes, 0, 0, elapsed)


FIXTURE = [
    rec("randomb-1", "dway", 100.0),
    rec("randomb-1", "split", 999.0),  # stale duplicate, superseded below
    rec("randomb-1", "split", 40.0, nodes=200),
    rec("randomb-2", "dway", 30.0),
    rec("randomb-2", "split", 90.0),
    rec("randomb-3", "dway", 50.0, nodes=0),
    rec("randomb-3", "split", 50.0),
    rec("pigeons-4", "dway", 10.0),
    rec("pigeons-4", "split", 10.0, status="limit"),
    rec("pigeons-5", "split", 10.0),  # no baseline record
    rec("pigeons-6", "dway", 10.0),  # no scheme record
    rec("randomb-1", "2way", 10.0),
    rec("randomb-2", "2way", 10.0, status="limit"),
]


def test_instance_class_prefix():
    assert instance_class("randomb-20-10-3") == "randomb"
    assert instance_class("plain") == "plain"


def test_categorize_buckets_and_exclusions():
    rows = categorize(FIXTURE, "dway")
    assert [r.scheme for r in rows] == ["2way", "split"]
    split = rows[1]
    assert split.pairs == 3
    assert split.excluded == 1
    third = pytest.approx(100.0 / 3.0)
    # 100/40=2.5 -> faster, >=2; 30/90 -> 3x slower; 50/50 -> neither side
    assert split.percentages[">1"] == third
    assert split.percentages[">2"] == third
    assert split.percentages[">3"] == 0.0
    assert split.percentages["<1"] == third
    assert split.percentages["<2"] == third
    assert split.percentages["<3"] == third


@pytest.mark.parametrize(
    "base_ms, scheme_ms, buckets",
    [
        (1.0, 1.0, set()),  # fold 1.0: neither faster nor slower
        (2.0, 1.0, {">1", ">2"}),
        (3.0, 1.0, {">1", ">2", ">3"}),
        (1.0, 2.0, {"<1", "<2"}),
        (1.0, 3.0, {"<1", "<2", "<3"}),
    ],
)
def test_categorize_bucket_boundaries_are_inclusive(base_ms, scheme_ms, buckets):
    (row,) = categorize([rec("i", "dway", base_ms), rec("i", "split", scheme_ms)], "dway")
    assert {b for b, pct in row.percentages.items() if pct == 100.0} == buckets
    assert all(pct in (0.0, 100.0) for pct in row.percentages.values())
    assert list(row.percentages) == [">1", ">2", ">3", "<1", "<2", "<3"]


def test_speedups_per_class():
    rows = speedups(FIXTURE, "dway")
    by_key = {(r.cls, r.scheme): r for r in rows}
    assert set(by_key) == {
        ("pigeons", "2way"),
        ("pigeons", "split"),
        ("randomb", "2way"),
        ("randomb", "split"),
    }
    r = by_key[("randomb", "split")]
    # time folds: 40/100 -> -2.5, 90/30 -> 3.0, 50/50 -> 1.0
    assert r.time_fold == pytest.approx((-2.5 + 3.0 + 1.0) / 3.0)
    # node folds skip the pair with a zero node count: (200/100, 100/100)
    assert r.node_fold == pytest.approx(1.5)
    assert r.pairs == 3
    empty = by_key[("pigeons", "split")]
    assert empty.time_fold is None and empty.node_fold is None and empty.pairs == 0


def test_ttest_vs_base_diffs_and_exclusions():
    rows = ttest_vs_base(FIXTURE, "dway")
    by_scheme = {r.scheme: r for r in rows}
    split = by_scheme["split"]
    assert split.pairs == 3 and split.excluded == 1
    # diffs are baseline minus scheme: 60, -60, 0
    assert split.report.mean == pytest.approx(0.0)
    assert split.report.sd == pytest.approx(60.0)
    assert split.report.t == pytest.approx(0.0)
    twoway = by_scheme["2way"]
    assert twoway.report is None and twoway.pairs == 1 and twoway.excluded == 1


def test_aggregation_requires_known_baseline():
    for fn in (categorize, speedups, ttest_vs_base):
        with pytest.raises(ValueError, match="baseline"):
            fn(FIXTURE, "nosuch")


def test_format_report_sections_and_flags():
    full = format_report(FIXTURE, "dway")
    assert "mean folded ratios vs dway" in full
    assert "% of instances faster" in full
    assert "paired t-test on time differences" in full
    assert "split" in full and "2way" in full
    assert "(not enough pairs)" in full


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_format_report_matches_the_pinned_report():
    # results.csv is hand-made: limit rows on either side, a 0.0 ms row,
    # instances without a baseline row, a class only the baseline ran, and a
    # scheme with a single t-test pair.  report.txt
    # is `branchbench stats --results tests/golden/results.csv --baseline 2way`.
    with open(GOLDEN / "results.csv", encoding="utf-8", newline="") as fh:
        records = read_csv(fh)
    expected = (GOLDEN / "report.txt").read_text(encoding="utf-8")
    assert format_report(records, "2way") == expected

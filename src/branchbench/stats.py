"""Benchmark statistics: folded speed ratios, bucket tables, paired t-test.

A folded ratio maps t_other / t_base to a symmetric scale: r when r >= 1,
otherwise -1/r, so "2.5x faster" and "2.5x slower" print as 2.5 and -2.5.
The paired t-test uses the Student-t 0.975 quantile computed here by
numerically inverting the regularized incomplete beta function (continued
fraction evaluation, absolute error well under 1e-6); no statistics library
is involved.

Every table walks the same pairs: ``_paired`` matches each scheme's record
for an instance with the baseline's record for it (``read_csv`` rejects a
repeated pair; instances the baseline did not run have no pair).  A table then
only drops pairs: the t-test drops pairs with a ``limit`` outcome on either
side, and the fold tables (``speedups``, ``categorize``) also drop pairs
with a non-positive time on either side.  A table's ``excluded`` count is
the number of pairs it dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .bench import RunRecord


def folded_ratio(t_other: float, t_base: float) -> float:
    """Sign-folded ratio of two positive times."""
    if t_other <= 0 or t_base <= 0:
        raise ValueError("folded_ratio needs positive times")
    r = t_other / t_base
    return r if r >= 1.0 else -1.0 / r


# -- Student-t quantile --------------------------------------------------

def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) by the continued fraction of the incomplete beta integral."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def student_t_cdf(t: float, dof: int) -> float:
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(x, 0.5 * dof, 0.5)
    return 1.0 - tail if t > 0 else tail


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse CDF of Student's t by bisection on the CDF above."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, dof)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, dof) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return 0.5 * (lo + hi)


# -- paired t-test -------------------------------------------------------

@dataclass(frozen=True)
class TTestReport:
    n: int
    mean: float
    sd: float
    t: float
    ci95: tuple[float, float]


def paired_ttest(diffs: Sequence[float]) -> TTestReport:
    """Two-sided paired t-test summary with a 95% confidence interval."""
    n = len(diffs)
    if n < 2:
        raise ValueError("paired_ttest needs at least two differences")
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        return TTestReport(n, mean, sd, t, (mean, mean))
    sem = sd / math.sqrt(n)
    t = mean / sem
    half = student_t_quantile(0.975, n - 1) * sem
    return TTestReport(n, mean, sd, t, (mean - half, mean + half))


# -- record aggregation ---------------------------------------------------

# each bucket of categorize, in report order, and its test of a method-centric fold
_BUCKETS = {
    ">1": lambda f: f > 1.0,
    ">2": lambda f: f >= 2.0,
    ">3": lambda f: f >= 3.0,
    "<1": lambda f: f < 0.0,
    "<2": lambda f: f <= -2.0,
    "<3": lambda f: f <= -3.0,
}


def _paired(
    records: Iterable[RunRecord], base_scheme: str
) -> Iterator[tuple[str, list[tuple[RunRecord, RunRecord]]]]:
    """Yield (scheme, [(record, baseline record), ...]) for each other scheme.

    Schemes come in name order and pairs in instance order; an instance
    without a baseline record has no pair.  Records that repeat an
    (instance, scheme) pair, which ``read_csv`` rejects, keep the last one.
    Raises ValueError if the baseline has no records.
    """
    by_scheme: dict[str, dict[str, RunRecord]] = {}
    for rec in records:
        by_scheme.setdefault(rec.scheme, {})[rec.instance] = rec
    base = by_scheme.get(base_scheme)
    if base is None:
        raise ValueError(f"no records for baseline scheme {base_scheme!r}")
    for scheme in sorted(by_scheme):
        if scheme != base_scheme:
            runs = sorted(by_scheme[scheme].items())
            yield scheme, [(rec, base[i]) for i, rec in runs if i in base]


def _finished(pair: tuple[RunRecord, RunRecord]) -> bool:
    return all(r.status != "limit" for r in pair)


def _timed(pair: tuple[RunRecord, RunRecord]) -> bool:
    return all(r.status != "limit" and r.elapsed_ms > 0 for r in pair)


@dataclass(frozen=True)
class BucketRow:
    scheme: str
    percentages: dict[str, float]
    pairs: int
    excluded: int


def categorize(records: Iterable[RunRecord], base_scheme: str) -> list[BucketRow]:
    """Per scheme: percentage of instances faster/slower than the baseline.

    Ratios are method-centric (ratio of base time to scheme time, folded), so
    ">2" counts instances where the scheme was at least twice as fast and
    "<2" where it was at least twice as slow.  Pairs with a limit outcome or
    a non-positive time on either side are excluded and counted separately.
    """
    rows = []
    for scheme, pairs in _paired(records, base_scheme):
        kept = [p for p in pairs if _timed(p)]
        folds = [folded_ratio(base_rec.elapsed_ms, rec.elapsed_ms) for rec, base_rec in kept]
        pct = {
            name: 100.0 * sum(map(test, folds)) / len(kept) if kept else 0.0
            for name, test in _BUCKETS.items()
        }
        rows.append(BucketRow(scheme, pct, len(kept), len(pairs) - len(kept)))
    return rows


def instance_class(instance: str) -> str:
    """Grouping key for report rows: the name up to the first dash."""
    return instance.split("-", 1)[0]


@dataclass(frozen=True)
class SpeedupRow:
    cls: str
    scheme: str
    time_fold: Optional[float]
    node_fold: Optional[float]
    pairs: int


def speedups(records: Iterable[RunRecord], base_scheme: str) -> list[SpeedupRow]:
    """Per class and scheme: mean folded time and node ratios vs the baseline.

    Positive values mean the baseline was faster (needed fewer nodes).  The
    classes are those of the baseline's instances; pairs are kept as in
    ``categorize``, and node folds also skip pairs with a zero node count.
    """
    records = list(records)
    paired = [(scheme, [p for p in pairs if _timed(p)])
              for scheme, pairs in _paired(records, base_scheme)]
    classes = sorted({instance_class(r.instance) for r in records if r.scheme == base_scheme})
    rows = []
    for cls in classes:
        for scheme, pairs in paired:
            tf, nf = [], []
            for rec, base_rec in pairs:
                if instance_class(rec.instance) != cls:
                    continue
                tf.append(folded_ratio(rec.elapsed_ms, base_rec.elapsed_ms))
                if rec.nodes > 0 and base_rec.nodes > 0:
                    nf.append(folded_ratio(rec.nodes, base_rec.nodes))
            rows.append(
                SpeedupRow(
                    cls,
                    scheme,
                    sum(tf) / len(tf) if tf else None,
                    sum(nf) / len(nf) if nf else None,
                    len(tf),
                )
            )
    return rows


@dataclass(frozen=True)
class SchemeTTest:
    scheme: str
    report: Optional[TTestReport]
    pairs: int
    excluded: int


def ttest_vs_base(records: Iterable[RunRecord], base_scheme: str) -> list[SchemeTTest]:
    """Paired t-test per scheme on time differences (baseline minus scheme).

    Pairs with a limit outcome on either side are excluded and counted.
    """
    out = []
    for scheme, pairs in _paired(records, base_scheme):
        kept = [p for p in pairs if _finished(p)]
        diffs = [b.elapsed_ms - r.elapsed_ms for r, b in kept]
        report = paired_ttest(diffs) if len(diffs) >= 2 else None
        out.append(SchemeTTest(scheme, report, len(diffs), len(pairs) - len(diffs)))
    return out


# -- text report -----------------------------------------------------------

def _fmt(value: Optional[float], width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    if value == math.inf:
        return "inf".rjust(width)
    if value == -math.inf:
        return "-inf".rjust(width)
    return f"{value:{width}.2f}"


def format_report(records: Sequence[RunRecord], base_scheme: str) -> str:
    """The three tables against ``base_scheme``: folded ratios, buckets, t-test."""
    lines = [
        f"mean folded ratios vs {base_scheme} "
        "(positive: baseline faster; t = time, n = nodes)",
        f"{'class':<14}{'scheme':<12}{'t':>9}{'n':>9}{'pairs':>7}",
    ]
    for row in speedups(records, base_scheme):
        lines.append(
            f"{row.cls:<14}{row.scheme:<12}"
            f"{_fmt(row.time_fold)}{_fmt(row.node_fold)}{row.pairs:>7}"
        )
    header = f"{'scheme':<12}" + "".join(f"{b:>8}" for b in _BUCKETS)
    lines += [
        "",
        f"% of instances faster (>) / slower (<) than {base_scheme} by factor",
        header + f"{'pairs':>7}{'excl':>7}",
    ]
    for row in categorize(records, base_scheme):
        cells = "".join(f"{row.percentages[b]:8.1f}" for b in _BUCKETS)
        lines.append(f"{row.scheme:<12}{cells}{row.pairs:>7}{row.excluded:>7}")
    lines += [
        "",
        f"paired t-test on time differences ({base_scheme} - scheme), ms "
        "(positive mean: scheme faster)",
        f"{'scheme':<12}{'n':>5}{'mean':>10}{'sd':>10}{'t':>9}"
        f"{'ci95 low':>11}{'ci95 high':>11}",
    ]
    for row in ttest_vs_base(records, base_scheme):
        if row.report is None:
            lines.append(f"{row.scheme:<12}{row.pairs:>5}" + " (not enough pairs)")
            continue
        r = row.report
        lines.append(
            f"{row.scheme:<12}{r.n:>5}{_fmt(r.mean, 10)}{_fmt(r.sd, 10)}"
            f"{_fmt(r.t)}{_fmt(r.ci95[0], 11)}{_fmt(r.ci95[1], 11)}"
        )
    return "\n".join(lines) + "\n"

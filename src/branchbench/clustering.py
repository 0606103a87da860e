"""One-dimensional k-means / x-means over value scores.

``xmeans`` grows the cluster count from 1 by locally splitting clusters in
two (children started at the cluster centroid plus/minus one local standard
deviation) and keeping a split only when the Bayesian information criterion
improves on the cluster's points; after each round of accepted splits a
global k-means pass refines all centroids.  Everything is deterministic:
split children start from the cluster's own statistics, not from a random
draw, so the same scores always give the same clustering.

The BIC convention: log-likelihood of a mixture of identical spherical
Gaussians with shared maximum-likelihood variance (denominator n - k, floored
at 1e-9), mixing weights n_j / n, penalized by (p / 2) * log n with
p = 2k parameters (k centroids, k - 1 weights, one variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

VARIANCE_FLOOR = 1e-9
_LLOYD_CAP = 200
_PASS_CAP = 100


@dataclass(frozen=True)
class KMeansResult:
    """One label per score, 0..k-1 over the non-empty clusters, and each
    label's mean score."""

    assignment: tuple[int, ...]
    centroids: tuple[float, ...]


@dataclass(frozen=True)
class Clustering:
    """Partition of item indices, clusters ordered by descending mean score."""

    clusters: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.clusters)


def _assign(scores: Sequence[float], centroids: Sequence[float]) -> list[int]:
    out = []
    for s in scores:
        best = 0
        best_d = abs(s - centroids[0])
        for j in range(1, len(centroids)):
            d = abs(s - centroids[j])
            if d < best_d:  # ties keep the lower-indexed centroid
                best, best_d = j, d
        out.append(best)
    return out


def _means(scores: Sequence[float], assignment: list[int], k: int):
    """Means of non-empty clusters in label order, plus the remapped labels."""
    sums = [0.0] * k
    counts = [0] * k
    for s, a in zip(scores, assignment):
        sums[a] += s
        counts[a] += 1
    remap = {}
    centroids = []
    for j in range(k):
        if counts[j]:
            remap[j] = len(centroids)
            centroids.append(sums[j] / counts[j])
    return centroids, [remap[a] for a in assignment]


def kmeans_1d(scores: Sequence[float], initial_centroids: Sequence[float]) -> KMeansResult:
    """Lloyd iteration from the given centroids, ``k`` of them; empty
    clusters are dropped."""
    k = len(initial_centroids)
    if k < 1:
        raise ValueError("need at least one initial centroid")
    if len(scores) < k:
        raise ValueError("need at least k scores")
    if len(set(initial_centroids)) != k:
        raise ValueError("initial centroids must be k distinct values")
    assignment = _assign(scores, initial_centroids)
    centroids, assignment = _means(scores, assignment, k)
    for _ in range(_LLOYD_CAP):
        new_assignment = _assign(scores, centroids)
        if new_assignment == assignment:
            break
        centroids, assignment = _means(scores, new_assignment, len(centroids))
    return KMeansResult(tuple(assignment), tuple(centroids))


def bic(scores: Sequence[float], assignment: Sequence[int], centroids: Sequence[float]) -> float:
    """BIC of a clustering under the convention in the module docstring."""
    n = len(scores)
    k = len(centroids)
    if n == 0 or k == 0:
        raise ValueError("bic needs at least one score and one centroid")
    counts = [0] * k
    ss = 0.0
    for s, a in zip(scores, assignment):
        if not 0 <= a < k:
            raise ValueError(f"assignment label {a} out of range")
        counts[a] += 1
        d = s - centroids[a]
        ss += d * d
    if any(c == 0 for c in counts):
        raise ValueError("bic requires non-empty clusters")
    sigma2 = max(ss / (n - k), VARIANCE_FLOOR) if n > k else VARIANCE_FLOOR
    loglik = (
        sum(c * math.log(c / n) for c in counts)
        - 0.5 * n * math.log(2.0 * math.pi * sigma2)
        - ss / (2.0 * sigma2)
    )
    return loglik - 0.5 * (2 * k) * math.log(n)


def _try_split(pts: list[float], centroid: float) -> Optional[tuple[tuple[float, ...], float]]:
    """2-means children plus their local BIC gain, if they beat one cluster."""
    # equal points always land on one child
    if len(pts) < 2 or min(pts) == max(pts):
        return None
    # squares are products: one that overflows gives inf, where ** raises
    sd = math.sqrt(sum((p - centroid) * (p - centroid) for p in pts) / len(pts))
    if sd == 0.0:
        sd = VARIANCE_FLOOR
    lo, hi = centroid - sd, centroid + sd
    if lo == hi:
        # sd is below float resolution at this magnitude; nothing to split
        return None
    child = kmeans_1d(pts, (lo, hi))
    if len(child.centroids) < 2:
        return None
    parent_bic = bic(pts, [0] * len(pts), [sum(pts) / len(pts)])
    gain = bic(pts, child.assignment, child.centroids) - parent_bic
    if gain > 0.0:
        return child.centroids, gain
    return None


def xmeans(scores: Sequence[float], kmax: int = 4) -> Clustering:
    """Grow clusters from k=1 by BIC-accepted splits, capped at ``kmax``."""
    if not scores:
        raise ValueError("xmeans needs at least one score")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    pts = [float(s) for s in scores]
    n = len(pts)
    centroids = [sum(pts) / n]
    assignment = [0] * n
    # every structure visited gets scored globally; the best one is returned
    # (splits themselves are accepted on local BIC only)
    best_bic = bic(pts, assignment, centroids)
    best = assignment

    for _ in range(_PASS_CAP):
        k = len(centroids)
        if k >= kmax:
            break
        clusters: list[list[float]] = [[] for _ in range(k)]
        for s, a in zip(pts, assignment):
            clusters[a].append(s)
        # the cluster whose local 2-means split gains the most BIC is split
        # this pass (ties: lower cluster index); one split per pass keeps
        # every intermediate k on the path, scored globally above
        chosen: Optional[tuple[int, tuple[float, ...]]] = None
        chosen_gain = 0.0
        for j in range(k):
            if len(clusters[j]) < 2:
                continue
            got = _try_split(clusters[j], centroids[j])
            if got is not None and got[1] > chosen_gain:
                chosen = (j, got[0])
                chosen_gain = got[1]
        if chosen is None:
            break
        out = [c for j, c in enumerate(centroids) if j != chosen[0]]
        out.extend(chosen[1])
        refined = kmeans_1d(pts, sorted(set(out)))
        centroids = list(refined.centroids)
        assignment = list(refined.assignment)
        score = bic(pts, assignment, centroids)
        if score > best_bic:
            best_bic = score
            best = assignment

    return _regroup(pts, best)


def _regroup(pts: list[float], assignment: list[int]) -> Clustering:
    """Clusters in descending mean order.

    Every labelling kept above is all zeros or a nearest-centroid assignment,
    so equal scores already share a label.
    """
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(assignment):
        groups.setdefault(a, []).append(i)
    ordered = sorted(
        groups.values(),
        key=lambda idxs: (
            -(sum(pts[i] for i in idxs) / len(idxs)),
            min(pts[i] for i in idxs),
            min(idxs),
        ),
    )
    return Clustering(tuple(tuple(sorted(idxs)) for idxs in ordered))

"""Score clustering: 1-D k-means, the BIC score, and x-means growth."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchbench.clustering import bic, kmeans_1d, xmeans
from oracles import best_contiguous_partition
from util import score_vector


# ---------------------------------------------------------------- k-means

def test_kmeans_separated_groups_exact():
    res = kmeans_1d([1.0, 1.0, 1.0, 10.0, 10.0], (1.0, 10.0))
    assert res.assignment == (0, 0, 0, 1, 1)
    assert res.centroids == (1.0, 10.0)


def test_kmeans_recovers_groups_from_rough_seeds():
    res = kmeans_1d([1.0, 1.0, 1.0, 10.0, 10.0], (0.191, 9.009))
    assert res.assignment == (0, 0, 0, 1, 1)
    assert res.centroids == (1.0, 10.0)


def test_kmeans_k1_is_the_mean():
    res = kmeans_1d([1.0, 2.0, 3.0, 6.0], (0.0,))
    assert res.centroids == (3.0,)
    assert res.assignment == (0, 0, 0, 0)


def test_kmeans_constant_input_collapses_to_one_cluster():
    # every point ties between both centroids; ties keep the lower index,
    # so the second cluster empties out and is dropped
    res = kmeans_1d([5.0] * 4, (4.0, 6.0))
    assert res.centroids == (5.0,)
    assert res.assignment == (0, 0, 0, 0)


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans_1d([1.0, 2.0], ())
    with pytest.raises(ValueError):
        kmeans_1d([1.0], (0.0, 1.0))
    with pytest.raises(ValueError):
        kmeans_1d([1.0, 2.0], (3.0, 3.0))


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.integers(1, 5),
    st.randoms(use_true_random=False),
)
def test_kmeans_centroids_are_cluster_means(pts, k, r):
    k = min(k, len(set(pts)))
    if k == 0:
        return
    init = r.sample(sorted(set(pts)), k)
    res = kmeans_1d(pts, init)
    assert len(res.centroids) <= k
    assert sorted(set(res.assignment)) == list(range(len(res.centroids)))
    for j, centroid in enumerate(res.centroids):
        members = [p for p, a in zip(pts, res.assignment) if a == j]
        assert centroid == pytest.approx(sum(members) / len(members), rel=1e-12, abs=1e-12)


# -------------------------------------------------------------------- BIC

def test_bic_zero_variance_split_uses_floor():
    got = bic([1.0, 1.0, 1.0, 10.0, 10.0], [0, 0, 0, 1, 1], [1.0, 10.0])
    expected = (
        3 * math.log(3 / 5)
        + 2 * math.log(2 / 5)
        - 2.5 * math.log(2 * math.pi * 1e-9)
        - 2 * math.log(5)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_bic_single_cluster_hand_value():
    # SS = 3*(3.6)^2 + 2*(5.4)^2 = 97.2, sigma^2 = 97.2/4 = 24.3
    got = bic([1.0, 1.0, 1.0, 10.0, 10.0], [0] * 5, [4.6])
    expected = -2.5 * math.log(2 * math.pi * 24.3) - 2.0 - math.log(5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_bic_three_point_line_hand_value():
    got = bic([1.0, 2.0, 3.0], [0, 0, 0], [2.0])
    expected = -1.5 * math.log(2 * math.pi) - 1.0 - math.log(3)
    assert got == pytest.approx(expected, rel=1e-12)


def test_bic_prefers_true_split_on_separated_data():
    pts = [1.0, 1.0, 1.0, 10.0, 10.0]
    one = bic(pts, [0] * 5, [4.6])
    two = bic(pts, [0, 0, 0, 1, 1], [1.0, 10.0])
    assert two > one


def test_bic_n_equals_k_is_finite():
    assert math.isfinite(bic([3.0, 7.0], [0, 1], [3.0, 7.0]))


def test_bic_input_validation():
    with pytest.raises(ValueError):
        bic([], [], [])
    with pytest.raises(ValueError):
        bic([1.0], [1], [2.0])
    with pytest.raises(ValueError):
        bic([1.0, 2.0], [0, 0], [1.5, 9.0])


# ---------------------------------------------------------------- x-means

def test_xmeans_separated_pair_splits():
    cl = xmeans([1.0, 1.0, 1.0, 10.0, 10.0])
    assert cl.k == 2
    assert cl.clusters == ((3, 4), (0, 1, 2))


def test_xmeans_singleton_input():
    cl = xmeans([7.5])
    assert cl.k == 1
    assert cl.clusters == ((0,),)


def test_xmeans_constant_input_stays_single():
    cl = xmeans([4.0] * 12)
    assert cl.k == 1
    assert cl.clusters == (tuple(range(12)),)


# branching.plan falls back without calling xmeans when every score is
# equal; that shortcut is exact only while this holds for every float a
# score can become, including the +-max that _score_as_float clamps to
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 40),
    st.integers(1, 8),
)
@example(0.0, 40, 8)
@example(-0.0, 2, 2)
@example(-7.0, 40, 4)
@example(1e200, 40, 2)
@example(-1e300, 17, 8)
@example(sys.float_info.max, 40, 8)
@example(-sys.float_info.max, 40, 8)
@example(sys.float_info.min, 3, 2)
@settings(max_examples=300)
def test_xmeans_equal_scores_give_one_cluster(c, n, kmax):
    cl = xmeans([c] * n, kmax=kmax)
    assert cl.k == 1
    assert cl.clusters == (tuple(range(n)),)


@pytest.mark.parametrize(
    "pts", [[1e200] * 39 + [2e200], [1e160] * 20 + [1e161] * 20], ids=["1e200", "1e160"]
)
def test_xmeans_huge_spreads_square_to_inf_without_raising(pts):
    # deviations past about 1.3e154 square to inf, which must not raise
    cl = xmeans(pts)
    assert sorted(i for c in cl.clusters for i in c) == list(range(len(pts)))
    assert 1 <= cl.k <= 4


def test_xmeans_kmax_one_never_splits():
    cl = xmeans([1.0, 1.0, 1.0, 10.0, 10.0], kmax=1)
    assert cl.k == 1


def test_xmeans_kmax_caps_growth():
    pts = score_vector(3)  # four well separated plateaus
    assert xmeans(pts, kmax=4).k == 4
    assert xmeans(pts, kmax=2).k <= 2


def test_xmeans_input_validation():
    with pytest.raises(ValueError):
        xmeans([])
    with pytest.raises(ValueError):
        xmeans([1.0], kmax=0)


def test_xmeans_huge_scores_do_not_crash():
    # promise products can exceed float split resolution; the split attempt
    # must degrade to "no split", not crash on colliding seed centroids
    cl = xmeans([1e24, 1e24, 1e24 + 1.0])
    assert cl.k >= 1


vectors = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(-9, 9).map(float), min_size=1, max_size=40),
)


@given(vectors, st.integers(1, 6))
@settings(max_examples=200)
def test_xmeans_output_invariants(pts, kmax):
    cl = xmeans(pts, kmax=kmax)

    flat = sorted(i for c in cl.clusters for i in c)
    assert flat == list(range(len(pts)))
    assert 1 <= cl.k <= min(kmax, len(set(pts)))

    # equal scores always land in the same cluster, which makes the cluster
    # score ranges strictly ordered
    label = {}
    for j, c in enumerate(cl.clusters):
        for i in c:
            label[i] = j
    for i, a in enumerate(pts):
        for other, b in enumerate(pts):
            if a == b:
                assert label[i] == label[other]
    for j in range(cl.k - 1):
        lo_of_j = min(pts[i] for i in cl.clusters[j])
        hi_of_next = max(pts[i] for i in cl.clusters[j + 1])
        assert lo_of_j > hi_of_next


@given(vectors, st.integers(1, 6))
@settings(max_examples=60)
def test_xmeans_deterministic(pts, kmax):
    assert xmeans(pts, kmax=kmax) == xmeans(pts, kmax=kmax)


def _achieved_bic(scores, clustering):
    pts = [float(s) for s in scores]
    assignment = [0] * len(pts)
    for j, cluster in enumerate(clustering.clusters):
        for i in cluster:
            assignment[i] = j
    centroids = [sum(pts[i] for i in c) / len(c) for c in clustering.clusters]
    return bic(pts, assignment, centroids)


@pytest.mark.parametrize("seed", range(0, 120))
def test_xmeans_matches_exhaustive_partition_search(seed):
    """On plateau-shaped vectors the greedy growth finds the BIC optimum."""
    scores = score_vector(seed)
    cl = xmeans(scores, kmax=4)
    _, best = best_contiguous_partition(scores, 4)
    assert _achieved_bic(scores, cl) == pytest.approx(best, abs=1e-9)

import itertools

import numpy as np
import pytest

from ufcm.kmeans import (
    IndicatorMatrix,
    _repair_empty,
    centroids,
    run_kmeans,
    update_u_with_candidates,
)


def fit_of(y, centers, labels):
    """||Y - G U^T||_F^2 spelled out sample by sample."""
    return sum(
        float(np.sum((y[:, j] - centers[:, labels[j]]) ** 2))
        for j in range(y.shape[1])
    )


def exhaustive_min_fit_induced(y, c):
    """Global K-means optimum: every partition, each with its own means."""
    n = y.shape[1]
    best = np.inf
    for combo in itertools.product(range(c), repeat=n):
        labels = np.asarray(combo)
        if len(set(combo)) < c:
            continue
        centers = np.column_stack(
            [y[:, labels == k].mean(axis=1) for k in range(c)]
        )
        best = min(best, fit_of(y, centers, labels))
    return best


def test_assign_repairs_empty_cluster():
    yt = np.array([[0.0], [0.1], [0.2], [5.0]])  # samples as rows
    center_rows = np.array([[0.0], [100.0]])  # nobody picks center 1
    labels = _repair_empty(yt, np.zeros(4, dtype=np.int64), center_rows, 2)
    # the donor's farthest member (sample 3) moved
    assert labels.tolist() == [0, 0, 0, 1]


def test_centroids_permutation_indicator(rng):
    y = rng.normal(size=(3, 4))
    perm = np.array([2, 0, 3, 1])
    g = centroids(y, IndicatorMatrix(perm, 4))
    for j in range(4):
        assert np.allclose(g[:, perm[j]], y[:, j])


def test_centroids_single_cluster(rng):
    y = rng.normal(size=(3, 6))
    g = centroids(y, IndicatorMatrix(np.zeros(6, dtype=int), 1))
    assert np.allclose(g[:, 0], y.mean(axis=1), atol=1e-12)


def test_centroids_matches_mean_loop_and_closed_form(rng):
    y = rng.normal(size=(4, 15))
    labels = rng.integers(0, 3, size=15)
    labels[:3] = [0, 1, 2]
    ind = IndicatorMatrix(labels, 3)
    g = centroids(y, ind)
    for k in range(3):
        members = [j for j in range(15) if labels[j] == k]
        mean = sum(y[:, j] for j in members) / len(members)
        assert np.abs(g[:, k] - mean).max() < 1e-10
    u = np.eye(3)[labels]
    closed = y @ u @ np.linalg.inv(u.T @ u)
    assert np.abs(g - closed).max() < 1e-10


def test_centroids_empty_cluster_raises(rng):
    y = rng.normal(size=(2, 4))
    with pytest.raises(ValueError, match="empty cluster"):
        centroids(y, IndicatorMatrix(np.array([0, 0, 1, 1]), 3))


def test_run_kmeans_separates_two_groups():
    y = np.array([[0.0, 0.2, 0.1, 10.0, 10.2, 9.9]])
    for seed in range(10):
        ind = run_kmeans(y, 2, seed).indicator.assignments
        assert len(set(ind[:3])) == 1
        assert len(set(ind[3:])) == 1
        assert ind[0] != ind[3]


def test_run_kmeans_c_equals_n(rng):
    y = rng.normal(size=(2, 5))
    res = run_kmeans(y, 5, seed=0)
    assert res.fit == pytest.approx(0.0, abs=1e-20)


def test_run_kmeans_fit_history_non_increasing(rng):
    for seed in range(20):
        y = np.random.default_rng(seed).normal(size=(3, 40))
        hist = run_kmeans(y, 4, seed).fit_history
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))


def test_run_kmeans_deterministic(rng):
    y = rng.normal(size=(2, 30))
    a = run_kmeans(y, 3, seed=77)
    b = run_kmeans(y, 3, seed=77)
    assert np.array_equal(a.indicator.assignments, b.indicator.assignments)
    assert np.array_equal(a.centers, b.centers)
    assert a.fit == b.fit


def test_run_kmeans_reaches_global_optimum_usually():
    # Clusterable instance: on unstructured noise no single-init Lloyd
    # (sklearn included) clears 80%, so the property is about data with
    # recoverable structure.
    rng = np.random.default_rng(2)
    y = np.hstack([rng.normal(size=(2, 5)), rng.normal(loc=3.0, size=(2, 5))])
    target = exhaustive_min_fit_induced(y, 2)
    hits = sum(
        run_kmeans(y, 2, seed).fit <= target + 1e-8 for seed in range(50)
    )
    assert hits >= 40  # >= 80% of seeds


def test_run_kmeans_rejects_too_many_clusters(rng):
    with pytest.raises(ValueError):
        run_kmeans(rng.normal(size=(2, 3)), 4, seed=0)


def test_update_u_r0_returns_incumbent(rng):
    y = rng.normal(size=(2, 12))
    u_prev = run_kmeans(y, 3, seed=0).indicator
    res = update_u_with_candidates(y, u_prev, 3, r=0, seed=1)
    assert res.indicator is u_prev
    assert np.allclose(res.centers, centroids(y, u_prev))
    assert res.fit == pytest.approx(
        fit_of(y, res.centers, u_prev.assignments), rel=1e-12
    )


def test_update_u_keeps_exhaustive_optimum():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(2, 10))
    target = exhaustive_min_fit_induced(y, 2)
    # find a seed whose run lands on the optimum, then feed it back in
    for seed in range(20):
        res = run_kmeans(y, 2, seed)
        if res.fit <= target + 1e-8:
            break
    assert res.fit <= target + 1e-8
    again = update_u_with_candidates(y, res.indicator, 2, r=8, seed=123)
    assert again.fit == pytest.approx(res.fit, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_update_u_never_increases_fit(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(3, 25))
    labels = rng.integers(0, 3, size=25)
    labels[:3] = [0, 1, 2]
    u_prev = IndicatorMatrix(labels, 3)
    incumbent_fit = fit_of(y, centroids(y, u_prev), labels)
    res = update_u_with_candidates(y, u_prev, 3, r=3, seed=seed)
    assert res.fit <= incumbent_fit + 1e-12

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_REAL, names_dtype
from ufcm import kmeans
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
    y = np.array([[0.0, 0.1, 0.2, 5.0]])  # one feature, four samples
    center_rows = np.array([[0.0], [100.0]])  # nobody picks center 1
    counts = np.array([4, 0])
    labels = _repair_empty(y, np.zeros(4, dtype=np.int64), center_rows, counts)
    # the donor's farthest member (sample 3) moved
    assert labels.tolist() == [0, 0, 0, 1]
    assert counts.tolist() == [3, 1]


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


def cycling_duplicates():
    """40 samples at 3 distinct points, for c = 5: `_repair_empty` refills
    an emptied cluster with a point another centroid sits on, and that
    point's copies then flip between the two clusters on every step, so
    the labels never repeat on consecutive steps."""
    rng = np.random.default_rng(8)
    points = rng.normal(size=(3, 2))
    y = points[rng.integers(0, 3, size=40)].T
    return y - y.mean(axis=1, keepdims=True)


def test_run_kmeans_stops_when_duplicate_samples_cycle():
    y = cycling_duplicates()
    for seed in range(10):
        res = run_kmeans(y, 5, seed)
        assert len(res.fit_history) < 10
        assert res.fit == pytest.approx(0.0, abs=1e-20)
        assert res.indicator.counts().min() >= 1


def test_run_kmeans_rejects_too_many_clusters(rng):
    with pytest.raises(ValueError):
        run_kmeans(rng.normal(size=(2, 3)), 4, seed=0)


def test_update_u_r0_returns_incumbent(rng):
    y = rng.normal(size=(2, 12))
    u_prev = run_kmeans(y, 3, seed=0).indicator
    res = update_u_with_candidates(y, u_prev, r=0, seed=1)
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
    again = update_u_with_candidates(y, res.indicator, r=8, seed=123)
    assert again.fit == pytest.approx(res.fit, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_update_u_never_increases_fit(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(3, 25))
    labels = rng.integers(0, 3, size=25)
    labels[:3] = [0, 1, 2]
    u_prev = IndicatorMatrix(labels, 3)
    incumbent_fit = fit_of(y, centroids(y, u_prev), labels)
    res = update_u_with_candidates(y, u_prev, r=3, seed=seed)
    assert res.fit <= incumbent_fit + 1e-12


def oracle_kmeans(y, c, seed, max_iter=100):
    """The Lloyd loop as it was when every step scored its fit directly:
    labels, (d', c) centers and the per-step direct fits."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    picks = rng.choice(y.shape[1], size=c, replace=False)
    center_rows = y[:, picks].T.copy()
    labels = None
    history = []
    for _ in range(max_iter):
        new = kmeans.assign_labels(y, center_rows)
        counts = np.bincount(new, minlength=c)
        new = _repair_empty(y, new, center_rows, counts)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        sums = kmeans.centroid_sums(y, labels, c)
        center_rows = sums / counts[:, None]
        history.append(kmeans.fit_value(y, center_rows.T, labels))
    return labels, center_rows.T.copy(), history


def oracle_update_u(y, u_prev, c, r, seed):
    """Index of the winning restart (-1: the incumbent), its fit and the
    Lloyd steps of all restarts, with the oracle's loop."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    best = kmeans.fit_value(y, centroids(y, u_prev), u_prev.assignments)
    winner, steps = -1, 0
    for i, s in enumerate(np.random.SeedSequence(seed).generate_state(r)):
        _, _, history = oracle_kmeans(y, c, int(s))
        steps += len(history)
        if history[-1] < best:
            best, winner = history[-1], i
    return winner, best, steps


def gaussian(seed, d, n):
    return np.random.default_rng(seed).normal(size=(d, n))


def centered_blobs(seed, d, n, c, separation=8.0):
    rng = np.random.default_rng(seed)
    means = separation * rng.normal(size=(d, c))
    y = means[:, rng.integers(0, c, size=n)] + rng.normal(size=(d, n))
    return y - y.mean(axis=1, keepdims=True)


def few_points(seed, d, n):
    """Samples drawn from 4 distinct points. When two initial centers
    coincide, the tie leaves a cluster empty and `_repair_empty` fills it;
    with c = 3 some cluster holds two points, so the fit is not 0."""
    points = np.random.default_rng(seed).normal(size=(d, 4))
    return points[:, np.random.default_rng(seed + 1).integers(0, 4, size=n)]


# name: (input from a seed, cluster count)
SHAPES = {
    "gaussian-2x30": (lambda s: gaussian(s, 2, 30), 3),
    "gaussian-1x60": (lambda s: gaussian(s, 1, 60), 5),
    "gaussian-10x800": (lambda s: gaussian(s, 10, 800), 10),
    "blobs-5x300": (lambda s: centered_blobs(s, 5, 300, 4), 4),
    "blobs-10x2000": (lambda s: centered_blobs(s, 10, 2000, 10), 10),
    "few-points-2x40": (lambda s: few_points(s, 2, 40), 3),
}
on_shapes = pytest.mark.parametrize("make, c", SHAPES.values(), ids=SHAPES)


@on_shapes
def test_run_kmeans_matches_the_direct_fit_loop(make, c):
    for seed in range(12):
        y = make(seed)
        labels, centers, history = oracle_kmeans(y, c, seed)
        res = run_kmeans(y, c, seed)
        assert np.array_equal(res.indicator.assignments, labels)
        assert np.array_equal(res.centers, centers)
        assert res.fit == history[-1]
        assert res.fit_history[-1] == res.fit
        assert len(res.fit_history) == len(history)
        # An entry's rounding is about 1e-16 of the total SS, far below
        # 1e-12 of the fit on these inputs.
        np.testing.assert_allclose(res.fit_history, history, rtol=1e-12)


def test_few_points_input_goes_through_the_empty_cluster_repair(monkeypatch):
    repairs = []

    def counting(y, labels, center_rows, counts):
        out = _repair_empty(y, labels, center_rows, counts)
        repairs.append(not np.array_equal(out, labels))
        return out

    monkeypatch.setattr(kmeans, "_repair_empty", counting)
    for seed in range(12):
        run_kmeans(few_points(seed, 2, 40), 3, seed)
    assert sum(repairs) >= 4


@on_shapes
def test_update_u_picks_the_direct_fit_loops_winner(make, c):
    winners = []
    for seed in range(8):
        y = make(seed)
        # An incumbent from one more run, so restarts both win and lose.
        u_prev = run_kmeans(y, c, seed + 100).indicator
        winner, fit, steps = oracle_update_u(y, u_prev, c, 3, seed)
        res = update_u_with_candidates(y, u_prev, r=3, seed=seed)
        assert res.winner == winner
        assert res.fit == fit
        assert res.lloyd_steps == steps
        if winner == -1:
            assert res.indicator is u_prev
        else:
            assert res.indicator is not u_prev
        winners.append(winner)
    assert -1 in winners and max(winners) >= 0


def transposed_rows(y):
    """``y`` as the transpose of a samples-as-rows array."""
    return np.ascontiguousarray(y.T).T


def strided_columns(y):
    """``y`` as every other column of a wider array."""
    wide = np.zeros((y.shape[0], 2 * y.shape[1]))
    wide[:, ::2] = y
    return wide[:, ::2]


@pytest.mark.parametrize("view", [transposed_rows, strided_columns])
def test_non_contiguous_views_give_the_bits_of_their_copy(view):
    y = centered_blobs(4, 6, 500, 5)
    v = view(y)
    assert not v.flags.c_contiguous and np.array_equal(v, y)
    for seed in range(3):
        a, b = run_kmeans(v, 5, seed), run_kmeans(y, 5, seed)
        assert np.array_equal(a.indicator.assignments, b.indicator.assignments)
        assert np.array_equal(a.centers, b.centers)
        assert a.fit == b.fit and a.fit_history == b.fit_history
        u_prev = run_kmeans(y, 5, seed + 10).indicator
        a = update_u_with_candidates(v, u_prev, r=3, seed=seed)
        b = update_u_with_candidates(y, u_prev, r=3, seed=seed)
        assert np.array_equal(a.indicator.assignments, b.indicator.assignments)
        assert np.array_equal(a.centers, b.centers)
        assert (a.fit, a.winner, a.lloyd_steps) == (
            b.fit, b.winner, b.lloyd_steps
        )


def same_run(a, b):
    """Equal K-means results, to the last bit."""
    return (
        np.array_equal(a.indicator.assignments, b.indicator.assignments)
        and np.array_equal(a.centers, b.centers)
        and a.fit == b.fit
        and a.fit_history == b.fit_history
    )


def loop_update_u(y, u_prev, r, seed):
    """The U update as a loop over one-seed `run_kmeans` calls: the winner
    (-1 for the incumbent, which wins ties), its result (None for the
    incumbent), the chosen fit and the Lloyd steps of each restart."""
    y = np.ascontiguousarray(y)
    fit = kmeans.fit_value(y, centroids(y, u_prev), u_prev.assignments)
    best, winner, steps = None, -1, []
    for i, s in enumerate(np.random.SeedSequence(seed).generate_state(r)):
        run = run_kmeans(y, u_prev.n_clusters, int(s))
        steps.append(len(run.fit_history))
        if run.fit < fit:
            best, fit, winner = run, run.fit, i
    return winner, best, fit, steps


@st.composite
def lockstep_problems(draw):
    """Data, cluster count, restart count, lockstep group size and seed.

    Gaussian columns, or columns drawn from at most 4 distinct points,
    where coinciding initial centers leave a cluster for `_repair_empty`
    to fill; or the input whose duplicate samples make the labels cycle.
    c = 1 and c = n are drawn on their own.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["gaussian", "few points", "cycle"]))
    if kind == "cycle":
        y, c = cycling_duplicates(), 5
    else:
        d, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(d, n))
        if kind == "few points":
            y = y[:, rng.integers(0, min(n, 4), size=n)]
        c = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    r = draw(st.integers(0, 12))
    group = draw(st.integers(1, 13))
    if draw(st.booleans()):
        y = strided_columns(y)
    return y, c, r, group, seed


@settings(max_examples=200, deadline=None)
@given(lockstep_problems())
def test_lockstep_runs_give_the_bits_of_one_seed_runs(problem):
    y, c, r, group, seed = problem
    yc = np.ascontiguousarray(y)
    seeds = [seed + i for i in range(r)]
    runs = kmeans._lloyd_lockstep(yc, c, seeds, kmeans._finite_total(yc))
    assert len(runs) == r
    for s, run in zip(seeds, runs):
        assert same_run(run, run_kmeans(y, c, s))

    u_prev = run_kmeans(y, c, seed + r).indicator
    with pytest.MonkeyPatch.context() as mp:
        # Groups of `group` restarts, so they split when group < r.
        mp.setattr(kmeans, "LOCKSTEP_ENTRIES", group * c * y.shape[1])
        res = update_u_with_candidates(y, u_prev, r, seed)
    winner, best, fit, steps = loop_update_u(y, u_prev, r, seed)
    assert (res.winner, res.fit, res.lloyd_steps) == (winner, fit, sum(steps))
    if winner == -1:
        assert res.indicator is u_prev
        assert np.array_equal(res.centers, centroids(yc, u_prev))
    else:
        assert np.array_equal(
            res.indicator.assignments, best.indicator.assignments
        )
        assert np.array_equal(res.centers, best.centers)
    if c == 1:  # every restart ties with the incumbent
        assert winner == -1


@pytest.mark.parametrize("r", [0, 7])
def test_update_u_logs_each_restarts_lloyd_steps_in_seed_order(
    r, caplog, monkeypatch
):
    y = centered_blobs(3, 4, 200, 4)
    u_prev = run_kmeans(y, 4, 99).indicator
    monkeypatch.setattr(kmeans, "LOCKSTEP_ENTRIES", 3 * 4 * 200)
    caplog.set_level(logging.DEBUG, logger="ufcm.kmeans")
    res = update_u_with_candidates(y, u_prev, r=r, seed=5)
    winner, _, _, steps = loop_update_u(y, u_prev, r, 5)
    assert r == 0 or len(set(steps)) > 1  # the order shows
    [record] = [rec for rec in caplog.records if rec.name == "ufcm.kmeans"]
    assert record.getMessage().startswith(
        f"u update: winner={winner} restarts={r} "
        f"lloyd_steps={res.lloyd_steps} "
        f"restart_steps=[{','.join(map(str, steps))}] incumbent_fit="
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_kmeans_rejects_non_finite_entries(bad):
    y = np.random.default_rng(0).normal(size=(3, 40))
    y[1, 7] = bad
    with pytest.raises(
        ValueError,
        match=rf"non-finite entries \(1 of 120\): y\[1, 7\] = {bad}$",
    ):
        run_kmeans(y, 3, seed=0)


@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_update_u_rejects_non_finite_entries(bad, r):
    y = np.random.default_rng(1).normal(size=(2, 30))
    u_prev = run_kmeans(y, 3, seed=0).indicator
    y[0, 3] = y[1, 20] = bad
    with pytest.raises(ValueError, match=r"\(2 of 60\): y\[0, 3\] = "):
        update_u_with_candidates(y, u_prev, r=r, seed=1)


def test_run_kmeans_rejects_data_too_large_to_square():
    y = 1e200 * np.random.default_rng(2).normal(size=(2, 10))
    with pytest.raises(ValueError, match="sum of squares overflows"):
        run_kmeans(y, 2, seed=0)


@pytest.mark.parametrize("kind", sorted(NON_REAL))
def test_kmeans_entry_points_reject_non_real_input(kind):
    bad = NON_REAL[kind](np.arange(12.0).reshape(2, 6))
    u = IndicatorMatrix(np.arange(6) % 2, 2)
    with pytest.raises(ValueError, match=names_dtype(bad)):
        run_kmeans(bad, 2, 0)
    with pytest.raises(ValueError, match=names_dtype(bad)):
        update_u_with_candidates(bad, u, 1, 0)

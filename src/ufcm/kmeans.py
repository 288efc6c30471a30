"""Indicator-matrix K-means in the transformed space.

Data enters as (d', n): columns are samples already projected by the
coefficient matrix, the layout the solver holds. The kernels
`assign_labels`, `centroid_sums`, `fit_value` and `_repair_empty` take it
as it is: no samples-as-rows copy is made. `run_kmeans` and
`update_u_with_candidates` make a non-contiguous input C-contiguous once
per call, so every product runs on one memory layout and a view gives the
bits its copy gives. Center rows are (c, d'); `centers` in a result and
`fit_value`'s centers are (d', c), like G.

Assignment expands the squared distance: ||y - c||^2 = ||y||^2 - 2 y.c +
||c||^2, and ||y||^2 is the same for every center, so the nearest center
minimizes ||c||^2 - 2 y.c, one matrix product per call: Y^T C^T, with C
the center rows, formed on the transposed view of Y, samples as rows. Its
last bits follow the GEMM's operand order and layout, and near-tie labels
follow those bits; the cluster-major product C Y rounds differently on many
shapes (with OpenBLAS: k >= 16, or c >= 255), so the row-wise product
stays. -2 times its transpose (scaling by -2 is exact) is written into a
cluster-major (c, n) array, one row of n per center, so the minimum and the
index that attains it come from a few passes over c rows rather than from
one short reduction per sample. Exact ties keep the lowest cluster index,
as `np.argmin` does. A near-tie, one whose distance gap is within the
rounding of that expansion (about 1e-16 of ||y||^2 + ||c||^2), follows the
expanded value, which may differ from the directly computed distance.

Input must be real and finite. `run_kmeans` and
`update_u_with_candidates` reject data of a dtype other than bool,
integer or float (`linalg.require_real`), and data whose sum of squares
is not finite, which is data with a NaN or an infinite entry (the error
names them) or data too large to square; a NaN score would match no
center.

A Lloyd step scores itself from the cluster sums it already holds, by the
decomposition within-cluster SS = total SS - between-cluster SS:

    sum_i ||y_i - g_k(i)||^2 = sum_i ||y_i||^2 - sum_k ||s_k||^2 / n_k,

with s_k the sum and n_k the size of cluster k. The total is computed once
per run, so a step's score costs O(c d') and gathers no (n, d') array.
The fit that candidates are compared by is computed directly, once per run,
at the returned state.

The U update's restarts run in lockstep (`_lloyd_lockstep`, which
`run_kmeans` calls with one seed). A step advances a group of a runs as
one (a, c, d') block of center rows: one stacked product scores all of
them, one stacked product sums their clusters, and one offset `bincount`
counts them, so the 20 or so numpy calls of a step are paid once per
group, not once per run. A slice of a stacked product is the GEMM that
its run alone calls, and every other pass is elementwise or reduces along
the same axis as for one run, so each run keeps the bits of its one-seed
call. A group holds at most LOCKSTEP_ENTRIES // (c n) runs, and at least
one. Past about 1e5 entries in its (a, c, n) block, a group is slower
than fewer runs at a time, likely because the step's arrays then outgrow
a 2 MB L2 cache. Milliseconds of one U update with r = 10 (2 vCPUs, 2 MB
L2 per core, OpenBLAS, numpy 2.4; median of 30-100 alternated calls per
group size a):

    c n     shape, workload          a = 1   a = 2   a = 4   a = 8   a = 10
    800     4 x 200, tall-eig         2.54    2.02    1.69    1.46    1.16
    7500    5 x 1500, cli-csv        11.15   10.33    9.43    9.51    8.47
    20000   4 x 5000                 16.86   13.94   14.70   18.77   19.30
    50000   10 x 5000, wide-kmeans   46.15   46.75   47.66   50.77   50.16

LOCKSTEP_ENTRIES = 2^16 thus runs all 10 restarts together at c n = 800,
8 and then 2 at 7500, 3 at a time at 20000 and one at a time at 50000.

All randomness flows from explicit integer seeds; runs are bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import require_real

_log = logging.getLogger(__name__)

LLOYD_MAX_STEPS = 100  # cap on centroid updates per K-means run
# Cap on a * c * n, the entries of one lockstep group's (a, c, n) score
# block; measured in the module docstring.
LOCKSTEP_ENTRIES = 1 << 16


@dataclass
class IndicatorMatrix:
    """One cluster id per sample: the one-hot matrix U in compact form.

    Produced by `run_kmeans`, every cluster is non-empty, which keeps U^T U
    invertible for the centroid closed form.
    """

    assignments: np.ndarray  # (n,) int64 in 0..n_clusters-1
    n_clusters: int

    def __post_init__(self):
        a = np.array(self.assignments, dtype=np.int64, order="C")
        if a.ndim != 1:
            raise ValueError("assignments must be a 1-d array")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if a.size and (a.min() < 0 or a.max() >= self.n_clusters):
            raise ValueError("assignment out of range")
        a.flags.writeable = False
        self.assignments = a

    @property
    def n(self) -> int:
        return self.assignments.size

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.n_clusters)


class KMeansResult(NamedTuple):
    """A K-means state and its fit.

    `fit` is ||Y - G U^T||_F^2, computed directly at the returned state.
    `fit_history` has one entry per centroid update. Each entry but the
    last is total SS minus between-cluster SS, taken from the step's
    cluster sums; the cancellation costs about 1e-16 of the total SS, so
    the entries are non-increasing up to that rounding. The last entry is
    `fit` itself.
    """

    indicator: IndicatorMatrix
    centers: np.ndarray  # (d', c)
    fit: float
    fit_history: tuple[float, ...] = ()


class CandidateChoice(NamedTuple):
    """The U update's pick among the incumbent and the restarted runs."""

    indicator: IndicatorMatrix
    centers: np.ndarray  # (d', c)
    fit: float           # ||Y - G U^T||_F^2 at the chosen state
    winner: int          # -1 for the incumbent, else the winning restart
    lloyd_steps: int     # centroid updates over all the restarts


def assign_labels(y, center_rows):
    """Index of the nearest center row for every column of ``y``.

    ``center_rows`` is (c, k), or (a, c, k) for a runs at once; the labels
    are then (a, n), each row what its (c, k) slice alone gives.
    """
    c = center_rows.shape[-2]
    product = y.T @ center_rows.swapaxes(-1, -2)  # (..., n, c)
    scores = np.multiply(product.swapaxes(-1, -2), -2.0, order="C")
    scores += np.einsum("...ij,...ij->...i", center_rows, center_rows)[
        ..., None
    ]
    hit = scores == scores.min(axis=-2, keepdims=True)
    # Row k ranks c - k, so the largest rank among the hits is the lowest
    # index that attains the minimum.
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c))[:, None]
    return c - (hit * rank).max(axis=-2).astype(np.int64)


def centroid_sums(y, labels, c):
    """Per-cluster sums of the columns of ``y`` as a (c, k) matrix, via one
    product with the one-hot indicator; (a, c, k) for (a, n) labels.
    Counts are the caller's."""
    onehot = (labels[..., None, :] == np.arange(c)[:, None]).astype(
        np.float64
    )
    return onehot @ y.T


def fit_value(y, centers, labels):
    """Sum of squared distances of every column of ``y`` to its assigned
    column of ``centers`` (k, c)."""
    diff = y - centers[:, labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _finite_total(y: np.ndarray) -> float:
    """sum_i ||y_i||^2 over the columns of ``y``, which must be finite.

    The sum is NaN or inf exactly when an entry is, or when finite entries
    are too large to square and add; the ValueError says which.
    """
    total = float(np.einsum("ij,ij->", y, y))
    if np.isfinite(total):
        return total
    bad = np.argwhere(~np.isfinite(y))  # (feature, sample) pairs
    if not bad.size:
        raise ValueError(
            "y's sum of squares overflows: "
            f"max |y| = {float(np.abs(y).max()):.3e}"
        )
    shown = ", ".join(f"y[{i}, {j}] = {y[i, j]}" for i, j in bad[:3])
    more = ", ..." if len(bad) > 3 else ""
    raise ValueError(
        f"y has non-finite entries ({len(bad)} of {y.size}): {shown}{more}"
    )


def _repair_empty(y, labels, center_rows, counts):
    """Give each empty cluster the farthest member of the largest cluster.

    ``counts`` is the bincount of ``labels``; it is updated in place to
    the returned labels' counts. Distance is measured to the largest
    cluster's current (pre-update) centroid. Ties pick the lowest index.
    Requires n >= c.
    """
    empties = list(np.flatnonzero(counts == 0))
    if not empties:
        return labels
    labels = labels.copy()
    for k in empties:
        donor = int(np.argmax(counts))
        members = np.flatnonzero(labels == donor)
        diff = y[:, members] - center_rows[donor][:, None]
        far = members[int(np.argmax(np.einsum("ij,ij->j", diff, diff)))]
        labels[far] = k
        counts[donor] -= 1
        counts[k] += 1
    return labels


def centroids(y: np.ndarray, indicator: IndicatorMatrix) -> np.ndarray:
    """Per-cluster means of the assigned samples, as a (d', c) matrix.

    Equals Y U (U^T U)^{-1} since U^T U is the diagonal of cluster sizes.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[1] != indicator.n:
        raise ValueError("sample count mismatch")
    counts = indicator.counts()
    if np.any(counts == 0):
        raise ValueError(f"empty cluster {int(np.argmin(counts))}")
    sums = centroid_sums(y, indicator.assignments, indicator.n_clusters)
    return (sums / counts[:, None]).T


def run_kmeans(y: np.ndarray, c: int, seed: int) -> KMeansResult:
    """Lloyd iterations from c distinct random samples as initial centers.

    Alternates assignment and centroid steps until an assignment repeats
    one the run has made before, or for at most LLOYD_MAX_STEPS (100)
    centroid updates. The repeat is usually the previous step's: a fixed
    point. With duplicate samples, `_repair_empty` can refill an emptied
    cluster with a point another centroid sits on, and the labels then
    cycle without one. Lloyd cannot revisit a labelling while its fit
    strictly falls, so a run that does not cycle stops where a fixed-point
    test would stop it.

    The fit history has one entry per centroid update, each from that
    step's cluster sums (total SS - between-cluster SS), non-increasing up
    to rounding; `fit`, its last entry, is computed directly at the
    returned labels and centers. Deterministic given the seed.

    Raises ValueError, naming the dtype, if y is not bool, integer or
    float, and, naming the entries, if y has a NaN or an infinite entry
    (see `_finite_total`).
    """
    y = np.ascontiguousarray(require_real(y, "y"), dtype=np.float64)
    n = y.shape[1]
    if not 1 <= c <= n:
        raise ValueError(f"cluster count {c} out of range [1, {n}]")
    return _lloyd_lockstep(y, c, [seed], _finite_total(y))[0]


def _lloyd_lockstep(y, c, seeds, total) -> list[KMeansResult]:
    """The `run_kmeans` run of every seed, all stepped together.

    ``y`` is C-contiguous float64 with 1 <= c <= n, and ``total`` its sum
    of squares. Each step advances the a live runs as one (a, c, k) center
    block: one stacked product scores them, one stacked product sums their
    clusters. A slice of a stacked product runs the GEMM its run alone
    would, so every run keeps the bits of a one-seed call. A run leaves
    the block when it revisits one of its own labellings. Returns one
    result per seed, in seed order.
    """
    a, n = len(seeds), y.shape[1]
    picks = np.empty((a, c), dtype=np.intp)
    for i, s in enumerate(seeds):
        picks[i] = np.random.default_rng(s).choice(n, size=c, replace=False)
    rows = y.T[picks]  # (a, c, k) center rows
    # One byte per sample for c <= 256 keeps the visited sets small.
    key_type = np.min_scalar_type(c - 1)
    live = np.arange(a)  # the run that each slice advances
    offsets = c * live[:, None]
    visited = [set() for _ in range(a)]
    between_ss = np.empty((LLOYD_MAX_STEPS, a))  # a column per live run
    # Labels, center rows and per-step between-cluster SS of each run.
    ends = [None] * a
    labels = None
    for step in range(LLOYD_MAX_STEPS):
        new = assign_labels(y, rows)
        counts = np.bincount(
            (new + offsets).ravel(), minlength=live.size * c
        ).reshape(-1, c)
        if not counts.all():
            for k in np.flatnonzero(counts.min(axis=1) == 0):
                new[k] = _repair_empty(y, new[k], rows[k], counts[k])
        keys = new.astype(key_type)
        gone = []
        for k, seen in enumerate(visited):
            key = keys[k].tobytes()
            if key in seen:
                gone.append(k)
            seen.add(key)
        for k in gone:
            ends[live[k]] = labels[k], rows[k], between_ss[:step, k]
        if len(gone) == live.size:
            break
        if gone:
            stay = np.ones(live.size, dtype=bool)
            stay[gone] = False
            live, new, counts = live[stay], new[stay], counts[stay]
            between_ss = between_ss[:, stay]
            offsets = c * np.arange(live.size)[:, None]
            visited = [v for v, keep in zip(visited, stay) if keep]
        labels = new
        sums = centroid_sums(y, labels, c)
        rows = sums / counts[..., None]
        between = np.einsum("...ij,...ij->...i", sums, sums) / counts
        between_ss[step] = between.sum(axis=-1)
    else:
        for k, run in enumerate(live):
            ends[run] = labels[k], rows[k], between_ss[:, k]

    results = []
    for labels, center_rows, ss in ends:
        centers = center_rows.T.copy()
        fit = fit_value(y, centers, labels)
        fits = (total - ss).tolist()
        fits[-1] = fit
        results.append(KMeansResult(
            indicator=IndicatorMatrix(labels, c),
            centers=centers,
            fit=fit,
            fit_history=tuple(fits),
        ))
    return results


def update_u_with_candidates(
    y: np.ndarray, u_prev: IndicatorMatrix, r: int, seed: int
) -> CandidateChoice:
    """Best of the incumbent and r fresh K-means runs, by fit.

    Each candidate is the `run_kmeans` run (at most LLOYD_MAX_STEPS, 100,
    centroid updates) of a distinct derived seed, with the cluster count
    c taken from `u_prev`, scored by ||Y - G U^T||_F^2 under its own
    induced centroids; the incumbent is scored the same way and wins ties,
    so the returned fit never exceeds the incumbent's. When the incumbent
    wins, its own `u_prev` object is returned. The runs are stepped
    together, in groups of at most LOCKSTEP_ENTRIES // (c n) seeds, and
    give the bits of one `run_kmeans` call per seed. Non-real or
    non-finite y raises ValueError, as in `run_kmeans`, also when r = 0.

    Each call logs one DEBUG line to the "ufcm.kmeans" logger: the winner,
    the restarts run, their Lloyd steps in total and per restart in seed
    order, the incumbent's fit and the chosen fit.
    """
    y = np.ascontiguousarray(require_real(y, "y"), dtype=np.float64)
    if u_prev.n != y.shape[1]:
        raise ValueError("u_prev does not match the sample count")
    if r < 0:
        raise ValueError("r must be >= 0")

    total = _finite_total(y)
    inc_centers = centroids(y, u_prev)
    inc_fit = fit_value(y, inc_centers, u_prev.assignments)
    best = KMeansResult(indicator=u_prev, centers=inc_centers, fit=inc_fit)

    c = u_prev.n_clusters
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(r)]
    group = max(1, LOCKSTEP_ENTRIES // (c * y.shape[1]))
    winner, run_steps = -1, []
    for lo in range(0, r, group):
        runs = _lloyd_lockstep(y, c, seeds[lo:lo + group], total)
        for i, cand in enumerate(runs, start=lo):
            run_steps.append(len(cand.fit_history))
            if cand.fit < best.fit:
                best, winner = cand, i
    _log.debug(
        "u update: winner=%d restarts=%d lloyd_steps=%d restart_steps=[%s] "
        "incumbent_fit=%r fit=%r",
        winner, r, sum(run_steps), ",".join(map(str, run_steps)),
        inc_fit, best.fit,
    )
    return CandidateChoice(
        best.indicator, best.centers, best.fit, winner, sum(run_steps)
    )

"""Feature ranking and clustering-agreement metrics.

Accuracy maps predicted clusters to ground-truth classes with the optimal
injective assignment, found on the contingency table by a numpy Kuhn-Munkres
(shortest augmenting paths with row and column potentials); mutual
information is normalized by the geometric mean of the partition entropies.
Both are invariant to relabeling of either argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DataMatrix
from .kmeans import run_kmeans
from .linalg import require_real


@dataclass
class FeatureRanking:
    """Per-feature scores with the descending order, ties by lower index."""

    scores: np.ndarray  # (d,)
    order: np.ndarray   # permutation of 0..d-1


def rank_features(w: np.ndarray) -> FeatureRanking:
    """Score each feature by the l2 norm of its coefficient row.

    ValueError, naming the dtype, unless W holds bool, integer or float
    numbers."""
    w = np.asarray(require_real(w, "w"), dtype=np.float64)
    scores = np.linalg.norm(w, axis=1)
    order = np.argsort(-scores, kind="stable")
    return FeatureRanking(scores=scores, order=order)


def select(data: DataMatrix, ranking: FeatureRanking, m: int) -> DataMatrix:
    """Restrict to the top-m ranked features, keeping sample order and labels."""
    if not 1 <= m <= data.d:
        raise ValueError(f"m={m} out of range [1, {data.d}]")
    idx = ranking.order[:m]
    names = None
    if data.feature_names is not None:
        names = [data.feature_names[i] for i in idx]
    return DataMatrix(
        data.values[idx], feature_names=names, labels=data.labels
    )


def _as_indices(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    _, idx = np.unique(labels, return_inverse=True)
    return idx.astype(np.int64)


def contingency(pred, truth) -> np.ndarray:
    """Joint count table of two labelings of the same samples: a
    (c_pred, c_true) array of non-negative ints summing to the sample
    count."""
    p = _as_indices(pred)
    t = _as_indices(truth)
    if p.size != t.size:
        raise ValueError("label sequences differ in length")
    if p.size == 0:
        raise ValueError("empty labelings")
    cp = int(p.max()) + 1
    ct = int(t.max()) + 1
    return np.bincount(p * ct + t, minlength=cp * ct).reshape(cp, ct)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix, minimizing the
    total cost: Kuhn-Munkres by shortest augmenting paths with row and
    column potentials (Jonker & Volgenant, 1987), O(c^3).

    Rows are added one at a time. Row and column 0 of the framed problem are
    virtual: column 0 holds the row being added, and `owner[j]` is the row
    matched to column j (0 for none).
    """
    size = cost.shape[0]
    framed = np.zeros((size + 1, size + 1))
    framed[1:, 1:] = cost
    u = np.zeros(size + 1)
    v = np.zeros(size + 1)
    owner = np.zeros(size + 1, dtype=np.int64)
    for i in range(1, size + 1):
        owner[0] = i
        j0 = 0
        slack = np.full(size + 1, np.inf)  # stays inf on visited columns
        came_from = np.zeros(size + 1, dtype=np.int64)
        used = np.zeros(size + 1, dtype=bool)
        while True:
            used[j0] = True
            slack[j0] = np.inf
            i0 = owner[j0]
            reduced = framed[i0] - u[i0] - v
            reduced[used] = np.inf
            came_from[reduced < slack] = j0
            np.minimum(slack, reduced, out=slack)
            j0 = int(np.argmin(slack))
            delta = slack[j0]
            u[owner[used]] += delta
            v[used] -= delta
            slack -= delta
            if owner[j0] == 0:
                break
        while j0:  # augment along the path back to the virtual column
            j1 = came_from[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = np.empty(size, dtype=np.int64)
    cols[owner[1:] - 1] = np.arange(size)
    return cols


def accuracy(pred, truth) -> float:
    """Fraction matched under the best injective cluster-to-class mapping.

    The contingency table is padded to square and the maximizing assignment
    found by a numpy Kuhn-Munkres on max-count-minus-count costs.
    """
    counts = contingency(pred, truth)
    size = max(counts.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    cols = _min_cost_assignment(padded.max() - padded)
    return float(padded[np.arange(size), cols].sum()) / int(counts.sum())


def nmi(pred, truth) -> float:
    """Mutual information over the geometric mean of partition entropies.

    Computed directly on contingency counts with the 0 log 0 = 0 convention.
    When either partition has a single class the denominator vanishes: the
    value is defined as 1.0 if both are single-class, else 0.0.
    """
    counts = contingency(pred, truth)
    n = int(counts.sum())
    t_pred = counts.sum(axis=1)
    t_true = counts.sum(axis=0)

    den_pred = float(np.sum(t_pred * np.log(t_pred / n)))
    den_true = float(np.sum(t_true * np.log(t_true / n)))
    if den_pred == 0.0 or den_true == 0.0:
        return 1.0 if counts.shape == (1, 1) else 0.0

    nz = counts > 0
    ratio = n * counts[nz] / np.outer(t_pred, t_true)[nz]
    num = float(np.sum(counts[nz] * np.log(ratio)))
    value = num / np.sqrt(den_pred * den_true)
    return float(min(max(value, 0.0), 1.0))


class EvalStats(NamedTuple):
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float


def evaluate_clustering(
    data: DataMatrix, c: int, runs: int, seed: int
) -> EvalStats:
    """Repeated K-means on every feature row, scored against labels.

    Pass `select` output to test a feature subset. Each run uses a distinct
    seed derived from `seed`; means and standard deviations (ddof 0) of
    accuracy and mutual information are reported.
    """
    if data.labels is None:
        raise ValueError("ground-truth labels are required for evaluation")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    accs = np.empty(runs)
    nmis = np.empty(runs)
    for i, s in enumerate(np.random.SeedSequence(seed).generate_state(runs)):
        pred = run_kmeans(data.values, c, int(s)).indicator.assignments
        accs[i] = accuracy(pred, data.labels)
        nmis[i] = nmi(pred, data.labels)
    return EvalStats(
        acc_mean=float(accs.mean()),
        acc_std=float(accs.std()),
        nmi_mean=float(nmis.mean()),
        nmi_std=float(nmis.std()),
    )

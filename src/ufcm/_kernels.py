"""Hot numeric kernels for the embedded K-means loops.

Kernels take samples-as-rows arrays: ``yt`` is (n, k) float64, ``centers`` is
(c, k), ``labels`` is (n,) int64. ``yt`` may be a transposed view of a
features-by-samples matrix; no kernel copies it.

Assignment expands the squared distance: ||y - c||^2 = ||y||^2 - 2 y.c +
||c||^2, and ||y||^2 is the same for every center, so the nearest center is
the argmin of ||c||^2 - 2 y.c, one matrix product per call. Exact ties keep
the lowest cluster index. A near-tie, one whose distance gap is within the
rounding of that expansion (about 1e-16 of ||y||^2 + ||c||^2), follows the
expanded value, which may differ from the directly computed distance.
"""

import numpy as np


def assign_labels(yt, centers):
    """Index of the nearest center for every row of ``yt``."""
    scores = yt @ centers.T
    scores *= -2.0
    scores += np.einsum("ij,ij->i", centers, centers)
    return np.argmin(scores, axis=1)


def centroid_sums(yt, labels, c):
    """Per-cluster sums of the rows of ``yt`` as a (c, k) matrix, and the
    per-cluster counts, via one product with the one-hot indicator."""
    onehot = np.zeros((c, labels.size))
    onehot[labels, np.arange(labels.size)] = 1.0
    return onehot @ yt, np.bincount(labels, minlength=c)


def fit_value(yt, centers, labels):
    """Sum of squared distances of every row to its assigned center."""
    diff = yt - centers[labels]
    return float(np.einsum("ij,ij->", diff, diff))

"""Scatter matrices, symmetric eigendecomposition, PCA initialization.

Pure functions on ndarrays; the typed containers from `dataset` are peeled
off by callers. Everything here is dense d x d algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ScatterSet:
    """Total scatter plus the label-dependent between/within splits."""

    s_t: np.ndarray
    s_b: np.ndarray | None = None
    s_w: np.ndarray | None = None


@dataclass
class EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (d, k), orthonormal columns


def require_centered(x: np.ndarray, tol: float = 1e-6) -> None:
    """Raise unless every entry is finite and every feature mean is
    numerically zero.

    The tolerance scales with the data magnitude so that centered large-scale
    data does not trip the check on floating-point residue.
    """
    x = np.asarray(x)
    scale = float(np.abs(x).max()) if x.size else 0.0
    if not np.isfinite(scale):  # the max of |x| is NaN or inf if any entry is
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    worst = float(np.abs(x.mean(axis=1)).max())
    if worst > tol * max(1.0, scale):
        raise ValueError(
            f"matrix is not centered: max |feature mean| = {worst:.3e}"
        )


def total_scatter(x: np.ndarray) -> np.ndarray:
    """Sum of outer products of centered samples, for pre-centered x.

    Input must already be centered (checked); the result then equals x @ x.T.
    """
    x = np.asarray(x, dtype=np.float64)
    require_centered(x)
    xc = x - x.mean(axis=1, keepdims=True)
    return xc @ xc.T


def labeled_scatters(x: np.ndarray, labels: np.ndarray) -> ScatterSet:
    """Between-class, within-class, and total scatter of labeled data.

    Classes are label values 0..c-1 and must all be non-empty. Satisfies
    s_t = s_w + s_b up to round-off. Does not require centered input.
    """
    x = np.asarray(x, dtype=np.float64)
    if labels is None:
        raise ValueError("labels are required")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[1],):
        raise ValueError("labels length must match the sample count")
    c = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c)
    if np.any(counts == 0):
        raise ValueError(f"empty class among 0..{c - 1}")

    mean = x.mean(axis=1, keepdims=True)
    xc = x - mean
    s_t = xc @ xc.T

    d = x.shape[0]
    s_b = np.zeros((d, d))
    s_w = np.zeros((d, d))
    for k in range(c):
        block = x[:, labels == k]
        mk = block.mean(axis=1, keepdims=True)
        diff = (mk - mean).ravel()
        s_b += counts[k] * np.outer(diff, diff)
        bc = block - mk
        s_w += bc @ bc.T
    return ScatterSet(s_t=s_t, s_b=s_b, s_w=s_w)


def sym_eig_top(a: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, values descending.

    The input is symmetrized as (a + a.T)/2 to absorb round-off asymmetry
    before decomposition; inputs asymmetric beyond 1e-8 relative are
    rejected. Each eigenvector's sign is fixed by making its
    largest-magnitude entry positive, so results are reproducible.
    Eigenvalue ties at the k boundary keep the first-returned vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    asym = float(np.linalg.norm(a - a.T))
    if asym > 1e-8 * max(norm, 1e-300):
        raise ValueError(
            f"matrix is not symmetric: ||a - a.T|| = {asym:.3e}"
        )
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"k={k} out of range [1, {a.shape[0]}]")

    sym = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    values = values[::-1][:k].copy()
    vectors = vectors[:, ::-1][:, :k].copy()
    for j in range(k):
        lead = np.argmax(np.abs(vectors[:, j]))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenPairs(values=values, vectors=vectors)


def pca_init(x: np.ndarray, d_prime: int) -> np.ndarray:
    """Top-d' eigenvectors of the total scatter of centered x.

    Returns the (d, d') matrix with orthonormal columns used to start the
    solver.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= d_prime <= x.shape[0]:
        raise ValueError(f"d_prime={d_prime} out of range [1, {x.shape[0]}]")
    return sym_eig_top(total_scatter(x), d_prime).vectors

"""Input checks and the symmetric eigendecomposition that gives W.

Pure functions on ndarrays; the typed containers from `dataset` are peeled
off by callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sym_eig_top(a: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, values descending.

    Symmetry is not checked: `np.linalg.eigh` reads only the lower
    triangle, so the caller passes an exactly symmetric matrix (the solver's
    X X^T and `build_m` output are). Each eigenvector's sign is fixed by
    making its largest-magnitude entry positive, so results are
    reproducible. Eigenvalue ties at the k boundary keep the first-returned
    vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"k={k} out of range [1, {a.shape[0]}]")

    values, vectors = np.linalg.eigh(a)
    values = values[::-1][:k].copy()
    vectors = vectors[:, ::-1][:, :k].copy()
    for j in range(k):
        lead = np.argmax(np.abs(vectors[:, j]))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenPairs(values=values, vectors=vectors)

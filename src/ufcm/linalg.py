"""Input checks and the symmetric eigensolvers that give W.

Pure functions on ndarrays; the typed containers from `dataset` are peeled
off by callers.

Two ways to the top-k eigenpairs of a symmetric matrix:

- `sym_eig_top`: a full `np.linalg.eigh` of the dense matrix, O(d^3) time
  and d^2 memory, whatever k is.
- `block_krylov_top`: Rayleigh-Ritz on a block Krylov basis grown from a
  warm start (block Lanczos with full re-orthogonalisation; Golub &
  Underwood 1977, Saad 2011 ch. 6). It only applies the matrix to thin
  blocks, so the matrix never has to exist.

`gram_eig_top` gives the top eigenpairs of X X^T from the thin SVD of X,
without forming the product. All three fix eigenvector signs the same way
(`fix_signs`) and report a relative residual.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

KRYLOV_TOL = 1e-11     # relative Ritz residual at which the loop stops
KRYLOV_MAX_STEPS = 64  # hard cap on block steps
CENTER_TOL = 1e-6      # feature-mean bound, relative to max(1, max |x|)
_ROUNDOFF = 1e-14      # residual floor, as a share of ||T|| (see below)
_RITZ_GAP = 4          # block steps between Rayleigh-Ritz checks
_DEFLATE = 1e-12       # new directions below this share of the block drop


@dataclass
class EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    `residual` is max_j ||A v_j - lambda_j v_j|| / max_j |lambda_j| over
    the k returned pairs (inf if every lambda_j is 0 and A V is not).
    `steps` counts block Krylov steps, 0 for a direct decomposition;
    `converged` is False when Ritz pairs missed their tolerance. `path`
    names the solver: "dense" for a direct LAPACK decomposition, "krylov"
    for Ritz pairs of `block_krylov_top`, and "krylov-fallback" (set by
    `solver.update_w`) for a dense decomposition taken after a Krylov loop
    was abandoned, whose steps are then counted.
    """

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (d, k), orthonormal columns
    residual: float
    steps: int = 0
    converged: bool = True
    path: str = "dense"


def require_centered(x: np.ndarray) -> None:
    """Raise unless every entry is finite and every feature mean is
    numerically zero.

    The tolerance, CENTER_TOL (1e-6) times max(1, max |x|), scales with the
    data magnitude so that centered large-scale data does not trip the
    check on floating-point residue.
    """
    x = np.asarray(x)
    scale = float(np.abs(x).max()) if x.size else 0.0
    if not np.isfinite(scale):  # the max of |x| is NaN or inf if any entry is
        raise ValueError("matrix has non-finite (NaN or inf) entries")
    worst = float(np.abs(x.mean(axis=1)).max())
    if worst > CENTER_TOL * max(1.0, scale):
        raise ValueError(
            f"matrix is not centered: max |feature mean| = {worst:.3e}"
        )


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's largest-magnitude entry is
    positive (the first such entry on ties); returns `vectors`."""
    lead = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return vectors


def _residual(av, v, values) -> tuple[float, float]:
    """max_j ||A v_j - lambda_j v_j|| of the pairs (values, V), given A V:
    absolute, and relative as in `EigenPairs.residual`."""
    r = float(np.linalg.norm(av - v * values, axis=0).max())
    scale = float(max(abs(values[0]), abs(values[-1])))
    if scale > 0:
        return r, r / scale
    return r, 0.0 if r == 0 else float("inf")


def sym_eig_top(a: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, values descending.

    Symmetry is not checked: `np.linalg.eigh` reads only the lower
    triangle, so the caller passes an exactly symmetric matrix (the solver's
    X X^T and `build_m` output are). Signs follow `fix_signs`, so results
    are reproducible. Eigenvalue ties at the k boundary keep the
    first-returned vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"k={k} out of range [1, {a.shape[0]}]")

    values, vectors = np.linalg.eigh(a)
    values = values[::-1][:k].copy()
    vectors = fix_signs(vectors[:, ::-1][:, :k].copy())
    _, residual = _residual(a @ vectors, vectors, values)
    return EigenPairs(values, vectors, residual)


def gram_eig_top(x: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of X X^T from the thin SVD of the (d, n) matrix X.

    The d x d product is never formed: the eigenvectors are the leading left
    singular vectors and the eigenvalues the squared singular values. Needs
    k <= min(d, n), the number of singular vectors the thin SVD has.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= k <= min(x.shape):
        raise ValueError(f"k={k} out of range [1, {min(x.shape)}]")
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    values = s[:k] ** 2
    vectors = fix_signs(u[:, :k].copy())
    _, residual = _residual(x @ (x.T @ vectors), vectors, values)
    return EigenPairs(values, vectors, residual)


def block_krylov_top(
    apply: Callable[[np.ndarray], np.ndarray], start: np.ndarray
) -> EigenPairs:
    """Top-k Ritz pairs of a symmetric operator, warm-started at `start`.

    `apply(V)` returns A V for a (d, b) block V; `start` is (d, k) with
    orthonormal columns, and k pairs come back. The basis is the block
    Krylov space [S, A S, A^2 S, ...] of S = `start`. Each step applies A
    to the newest block, projects the result off the basis twice (the first
    projection's coefficients are also the new column of the projected
    matrix T = Q^T A Q), drops directions below `_DEFLATE` of the block's
    norm and appends the rest. At checkpoints a small `eigh` of T gives the
    top-k Ritz pairs; the loop stops once their residual
    max_j ||A w_j - theta_j w_j|| is at most KRYLOV_TOL * max_j |theta_j|,
    or after KRYLOV_MAX_STEPS (64) steps. Checkpoints come every
    `_RITZ_GAP` steps: once the basis is large, an `eigh` of T costs more
    than a block step.

    The residual cannot fall below the round-off of `eigh` on T, about
    eps * ||T||. When A has entries far above its top eigenvalues (the
    solver's reweighting diagonal on a zero row of W reaches 1e13), that
    floor lies above the tolerance; the pairs then also count as converged
    at a residual of `_ROUNDOFF` * ||T||, within a small factor of what a
    dense `eigh` of A attains.

    Monotone by construction: S lies in the basis, so the returned W has
    Tr(W^T A W) >= Tr(S^T A S) wherever the loop stops. The tolerance sets
    the accuracy, not the ascent.

    `converged` is False when the loop stopped short of the tolerance: at
    the step cap, when the next block would give the basis d columns, or
    when the basis became invariant first. An invariant basis gives exact
    eigenpairs, but not necessarily the top k: a start confined to an
    invariant subspace of A never leaves it. The same holds, undetected,
    for a start that reaches the tolerance inside such a subspace; only the
    caller, who knows A, can rule that out (see `solver.update_w`). The
    Ritz pairs are returned either way; the caller decides whether to use
    them.
    """
    start = np.asarray(start, dtype=np.float64)
    d, k = start.shape
    if not 1 <= k <= d:
        raise ValueError(f"start has {k} columns, out of range [1, {d}]")
    cols = min(d, (KRYLOV_MAX_STEPS + 1) * k)
    q = np.empty((d, cols))    # orthonormal basis
    aq = np.empty((d, cols))   # A applied to it
    t = np.empty((cols, cols))
    q[:, :k] = start
    lo, hi, steps = 0, k, 0
    while True:
        block = apply(q[:, lo:hi])
        aq[:, lo:hi] = block
        coef = q[:, :hi].T @ block
        t[:hi, lo:hi] = coef
        t[lo:hi, :hi] = coef.T
        t[lo:hi, lo:hi] = (coef[lo:] + coef[lo:].T) / 2

        if steps % _RITZ_GAP == 0 or steps == KRYLOV_MAX_STEPS:
            ritz = _rayleigh_ritz(q[:, :hi], aq[:, :hi], t[:hi, :hi], k)
            if ritz.converged or steps == KRYLOV_MAX_STEPS:
                break

        norm = np.linalg.norm(block)
        block -= q[:, :hi] @ coef
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        keep = s > _DEFLATE * norm
        width = int(np.count_nonzero(keep))
        if width == 0 or hi + width >= d:
            # An invariant basis has round-off residuals whether or not it
            # holds the top eigenvectors, so its Ritz pairs prove nothing;
            # a basis of d columns is cheaper to replace by a dense eigh.
            ritz = _rayleigh_ritz(q[:, :hi], aq[:, :hi], t[:hi, :hi], k)
            ritz.converged = False
            break
        new = u[:, keep]
        new -= q[:, :hi] @ (q[:, :hi].T @ new)
        lo, hi = hi, hi + width
        q[:, lo:hi], _ = np.linalg.qr(new)
        steps += 1

    ritz.steps = steps
    ritz.path = "krylov"
    return ritz


def _rayleigh_ritz(q, aq, t, k: int) -> EigenPairs:
    """Top-k Ritz pairs from the basis Q, A Q and T = Q^T A Q."""
    theta, y = np.linalg.eigh(t)
    floor = _ROUNDOFF * max(abs(theta[0]), abs(theta[-1]))
    theta = theta[::-1][:k].copy()
    y = y[:, ::-1][:, :k]
    vectors = q @ y
    worst, residual = _residual(aq @ y, vectors, theta)
    converged = residual <= KRYLOV_TOL or worst <= floor
    return EigenPairs(theta, fix_signs(vectors), residual, 0, converged)

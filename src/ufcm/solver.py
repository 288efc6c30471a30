"""Joint margin/clustering/sparsity solver.

Maximizes, over orthonormal-column W, centroids G, and one-hot U:

    Tr(W^T S_t W) - alpha ||W^T X - G U^T||_F^2 - beta * sum_i ||w^i||^p

by alternating: reweighting diagonal from W's row norms, pseudo-label update
through restarted K-means, W from the top eigenvectors of the assembled
symmetric matrix, then the centroid closed form. Each step can only improve
the objective, so the traced value is non-decreasing.

The tracked regularizer is the p-th power of the row-norm aggregate (the
form whose quadratic surrogate the reweighting diagonal majorizes); the
trace field name `regularizer_pow_p` records the convention.

Input X must be centered (features-by-samples); use `dataset.center` first.
Labels never enter: `solve` takes a bare ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .kmeans import (
    IndicatorMatrix,
    centroids,
    run_kmeans,
    update_u_with_candidates,
)
from .linalg import require_centered, sym_eig_top


@dataclass
class SolverConfig:
    """Solver hyperparameters. d_prime defaults to c when left as None."""

    alpha: float
    beta: float
    p: float
    c: int
    d_prime: int | None = None
    r: int = 10
    max_iter: int = 50
    tol: float = 1e-6
    eps_row: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 < self.p < 2.0:
            raise ValueError("p must lie in (0, 2)")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.d_prime is not None and self.d_prime < 1:
            raise ValueError("d_prime must be >= 1")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not self.eps_row > 0:
            raise ValueError("eps_row must be > 0")


@dataclass
class SolverTrace:
    """Per-iteration diagnostics; row 0 is the post-initialization state."""

    objective: list[float] = field(default_factory=list)
    fit_term: list[float] = field(default_factory=list)
    scatter_term: list[float] = field(default_factory=list)
    regularizer_pow_p: list[float] = field(default_factory=list)
    assignment_changes: list[int] = field(default_factory=list)
    w_orth_error: list[float] = field(default_factory=list)
    rel_change: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.objective)


@dataclass
class SolverResult:
    w: np.ndarray            # (d, d'), orthonormal columns
    u: IndicatorMatrix
    g: np.ndarray            # (d', c)
    trace: SolverTrace
    converged: bool
    iterations: int


def compute_d(w: np.ndarray, p: float, eps_row: float) -> np.ndarray:
    """Reweighting diagonal from W's row norms: (p/2) ||w^i||^(p-2).

    Row norms are floored at eps_row so zero rows stay finite. Accepts the
    p=2 boundary (all ones) for testing; the solver itself requires p < 2.
    """
    if not 0.0 < p <= 2.0:
        raise ValueError("p must lie in (0, 2]")
    if not eps_row > 0:
        raise ValueError("eps_row must be > 0")
    norms = np.maximum(np.linalg.norm(w, axis=1), eps_row)
    return 1.0 / ((2.0 / p) * norms ** (2.0 - p))


def _terms(y, w, g, u: IndicatorMatrix, cfg: SolverConfig):
    """Scatter, fit and regularizer terms, given Y = W^T X."""
    scatter = float(np.einsum("ij,ij->", y, y))  # Tr(W^T X X^T W)
    fit = _kernels.fit_value(
        np.ascontiguousarray(y.T), np.ascontiguousarray(g.T), u.assignments
    )
    reg = float(np.sum(np.linalg.norm(w, axis=1) ** cfg.p))
    return scatter, fit, reg


def objective(
    x: np.ndarray,
    w: np.ndarray,
    g: np.ndarray,
    u: IndicatorMatrix,
    cfg: SolverConfig,
) -> float:
    """Tr(W^T S_t W) - alpha ||W^T X - G U^T||_F^2 - beta sum_i ||w^i||^p."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if w.shape[0] != x.shape[0] or g.shape[0] != w.shape[1]:
        raise ValueError("inconsistent shapes for x, w, g")
    if g.shape[1] != u.n_clusters or u.n != x.shape[1]:
        raise ValueError("indicator does not match x and g")
    require_centered(x)
    scatter, fit, reg = _terms(w.T @ x, w, g, u, cfg)
    return scatter - cfg.alpha * fit - cfg.beta * reg


def build_m(
    x: np.ndarray,
    u: IndicatorMatrix,
    d_diag: np.ndarray,
    cfg: SolverConfig,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble the symmetric matrix whose top eigenvectors give W.

    M = S_t + alpha X U (U^T U)^{-1} U^T X^T - alpha X X^T - beta D.
    For centered input S_t = X X^T (passed as `gram` when already computed).
    The projector term reduces to the weighted outer products of cluster
    sums: sum_k s_k s_k^T / n_k. Both products are one symmetric BLAS update
    each, so M is exactly symmetric without a final (M + M^T) / 2.
    """
    x = np.asarray(x, dtype=np.float64)
    if gram is None:
        require_centered(x)
        gram = x @ x.T
    counts = u.counts()
    if np.any(counts == 0):
        raise ValueError("empty cluster")
    sums, _ = _kernels.centroid_sums(x.T, u.assignments, u.n_clusters)
    scaled = sums.T / np.sqrt(counts)          # (d, c)
    m = np.multiply(gram, 1.0 - cfg.alpha)
    proj = scaled @ scaled.T
    proj *= cfg.alpha
    m += proj
    m[np.diag_indices_from(m)] -= cfg.beta * np.asarray(d_diag)
    return m


def update_w(m: np.ndarray, d_prime: int) -> np.ndarray:
    """Top-d' eigenvectors of M: the trace-optimal orthonormal W.

    M must be exactly symmetric, as `build_m` returns it; only its lower
    triangle is read.
    """
    return sym_eig_top(m, d_prime).vectors


def update_g(y: np.ndarray, u: IndicatorMatrix) -> np.ndarray:
    """Centroid closed form W^T X U (U^T U)^{-1}, i.e. per-cluster means,
    from the projected data Y = W^T X."""
    return centroids(y, u)


def solve(x: np.ndarray, cfg: SolverConfig) -> SolverResult:
    """Run the full alternating loop on a centered (d, n) matrix.

    Initialization: W from PCA on X, U from one K-means run on W^T X, G from
    the centroid closed form. Each subsequent iteration recomputes the
    reweighting diagonal, refreshes U against r restarted candidates, takes W
    from the eigendecomposition, and updates G. Stops when the relative
    objective change |J_i - J_{i-1}| / (1 + |J_{i-1}|) drops below cfg.tol,
    or after cfg.max_iter iterations (converged=False, trace still full).

    Deterministic: per-iteration seeds derive from cfg.seed.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a (d, n) matrix")
    d, n = x.shape
    require_centered(x)
    d_prime = cfg.d_prime if cfg.d_prime is not None else cfg.c
    if d_prime > d:
        raise ValueError(f"d_prime={d_prime} exceeds feature count {d}")
    if cfg.c > n:
        raise ValueError(f"c={cfg.c} exceeds sample count {n}")

    gram = x @ x.T
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.max_iter + 1)

    w = update_w(gram, d_prime)  # PCA init: top eigenvectors of S_t
    y = w.T @ x  # shared by the terms, the G update and the next U update
    km = run_kmeans(y, cfg.c, int(seeds[0]))
    u, g = km.indicator, km.centers

    trace = SolverTrace()

    def record(changes: int):
        scatter, fit, reg = _terms(y, w, g, u, cfg)
        obj = scatter - cfg.alpha * fit - cfg.beta * reg
        prev = trace.objective[-1] if trace.objective else None
        rel = np.inf if prev is None else abs(obj - prev) / (1.0 + abs(prev))
        trace.objective.append(obj)
        trace.fit_term.append(fit)
        trace.scatter_term.append(scatter)
        trace.regularizer_pow_p.append(reg)
        trace.assignment_changes.append(changes)
        trace.w_orth_error.append(
            float(np.linalg.norm(w.T @ w - np.eye(d_prime)))
        )
        trace.rel_change.append(rel)
        return rel

    record(0)

    converged = False
    iterations = 0
    for i in range(1, cfg.max_iter + 1):
        d_diag = compute_d(w, cfg.p, cfg.eps_row)
        km = update_u_with_candidates(y, u, cfg.c, cfg.r, int(seeds[i]))
        changes = int(
            np.count_nonzero(km.indicator.assignments != u.assignments)
        )
        u = km.indicator
        w = update_w(build_m(x, u, d_diag, cfg, gram=gram), d_prime)
        y = w.T @ x
        g = update_g(y, u)
        iterations = i
        if record(changes) < cfg.tol:
            converged = True
            break

    return SolverResult(
        w=w, u=u, g=g, trace=trace, converged=converged, iterations=iterations
    )

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

The W step has two paths, which `solve` alone chooses by the shape of the
(d, n) input (`_matrix_free`); it holds X X^T exactly on the dense one:

- dense (d <= n): `build_m` forms the d x d matrix M and `sym_eig_top`
  decomposes it in full. The PCA init decomposes X X^T.
- matrix-free (d > n): `build_m` returns an `MOperator`, which applies
  M = (1 - alpha) X X^T + alpha S S^T - beta D to thin (d, b) blocks
  through the (d, n) data and the (d, c) scaled cluster sums S, at
  O(d (n + c) b) per apply, or O(d c b) at alpha = 1, and `update_w` takes
  the top d' Ritz pairs from a block Krylov basis warm-started at the
  previous W (`linalg.block_krylov_top`, which checks the pairs at steps
  extrapolated from the residual's rate of fall). No d x d array exists on this
  path unless the Krylov loop stops short of its tolerance (step cap, an
  invariant basis, or a basis that would fill R^d) or its Ritz values fall
  below a lower bound on M's top d' eigenvalues (`MOperator.top_floor`);
  W then comes from the dense path instead, recorded as
  "krylov-fallback". The PCA init maps the top eigenvectors of the n x n
  X^T X through X (`linalg.gram_eig_top`).

Either form of M leaves out a term whose weight is exactly 0, the X X^T
term at alpha = 1 and the D term at beta = 0, and never forms it. The
terms it keeps are formed and added as in the full sum, so M has the same
bits, up to the sign of an exact zero.

The switch point d = n is where the d x d problem stops being smaller than
the data. No benchmark workload has d > n with d near n or d small.
Single-process solves of seeded blobs (4 outer iterations, 2 vCPUs, each
path forced, quartiles of 9) put the matrix-free path behind only at the
shape nearest d = n: 300 x 250 took 89-94-100 ms dense and 98-109-114 ms
matrix-free, 800 x 700 597-608-660 and 432-441-485 ms, and 400 x 80
111-113-125 and 59-62-65 ms.

The previous W lies in the Krylov basis, so the Ritz W has Tr(W^T M W) >=
Tr(W_prev^T M W_prev) wherever the loop stops: the W step stays an ascent
step and the objective stays monotone whatever the tolerance. The Ritz
vectors match the dense eigenvectors to the Krylov tolerance, not to
round-off (subspaces within about 1e-9 on blob inputs), so for d > n the
results differ slightly from the dense path's on the same input, which
is what earlier versions always took. Each path is bit-reproducible on its
own.

Input X must be centered (features-by-samples); use `dataset.center` first.
Labels never enter: `solve` takes a bare ndarray.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .kmeans import (
    IndicatorMatrix,
    centroid_sums,
    centroids,
    fit_value,
    run_kmeans,
    update_u_with_candidates,
)
from .linalg import (
    EigenPairs,
    block_krylov_top,
    gram_eig_top,
    require_centered,
    sym_eig_top,
)
from .metrics import accuracy

_log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Solver hyperparameters, validated when built. d_prime = None means
    d' = c; `d_prime_for` is the one place d' is resolved."""

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
        for name in ("alpha", "beta", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def d_prime_for(self, d: int, n: int) -> int:
        """d' for a (d, n) input: d_prime, or c when it is None.
        Raises ValueError when d' > d or c > n."""
        d_prime = self.d_prime if self.d_prime is not None else self.c
        if d_prime > d:
            raise ValueError(f"d_prime={d_prime} exceeds feature count {d}")
        if self.c > n:
            raise ValueError(f"c={self.c} exceeds sample count {n}")
        return d_prime


@dataclass
class SolverTrace:
    """Per-iteration diagnostics; row 0 is the post-initialization state."""

    objective: list[float] = field(default_factory=list)
    fit_term: list[float] = field(default_factory=list)
    scatter_term: list[float] = field(default_factory=list)
    regularizer_pow_p: list[float] = field(default_factory=list)
    # Samples moved to another cluster, under the best id matching.
    assignment_changes: list[int] = field(default_factory=list)
    w_orth_error: list[float] = field(default_factory=list)
    rel_change: list[float] = field(default_factory=list)
    # How the state's W was computed (see `linalg.EigenPairs`).
    eig_path: list[str] = field(default_factory=list)
    eig_steps: list[int] = field(default_factory=list)
    eig_checks: list[int] = field(default_factory=list)
    eig_residual: list[float] = field(default_factory=list)
    # How the state's U was chosen: centroid updates over its K-means runs
    # (row 0: the init run) and the winning restart (-1: the incumbent).
    lloyd_steps: list[int] = field(default_factory=list)
    u_winner: list[int] = field(default_factory=list)

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


@dataclass(frozen=True)
class MOperator:
    """M = (1 - alpha) X X^T + alpha S S^T - beta D as a product, unformed.

    S is the (d, c) matrix of cluster sums over sqrt(cluster size), so
    S S^T = X U (U^T U)^{-1} U^T X^T. Applying M to a (d, b) block costs
    O(d (n + c) b), or O(d c b) at alpha = 1; `dense` forms the d x d
    matrix for the fallback. A term with weight 0 (alpha = 1 for X X^T,
    beta = 0 for D) is never formed, in either form.
    """

    x: np.ndarray       # (d, n), centered
    scaled: np.ndarray  # (d, c)
    d_diag: np.ndarray  # (d,)
    alpha: float
    beta: float

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = self.alpha * (self.scaled @ (self.scaled.T @ v))
        if self.alpha != 1.0:
            data = self.x @ (self.x.T @ v)
            data *= 1.0 - self.alpha
            out += data
        if self.beta != 0.0:
            out -= (self.beta * self.d_diag)[:, None] * v
        return out

    def dense(self, gram: np.ndarray | None = None) -> np.ndarray:
        """M as an exactly symmetric d x d array; `gram` is X X^T if
        already computed, and is neither formed nor read at alpha = 1.
        Each product is one symmetric BLAS update."""
        m = self.scaled @ self.scaled.T
        m *= self.alpha
        if self.alpha != 1.0:
            if gram is None:
                gram = self.x @ self.x.T
            m += np.multiply(gram, 1.0 - self.alpha)
        if self.beta != 0.0:
            m[np.diag_indices_from(m)] -= self.beta * self.d_diag
        return m

    def top_floor(self, k: int) -> float:
        """A lower bound on M's k-th largest eigenvalue, -inf if none.

        X has centered rows, so rank(X) <= n - 1 and R^d has a subspace of
        dimension d - n + 1 orthogonal to X's columns. There z^T M z =
        -beta z^T D z >= -beta max(D), so by Courant-Fischer the k-th
        eigenvalue is at least -beta max(D) when k <= d - n + 1. With
        beta = 0 that bound is 0, which a start inside range(X) misses:
        M maps range(X) into itself, and for alpha > 1 M has negative
        eigenvalues there.
        """
        d, n = self.x.shape
        if k > d - n + 1:
            return -np.inf
        return -self.beta * float(self.d_diag.max())


def _matrix_free(d: int, n: int) -> bool:
    """The W-step switch rule: matrix-free when d > n."""
    return d > n


def compute_d(w: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Reweighting diagonal from W's row norms: (p/2) ||w^i||^(p-2).

    Row norms are floored at cfg.eps_row so zero rows stay finite.
    """
    norms = np.maximum(np.linalg.norm(w, axis=1), cfg.eps_row)
    return 1.0 / ((2.0 / cfg.p) * norms ** (2.0 - cfg.p))


def build_m(
    x: np.ndarray,
    u: IndicatorMatrix,
    d_diag: np.ndarray,
    cfg: SolverConfig,
    gram: np.ndarray | None = None,
) -> np.ndarray | MOperator:
    """Assemble the symmetric matrix whose top eigenvectors give W.

    M = S_t + alpha X U (U^T U)^{-1} U^T X^T - alpha X X^T - beta D, with
    S_t = X X^T: X must be a centered (d, n) float64 array, which `solve`
    checks once. The projector term is S S^T with S the (d, c) cluster
    sums scaled by 1 / sqrt(n_k).

    Returns the dense d x d array, exactly symmetric, when `gram` = X X^T
    is given, else the `MOperator`: only S is built, no d x d array.
    """
    counts = u.counts()
    if np.any(counts == 0):
        raise ValueError("empty cluster")
    sums = centroid_sums(x, u.assignments, u.n_clusters)
    scaled = sums.T / np.sqrt(counts)          # (d, c)
    op = MOperator(x, scaled, d_diag, cfg.alpha, cfg.beta)
    return op if gram is None else op.dense(gram)


def update_w(
    m: np.ndarray | MOperator, d_prime: int, start: np.ndarray | None = None
) -> EigenPairs:
    """Top-d' eigenpairs of M; the vectors are the trace-optimal W.

    A dense M must be exactly symmetric, as `build_m` returns it; only its
    lower triangle is read. An `MOperator` needs `start`, the previous W:
    the block Krylov loop is warm-started there, so its Ritz W never has a
    smaller Tr(W^T M W) than `start`. If the loop stops short of its
    tolerance, or its d'-th Ritz value lies below `MOperator.top_floor` by
    more than its residual (converged, but not to the top d'), M is formed
    and decomposed in full ("krylov-fallback").
    """
    if isinstance(m, MOperator):
        if start is None or start.shape[1] != d_prime:
            raise ValueError("the matrix-free W step needs a (d, d') start")
        ritz = block_krylov_top(m.__matmul__, start)
        slack = ritz.residual * float(np.abs(ritz.values).max())
        if ritz.converged and ritz.values[-1] + slack >= m.top_floor(d_prime):
            return ritz
        pairs = sym_eig_top(m.dense(), d_prime)
        pairs.path = "krylov-fallback"
        pairs.steps, pairs.checks = ritz.steps, ritz.checks
        return pairs
    return sym_eig_top(m, d_prime)


def update_g(y: np.ndarray, u: IndicatorMatrix) -> np.ndarray:
    """Centroid closed form W^T X U (U^T U)^{-1}, i.e. per-cluster means,
    from the projected data Y = W^T X."""
    return centroids(y, u)


def solve(x: np.ndarray, cfg: SolverConfig) -> SolverResult:
    """Run the full alternating loop on a centered (d, n) matrix.

    Initialization: W from PCA on X, U from one K-means run on W^T X, G from
    the centroid closed form. Each subsequent iteration recomputes the
    reweighting diagonal, refreshes U against r restarted candidates, takes W
    from the top eigenvectors of M (dense or matrix-free by the shape; see
    the module docstring), and updates G. Stops when the relative
    objective change |J_i - J_{i-1}| / (1 + |J_{i-1}|) drops below cfg.tol,
    or after cfg.max_iter iterations (converged=False, trace still full).

    Deterministic: per-iteration seeds derive from cfg.seed. Each traced
    state is also logged at DEBUG level to the "ufcm.solver" logger: its
    objective, how W was computed (eig_path, eig_steps) and how U was
    chosen (lloyd_steps, u_winner).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a (d, n) matrix")
    d, n = x.shape
    require_centered(x)
    d_prime = cfg.d_prime_for(d, n)

    if _matrix_free(d, n):
        gram = None
        eig = gram_eig_top(x, d_prime)
    else:
        gram = x @ x.T
        eig = sym_eig_top(gram, d_prime)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.max_iter + 1)

    w = eig.vectors
    y = w.T @ x  # shared by the terms, the G update and the next U update
    km = run_kmeans(y, cfg.c, int(seeds[0]))
    u, g = km.indicator, km.centers
    steps, winner = len(km.fit_history), -1

    trace = SolverTrace()

    def record(changes: int):
        """Trace the current state; the one place J is formed."""
        scatter = float(np.einsum("ij,ij->", y, y))  # Tr(W^T X X^T W)
        fit = fit_value(y, g, u.assignments)
        reg = float(np.sum(np.linalg.norm(w, axis=1) ** cfg.p))
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
        trace.eig_path.append(eig.path)
        trace.eig_steps.append(eig.steps)
        trace.eig_checks.append(eig.checks)
        trace.eig_residual.append(eig.residual)
        trace.lloyd_steps.append(steps)
        trace.u_winner.append(winner)
        _log.debug(
            "state %d: objective=%r eig_path=%s eig_steps=%d "
            "lloyd_steps=%d u_winner=%d",
            len(trace) - 1, obj, eig.path, eig.steps, steps, winner,
        )
        return rel

    record(0)

    converged = False
    iterations = 0
    for i in range(1, cfg.max_iter + 1):
        d_diag = compute_d(w, cfg)
        km = update_u_with_candidates(y, u, cfg.r, int(seeds[i]))
        changes = 0
        if km.winner >= 0:  # restart ids are arbitrary: match them first
            overlap = accuracy(km.indicator.assignments, u.assignments) * n
            changes = n - round(overlap)
        u, steps, winner = km.indicator, km.lloyd_steps, km.winner
        eig = update_w(build_m(x, u, d_diag, cfg, gram=gram), d_prime, w)
        w = eig.vectors
        y = w.T @ x
        g = update_g(y, u)
        iterations = i
        if record(changes) < cfg.tol:
            converged = True
            break

    return SolverResult(
        w=w, u=u, g=g, trace=trace, converged=converged, iterations=iterations
    )

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

`build_m` returns M = (1 - alpha) X X^T + alpha S S^T - beta D as an
`MOperator`, with S the (d, c) scaled cluster sums; a d x d M is formed
only for a dense eigh. `solve` picks the W step's path from the shape of
the (d, n) input, d' and what happened earlier in the solve, and
`update_w` picks the loop from M's numbers:

- Krylov: `update_w` takes the top d' Ritz pairs from a block Krylov
  basis warm-started at the previous W (`linalg.block_krylov_top`, which
  checks the pairs at steps extrapolated from the residual's rate of
  fall, and thick-restarts the basis to keep it small), applying M to
  thin (d, b) blocks. At alpha = 1 (beta > 0, d' <= c) the start also
  holds the eigenvectors from M's c x c secular equation
  (`linalg.secular_start`), and the loop's first check converges.
  - d > n (matrix-free): no X X^T is held. M applies through the (d, n)
    data at O(d (n + c) b), or O(d c b) at alpha = 1. The PCA init maps
    the top eigenvectors of the n x n X^T X through X
    (`linalg.gram_eig_top`).
  - n >= d > `KRYLOV_MIN_WIDTH` d' = 65 d': M applies through the held
    X X^T at O(d (d + c) b). The loop's basis restarts at 20 d' columns,
    far from filling R^d at that width; below it the dense eigh is cheap
    enough (see the measurements below).
- Davidson, on n >= d > 65 d' at alpha != 1: the start keeps every
  eigenvector V of X X^T that its eigh computed (`SolverStart.eig.basis`),
  and the same loop runs in V's coordinates. There the data term
  (1 - alpha) Lambda is diagonal, so the diagonal of V^T M V,
  (1 - alpha) Lambda + alpha rowsq(V^T S) - beta (V o V)^T D, which
  costs O(d^2 c) per W step for V^T S, preconditions each step's Ritz
  residuals.
  For d' <= c the first basis also holds the secular roots of M's
  diagonal-plus-low-rank part in V's coordinates. `update_w` takes this
  loop when |1 - alpha| (lambda_1 - lambda_d) >= `DAVIDSON_SPREAD` (10)
  times beta (max D - min D), the spread of the D term, which V leaves
  off the diagonal; at alpha > 1 only for d' <= c.
- dense, otherwise: `sym_eig_top` decomposes the d x d M in full. The PCA
  init decomposes the held X X^T.

The start (`SolverStart`: X X^T when d <= n, the PCA eigenpairs, the
eigenbasis of X X^T where the Davidson loop may run, and the init K-means
run) depends on X, c, d' and the seed only, so a grid over alpha, beta
and p builds it once (`build_start`).

A Krylov or Davidson W step falls back to the dense eigh of M
("krylov-fallback", "davidson-fallback") when the loop stops short of its
tolerance (an invariant basis, a basis that would fill R^d, or, on d <= n
only, the step cap, reached or out of reach at a restart), or when its
Ritz values fall below a lower bound on M's top d' eigenvalues
(`MOperator.top_floor`, Weyl's inequality on the X X^T eigenvalues that
the start's eigh returned). On the d <= n shape, forming M needs no
product with X, so after one fallback of either loop the rest of the
solve is dense. On the d > n shape a fallback forms the d x d X X^T, so a
loop that stops at the step cap keeps its Ritz W instead (path "krylov",
`eig_stop` "step cap"), and after a fallback the next W step tries
Krylov again. A kept W is an ascent step (see below), but the solve may
take more outer iterations: a 400 x 60 input at alpha = 10 and library
defaults took 11 against 9 with exact W steps, and ended 6e-5 below their
J. The loop has the same exits on either shape (`linalg.block_krylov_top`);
the one that gives up on a residual that still falls is the step cap's
rate test at a restart.

Why these rules, from single-process W steps on the benchmark's blob
generator (beta = p = 1 unless named, 1 BLAS thread on 2 vCPUs, min of 3
timings per step):

- Davidson on the 800 x 1500 shape (c = d' = 5, seed 1, the first three W
  steps of each solve): at alpha = 0.1 it converged in 5-6 steps and
  15-27 ms against Krylov's 34-41 steps and 34-47 ms; at alpha = 2 in
  9-10 steps and 25-29 ms, where Krylov stopped at the step cap after 34
  steps and fell back to a 100 ms dense eigh; at alpha = 10 in 7-8 steps
  and 18-34 ms, where Krylov stopped short of its tolerance and fell
  back. Its subspaces lay within 1e-13 to 4e-10 of the dense top 5.
- `DAVIDSON_SPREAD`: over 406 W steps (shapes 131 x 300 to 800 x 1500,
  d' 2-8, alpha in {0.1, 0.5, 0.9, 1.1, 2, 10}, beta in {0.1, 1, 10}, the
  first three W steps of each solve) the steps took 9.36 s on Krylov
  alone, 4.85 s with the rule at 10, 4.85 at 5, 5.01 at 20 and 5.58 at
  100. Below 10 Davidson was the faster in 9 of 108 steps; of the 290
  steps the rule sends to it, all converged and 214 were faster. At
  alpha = 0.99 on 800 x 1500 (spread ratio 2) it missed its 32-step cap
  (51-76 ms) where Krylov converged in 31 steps (29-37 ms).
- alpha > 1 with d' > c: at d' = 8, c = 4 on 800 x 1500, 9 of 9 first W
  steps missed Davidson's cap after 19-28 steps (166-237 ms), and Krylov
  fell back too (105-181 ms). So those keep the Krylov loop.
- beta = 1000: D's spread dwarfs the data term's (spread ratios 2e-9 to
  0.5 over the first four W steps on 300 x 400, c = d' = 4), so the rule
  keeps the Krylov loop.
- 200 x 5000 at d' = 10 (d = 20 d'), forced onto the Krylov loop: its W
  steps took 44 ms per solve against 20 ms dense (medians of 9 solves),
  so shapes up to 65 d' stay dense.
- after a fallback on d <= n, the rest of the solve is dense. Against
  retrying the loop on every W step (800 x 1500, c = d' = 5 unless named,
  library defaults, one shared start, min of 4 solves), retrying was
  faster at alpha in {0.001, 0.1}, beta = 1000 (3.34-3.41 against
  2.89-3.03 s), at alpha = 1, beta = 1000 (1.46 against 0.83 s), at
  alpha in {1.01, 1.05}, beta = 1 (0.51-1.03 against 0.41-0.59 s) and
  at alpha = 1.1, beta = 10 (2.36 against 1.33 s; 5.08 against 3.02 s
  at c = 4, d' = 8). It was slower at alpha = 10, beta = 1000 (5.12
  against 7.03 s), at alpha = 0.99, beta = 0.1 (0.43 against 0.60 s:
  the Davidson loop misses its cap on every W step) and at the other
  c = 4, d' = 8 points with alpha in {1.1, 2, 10}, beta in {0.1, 1, 10}
  (15-40 % slower: nearly every retried W step misses the cap again).
  No rule that reads only the W step at hand was shown to win on both
  sets, so the rule stays.

Either form of M leaves out a term whose weight is exactly 0, the X X^T
term at alpha = 1 and the D term at beta = 0, and never forms it. The
terms it keeps are formed and added as in the full sum, so M has the same
bits, up to the sign of an exact zero.

The switch point d = n for holding X X^T is where the d x d problem stops
being smaller than the data. No benchmark workload has d > n with d near
n or d small. Single-process alpha = 1 solves of seeded blobs (c = d' =
4, beta = p = 1, 4 outer iterations, 2 vCPUs, each path forced, quartiles
of 9) put the matrix-free path ahead at every shape, its W steps taking
no block step: 300 x 250 took 23-24-34 ms matrix-free, 26-28-33 ms on the
loop through the held X X^T and 59-72-75 ms with a dense eigh of M;
800 x 700 81-84-85, 92-96-98 and 333-350-395 ms; 400 x 80 14-15-15,
23-24-24 and 65-66-66 ms. Without the secular start, 300 x 250 took
42-43-48, 32-42-43 and 48-48-50 ms.

The previous W lies in the first basis of either loop, and each thick restart
keeps the top d' Ritz vectors of the basis it replaces, so the Ritz W has
Tr(W^T M W) >= Tr(W_prev^T M W_prev) wherever the loop stops: the W step
stays an ascent step and the objective stays monotone whatever the
tolerance, a kept step-cap W included (the argument of the generalized
power iteration; Nie, Zhang & Li 2017). A converged loop's Ritz vectors
match the dense eigenvectors to the Krylov tolerance, not to round-off
(subspaces within about 1e-9 on blob inputs), so on a Krylov shape the
results differ slightly from the dense path's on the same input. The
alpha = 1 W steps that start from the secular roots are the exception:
their Ritz vectors match the dense eigenvectors to round-off (subspaces
within about 1e-12 on blob inputs). Each path is bit-reproducible on its
own at a given BLAS thread count (see `solve`).

Input X must be centered (features-by-samples); use `dataset.center` first.
Labels never enter: `solve` takes a bare ndarray.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kmeans import (
    IndicatorMatrix,
    KMeansResult,
    centroid_sums,
    fit_value,
    run_kmeans,
    update_u_with_candidates,
)
# The G update, W^T X U (U^T U)^{-1}: the per-cluster means of Y = W^T X.
# Looked up here at call time, so a tracer can wrap the G step alone.
from .kmeans import centroids as update_g
from .linalg import (
    EigenPairs,
    block_krylov_top,
    fix_signs,
    gram_eig_top,
    require_centered,
    require_real,
    secular_start,
    sym_eig_top,
)
from .metrics import accuracy

_log = logging.getLogger(__name__)

# Share of |1 - alpha| lambda_1(X X^T) by which `MOperator.top_floor`
# lowers its bound, to stay below M's through the round-off of the eigh.
_GRAM_SLACK = 1e-12

# Floor on W's row norms in `compute_d`, so a zero row gets a finite D.
EPS_ROW = 1e-8

# A d <= n solve takes the Krylov W step when d > KRYLOV_MIN_WIDTH * d'.
KRYLOV_MIN_WIDTH = 65

# An alpha != 1 W step on the held X X^T takes the preconditioned loop when
# the data term's spread is at least this many times beta's (see
# `_davidson_pays`).
DAVIDSON_SPREAD = 10.0

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolverConfig:
    """Solver hyperparameters, validated when built. d_prime = None means
    d' = c; `d_prime_for` is the one place d' is resolved. The floor on
    W's row norms in the reweighting diagonal is the constant `EPS_ROW`,
    not a setting."""

    alpha: float
    beta: float
    p: float
    c: int
    d_prime: int | None = None
    r: int = 10
    max_iter: int = 50
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "d_prime", "r", "max_iter", "seed"):
            value = getattr(self, name)
            if value is None and name == "d_prime":
                continue
            if not isinstance(value, numbers.Integral) or isinstance(
                value, bool
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "beta", "p", "tol"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be real number, got {value!r}")
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
    eig_restarts: list[int] = field(default_factory=list)
    eig_residual: list[float] = field(default_factory=list)
    # Why a Krylov W step stopped short (`EigenPairs.stop`): the reason
    # for a fallback, or "step cap" for a kept Ritz W; "" otherwise.
    eig_stop: list[str] = field(default_factory=list)
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
class SolverStart:
    """A solve's initial state, which depends only on X, c, d' and the seed.

    `gram` is X X^T, held only on the dense path (d <= n); `eig` is the PCA
    init, the top d' eigenpairs of X X^T, with every eigenvalue its eigh
    computed in `eig.spectrum`, and every eigenvector in `eig.basis` where
    a W step may take the Davidson loop (d <= n and d > 65 d'; None
    elsewhere); `km` is the init K-means run on
    W^T X. A grid over alpha, beta, p or max_iter shares one start:
    `SeedSequence.generate_state` is prefix-stable, so the init run's seed
    does not depend on max_iter. `solve` refuses a start whose shape, d',
    c or seed differ from its own.
    """

    shape: tuple[int, int]
    d_prime: int
    c: int
    seed: int
    gram: np.ndarray | None
    eig: EigenPairs
    km: KMeansResult


@dataclass(frozen=True)
class MOperator:
    """M = (1 - alpha) X X^T + alpha S S^T - beta D as a product, unformed.

    S is the (d, c) matrix of cluster sums over sqrt(cluster size), so
    S S^T = X U (U^T U)^{-1} U^T X^T. `gram` is X X^T when the solve holds
    it (d <= n): applying M to a (d, b) block then costs O(d (d + c) b),
    and without it O(d (n + c) b), through X; O(d c b) at alpha = 1.
    `dense` forms the d x d matrix for a dense eigh, from `gram` when held.
    A term with weight 0 (alpha = 1 for X X^T, beta = 0 for D) is never
    formed, in either form. `spectrum` holds the eigenvalues of X X^T,
    descending, that the solve's start computed, for `top_floor`, and
    `basis` their eigenvectors, ascending, where the start kept them, for
    the Davidson W step.
    """

    x: np.ndarray       # (d, n), centered
    scaled: np.ndarray  # (d, c)
    d_diag: np.ndarray  # (d,)
    alpha: float
    beta: float
    spectrum: np.ndarray            # (min(d, n),)
    gram: np.ndarray | None = None  # (d, d)
    basis: np.ndarray | None = None  # (d, d), eigenvectors of X X^T

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = self.alpha * (self.scaled @ (self.scaled.T @ v))
        if self.alpha != 1.0:
            if self.gram is None:
                data = self.x @ (self.x.T @ v)
            else:
                data = self.gram @ v
            data *= 1.0 - self.alpha
            out += data
        if self.beta != 0.0:
            out -= (self.beta * self.d_diag)[:, None] * v
        return out

    def dense(self) -> np.ndarray:
        """M as an exactly symmetric d x d array. X X^T is neither formed
        nor read at alpha = 1. Each product is one symmetric BLAS update."""
        m = self.scaled @ self.scaled.T
        m *= self.alpha
        if self.alpha != 1.0:
            gram = self.x @ self.x.T if self.gram is None else self.gram
            m += np.multiply(gram, 1.0 - self.alpha)
        if self.beta != 0.0:
            m[np.diag_indices_from(m)] -= self.beta * self.d_diag
        return m

    def top_floor(self, k: int) -> float:
        """A lower bound on M's k-th largest eigenvalue, 1 <= k <= d.

        Weyl's inequality with alpha S S^T - beta D >= -beta max(D) gives
        lambda_k(M) >= lambda_k((1 - alpha) X X^T) - beta max(D), which is
        (1 - alpha) lambda_j(X X^T) with j = k for alpha <= 1 and
        j = d - k + 1 for alpha > 1. A centered X has rank <= n - 1, so
        lambda_j(X X^T) = 0 past the held `spectrum`. The bound is lowered
        by |1 - alpha| `_GRAM_SLACK` lambda_1(X X^T), more than the
        round-off of the eigh that gave `spectrum`.
        """
        top = self.spectrum
        j = k if self.alpha <= 1.0 else self.x.shape[0] - k + 1
        lam = top[j - 1] if j <= len(top) else 0.0
        weight = 1.0 - self.alpha
        weyl = weight * lam - abs(weight) * _GRAM_SLACK * top[0]
        shift = -self.beta * float(self.d_diag.max())
        return weyl + shift


def _matrix_free(d: int, n: int) -> bool:
    """Whether a (d, n) solve goes without X X^T: when d > n, where the
    d x d product is larger than the data."""
    return d > n


def compute_d(w: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Reweighting diagonal from W's row norms: (p/2) ||w^i||^(p-2).

    Row norms are floored at `EPS_ROW` so zero rows stay finite.
    """
    norms = np.maximum(np.linalg.norm(w, axis=1), EPS_ROW)
    return 1.0 / ((2.0 / cfg.p) * norms ** (2.0 - cfg.p))


def build_m(
    x: np.ndarray,
    u: IndicatorMatrix,
    d_diag: np.ndarray,
    cfg: SolverConfig,
    start: SolverStart,
) -> MOperator:
    """The symmetric matrix whose top eigenvectors give W, as an operator.

    M = S_t + alpha X U (U^T U)^{-1} U^T X^T - alpha X X^T - beta D, with
    S_t = X X^T: X must be a centered (d, n) float64 array, which `solve`
    checks once. The projector term is S S^T with S the (d, c) cluster
    sums scaled by 1 / sqrt(n_k); only S is built here, no d x d array.
    M holds the X X^T (if any) and the X X^T eigenvalues of `start`, the
    solve's `SolverStart`; the eigenvalues bound M's from below.
    """
    counts = u.counts()
    if np.any(counts == 0):
        raise ValueError("empty cluster")
    sums = centroid_sums(x, u.assignments, u.n_clusters)
    scaled = sums.T / np.sqrt(counts)          # (d, c)
    return MOperator(
        x,
        scaled,
        d_diag,
        cfg.alpha,
        cfg.beta,
        start.eig.spectrum,
        start.gram,
        start.eig.basis,
    )


def update_w(
    m: MOperator, d_prime: int, start: np.ndarray | None = None
) -> EigenPairs:
    """Top-d' eigenpairs of M; the vectors are the trace-optimal W.

    Without `start`, M is formed and decomposed in full ("dense"). With
    `start`, the previous W, the block Krylov loop is warm-started there,
    so its Ritz W never has a smaller Tr(W^T M W) than `start`. If the loop
    stops short of its tolerance, or its d'-th Ritz value lies below
    `MOperator.top_floor` by more than its residual (converged, but not to
    the top d'), M is formed and decomposed in full ("krylov-fallback",
    with the loop's reason in `stop`). The exception is a matrix-free M
    (no X X^T held) whose loop stops at "step cap": its Ritz pairs come
    back unconverged (path "krylov", `stop` "step cap"), an ascent step
    that forms no d x d array.

    Where M holds the eigenbasis of X X^T, an alpha != 1 step whose data
    term is spread widely enough against D (`_davidson_pays`) takes the
    same loop preconditioned in that basis (`_davidson_top`, path
    "davidson", step cap `linalg.DAVIDSON_MAX_STEPS`), and falls back the
    same way ("davidson-fallback").

    At alpha = 1, M = S S^T - beta D is a diagonal plus a term of rank at
    most c - 1 (X is centered, so S's columns, weighted by sqrt(n_k), sum
    to 0). With beta > 0 and d' <= c, the loop then starts from
    `linalg.secular_start`: the top d' Ritz vectors of M on the previous
    W and the eigenvectors that M's c x c secular equation gives. That
    start holds the top d' eigenvectors to round-off, so the loop's first
    check converges after 0 block steps, and the check and `top_floor`
    still certify it. The start is skipped at beta = 0, where every pole
    -beta D_i sits at 0, and for d' > c, where the d'-th eigenvalue lies
    deep among the poles. Where a root lies on a pole (tied D), the
    start holds the eigenvectors above it, and the loop runs on from
    there.
    """
    if start is None:
        return sym_eig_top(m.dense(), d_prime)
    if start.shape[1] != d_prime:
        raise ValueError("the Krylov W step needs a (d, d') start")
    if _davidson_pays(m, d_prime):
        ritz = _davidson_top(m, start)
    else:
        if m.alpha == 1.0 and m.beta > 0.0 and d_prime <= m.scaled.shape[1]:
            start = secular_start(m.scaled, m.beta * m.d_diag, start)
        ritz = block_krylov_top(m.__matmul__, start)
    slack = ritz.residual * float(np.abs(ritz.values).max())
    if ritz.converged:
        if ritz.values[-1] + slack >= m.top_floor(d_prime):
            return ritz
        ritz.stop = "floor"
    elif m.gram is None and ritz.stop == "step cap":
        return ritz
    pairs = sym_eig_top(m.dense(), d_prime)
    pairs.path = f"{ritz.path}-fallback"
    pairs.steps, pairs.checks, pairs.stop = ritz.steps, ritz.checks, ritz.stop
    pairs.restarts = ritz.restarts
    return pairs


def _davidson_pays(m: MOperator, k: int) -> bool:
    """Whether the W step on M takes the loop preconditioned in the
    eigenbasis of X X^T (`_davidson_top`): M holds that basis, alpha != 1,
    and the data term's spread there, |1 - alpha| (lambda_1 - lambda_d),
    is at least `DAVIDSON_SPREAD` times beta (max D - min D), the spread
    of the part that the basis leaves off the diagonal. At alpha > 1 it
    also needs k <= c: past c the top k reach into the flat bottom of
    X X^T's spectrum, where neither loop converges (module docstring)."""
    if m.basis is None or m.alpha == 1.0:
        return False
    if m.alpha > 1.0 and k > m.scaled.shape[1]:
        return False
    data = abs(1.0 - m.alpha) * float(m.spectrum[0] - m.spectrum[-1])
    stiff = m.beta * float(m.d_diag.max() - m.d_diag.min())
    return data >= DAVIDSON_SPREAD * stiff


def _davidson_top(m: MOperator, w_prev: np.ndarray) -> EigenPairs:
    """Top-k Ritz pairs of M from `block_krylov_top`, run in the
    eigenbasis V of X X^T and extended by preconditioned Ritz residuals.

    In V's coordinates M is (1 - alpha) Lambda + alpha (V^T S)(V^T S)^T -
    beta V^T D V, whose diagonal is m~ = (1 - alpha) Lambda +
    alpha rowsq(V^T S) - beta (V o V)^T D, and each new block is
    R / (theta_j - m~) for the residual R of the Ritz pairs
    (theta_j, w_j): V ((V^T R) / (theta_j - m~)) in the original ones.
    Applying M there costs two products with V, none at beta = 0. For
    k <= c the first basis is [W_prev, z], z the `secular_start` of the
    diagonal-plus-low-rank part diag((1 - alpha) Lambda -
    beta (V o V)^T D) + alpha (V^T S)(V^T S)^T; otherwise W_prev alone.
    The Ritz vectors come back through V.
    """
    v, alpha, beta = m.basis, m.alpha, m.beta
    vs = v.T @ m.scaled
    data = (1.0 - alpha) * m.spectrum[::-1]  # V's columns ascend
    low = data
    if beta != 0.0:
        low = data - beta * np.einsum("ij,ij,i->j", v, v, m.d_diag)
    diag = low + alpha * np.einsum("ij,ij->i", vs, vs)

    def apply(b):
        out = vs @ (vs.T @ b)
        out *= alpha
        out += data[:, None] * b
        if beta != 0.0:
            out -= v.T @ ((beta * m.d_diag)[:, None] * (v @ b))
        return out

    scale = float(np.abs(diag).max())

    def precondition(resid, theta):
        den = theta - diag[:, None]  # kept a few ulps off 0
        tiny = _EPS * max(scale, float(np.abs(theta).max()))
        den[np.abs(den) < tiny] = tiny
        return resid / den

    w_v, lead = v.T @ w_prev, None
    if w_prev.shape[1] <= m.scaled.shape[1]:
        z = secular_start(math.sqrt(alpha) * vs, -low, w_v)
        lead = None if z is w_v else z
    ritz = block_krylov_top(apply, w_v, precondition=precondition, lead=lead)
    ritz.vectors = fix_signs(v @ ritz.vectors)
    return ritz


def _checked(x, cfg: SolverConfig) -> tuple[np.ndarray, int]:
    """X as a C-order float64 array, and d'; raises ValueError unless X is
    a real, finite, centered (d, n) matrix, d, n >= 1, that fits cfg."""
    x = np.ascontiguousarray(require_real(x, "x"), dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a (d, n) matrix")
    if min(x.shape) < 1:
        raise ValueError(f"x must have d >= 1 and n >= 1, got shape {x.shape}")
    require_centered(x)
    return x, cfg.d_prime_for(*x.shape)


def build_start(x: np.ndarray, cfg: SolverConfig) -> SolverStart:
    """The initial state `solve(x, cfg)` would compute (see `SolverStart`)."""
    return _start(*_checked(x, cfg), cfg)


def _start(x: np.ndarray, d_prime: int, cfg: SolverConfig) -> SolverStart:
    d, n = x.shape
    if _matrix_free(d, n):
        gram = None
        eig = gram_eig_top(x, d_prime)
    else:
        gram = x @ x.T
        eig = sym_eig_top(gram, d_prime, d > KRYLOV_MIN_WIDTH * d_prime)
    seed = np.random.SeedSequence(cfg.seed).generate_state(1)[0]
    km = run_kmeans(eig.vectors.T @ x, cfg.c, int(seed))
    return SolverStart((d, n), d_prime, cfg.c, cfg.seed, gram, eig, km)


def solve(
    x: np.ndarray, cfg: SolverConfig, start: SolverStart | None = None
) -> SolverResult:
    """Run the full alternating loop on a centered (d, n) matrix.

    Initialization: W from PCA on X, U from one K-means run on W^T X, G from
    the centroid closed form; `start`, from `build_start` on the same X,
    gives that state precomputed, with the same bits (ValueError if it was
    built for another shape, d', c or seed). Each subsequent iteration
    recomputes the reweighting diagonal, refreshes U against r restarted
    candidates, takes W from the top eigenvectors of M (dense eigh or warm
    Krylov loop; see the module docstring), and updates G. Stops when the
    relative objective change |J_i - J_{i-1}| / (1 + |J_{i-1}|) drops below
    cfg.tol, or after cfg.max_iter iterations (converged=False, trace still
    full).

    Deterministic: per-iteration seeds derive from cfg.seed, and the same
    seed gives the same bits at the same BLAS thread count. Another thread
    count can sum BLAS products in another order: on an 800 x 1500 blob
    input (alpha = 0.1, 4 iterations) at 1 and 2 OpenBLAS threads, W's bits
    differed, while U, the top 40 features, the eig paths and the
    objectives (to 1.4e-15 relative) agreed. Each traced
    state is also logged at DEBUG level to the "ufcm.solver" logger: its
    objective, how W was computed (eig_path, eig_steps, eig_restarts, and
    eig_stop when the loop stopped short) and how U was chosen
    (lloyd_steps, u_winner). A W step that falls back from the
    Krylov loop logs one more line: why the loop stopped, and whether the
    next W step tries it again.
    """
    x, d_prime = _checked(x, cfg)
    d, n = x.shape
    if start is None:
        start = _start(x, d_prime, cfg)
    want = ((d, n), d_prime, cfg.c, cfg.seed)
    have = (start.shape, start.d_prime, start.c, start.seed)
    if have != want:
        raise ValueError(
            f"start built for (shape, d', c, seed) = {have}, not {want}"
        )
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.max_iter + 1)

    matrix_free = _matrix_free(d, n)
    krylov = matrix_free or d > KRYLOV_MIN_WIDTH * d_prime
    eig, km = start.eig, start.km
    w = eig.vectors
    y = w.T @ x  # shared by the terms, the G update and the next U update
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
        trace.eig_restarts.append(eig.restarts)
        trace.eig_residual.append(eig.residual)
        trace.eig_stop.append(eig.stop)
        trace.lloyd_steps.append(steps)
        trace.u_winner.append(winner)
        _log.debug(
            "state %d: objective=%r eig_path=%s eig_steps=%d "
            "eig_restarts=%d%s lloyd_steps=%d u_winner=%d",
            len(trace) - 1, obj, eig.path, eig.steps, eig.restarts,
            f" eig_stop={eig.stop}" if eig.stop else "", steps, winner,
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
        m = build_m(x, u, d_diag, cfg, start)
        eig = update_w(m, d_prime, w if krylov else None)
        if eig.path.endswith("-fallback"):
            # A dense shape's fallback is likely to recur; from d > n the
            # dense path costs a d x d Gram, so each W step tries again.
            krylov = matrix_free
            _log.debug(
                "w step %d: dense eigh after the %s loop stopped (%s); %s",
                i, eig.path.removesuffix("-fallback"), eig.stop,
                "the next w step tries krylov again" if krylov
                else "the rest of the solve is dense",
            )
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

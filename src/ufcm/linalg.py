"""Input checks and the symmetric eigensolvers that give W.

Pure functions on ndarrays; the typed containers from `dataset` are peeled
off by callers.

Three ways to the top-k eigenpairs of a symmetric matrix:

- `sym_eig_top`: a full `np.linalg.eigh` of the dense matrix, O(d^3) time
  and d^2 memory, whatever k is.
- `block_krylov_top`: Rayleigh-Ritz on a block Krylov basis grown from a
  warm start (block Lanczos with full re-orthogonalisation; Golub &
  Underwood 1977, Saad 2011 ch. 6). It only applies the matrix to thin
  blocks, so the matrix never has to exist. It checks its Ritz pairs at
  steps extrapolated from the residual's rate of fall, not at a fixed
  interval. Thick restarts keep the basis at 20 k columns: past that, the
  top quarter of its Ritz vectors replace it, and the loop goes on from
  the newest block. The kept vectors hold the best k found so far, so no
  restart lowers the trace. Where the residual falls too slowly for the
  restarted loop to converge by its step cap, the loop stops there.
  With a preconditioner, the same loop extends its basis by the
  preconditioned Ritz residuals instead (the generalized Davidson
  correction; Morgan & Scott 1986): the solver runs it in the eigenbasis
  of X X^T, where the diagonal of M is the preconditioner, and the rest
  of the loop (restarts, deflation, checks, stops) is shared.
- `secular_start`: for A = S S^T - diag(delta) with a thin (d, c) S and
  k <= c, the top-k eigenpairs from the roots of the c x c secular
  equation of a diagonal plus a low-rank term (the modified eigenproblem
  of Golub 1973 and Bunch, Nielsen & Sorensen 1978), at O(d c^2) per
  evaluation. It returns a start for `block_krylov_top`, whose first
  check then certifies the pairs, or the first block of its
  preconditioned loop.

`gram_eig_top` gives the top k <= d eigenpairs of X X^T for a (d, n) X
with d > n from the n x n product X^T X, without forming the d x d one.
All three fix eigenvector signs the same way (`fix_signs`) and report a
relative residual.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

KRYLOV_TOL = 1e-11     # relative Ritz residual at which the loop stops
KRYLOV_MAX_STEPS = 128  # hard cap on block steps, restarts included
DAVIDSON_MAX_STEPS = 32  # the cap for the preconditioned loop
CENTER_TOL = 1e-6      # feature-mean bound, relative to max(1, max |x|)
_ROUNDOFF = 1e-14      # residual floor, as a share of ||T|| (see below)
_FIRST_GAP = 4         # block steps to the next check, no rate known
_MAX_GAP = 16          # most block steps between two later checks
_DEFLATE = 1e-12       # new directions below this share of the block drop
_RENORM = 1e-4         # below this share, re-normalise a new block
_RESTART_WIDTH = 20    # basis columns, in multiples of k, to restart past
_EPS = float(np.finfo(np.float64).eps)
_SECULAR_EVALS = 100   # most secular-matrix evaluations per root
_NEWTON_CLOSE = 1e-8   # Newton steps below this share of the pole gap end


@dataclass
class EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    `residual` is max_j ||A v_j - lambda_j v_j|| / max_j |lambda_j| over
    the k returned pairs (inf if every lambda_j is 0 and A V is not).
    `steps` counts block Krylov steps, `checks` their Rayleigh-Ritz
    projections and `restarts` the thick restarts among those, all 0 for
    a direct decomposition; `converged` is False when Ritz pairs missed
    their tolerance. `path` names the solver: "dense" for a direct LAPACK
    decomposition, "krylov" for Ritz pairs of `block_krylov_top`,
    "davidson" for Ritz pairs of its preconditioned loop, and
    "krylov-fallback" or "davidson-fallback" (set by `solver.update_w`)
    for a dense decomposition taken after that loop was abandoned, whose
    steps, checks and restarts are then counted. `stop` names why a loop
    stopped short: "step cap", "invariant basis", "full basis", or
    "floor" (set by `solver.update_w`); it is empty otherwise. On
    fallback pairs it says why the loop was abandoned; on "krylov" pairs
    (a matrix-free W step kept at "step cap") why they are not converged.
    `spectrum` holds every eigenvalue the direct decomposition computed,
    descending; None for Ritz pairs. `basis` holds their eigenvectors,
    in the ascending order `eigh` returns them (column j belongs to
    `spectrum[-1 - j]`), only where the caller asked `sym_eig_top` to
    keep them; None otherwise.
    """

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (d, k), orthonormal columns
    residual: float
    steps: int = 0
    checks: int = 0
    converged: bool = True
    path: str = "dense"
    stop: str = ""
    spectrum: np.ndarray | None = None
    restarts: int = 0
    basis: np.ndarray | None = None  # (d, d)


def require_real(x, name: str) -> np.ndarray:
    """`x` as an ndarray, unconverted; ValueError naming its dtype unless
    it holds bool, integer or float numbers.

    Complex input would lose its imaginary part to a float64 cast, and
    strings would be parsed as numerals; object, void and datetime input
    is no number at all.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {x.dtype}")
    return x


def require_centered(x: np.ndarray) -> None:
    """Raise unless every entry is finite and every feature mean is
    numerically zero.

    The tolerance, CENTER_TOL (1e-6) times max(1, max |x|), scales with the
    data magnitude so that centered large-scale data does not trip the
    check on floating-point residue. max |x| comes from x's max and min,
    so the check allocates nothing of x's size.
    """
    x = np.asarray(x)
    scale = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not np.isfinite(scale):  # max and min are NaN or inf if an entry is
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


def sym_eig_top(
    a: np.ndarray, k: int, keep_basis: bool = False
) -> EigenPairs:
    """Top-k eigenpairs of a symmetric matrix, values descending.

    Symmetry is not checked: `np.linalg.eigh` reads only the lower
    triangle, so the caller passes an exactly symmetric matrix (the solver's
    X X^T and `build_m` output are). Signs follow `fix_signs`, so results
    are reproducible. Eigenvalue ties at the k boundary keep the
    first-returned vectors. With `keep_basis`, `basis` holds every
    eigenvector as `eigh` returned it, uncopied.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"k={k} out of range [1, {a.shape[0]}]")

    spectrum, basis = np.linalg.eigh(a)
    spectrum = spectrum[::-1]
    values = spectrum[:k].copy()
    vectors = fix_signs(basis[:, ::-1][:, :k].copy())
    _, residual = _residual(a @ vectors, vectors, values)
    pairs = EigenPairs(values, vectors, residual, spectrum=spectrum)
    if keep_basis:
        pairs.basis = basis
    return pairs


def gram_eig_top(x: np.ndarray, k: int) -> EigenPairs:
    """Top-k eigenpairs of X X^T from the n x n Gram matrix X^T X.

    X X^T and X^T X share their nonzero eigenvalues, and X v is an
    eigenvector of X X^T for each eigenvector v of X^T X. So one `eigh` of
    X^T X gives the values and V, and the Householder QR of X V gives
    orthonormal vectors. QR rather than dividing X v by sqrt(lambda): a
    centered X has rank at most n - 1, so at k = n the k-th eigenvalue can
    be 0, and QR still returns a unit vector orthogonal to the others (an
    eigenvector for 0). For k > n, X V and the values are padded with
    zeros to k: QR's first n columns span range(X), so its last k - n are
    unit vectors orthogonal to range(X), eigenvectors for 0. Cheaper than
    forming X X^T when the (d, n) X has d > n. Needs k <= d. `spectrum`
    holds the n eigenvalues of X^T X, which are those of X X^T but for
    d - n zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= k <= x.shape[0]:
        raise ValueError(f"k={k} out of range [1, {x.shape[0]}]")
    spectrum, v = np.linalg.eigh(x.T @ x)
    spectrum = spectrum[::-1]
    top = min(k, x.shape[1])
    values = np.pad(spectrum[:top], (0, k - top))
    vectors, _ = np.linalg.qr(
        np.pad(x @ v[:, ::-1][:, :top], ((0, 0), (0, k - top)))
    )
    vectors = fix_signs(vectors)
    _, residual = _residual(x @ (x.T @ vectors), vectors, values)
    return EigenPairs(values, vectors, residual, spectrum=spectrum)


def block_krylov_top(
    apply: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    precondition: (
        Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    ) = None,
    lead: np.ndarray | None = None,
) -> EigenPairs:
    """Top-k Ritz pairs of a symmetric operator, warm-started at `start`.

    `apply(V)` returns A V for a (d, b) block V; `start` is (d, k) with
    orthonormal columns, and k pairs come back. The basis grows as the
    block Krylov space [S, A S, A^2 S, ...] of S = `start`. Each step
    applies A to the newest block, projects the result off the basis twice
    (the first projection's coefficients are also the new column of the
    projected matrix T = Q^T A Q), drops directions below `_DEFLATE` of the
    block's norm and appends the rest. At checks a small `eigh` of T gives
    the top-k Ritz pairs; the loop stops once their residual
    max_j ||A w_j - theta_j w_j|| is at most KRYLOV_TOL * max_j |theta_j|,
    or after KRYLOV_MAX_STEPS (128) steps. The basis and A times it are
    column-major, so each step's slices are contiguous.

    With `precondition`, the loop extends its basis the generalized
    Davidson way instead (Davidson 1975; Morgan & Scott 1986): each step
    is checked, and its new block is `precondition(R, theta)`, for R the
    (d, k) residual block A W - W diag(theta) of the top-k Ritz pairs
    just checked, in place of A times the newest block. Its path is
    "davidson" and its step cap DAVIDSON_MAX_STEPS (32). `lead`, a (d, b)
    block with b <= k, is the first such block when given, so the first
    basis is [S, lead]. Everything after the new block is shared: the two
    projections (the first now through Q^T times the block), deflation,
    restarts with their rate rule, the checks' tolerance and round-off
    floor and the stop reasons. Here "invariant basis" means a
    preconditioned residual that added no direction.

    Thick restarts bound the basis (Wu & Simon 2000; Stewart's
    Krylov-Schur, 2001). When the next block could take the basis past
    `_RESTART_WIDTH` (20) k columns, that step's check is also a restart:
    the top quarter of T's Ritz pairs, at least k, replace the basis
    (Q <- Q Y, A Q <- A Q Y, T <- diag(theta)), and the block just
    projected off the old basis follows them. That block is orthogonal to
    the old basis, so to the kept vectors; A maps the kept vectors into
    their span plus that block's, so the next step's coefficients fill T's
    new rows as before. A restart costs one small `eigh` and two products
    with the kept Ritz vectors; in exchange every later projection and
    `eigh` works on a basis of at most 20 k columns.

    A restarted basis loses ground where the k-th eigenvalue sits barely
    above the next, so each restart first extrapolates the log-residual
    rate over its cycle (the steps since the previous restart, or since
    step 0): if that rate does not bring the residual to its tolerance by
    the step cap, the loop stops there at "step cap" instead of running
    the cap out.

    Checks are paid for only where they are likely to succeed: once the
    basis is large, an `eigh` of T costs more than a block step. The first
    comes at step 0 (a warm start may already be converged), the second
    `_FIRST_GAP` steps later. After that the log-residual rate between the
    last two checks is extrapolated to the step where the residual reaches
    its tolerance, at most `_MAX_GAP` steps on (again `_FIRST_GAP` if the
    residual did not fall); restarts do not reset this schedule. A check
    also comes at the step cap, at every step that may restart, and at
    every step whose next block could give the basis d columns, so
    converged pairs never leave through that exit.

    The residual cannot fall below the round-off of `eigh` on T, about
    eps * ||T||. When A has entries far above its top eigenvalues (the
    solver's reweighting diagonal on a zero row of W reaches 1e13), that
    floor lies above the tolerance; the pairs then also count as converged
    at a residual of `_ROUNDOFF` * ||T||, within a small factor of what a
    dense `eigh` of A attains.

    Monotone by construction: S lies in the first basis, and the Ritz
    vectors of a basis maximise the trace over its k-dimensional
    subspaces. A restart keeps the top k Ritz vectors of the basis it
    replaces, and every later basis contains them, so no restart lowers
    the best trace the loop has found: the returned W has
    Tr(W^T A W) >= Tr(S^T A S) wherever the loop stops. The tolerance sets
    the accuracy, not the ascent.

    `steps` counts block steps over all cycles, `checks` the Rayleigh-Ritz
    projections (one per restart among them) and `restarts` the restarts.
    `converged` is False when the loop stopped short of the tolerance, and
    `stop` says where: at the step cap (reached, or out of reach at a
    restart), when the next block would give the basis d columns ("full
    basis"), or when the basis became invariant first. Besides
    convergence, these are the loop's only exits, for every caller. An
    invariant basis gives exact eigenpairs, but not necessarily the top k:
    a start confined to an invariant subspace of A never leaves it. The
    same holds, undetected, for a start that reaches the tolerance inside
    such a subspace; only the caller, who knows A, can rule that out (see
    `solver.update_w`). The Ritz pairs are returned either way; the caller
    decides whether to use them.
    """
    start = np.asarray(start, dtype=np.float64)
    d, k = start.shape
    if not 1 <= k <= d:
        raise ValueError(f"start has {k} columns, out of range [1, {d}]")
    cap = KRYLOV_MAX_STEPS if precondition is None else DAVIDSON_MAX_STEPS
    limit = min(d, _RESTART_WIDTH * k)  # the most columns the basis holds
    q = np.empty((d, limit), order="F")    # orthonormal basis
    aq = np.empty((d, limit), order="F")   # A applied to it
    t = np.empty((limit, limit))
    q[:, :k] = start
    lo, hi, steps, restarts = 0, k, 0, 0
    checks, due, last = 0, 0, None  # last: (step, log excess) of a check
    cycle = None  # (step, log excess) of the check that began the cycle
    while True:
        block = apply(q[:, lo:hi])
        aq[:, lo:hi] = block
        coef = q[:, :hi].T @ block
        t[:hi, lo:hi] = coef
        t[lo:hi, :hi] = coef.T
        t[lo:hi, lo:hi] = (coef[lo:] + coef[lo:].T) / 2

        # The next block has at most hi - lo columns, k when preconditioned.
        if (
            steps in (due, cap)
            or hi + (hi - lo) > limit
            or hi + (hi - lo) >= d
        ):
            ritz, excess, ritz_basis = _rayleigh_ritz(
                q[:, :hi], aq[:, :hi], t[:hi, :hi], k
            )
            checks += 1
            if ritz.converged:
                break
            if steps == cap:
                ritz.stop = "step cap"
                break
            log_excess = math.log(excess)
            if precondition is None:
                due = _next_check(steps, log_excess, last)
            else:
                due = steps + 1
            last = steps, log_excess
            cycle = cycle or last

        if precondition is not None:
            if steps == 0 and lead is not None:
                block = lead.copy()
            else:  # from the residual of the pairs just checked
                theta, top = ritz_basis[0][:k], ritz_basis[1][:, :k]
                resid = aq[:, :hi] @ top - (q[:, :hi] @ top) * theta
                block = precondition(resid, theta)
            coef = q[:, :hi].T @ block
        norm = np.linalg.norm(block)
        block -= q[:, :hi] @ coef
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        width = int(np.count_nonzero(s > _DEFLATE * norm))
        if width == 0 or hi + width >= d:
            # An invariant basis has round-off residuals whether or not it
            # holds the top eigenvectors, so its Ritz pairs prove nothing;
            # a basis of d columns is cheaper to replace by a dense eigh.
            # A step that could fill R^d was checked above.
            if last[0] < steps:
                ritz, _, _ = _rayleigh_ritz(
                    q[:, :hi], aq[:, :hi], t[:hi, :hi], k
                )
                checks += 1
            ritz.converged = False
            ritz.stop = "full basis" if width else "invariant basis"
            break
        new = u[:, :width]  # s is descending: the kept columns lead
        new -= q[:, :hi] @ (q[:, :hi].T @ new)
        if hi + width > limit:
            # This step was checked above. Restart only if the cycle's rate
            # reaches the tolerance by the step cap; otherwise give up.
            rate = (last[1] - cycle[1]) / (steps - cycle[0])
            if rate >= 0 or steps - last[1] / rate > cap:
                ritz.stop = "step cap"
                break
            theta, y = ritz_basis
            keep = max(k, hi // 4)
            q[:, :keep] = q[:, :hi] @ y[:, :keep]
            aq[:, :keep] = aq[:, :hi] @ y[:, :keep]
            t[:keep, :keep] = np.diag(theta[:keep])
            hi, cycle = keep, last
            restarts += 1
        if s[width - 1] < _RENORM * norm:
            # The second projection takes about eps * norm / s_j off each
            # orthonormal singular vector: too little to move their Gram
            # matrix off I while s_j >= _RENORM * norm. Below that, up to
            # 1e-4 at the deflation bound, one Cholesky step of it
            # restores orthonormality.
            gram = np.linalg.cholesky(new.T @ new)
            new = new @ np.linalg.inv(gram).T
        lo, hi = hi, hi + width
        q[:, lo:hi] = new
        steps += 1

    ritz.steps, ritz.checks, ritz.restarts = steps, checks, restarts
    ritz.path = "krylov" if precondition is None else "davidson"
    return ritz


def _next_check(step: int, log_excess: float, last) -> int:
    """The step of the next Rayleigh-Ritz check after one at `step` whose
    residual must still fall by the factor exp(`log_excess`) > 1; `last`
    is (step, log excess) of the check before it, None if there was none."""
    if last is not None:
        rate = (log_excess - last[1]) / (step - last[0])
        if rate < 0:
            ahead = math.ceil(min(_MAX_GAP, -log_excess / rate))
            return step + max(1, ahead)
    return step + _FIRST_GAP


def _rayleigh_ritz(
    q, aq, t, k: int
) -> tuple[EigenPairs, float, tuple[np.ndarray, np.ndarray]]:
    """Top-k Ritz pairs from the basis Q, A Q and T = Q^T A Q, the factor
    by which their residual must still fall to converge (<= 1 once it
    has), and every Ritz value of T with its vector, descending."""
    theta, y = np.linalg.eigh(t)
    floor = _ROUNDOFF * max(abs(theta[0]), abs(theta[-1]))
    theta, y = theta[::-1], y[:, ::-1]
    top = y[:, :k]
    vectors = q @ top
    worst, residual = _residual(aq @ top, vectors, theta[:k])
    converged = residual <= KRYLOV_TOL or worst <= floor
    excess = residual / KRYLOV_TOL
    if floor > 0:
        excess = min(excess, worst / floor)
    pairs = EigenPairs(
        theta[:k].copy(), fix_signs(vectors), residual, 0, 0, converged
    )
    return pairs, excess, (theta, y)


def secular_start(
    scaled: np.ndarray, delta: np.ndarray, w_prev: np.ndarray
) -> np.ndarray:
    """A start for `block_krylov_top` on A = S S^T - diag(delta) that holds
    A's top-k eigenvectors, from the roots of a c x c secular equation.

    S = `scaled` is (d, c), `delta` is (d,) and `w_prev` is (d, k) with
    orthonormal columns, k <= c. A is a diagonal plus a term of rank at
    most c, so an eigenvalue lambda of A off the poles -delta_i is a
    sigma where K(sigma) = S^T (diag(delta) + sigma I)^-1 S has the
    eigenvalue 1, and (diag(delta) + sigma I)^-1 S z is its eigenvector
    for K's eigenvector z (Golub 1973; Bunch, Nielsen & Sorensen 1978).
    Sylvester's inertia on the Schur complements of
    [[-(diag(delta) + sigma I), S], [S^T, -I]] counts A's eigenvalues
    above sigma: #{i : delta_i < -sigma} plus K(sigma)'s eigenvalues
    above 1, at O(d c^2) per sigma. Each lambda_j, largest first, is found
    in four steps:

    1. Weyl's inequality brackets it: -delta_(j) <= lambda_j <=
       min over i <= j of sigma_i(S)^2 - delta_(j-i+1), with delta
       ascending, and lambda_j <= lambda_(j-1).
    2. The bracket is halved on the count until no pole lies in it.
    3. On that pole-free bracket the branch of K that crosses 1 is smooth
       and falls with slope -||(diag(delta) + sigma I)^-1 S z||^2;
       safeguarded Newton steps on it stop one evaluation after a step
       below `_NEWTON_CLOSE` of the distance to the nearest pole, which
       lands within round-off.
    4. The eigenvector follows from z at that root.

    The start is the top-k Ritz vectors of A on span[W_prev, V], for the
    eigenvectors V found. W_prev lies in that span, so the start's
    Tr(W^T A W) is never below W_prev's, however accurate the roots are.
    A root on a pole (a tied delta, as rows floored to one weight give,
    or a zero row of S) has no vector of this form: the roots stop there,
    and the Krylov loop finds the rest. With no root found (S = 0), the
    start is `w_prev` itself.
    """
    k = w_prev.shape[1]
    order = np.sort(delta)
    sig2 = np.maximum(np.linalg.eigvalsh(scaled.T @ scaled)[::-1], 0.0)
    found, top = [], np.inf
    for j in range(k):
        hi = min(top, *(sig2[i] - order[j - i] for i in range(j + 1)))
        root = _secular_root(scaled, delta, order, j + 1, -order[j], hi)
        if root is None:
            break
        vector, top = root
        found.append(vector)
    if not found:
        return w_prev
    basis, _ = np.linalg.qr(np.column_stack([w_prev, *found]))
    t = basis.T @ (scaled @ (scaled.T @ basis) - delta[:, None] * basis)
    _, y = np.linalg.eigh((t + t.T) / 2)
    return basis @ y[:, ::-1][:, :k]


def _secular_root(scaled, delta, order, j: int, a: float, b: float):
    """(v, b) for the j-th largest eigenvalue lambda_j of S S^T -
    diag(delta), given a <= lambda_j <= b and `order`, `delta` sorted
    ascending: v an unnormalised eigenvector, b >= lambda_j the bracket's
    upper end. None when lambda_j lies on a pole -delta_i or the root is
    not found within `_SECULAR_EVALS` evaluations. See `secular_start`."""
    c = scaled.shape[1]

    def tiny(a, b):  # a few ulps of the bracket's ends
        return 4 * _EPS * max(abs(a), abs(b))

    evals = 0
    while np.searchsorted(order, -a, "right") > np.searchsorted(order, -b):
        if b - a <= tiny(a, b) or evals == _SECULAR_EVALS:
            return None
        mid = 0.5 * (a + b)
        above = int(np.searchsorted(order, -mid))  # poles above mid
        if above < len(order) and order[above] == -mid:
            mid = np.nextafter(mid, b)  # on a pole: step off it
        mu, _, _ = _secular(scaled, delta, mid)
        evals += 1
        if above + np.count_nonzero(mu > 1) >= j:
            a = mid
        else:
            b = mid
    # On [a, b], the poles above number those above b; K's eigenvalue that
    # crosses 1 at lambda_j is the one with j - 1 of theirs above it.
    branch = c - j + int(np.searchsorted(order, -b))
    if not 0 <= branch < c:
        return None
    sigma, close = 0.5 * (a + b), False
    while evals < _SECULAR_EVALS:
        mu, z, t = _secular(scaled, delta, sigma)
        evals += 1
        v = t @ z[:, branch]
        if close:
            return v, b
        if mu[branch] > 1:
            a = sigma
        else:
            b = sigma
        slope = float(v @ v)
        new = sigma + (mu[branch] - 1) / slope if slope > 0 else b
        if a < new < b:
            gap = float(np.abs(delta + sigma).min())  # to the nearest pole
            close = abs(new - sigma) <= _NEWTON_CLOSE * gap
        elif b - a <= tiny(a, b):
            return v, b
        else:
            new = 0.5 * (a + b)
        sigma = new
    return None


def _secular(scaled, delta, sigma: float):
    """Eigenvalues (ascending) and eigenvectors of K(sigma) = S^T
    (diag(delta) + sigma I)^-1 S, and (diag(delta) + sigma I)^-1 S."""
    t = scaled / (delta + sigma)[:, None]
    mu, z = np.linalg.eigh(scaled.T @ t)
    return mu, z, t

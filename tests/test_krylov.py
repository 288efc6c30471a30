"""The Krylov W step: block Krylov Ritz pairs against the dense eigensolve,
ascent by construction, the dense fallback, rank-deficient and zero-row
inputs, the alpha = 1 start from the secular roots, and the memory it
saves. It runs matrix-free when d > n, and on M through the held X X^T
when n >= d > 65 d', where an alpha != 1 step may take the same loop
preconditioned in the eigenbasis of X X^T (the Davidson W step)."""

import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest

from ufcm import linalg, solver
from ufcm.dataset import center, make_blobs
from ufcm.kmeans import run_kmeans
from ufcm.linalg import (
    block_krylov_top,
    gram_eig_top,
    secular_start,
    sym_eig_top,
)
from ufcm.solver import (
    EPS_ROW,
    MOperator,
    SolverConfig,
    build_m,
    build_start,
    compute_d,
    solve,
    update_w,
)


def blobs(d, n, c=4, seed=0):
    """Centered (d, n) blobs: 10 informative features, the rest noise."""
    data = make_blobs(
        n // c, c, 10, d - 10, separation=4.0, noise_scale=1.0, seed=seed
    )
    return center(data).values


def first_w_step(d, n, k, c=4):
    """M of a solve's first W step on blobs, as `build_m` returns it, and
    the PCA W that step starts from."""
    x = blobs(d, n, c, seed=d + k)
    w = gram_eig_top(x, k).vectors
    u = run_kmeans(w.T @ x, c, 0).indicator
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=c, d_prime=k)
    return build_m(x, u, compute_d(w, cfg), cfg, build_start(x, cfg)), w


@pytest.mark.parametrize("k", [1, 4, 10])
@pytest.mark.parametrize("shape", [(300, 40), (1200, 200), (600, 50)])
def test_krylov_agrees_with_dense_eigh_on_the_shape_ladder(shape, k):
    op, start = first_w_step(*shape, k)
    assert isinstance(op, MOperator)
    ritz = block_krylov_top(op.__matmul__, start)
    dense = sym_eig_top(op.dense(), k)
    assert ritz.converged
    assert np.all(
        np.abs(ritz.values - dense.values) <= 1e-9 * np.abs(dense.values)
    )
    # ||P_krylov - P_dense||_2 = ||(I - P_dense) V_krylov||_2 for two
    # k-dimensional subspaces (the sine of their largest principal angle).
    v, u = ritz.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-8
    assert np.linalg.norm(v.T @ v - np.eye(k)) <= 1e-12


def dense_shape_w_step(x, alpha, beta, k, c=4, p=1.0):
    """M of a solve's first W step on a d <= n input, holding the start's
    X X^T, and the PCA W that step starts from."""
    cfg = SolverConfig(alpha=alpha, beta=beta, p=p, c=c, d_prime=k)
    start = build_start(x, cfg)
    w = start.eig.vectors
    op = build_m(x, start.km.indicator, compute_d(w, cfg), cfg, start)
    assert op.gram is not None
    return op, w


@pytest.mark.parametrize("alpha", [0.1, 1.0])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", [(300, 400), (200, 900)])
def test_krylov_agrees_with_dense_eigh_on_the_dense_shape_ladder(
    shape, k, alpha, monkeypatch
):
    # At k = 3 and alpha = 0.1 the rule picks the preconditioned loop; the
    # Krylov loop is held to the same agreement there.
    monkeypatch.setattr(solver, "DAVIDSON_SPREAD", math.inf)
    op, start = dense_shape_w_step(blobs(*shape, seed=k), alpha, 1.0, k)
    ritz = update_w(op, k, start)
    dense = sym_eig_top(op.dense(), k)
    assert ritz.path == "krylov"
    assert np.all(
        np.abs(ritz.values - dense.values) <= 1e-9 * np.abs(dense.values)
    )
    v, u = ritz.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-8


@pytest.mark.parametrize(
    "shape", [(1200, 200), (600, 50), (300, 40), (300, 400)]
)
def test_the_secular_start_gives_the_dense_eigenpairs_at_alpha_one(shape):
    # M = S S^T - beta D at d' = c = 4: the start holds its top d'
    # eigenvectors to round-off, so the loop's first check converges with
    # no block step, matrix-free for d > n and on the held X X^T for the
    # d <= n shape above 65 d'.
    d, n = shape
    if d > n:
        op, start = first_w_step(d, n, 4)
    else:
        op, start = dense_shape_w_step(blobs(d, n, seed=4), 1.0, 1.0, 4)
    got = update_w(op, 4, start)
    dense = sym_eig_top(op.dense(), 4)
    assert (got.path, got.steps, got.checks) == ("krylov", 0, 1)
    scale = np.abs(dense.values).max()
    assert np.abs(got.values - dense.values).max() <= 1e-12 * scale
    v, u = got.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-10
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-12


def trace_of(op, w):
    return float(np.einsum("ij,ij->", w, op @ w))


def test_the_secular_start_raises_the_trace_of_a_poor_w_prev():
    op, _ = first_w_step(1200, 200, 4)
    poor, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(1200, 4)))
    got = secular_start(op.scaled, op.beta * op.d_diag, poor)
    best = sym_eig_top(op.dense(), 4).values.sum()
    assert trace_of(op, poor) < trace_of(op, got)
    assert abs(trace_of(op, got) - best) <= 1e-12 * abs(best)
    assert np.linalg.norm(got.T @ got - np.eye(4)) <= 1e-12


def test_the_secular_start_keeps_w_prev_in_its_span(monkeypatch):
    # Roots spoilt into random vectors: the Ritz vectors of span[W_prev,
    # V] still have at least W_prev's trace.
    op, good = first_w_step(1200, 200, 4)
    rng = np.random.default_rng(1)
    monkeypatch.setattr(
        linalg,
        "_secular_root",
        lambda s, delta, order, j, a, b: (rng.normal(size=s.shape[0]), b),
    )
    got = secular_start(op.scaled, op.beta * op.d_diag, good)
    before = trace_of(op, good)
    assert trace_of(op, got) >= before - 1e-12 * abs(before)
    assert np.linalg.norm(got.T @ got - np.eye(4)) <= 1e-12


def test_a_root_on_a_repeated_pole_leaves_the_rest_to_the_loop(monkeypatch):
    # delta = 1 everywhere: M = S S^T - I has its top c - 1 eigenvalues
    # above the pole -1 and the c-th on it, d - c + 1 times over. The roots
    # stop there; the Ritz vector W_prev adds is orthogonal to range(S),
    # so an eigenvector for -1, and the loop converges at its first check.
    rng = np.random.default_rng(0)
    d, c = 200, 4
    s = rng.normal(size=(d, c))
    s[:, -1] = -s[:, :-1].sum(axis=1)
    a = s @ s.T - np.eye(d)
    w, _ = np.linalg.qr(rng.normal(size=(d, c)))
    found = []
    root = linalg._secular_root

    def spy(*args):
        out = root(*args)
        found.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_secular_root", spy)
    start = secular_start(s, np.ones(d), w)
    assert found == [True, True, True, False]
    ritz = block_krylov_top(lambda v: a @ v, start)
    assert (ritz.converged, ritz.steps) == (True, 0)
    want = np.linalg.eigvalsh(a)[::-1][:c]
    assert np.abs(ritz.values - want).max() <= 1e-12 * want[0]


def test_an_alpha_one_solve_with_tied_row_weights_stays_monotone():
    # beta = 1000 floors most rows of W at EPS_ROW, so their D ties, and
    # the rows that stay meet D near 1/2: the last roots sit among nearly
    # tied poles, where the loop runs on from the start.
    x = blobs(300, 40)
    cfg = SolverConfig(alpha=1.0, beta=1000.0, p=1.0, c=4, max_iter=8)
    res = check_solve(x, cfg)
    assert (np.linalg.norm(res.w, axis=1) <= EPS_ROW).sum() > 250
    assert res.trace.eig_steps[1] == 0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_a_zero_row_of_x_with_the_secular_start(p):
    # The zero row of X is a zero row of S: its pole -beta D_7 holds an
    # eigenvector e_7 that no secular root gives, far below the top d'.
    x = centered_normal(1, 300, 20)
    x[7] = 0.0
    res = check_solve(
        x, SolverConfig(alpha=1.0, beta=1.0, p=p, c=3, max_iter=6)
    )
    assert set(res.trace.eig_path[1:]) == {"krylov"}
    assert set(res.trace.eig_steps[1:]) == {0}
    assert np.abs(res.w[7]).max() <= 1e-12


def digest(res) -> tuple[str, str]:
    return (
        hashlib.sha256(res.w.tobytes()).hexdigest(),
        hashlib.sha256(res.u.assignments.tobytes()).hexdigest(),
    )


@pytest.mark.parametrize(
    "alpha, beta, d_prime, used",
    [
        (1.0, 0.0, 4, False),  # every pole at 0
        (1.0, 1.0, 5, False),  # d' > c
        (0.5, 1.0, 4, False),  # an X X^T term
        (1.0, 1.0, 4, True),
    ],
)
def test_w_steps_without_the_secular_start_keep_their_bits(
    alpha, beta, d_prime, used, monkeypatch
):
    # Where the start does not apply, the loop starts from W_prev itself,
    # so W and U keep the bits of a solve that never had the start.
    x = blobs(300, 40)
    cfg = SolverConfig(
        alpha=alpha, beta=beta, p=1.0, c=4, d_prime=d_prime, max_iter=3
    )
    calls = []

    def spy(scaled, delta, w_prev):
        calls.append(1)
        return secular_start(scaled, delta, w_prev)

    monkeypatch.setattr(solver, "secular_start", spy)
    res = solve(x, cfg)
    assert len(calls) == (res.iterations if used else 0)
    monkeypatch.setattr(solver, "secular_start", lambda s, d, w: w)
    without = solve(x, cfg)
    assert (digest(res)[0] == digest(without)[0]) is not used
    if not used:
        assert digest(res) == digest(without)
        assert vars(res.trace) == vars(without.trace)


def test_a_stiff_dense_shape_w_step_falls_back_once_at_the_step_cap(caplog):
    # At alpha = 10, beta = 1000 the reweighting diagonal is too stiff for
    # the eigenbasis of X X^T, so the W step takes the Krylov loop. Its
    # residual rises over the first block steps, yet the first three W
    # steps converge on the loop. The fourth misses the step cap at its
    # first restart and falls back, once per solve.
    caplog.set_level(logging.DEBUG, logger="ufcm.solver")
    x = blobs(300, 400)
    cfg = SolverConfig(alpha=10.0, beta=1000.0, p=1.0, c=4, max_iter=4)
    tr = check_solve(x, cfg).trace
    assert tr.eig_path == ["dense"] + ["krylov"] * 3 + ["krylov-fallback"]
    assert tr.eig_stop == [""] * 4 + ["step cap"]
    assert tr.eig_restarts[4] == 0
    lines = [
        r.getMessage() for r in caplog.records if r.name == "ufcm.solver"
    ]
    fallbacks = [m for m in lines if m.startswith("w step")]
    # check_solve solves twice.
    assert fallbacks == [
        "w step 4: dense eigh after the krylov loop stopped (step cap); "
        "the rest of the solve is dense"
    ] * 2
    assert len(lines) == 2 * (len(tr) + 1)


def test_a_d_greater_than_n_fallback_is_retried_each_w_step(caplog):
    # d' = 60 of d = 300 features: each W step's basis nears R^d. The next
    # step tries the Krylov loop again, which never stalls on this shape.
    caplog.set_level(logging.DEBUG, logger="ufcm.solver")
    x = centered_normal(2, 300, 20)
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=3, d_prime=60, max_iter=2)
    solve(x, cfg)
    lines = [
        r.getMessage() for r in caplog.records if r.name == "ufcm.solver"
    ]
    assert [m for m in lines if m.startswith("w step")] == [
        f"w step {i}: dense eigh after the krylov loop stopped (full "
        "basis); the next w step tries krylov again"
        for i in (1, 2)
    ]


def test_a_d_greater_than_n_w_step_keeps_its_ritz_w_at_the_step_cap():
    # At alpha = 10 on 1200 x 200 the residual falls too slowly for the
    # restarted basis: each W step stops at its first restart, after 19
    # steps, at "step cap" and keeps its Ritz W, an ascent step. A dense
    # eigh of M would form the 1200 x 1200 X X^T; the solve stays below one
    # such array.
    x = center(make_blobs(50, 4, 20, 1180, 4.0, 1.0, seed=1)).values
    cfg = SolverConfig(alpha=10.0, beta=1.0, p=1.0, c=4, max_iter=2, seed=1)
    tracemalloc.start()
    try:
        tr = solve(x, cfg).trace
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.eig_path == ["dense", "krylov", "krylov"]
    assert tr.eig_stop == ["", "step cap", "step cap"]
    assert tr.eig_steps == [0, 19, 19]
    assert peak < 8 * 1200**2
    obj = tr.objective
    for prev, cur in zip(obj, obj[1:]):
        assert cur >= prev - 1e-8 * (1.0 + abs(prev))
    assert max(tr.w_orth_error) <= 1e-8


def test_every_d_greater_than_n_w_step_stays_on_the_loop(monkeypatch):
    # At alpha = 10 every W step's residual falls too slowly for a basis
    # that restarts at 20 d' columns: each stops at its first restart and
    # keeps its Ritz W, with no dense fallback. At library defaults the
    # solve still ends within 1e-4 of the J of one whose every W step is a
    # dense eigh of the 400 x 400 M.
    x = centered_normal(0, 400, 60)
    cfg = SolverConfig(alpha=10.0, beta=1.0, p=1.0, c=3)
    res = check_solve(x, cfg)
    tr = res.trace
    assert res.converged
    assert tr.eig_path == ["dense"] + ["krylov"] * res.iterations
    assert max(tr.eig_steps) < 64
    monkeypatch.setattr(solver, "_matrix_free", lambda d, n: False)
    monkeypatch.setattr(solver, "KRYLOV_MIN_WIDTH", x.shape[0])
    exact = solve(x, cfg)
    assert set(exact.trace.eig_path) == {"dense"}
    want = exact.trace.objective[-1]
    assert abs(tr.objective[-1] - want) <= 1e-4 * abs(want)


def test_a_dense_shape_w_step_at_the_step_cap_still_falls_back(monkeypatch):
    # d <= n at alpha = 1.1, near enough 1 that the W step takes the Krylov
    # loop: the first W step's rate misses the step cap at its first
    # restart. With X X^T held it falls back to the dense eigh of M, and
    # the rest of the solve is dense, so W, U and J keep the bits of the
    # solve routed dense from the start.
    x = blobs(300, 400)
    cfg = SolverConfig(alpha=1.1, beta=1.0, p=1.0, c=4, max_iter=4)
    res = solve(x, cfg)
    tr = res.trace
    assert tr.eig_path[:2] == ["dense", "krylov-fallback"]
    assert tr.eig_stop[1] == "step cap"
    assert tr.eig_steps[1] < 64
    monkeypatch.setattr(solver, "KRYLOV_MIN_WIDTH", x.shape[0])
    dense = solve(x, cfg)
    assert set(dense.trace.eig_path) == {"dense"}
    assert np.array_equal(res.w, dense.w)
    assert np.array_equal(res.u.assignments, dense.u.assignments)
    assert tr.objective == dense.trace.objective


@pytest.mark.parametrize("p", [0.5, 1.5])
@pytest.mark.parametrize("alpha", [0.1, 2.0, 10.0])
def test_a_preconditioned_w_step_matches_dense_eigh(alpha, p):
    # d = 300 > 65 d' = 260 with X X^T held: the step runs in X X^T's
    # eigenbasis, from [W_prev, the secular roots] at d' = c, and its Ritz
    # pairs match the dense top d'. beta = 0.1 keeps D's spread below
    # DAVIDSON_SPREAD times the data term's at p = 0.5.
    x = blobs(300, 400, seed=5)
    op, w_prev = dense_shape_w_step(x, alpha, 0.1, 4, p=p)
    calls = []

    def spy(apply, start, **kwargs):
        calls.append(kwargs["lead"])
        return block_krylov_top(apply, start, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "block_krylov_top", spy)
        got = update_w(op, 4, w_prev)
    assert (got.path, got.stop, got.converged) == ("davidson", "", True)
    assert len(calls) == 1 and calls[0].shape == (300, 4)
    assert got.checks == got.steps + 1 and got.basis is None
    m = op.dense()
    dense = sym_eig_top(m, 4)
    scale = float(np.abs(dense.values).max())
    assert np.abs(got.values - dense.values).max() <= 1e-9 * scale
    v, u = got.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-8
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-12
    assert trace_of(m, v) >= trace_of(m, w_prev)
    cfg = SolverConfig(alpha=alpha, beta=0.1, p=p, c=4)
    res = check_solve(x, cfg)
    assert set(res.trace.eig_path[1:]) == {"davidson"}


def test_a_preconditioned_w_step_past_c_starts_from_w_prev_alone(
    monkeypatch,
):
    # d' = 5 > c = 4: the secular start does not apply, so the first basis
    # is W_prev and the loop extends it by preconditioned residuals only.
    calls, leads = [], []

    def spy(*args):
        calls.append(1)
        return secular_start(*args)

    def loop(apply, start, **kwargs):
        leads.append(kwargs["lead"])
        return block_krylov_top(apply, start, **kwargs)

    monkeypatch.setattr(solver, "secular_start", spy)
    monkeypatch.setattr(solver, "block_krylov_top", loop)
    x = blobs(400, 500, seed=2)
    op, w_prev = dense_shape_w_step(x, 0.5, 1.0, 5)
    got = update_w(op, 5, w_prev)
    dense = sym_eig_top(op.dense(), 5)
    assert (got.path, calls, leads) == ("davidson", [], [None])
    v, u = got.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-8
    cfg = SolverConfig(alpha=0.5, beta=1.0, p=1.0, c=4, d_prime=5, max_iter=3)
    tr = check_solve(x, cfg).trace
    assert tr.eig_path == ["dense"] + ["davidson"] * 3
    assert calls == []


@pytest.mark.parametrize("forced", [False, True])
def test_a_stiff_diagonal_w_step_falls_back_and_the_rest_is_dense(
    forced, caplog, monkeypatch
):
    # At beta = 1000 D's spread dwarfs the data term's, so the rule keeps
    # the Krylov loop, which misses the step cap on the second W step.
    # Forced onto the preconditioned loop, the first W step misses its own
    # cap instead. Either way the fallback's dense eigh holds no basis, and
    # the rest of the solve is dense.
    caplog.set_level(logging.DEBUG, logger="ufcm.solver")
    if forced:
        monkeypatch.setattr(solver, "DAVIDSON_SPREAD", 0.0)
    loop, at = ("davidson", 1) if forced else ("krylov", 2)
    x = blobs(300, 400)
    cfg = SolverConfig(alpha=0.1, beta=1000.0, p=1.0, c=4, max_iter=4)
    steps = []

    def spy(m, k, w):
        steps.append(update(m, k, w))
        return steps[-1]

    update = solver.update_w
    monkeypatch.setattr(solver, "update_w", spy)
    res = solve(x, cfg)
    tr = res.trace
    assert tr.eig_path == (
        ["dense"] + [loop] * (at - 1) + [f"{loop}-fallback"]
        + ["dense"] * (4 - at)
    )
    assert tr.eig_stop[at] == "step cap"
    assert tr.eig_steps[at] <= (
        linalg.DAVIDSON_MAX_STEPS if forced else linalg.KRYLOV_MAX_STEPS
    )
    assert all(pairs.basis is None for pairs in steps)
    lines = [
        r.getMessage() for r in caplog.records if r.name == "ufcm.solver"
    ]
    assert [m for m in lines if m.startswith("w step")] == [
        f"w step {at}: dense eigh after the {loop} loop stopped (step cap); "
        "the rest of the solve is dense"
    ]
    obj = tr.objective
    for prev, cur in zip(obj, obj[1:]):
        assert cur >= prev - 1e-8 * (1.0 + abs(prev))
    assert max(tr.w_orth_error) <= 1e-8


@pytest.mark.parametrize("beta, max_iter", [(1.0, 2), (10.0, 5)])
def test_alpha_near_one_keeps_the_krylov_loop(beta, max_iter):
    # At alpha = 0.99 the data term is a hundredth of M's, and its
    # eigenbasis preconditions too little: on an 800 x 1500 blob input the
    # preconditioned loop missed its 32-step cap where Krylov converged in
    # 31 steps. At beta = 10 the fifth W step's residual rises between its
    # first checks, and the loop still converges.
    x = blobs(300, 400)
    op, _ = dense_shape_w_step(x, 0.99, beta, 4)
    assert not solver._davidson_pays(op, 4)
    cfg = SolverConfig(alpha=0.99, beta=beta, p=1.0, c=4, max_iter=max_iter)
    tr = check_solve(x, cfg).trace
    assert tr.eig_path == ["dense"] + ["krylov"] * max_iter
    assert tr.eig_stop == [""] * (max_iter + 1)


def test_routed_w_steps_log_the_preconditioned_loop(caplog):
    caplog.set_level(logging.DEBUG, logger="ufcm.solver")
    x = blobs(300, 400)
    cfg = SolverConfig(alpha=10.0, beta=1.0, p=1.0, c=4, max_iter=2)
    tr = solve(x, cfg).trace
    lines = [
        r.getMessage() for r in caplog.records if r.name == "ufcm.solver"
    ]
    assert len(lines) == len(tr) == 3
    for i, line in enumerate(lines[1:], start=1):
        assert tr.eig_path[i] == "davidson"
        assert tr.eig_checks[i] == tr.eig_steps[i] + 1
        assert f" eig_path=davidson eig_steps={tr.eig_steps[i]} " in line
        assert "eig_stop" not in line


@pytest.mark.parametrize(
    "shape, held",
    [((300, 400), True), ((260, 400), False), ((400, 300), False)],
)
def test_the_start_keeps_the_eigh_basis_only_for_the_preconditioned_loop(
    shape, held, monkeypatch
):
    # d <= n and d > 65 d': the start keeps every eigenvector of X X^T as
    # `eigh` returned it, not a copy; at d <= 65 d' (dense W steps) and at
    # d > n (no X X^T) it keeps none.
    out, eigh = [], np.linalg.eigh

    def spy(a):
        out.append(eigh(a))
        return out[-1]

    monkeypatch.setattr(np.linalg, "eigh", spy)
    x = blobs(*shape, seed=3)
    start = build_start(x, SolverConfig(alpha=0.5, beta=1.0, p=1.0, c=4))
    basis = start.eig.basis
    if not held:
        assert basis is None
        return
    assert basis is out[0][1]
    lam = start.eig.spectrum[::-1]
    gram = x @ x.T
    assert np.abs(basis.T @ gram @ basis - np.diag(lam)).max() <= (
        1e-12 * lam[-1]
    )
    top = basis[:, ::-1][:, :4]
    assert np.array_equal(np.abs(top), np.abs(start.eig.vectors))


def tiny_gap_operator(d, k=4, seed=0):
    """A symmetric A whose k-th eigenvalue sits 0.5 above the next, far
    below its spread, as the solver's M has it at d' = c; and a start 1e-2
    off A's top k eigenvectors."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    values = np.r_[
        np.linspace(1880.0, 1690.0, k - 1),
        -0.76,
        np.linspace(-1.26, -300.0, d - k),
    ]
    a = (basis * values) @ basis.T
    a = (a + a.T) / 2
    start, _ = np.linalg.qr(basis[:, :k] + 1e-2 * rng.normal(size=(d, k)))
    return a, start


@pytest.mark.parametrize("d", [300, 400])
def test_restarted_loop_agrees_with_dense_eigh_on_a_tiny_gap(d):
    a, start = tiny_gap_operator(d)
    ritz = block_krylov_top(lambda v: a @ v, start)
    dense = sym_eig_top(a, 4)
    assert ritz.converged
    assert ritz.restarts >= 2
    assert np.all(
        np.abs(ritz.values - dense.values) <= 1e-9 * np.abs(dense.values)
    )
    v, u = ritz.vectors, dense.vectors
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-8
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-12


def test_restarts_never_lower_the_trace(monkeypatch):
    # Each check, restarts among them, gives the top Ritz pairs of the
    # basis the loop holds then. A restart keeps them, so their trace
    # never falls from one check to the next, nor below the start's.
    a, start = tiny_gap_operator(300)
    traces = [float(np.trace(start.T @ a @ start))]

    def spy(*args):
        pairs, excess, basis = rayleigh_ritz(*args)
        w = pairs.vectors
        traces.append(float(np.trace(w.T @ a @ w)))
        return pairs, excess, basis

    rayleigh_ritz = linalg._rayleigh_ritz
    monkeypatch.setattr(linalg, "_rayleigh_ritz", spy)
    ritz = block_krylov_top(lambda v: a @ v, start)
    assert ritz.restarts >= 2
    assert len(traces) == ritz.checks + 1
    slack = 1e-10 * abs(traces[0])
    assert all(b >= p - slack for p, b in zip(traces, traces[1:]))


def test_a_loop_out_of_reach_of_the_cap_stops_at_its_first_restart():
    # A's top 4 eigenvalues sit above 100 more within 0.7 of them, and the
    # spectrum reaches -1e4: the residual falls far too slowly to reach its
    # tolerance by the step cap. The loop gives up when its basis first
    # reaches 20 k columns, not at the cap; its Ritz pairs still raise the
    # start's trace.
    rng = np.random.default_rng(0)
    d, k = 300, 4
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    values = np.r_[
        [1.0, 0.9, 0.8, 0.7],
        np.linspace(0.69, 0.0, 100),
        np.linspace(-1.0, -1e4, d - 104),
    ]
    a = (basis * values) @ basis.T
    a = (a + a.T) / 2
    start, _ = np.linalg.qr(rng.normal(size=(d, k)))
    ritz = block_krylov_top(lambda v: a @ v, start)
    assert (ritz.converged, ritz.stop) == (False, "step cap")
    assert ritz.steps == 19 < linalg.KRYLOV_MAX_STEPS
    assert ritz.restarts == 0
    w = ritz.vectors
    assert np.trace(w.T @ a @ w) >= np.trace(start.T @ a @ start)


def test_one_restarted_w_step_holds_a_bounded_basis():
    # Q and A Q at 20 d' columns, against the 65 d' columns that the
    # basis of 64 unrestarted steps fills.
    op, start = first_w_step(1200, 200, 4)
    d, k = start.shape
    tracemalloc.start()
    try:
        ritz = block_krylov_top(op.__matmul__, start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ritz.converged and ritz.restarts >= 1
    assert peak < 8 * d * (2 * 20 * k + 16 * k)
    assert peak < 0.5 * 2 * 8 * d * 65 * k


@pytest.mark.parametrize("d, path", [(130, "dense"), (131, "krylov")])
def test_dense_shapes_take_the_krylov_loop_only_above_65_d_prime(
    d, path, monkeypatch
):
    # Up to 65 d' the shape stays dense: at 20 d' the loop measured slower.
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return block_krylov_top(*args, **kwargs)

    monkeypatch.setattr(solver, "block_krylov_top", spy)
    x = blobs(d, 300, seed=1)
    cfg = SolverConfig(alpha=0.1, beta=1.0, p=1.0, c=4, d_prime=2, max_iter=3)
    tr = solve(x, cfg).trace
    assert set(tr.eig_path[1:]) == {path}
    assert len(calls) == (0 if path == "dense" else len(tr) - 1)


def test_pairs_converged_as_the_basis_nears_r_d_are_not_a_fallback():
    # d = 30, k = 10: one block step brings the basis to 20 columns, and the
    # next block would give it 30. A's top 10 eigenvalues lie 1e8 above the
    # rest and the start sits 1e-6 off their eigenvectors, so the start's
    # Ritz pairs miss the tolerance and those of the 20-column basis meet
    # it. A check comes before that block is built, so they count.
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    values = np.r_[np.linspace(2e8, 1e8, 10), np.linspace(1.0, 0.0, 20)]
    a = (basis * values) @ basis.T
    a = (a + a.T) / 2
    start, _ = np.linalg.qr(basis[:, :10] + 1e-6 * rng.normal(size=(30, 10)))
    ritz = block_krylov_top(lambda v: a @ v, start)
    assert ritz.converged
    assert (ritz.steps, ritz.checks) == (1, 2)
    assert np.all(np.abs(ritz.values - values[:10]) <= 1e-9 * values[:10])


@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_one_block_step_never_lowers_the_trace(seed, zero_row, monkeypatch):
    # The start lies in the Krylov basis, so even a single block step gives
    # Tr(W^T A W) >= Tr(S^T A S). The start sits near the top eigenvectors,
    # as the solver's previous W does, so a basis without it would fall
    # short. The zero-row case is the solver's: a row of W at zero meets a
    # diagonal entry near -1e13 (compute_d's EPS_ROW floor at p = 0.25).
    rng = np.random.default_rng(seed)
    d = int(rng.integers(20, 80))
    k = int(rng.integers(1, 6))
    a = rng.normal(size=(d, d))
    a = (a + a.T) / 2
    j = int(rng.integers(d))
    if zero_row:
        a[j, j] = -1.25e13
    start = np.linalg.eigh(a)[1][:, ::-1][:, :k]
    start = start + 1e-3 * rng.normal(size=(d, k))
    if zero_row:
        start[j] = 0.0
    start, _ = np.linalg.qr(start)
    monkeypatch.setattr(linalg, "KRYLOV_MAX_STEPS", 1)
    ritz = block_krylov_top(lambda v: a @ v, start)
    w = ritz.vectors
    before = float(np.trace(start.T @ a @ start))
    after = float(np.trace(w.T @ a @ w))
    assert ritz.steps == 1
    assert after >= before - 1e-8 * (1.0 + abs(before))
    assert np.linalg.norm(w.T @ w - np.eye(k)) <= 1e-12


def test_invariant_basis_short_of_the_top_is_not_converged():
    # The start mixes two eigenvectors of a diagonal A, so one block step
    # spans an invariant plane and the next deflates to nothing. Its Ritz
    # pair is exact (residual at round-off) but not A's top pair.
    a = np.diag(np.arange(10.0, 0.0, -1.0))
    start = np.zeros((10, 1))
    start[[3, 4], 0] = np.sqrt(0.5)
    ritz = block_krylov_top(lambda v: a @ v, start)
    assert ritz.steps == 1
    assert ritz.values[0] == pytest.approx(7.0)
    assert ritz.residual <= 1e-14
    assert not ritz.converged


def test_krylov_signs_follow_the_dense_rule():
    op, start = first_w_step(300, 40, 4)
    v = block_krylov_top(op.__matmul__, start).vectors
    lead = np.argmax(np.abs(v), axis=0)
    assert (v[lead, np.arange(4)] > 0).all()


def check_solve(x, cfg):
    """Solve twice: monotone objective, orthonormal W, bit-identical runs."""
    a = solve(x, cfg)
    b = solve(x, cfg)
    obj = a.trace.objective
    for prev, cur in zip(obj, obj[1:]):
        assert cur >= prev - 1e-8 * (1.0 + abs(prev))
    assert max(a.trace.w_orth_error) <= 1e-8
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.u.assignments, b.u.assignments)
    assert vars(a.trace) == vars(b.trace)
    return a


def centered_normal(seed, d, n):
    x = np.random.default_rng(seed).normal(size=(d, n))
    return x - x.mean(axis=1, keepdims=True)


@pytest.mark.parametrize("d_prime", [2, 8])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_rank_deficient_w_step_matches_dense_eigh(alpha, d_prime):
    # rank(X) = 4 and beta = 0: M = X B X^T vanishes off X's 4-dim range
    # and maps that range into itself, so a Krylov basis started there
    # stays there. At alpha = 2 M has one positive and three negative
    # eigenvalues on that range, so its top d' include zeros from outside
    # it: at d' = 2 the basis turns invariant after one step, and at d' = 8
    # the start's Ritz pairs converge at once, to the wrong eigenvalues.
    x = centered_normal(0, 300, 5)
    cfg = SolverConfig(
        alpha=alpha, beta=0.0, p=1.0, c=2, d_prime=d_prime, max_iter=6
    )
    start = sym_eig_top(x @ x.T, d_prime).vectors
    u = run_kmeans(start.T @ x, 2, 0).indicator
    op = build_m(x, u, compute_d(start, cfg), cfg, build_start(x, cfg))
    m = op.dense()
    got = update_w(op, d_prime, start)
    want = sym_eig_top(m, d_prime)
    scale = float(np.abs(np.linalg.eigvalsh(m)).max())
    assert np.abs(got.values - want.values).max() <= 1e-9 * scale
    w = got.vectors
    assert float(np.trace(w.T @ m @ w)) >= want.values.sum() - 1e-9 * scale
    if alpha > 1:
        assert got.path == "krylov-fallback"
    check_solve(x, cfg)


@pytest.mark.parametrize("d_prime", [2, 8])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_rank_deficient_dense_shape_w_step_matches_dense_eigh(alpha, d_prime):
    # The same trap at d <= n: rank(X) = 4 < d = 600, so M vanishes off
    # X's range and maps that range into itself. At d' = 8 the start's
    # Ritz pairs converge at once to the wrong eigenvalues; the start's
    # X X^T eigenvalues end in zeros there, and the floor from them
    # rejects those pairs. At alpha = 2 and d' = 2 a new block's smallest
    # kept direction is 1e-12 of its norm: the second projection leaves
    # its Gram matrix 2e-9 off I, which the loop must re-normalise.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(600, 4)) @ rng.normal(size=(4, 700))
    x -= x.mean(axis=1, keepdims=True)
    op, start = dense_shape_w_step(x, alpha, 0.0, d_prime, c=2)
    m = op.dense()
    got = update_w(op, d_prime, start)
    want = sym_eig_top(m, d_prime)
    scale = float(np.abs(np.linalg.eigvalsh(m)).max())
    assert np.abs(got.values - want.values).max() <= 1e-9 * scale
    w = got.vectors
    assert float(np.trace(w.T @ m @ w)) >= want.values.sum() - 1e-9 * scale
    assert np.linalg.norm(w.T @ w - np.eye(d_prime)) <= 1e-12
    if alpha > 1 and d_prime == 8:
        assert (got.path, got.stop) == ("krylov-fallback", "floor")
    check_solve(
        x,
        SolverConfig(
            alpha=alpha, beta=0.0, p=1.0, c=2, d_prime=d_prime, max_iter=6
        ),
    )


@pytest.mark.parametrize("seed", range(6))
def test_top_floor_bounds_the_dense_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(30, 90)), int(rng.integers(3, 20))
    x = centered_normal(seed, d, n)
    cfg = SolverConfig(
        alpha=float(rng.uniform(0.1, 10.0)),
        beta=float(rng.choice([0.0, 1e-8, 1.0])),
        p=1.0,
        c=2,
    )
    w = sym_eig_top(x @ x.T, 2).vectors
    w[0] = 0.0  # a zero row: D there is floored to 5e7
    u = run_kmeans(w.T @ x, 2, 0).indicator
    op = build_m(x, u, compute_d(w, cfg), cfg, build_start(x, cfg))
    values = np.linalg.eigvalsh(op.dense())[::-1]
    slack = 1e-12 * np.abs(values).max()
    for k in range(1, d + 1):
        assert op.top_floor(k) <= values[k - 1] + slack


@pytest.mark.parametrize("rank", [None, 3])
@pytest.mark.parametrize("seed", range(4))
def test_top_floor_from_the_start_bounds_the_dense_eigenvalues(seed, rank):
    # Weyl's bound from the start's X X^T eigenvalues, on d <= n inputs of
    # full rank and of rank 3 < d'.
    rng = np.random.default_rng(seed)
    d, n, k = int(rng.integers(20, 60)), 80, 5
    if rank is None:
        x = rng.normal(size=(d, n))
    else:
        x = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, n))
    x -= x.mean(axis=1, keepdims=True)
    for alpha in (0.1, 1.0, 2.0, 10.0):
        for beta in (0.0, 1.0):
            op, _ = dense_shape_w_step(x, alpha, beta, k, c=2)
            values = np.linalg.eigvalsh(op.dense())[::-1]
            floor = op.top_floor(k)
            assert floor <= values[k - 1] + 1e-12 * np.abs(values).max()
            if alpha <= 1 or rank is not None:
                shift = -beta * op.d_diag.max()
                assert floor >= shift - 1e-9 * np.abs(values).max()


@pytest.mark.parametrize("rank", [None, 3])
@pytest.mark.parametrize("shape", [(40, 80), (90, 20)])
def test_top_floor_bounds_every_eigenvalue(shape, rank):
    # Weyl's bound from the start's spectrum, for every k <= d, on d <= n
    # and d > n inputs of full rank and of rank 3 < d'.
    rng = np.random.default_rng(shape[0] + (rank or 0))
    d, n = shape
    if rank is None:
        x = rng.normal(size=(d, n))
    else:
        x = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, n))
    x -= x.mean(axis=1, keepdims=True)
    gram = np.linalg.eigvalsh(x @ x.T)[::-1]
    for alpha in (0.3, 1.0, 2.0, 10.0):
        for beta in (0.0, 1.0):
            cfg = SolverConfig(alpha=alpha, beta=beta, p=1.0, c=2, d_prime=5)
            start = build_start(x, cfg)
            w = start.eig.vectors
            op = build_m(x, start.km.indicator, compute_d(w, cfg), cfg, start)
            values = np.linalg.eigvalsh(op.dense())[::-1]
            slack = 1e-12 * np.abs(values).max()
            shift = -beta * op.d_diag.max()
            for k in range(1, d + 1):
                floor = op.top_floor(k)
                assert np.isfinite(floor)
                assert floor <= values[k - 1] + slack
                # For alpha > 1, (1 - alpha) lambda_k(X X^T) bounds
                # lambda_k(M) only where 2k - 1 <= d; the floor, from
                # lambda_{d-k+1}(X X^T), is at least as high there.
                if alpha > 1 and rank is None and d <= n and 2 * k - 1 <= d:
                    crude = (1 - alpha) * gram[k - 1] + shift
                    assert floor >= crude - slack


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_m_keeps_the_bits_of_the_full_sum(alpha, beta):
    # Leaving out a term of weight 0 drops only zeros from the sum, and IEEE
    # addition is commutative, so both forms of M keep the bits of the sum
    # with every term in it, taken in the old order.
    x = centered_normal(3, 120, 15)
    cfg = SolverConfig(alpha=alpha, beta=beta, p=1.0, c=3)
    w = gram_eig_top(x, 3).vectors
    u = run_kmeans(w.T @ x, 3, 0).indicator
    op = build_m(x, u, compute_d(w, cfg), cfg, build_start(x, cfg))
    s, d = op.scaled, op.d_diag
    v = np.random.default_rng(4).normal(size=(120, 3))
    p = x @ (x.T @ v)
    p *= 1 - alpha
    p += alpha * (s @ (s.T @ v))
    p -= (beta * d)[:, None] * v
    assert np.array_equal(op @ v, p)
    m = np.multiply(x @ x.T, 1 - alpha)
    proj = s @ s.T
    proj *= alpha
    m += proj
    m[np.diag_indices_from(m)] -= beta * d
    assert np.array_equal(op.dense(), m)


def test_alpha_one_never_reads_the_data_term():
    # At alpha = 1 the X X^T term has weight 0: neither form of M computes
    # it, so a NaN in X cannot reach M, as 0 * NaN would.
    rng = np.random.default_rng(5)
    x = np.full((50, 8), np.nan)
    scaled = rng.normal(size=(50, 3))
    op = MOperator(
        x,
        scaled,
        rng.uniform(0.1, 1.0, 50),
        alpha=1.0,
        beta=1.0,
        spectrum=np.ones(8),
    )
    assert np.isfinite(op @ rng.normal(size=(50, 2))).all()
    assert np.isfinite(op.dense()).all()


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_constant_feature_on_the_krylov_path(p):
    # A constant feature is a zero row of X, so its row of W stays at zero
    # and compute_d floors it: D reaches 2.5e11 at p = 0.5.
    x = centered_normal(1, 300, 20)
    x[7] = 0.0
    res = check_solve(
        x, SolverConfig(alpha=1.0, beta=1.0, p=p, c=3, d_prime=4, max_iter=6)
    )
    assert set(res.trace.eig_path[1:]) == {"krylov"}
    assert np.abs(res.w[7]).max() <= 1e-12


def test_solve_records_the_dense_fallback():
    # d' = 60 of d = 300 features: a few block steps bring the basis to
    # the point where the next block would fill R^d, so W comes from the
    # dense eigh of M instead.
    x = centered_normal(2, 300, 20)
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=3, d_prime=60, max_iter=2)
    res = check_solve(x, cfg)
    assert res.trace.eig_path == ["dense"] + ["krylov-fallback"] * 2
    assert min(res.trace.eig_steps[1:]) >= 1


def test_matrix_free_solve_holds_no_d_by_d_array():
    # The dense path holds X X^T, M and the projector term, each 8 d^2
    # bytes; the matrix-free path stays below one of them. At alpha = 1
    # each W step starts from the secular roots and takes no block step.
    x = blobs(1200, 200)
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=4, max_iter=3)
    tracemalloc.start()
    try:
        res = solve(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.eig_path[1:] == ["krylov"] * 3
    assert res.trace.eig_steps[1:] == [0, 0, 0]
    assert peak < 8 * 1200**2


def test_ritz_checks_follow_the_residual_not_a_fixed_gap():
    # A check every 4 block steps would make steps // 4 + 1 of them. At
    # alpha = 0.5 no secular start applies: each W step converges on the
    # restarted loop.
    x = blobs(1200, 200)
    res = solve(x, SolverConfig(alpha=0.5, beta=1.0, p=1.0, c=4, max_iter=3))
    tr = res.trace
    assert tr.eig_checks[0] == 0
    assert tr.eig_path[1:] == ["krylov"] * 3
    assert min(tr.eig_restarts[1:]) > 0
    assert tr.eig_restarts[0] == 0
    for steps, checks in zip(tr.eig_steps[1:], tr.eig_checks[1:]):
        assert 2 <= checks < steps // 4 + 1


def test_d_prime_above_n_pads_with_the_null_space_of_x():
    # The PCA init of a d > n solve at d' > n: the top n - 1 eigenpairs
    # come from X^T X, the rest are eigenvalue 0 with unit vectors
    # orthogonal to range(X), all without a d x d array.
    d, n, k = 600, 20, 40
    x = centered_normal(5, d, n)
    tracemalloc.start()
    try:
        pairs = gram_eig_top(x, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d**2
    v, top = pairs.vectors, pairs.values[0]
    assert v.shape == (d, k)
    assert np.linalg.norm(v.T @ v - np.eye(k)) <= 1e-12
    assert np.abs(pairs.values[n - 1 :]).max() <= 1e-12 * top
    assert (np.linalg.norm(x.T @ v[:, n - 1 :], axis=0) ** 2).max() <= (
        1e-12 * top
    )
    assert pairs.residual <= 1e-12
    dense = sym_eig_top(x @ x.T, n - 1).values
    assert np.allclose(pairs.values[: n - 1], dense, rtol=1e-12, atol=0)
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=3, d_prime=k, max_iter=4)
    res = check_solve(x, cfg)
    assert res.w.shape == (d, k)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_d_prime_equal_to_n_gives_a_finite_orthonormal_w(n):
    # A centered X has rank n - 1, so at k = n the k-th eigenvalue of X X^T
    # is 0 and its eigenvector lies outside range(X): X v / sqrt(lambda)
    # would be 0 / 0 there.
    x = centered_normal(3, 60, n)
    pairs = gram_eig_top(x, n)
    assert np.isfinite(pairs.vectors).all()
    assert abs(pairs.values[-1]) <= 1e-12 * pairs.values[0]
    assert np.linalg.norm(pairs.vectors.T @ pairs.vectors - np.eye(n)) <= 1e-12
    assert pairs.residual <= 1e-12
    cfg = SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=2, d_prime=n, max_iter=4)
    res = check_solve(x, cfg)
    assert np.isfinite(res.w).all()
    assert np.linalg.norm(res.w.T @ res.w - np.eye(n)) <= 1e-8

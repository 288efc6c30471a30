import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ufcm
from baselines import max_variance_ranking
from conftest import NON_REAL, names_dtype
from ufcm.dataset import DataMatrix, center, make_blobs
from ufcm.metrics import (
    accuracy,
    contingency,
    evaluate_clustering,
    nmi,
    rank_features,
    select,
)


def counts_by_loop(pred, truth):
    table: dict[tuple, int] = {}
    for p, t in zip(pred, truth):
        table[(p, t)] = table.get((p, t), 0) + 1
    return table


def brute_force_accuracy(pred, truth):
    """Max matched fraction over every injective cluster->class mapping."""
    table = counts_by_loop(pred, truth)
    preds = sorted(set(pred))
    truths = sorted(set(truth))
    size = max(len(preds), len(truths))
    best = 0
    for images in itertools.permutations(range(size), len(preds)):
        matched = 0
        for k, img in zip(preds, images):
            if img < len(truths):
                matched += table.get((k, truths[img]), 0)
        best = max(best, matched)
    return best / len(pred)


def nmi_by_formula(pred, truth):
    """Direct contingency-formula evaluation with plain math.log."""
    table = counts_by_loop(pred, truth)
    preds = sorted(set(pred))
    truths = sorted(set(truth))
    n = len(pred)
    t_l = {k: sum(v for (p, _), v in table.items() if p == k) for k in preds}
    t_h = {h: sum(v for (_, t), v in table.items() if t == h) for h in truths}
    num = sum(
        v * math.log(n * v / (t_l[p] * t_h[t])) for (p, t), v in table.items()
    )
    den_l = sum(v * math.log(v / n) for v in t_l.values())
    den_h = sum(v * math.log(v / n) for v in t_h.values())
    if den_l == 0.0 or den_h == 0.0:
        return 1.0 if len(preds) == len(truths) == 1 else 0.0
    return num / math.sqrt(den_l * den_h)


def test_rank_features_scores_and_order():
    ranking = rank_features(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(ranking.scores, [1.0, 0.0, 2.0])
    assert ranking.order.tolist() == [2, 0, 1]


def test_rank_features_ties_keep_index_order():
    ranking = rank_features(np.ones((4, 2)))
    assert ranking.order.tolist() == [0, 1, 2, 3]


def test_rank_features_scale_invariant(rng):
    w = rng.normal(size=(6, 3))
    assert np.array_equal(
        rank_features(w).order, rank_features(3.0 * w).order
    )


def test_select_all_is_identity(rng):
    data = DataMatrix(rng.normal(size=(4, 6)), labels=[0, 1, 0, 1, 0, 1])
    ranking = rank_features(rng.normal(size=(4, 2)))
    sub = select(data, ranking, 4)
    assert np.array_equal(sub.values, data.values[ranking.order])
    assert np.array_equal(sub.labels, data.labels)


def test_select_top_one(rng):
    data = DataMatrix(rng.normal(size=(3, 5)), feature_names=["a", "b", "c"])
    ranking = rank_features(np.array([[0.1], [5.0], [1.0]]))
    sub = select(data, ranking, 1)
    assert sub.d == 1
    assert sub.feature_names == ["b"]
    assert np.array_equal(sub.values[0], data.values[1])


def test_select_then_rerank_agrees_with_prefix(rng):
    w = rng.normal(size=(8, 3))
    ranking = rank_features(w)
    sub_w = w[ranking.order[:5]]
    # the selected rows are already in descending score order
    assert rank_features(sub_w).order.tolist() == list(range(5))


def test_select_m_out_of_range(rng):
    data = DataMatrix(rng.normal(size=(3, 4)))
    with pytest.raises(ValueError):
        select(data, rank_features(np.ones((3, 1))), 4)


def test_accuracy_identity():
    assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_accuracy_permuted_relabeling():
    truth = [0, 0, 1, 1, 2, 2]
    pred = [2, 2, 0, 0, 1, 1]
    assert accuracy(pred, truth) == 1.0


def test_accuracy_spec_example():
    pred = (0, 0, 1, 1, 2, 2)
    truth = (0, 0, 0, 1, 1, 1)
    assert accuracy(pred, truth) == pytest.approx(4.0 / 6.0)
    assert brute_force_accuracy(pred, truth) == pytest.approx(4.0 / 6.0)


def test_accuracy_matches_brute_force_100_pairs():
    # Rectangular tables up to 6 x 6. Labels are drawn from a sparse set of
    # values, so some clusters and classes are absent from a sample; every
    # tenth pair is an all-tie table where each (cluster, class) pair occurs
    # equally often.
    rng = np.random.default_rng(17)
    for trial in range(100):
        c_pred, c_true = (int(k) for k in rng.integers(1, 7, size=2))
        if trial % 10 == 0:
            reps = int(rng.integers(1, 3))
            pred = np.repeat(np.arange(c_pred), c_true * reps).tolist()
            truth = np.tile(np.arange(c_true), c_pred * reps).tolist()
        else:
            n = int(rng.integers(2, 25))
            pred_values = rng.choice(10, size=c_pred, replace=False)
            truth_values = rng.choice(10, size=c_true, replace=False)
            pred = pred_values[rng.integers(0, c_pred, size=n)].tolist()
            truth = truth_values[rng.integers(0, c_true, size=n)].tolist()
        assert accuracy(pred, truth) == pytest.approx(
            brute_force_accuracy(pred, truth), abs=1e-15
        )


def test_accuracy_matches_linear_sum_assignment():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(29)
    for trial in range(200):
        c = int(rng.integers(1, 41))
        n = int(rng.integers(1, 500))
        truth = rng.integers(0, c, size=n)
        if trial % 2:
            # clustering-like: a relabeled truth with a share of samples moved
            pred = rng.permutation(c)[truth]
            moved = rng.random(n) < rng.uniform(0.0, 0.8)
            pred[moved] = rng.integers(0, c, size=int(moved.sum()))
        else:
            pred = rng.integers(0, int(rng.integers(1, 41)), size=n)
        counts = contingency(pred, truth)
        rows, cols = optimize.linear_sum_assignment(counts, maximize=True)
        assert accuracy(pred, truth) == counts[rows, cols].sum() / n


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        accuracy([0, 1], [0, 1, 2])


def test_accuracy_empty():
    with pytest.raises(ValueError):
        accuracy([], [])


def modules_after(code: str, packages=("scipy",)) -> str:
    """Run `code` in a fresh interpreter with ufcm importable and return the
    sorted list of modules of `packages` loaded afterwards, as printed."""
    env = dict(os.environ, PYTHONPATH=str(Path(ufcm.__file__).parents[1]))
    probe = (
        f"import sys; {code}; "
        "print(sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {tuple(packages)!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # No scipy module loads with `import ufcm`: each costs import time and
    # resident memory on every run.
    assert modules_after("import ufcm") == "[]"


def test_cli_import_loads_no_process_pool():
    # The CLI runs its grid points one at a time in its own process.
    packages = ("scipy", "concurrent", "multiprocessing")
    assert modules_after("import ufcm.cli", packages) == "[]"


def test_labelled_cli_run_loads_no_scipy(tmp_path):
    # The evaluation's accuracy matching is numpy-only, so a full labelled
    # run, K-means scoring included, loads no scipy module either. Nor does
    # a d > n solve, whose W steps take the numpy block Krylov path.
    argv = [
        "--synthetic",
        "blobs:n_per_cluster=10,c=3,d_informative=3,d_noise=4,"
        "separation=4.0,noise_scale=1.0",
        "--clusters", "3",
        "--select", "3,7",
        "--max-iter", "3",
        "--eval-runs", "2",
        "--out", str(tmp_path / "out"),
    ]
    code = (
        f"from ufcm.cli import main; assert main({argv!r}) == 0; "
        "import numpy as np; from ufcm import SolverConfig, solve; "
        "x = np.random.default_rng(0).normal(size=(300, 20)); "
        "x -= x.mean(axis=1, keepdims=True); "
        "res = solve(x, SolverConfig(alpha=1, beta=1, p=1, c=3, max_iter=2)); "
        "assert res.trace.eig_path == ['dense', 'krylov', 'krylov']"
    )
    assert modules_after(code) == "[]"
    record = json.loads((tmp_path / "out" / "record_gp000.json").read_text())
    assert set(record["evaluation"]) == {"3", "7"}


def test_nmi_identity_is_one():
    assert nmi([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(1.0)


def test_nmi_independent_split_is_zero():
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_spec_example_matches_formula():
    pred = (0, 0, 1, 1, 2, 2)
    truth = (0, 0, 0, 1, 1, 1)
    expected = nmi_by_formula(pred, truth)
    # independently: num = 4 ln 2, den = 6 sqrt(ln 3 * ln 2)
    assert expected == pytest.approx(
        4 * math.log(2) / (6 * math.sqrt(math.log(3) * math.log(2)))
    )
    assert nmi(pred, truth) == pytest.approx(expected, abs=1e-12)


def test_nmi_matches_formula_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, 4, size=n).tolist()
        truth = rng.integers(0, 3, size=n).tolist()
        assert nmi(pred, truth) == pytest.approx(
            nmi_by_formula(pred, truth), abs=1e-12
        )


def test_nmi_symmetry_and_range(rng):
    for _ in range(30):
        pred = rng.integers(0, 3, size=12)
        truth = rng.integers(0, 4, size=12)
        a = nmi(pred, truth)
        assert a == pytest.approx(nmi(truth, pred), abs=1e-12)
        assert 0.0 <= a <= 1.0
        assert 0.0 <= accuracy(pred, truth) <= 1.0


def test_nmi_degenerate_single_cluster():
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(4))))
def test_metrics_invariant_under_relabeling(perm):
    pred = [0, 1, 2, 3, 0, 1, 2, 3, 0, 2]
    truth = [0, 0, 1, 1, 2, 2, 3, 3, 0, 1]
    relabeled = [perm[v] for v in pred]
    assert accuracy(relabeled, truth) == pytest.approx(accuracy(pred, truth))
    assert nmi(relabeled, truth) == pytest.approx(nmi(pred, truth), abs=1e-12)


def test_contingency_marginals(rng):
    pred = rng.integers(0, 3, size=40)
    truth = rng.integers(0, 2, size=40)
    counts = contingency(pred, truth)
    assert counts.sum() == 40
    assert np.array_equal(counts.sum(axis=1), np.bincount(pred))
    assert np.array_equal(counts.sum(axis=0), np.bincount(truth))


def test_max_variance_constant_feature_ranks_last(rng):
    values = rng.normal(size=(3, 30))
    values[1] = 2.5
    data = DataMatrix(values)
    ranking = max_variance_ranking(data)
    assert ranking.order[-1] == 1
    assert ranking.scores[1] == 0.0


def test_max_variance_scaled_copy_ranks_higher(rng):
    base = rng.normal(size=30)
    data = DataMatrix(np.vstack([base, 10.0 * base]))
    assert max_variance_ranking(data).order.tolist() == [1, 0]


def test_max_variance_matches_two_pass_oracle(rng):
    data = DataMatrix(rng.normal(size=(5, 100)) * rng.uniform(0.5, 3.0, (5, 1)))
    ranking = max_variance_ranking(data)
    oracle = []
    for i in range(5):
        row = data.values[i]
        mean = sum(row) / 100
        oracle.append(sum((v - mean) ** 2 for v in row) / 99)
    assert ranking.order.tolist() == list(np.argsort(-np.asarray(oracle), kind="stable"))
    assert np.allclose(ranking.scores, oracle, rtol=1e-12)


def test_evaluate_clustering_on_exact_onehot_encodings():
    labels = np.repeat(np.arange(3), 4)
    onehot = np.zeros((3, 12))
    onehot[labels, np.arange(12)] = 1.0
    data = DataMatrix(onehot, labels=labels)
    stats = evaluate_clustering(data, c=3, runs=5, seed=0)
    assert stats.acc_mean == 1.0 and stats.acc_std == 0.0
    assert stats.nmi_mean == 1.0 and stats.nmi_std == 0.0


def test_evaluate_clustering_single_run_zero_std():
    data = make_blobs(20, 2, 3, 2, separation=5.0, noise_scale=1.0, seed=0)
    stats = evaluate_clustering(data, c=2, runs=1, seed=3)
    assert stats.acc_std == 0.0 and stats.nmi_std == 0.0


def test_evaluate_clustering_informative_subset_scores_high():
    data = make_blobs(50, 3, 5, 45, separation=5.0, noise_scale=1.0, seed=1)
    centered = center(data)
    informative = DataMatrix(centered.values[:5], labels=centered.labels)
    stats = evaluate_clustering(informative, c=3, runs=5, seed=7)
    assert stats.acc_mean >= 0.95


def test_evaluate_clustering_requires_labels(rng):
    data = DataMatrix(rng.normal(size=(3, 10)))
    with pytest.raises(ValueError, match="labels"):
        evaluate_clustering(data, 2, 3, 0)


@pytest.mark.parametrize("kind", sorted(NON_REAL))
def test_rank_features_rejects_non_real_input(kind):
    bad = NON_REAL[kind](np.eye(4, 2))
    with pytest.raises(ValueError, match=names_dtype(bad)):
        rank_features(bad)

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import random_orthonormal
from ufcm.linalg import gram_eig_top, require_centered, sym_eig_top


def centered(rng, d, n):
    x = rng.normal(size=(d, n))
    return x - x.mean(axis=1, keepdims=True)


def test_sym_eig_top_identity():
    pairs = sym_eig_top(np.eye(3), 2)
    assert np.allclose(pairs.values, [1.0, 1.0])
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(2), atol=1e-10)


def test_sym_eig_top_diagonal():
    pairs = sym_eig_top(np.diag([5.0, 2.0, -1.0]), 3)
    assert np.allclose(pairs.values, [5.0, 2.0, -1.0])
    assert np.allclose(np.abs(pairs.vectors), np.eye(3), atol=1e-12)
    assert (pairs.vectors.max(axis=0) > 0).all()  # sign convention


def test_sym_eig_top_residual_orthonormal_and_trace(rng):
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2
    pairs = sym_eig_top(a, 3)
    for j in range(3):
        resid = np.linalg.norm(a @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j])
        assert resid <= 1e-8 * (np.linalg.norm(a) + abs(pairs.values[j]))
    assert np.linalg.norm(pairs.vectors.T @ pairs.vectors - np.eye(3)) < 1e-10
    # trace over the returned basis equals the top-k eigenvalue sum of an
    # independent reference decomposition
    ref = np.sort(scipy.linalg.eigh(a, eigvals_only=True))[::-1]
    assert np.trace(pairs.vectors.T @ a @ pairs.vectors) == pytest.approx(
        ref[:3].sum(), abs=1e-8
    )
    assert np.allclose(pairs.values, ref[:3], atol=1e-10)


def test_sym_eig_top_k_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sym_eig_top(np.eye(2), 3)


def test_eigenbasis_trace_maximal_over_random_bases(rng):
    d, k = 7, 3
    a = rng.normal(size=(d, d))
    a = (a + a.T) / 2
    v = sym_eig_top(a, k).vectors
    best = np.trace(v.T @ a @ v)
    for _ in range(100):
        q = random_orthonormal(rng, d, k)
        assert best >= np.trace(q.T @ a @ q) - 1e-6


# The solver's PCA init: the top eigenvectors of the total scatter X X^T.


def test_pca_init_rank_one_direction():
    x = np.zeros((3, 4))
    x[0] = [2.0, -2.0, 1.0, -1.0]  # variance only along feature 0
    w = sym_eig_top(x @ x.T, 1).vectors
    assert np.allclose(np.abs(w[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)
    assert w[0, 0] > 0


def test_pca_init_full_basis_is_orthogonal(rng):
    x = centered(rng, 4, 20)
    w = sym_eig_top(x @ x.T, 4).vectors
    assert np.linalg.norm(w.T @ w - np.eye(4)) < 1e-10


def test_pca_init_variance_ordering(rng):
    x = centered(rng, 10, 60)
    x[0] *= 5.0  # dominant direction
    x -= x.mean(axis=1, keepdims=True)
    w = sym_eig_top(x @ x.T, 2).vectors
    proj = w.T @ x
    var = [float(np.var(proj[j], ddof=1)) for j in range(2)]
    assert var[0] >= var[1]


def test_gram_eig_top_matches_eigh_of_the_product(rng):
    # The thin SVD of X gives the top eigenpairs of X X^T, signs included.
    x = centered(rng, 30, 8)
    svd = gram_eig_top(x, 5)
    dense = sym_eig_top(x @ x.T, 5)
    assert np.allclose(svd.values, dense.values, rtol=1e-12, atol=0)
    assert np.abs(svd.vectors - dense.vectors).max() <= 1e-10
    assert svd.residual <= 1e-12


def test_sym_eig_top_keeps_the_full_spectrum(rng):
    a = rng.normal(size=(9, 9))
    a = (a + a.T) / 2
    pairs = sym_eig_top(a, 2)
    assert np.array_equal(pairs.spectrum, np.linalg.eigh(a)[0][::-1])
    assert np.allclose(
        pairs.spectrum, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-12
    )
    assert np.array_equal(pairs.spectrum[:2], pairs.values)


@pytest.mark.parametrize("k", [3, 8, 12])
def test_gram_eig_top_keeps_the_nonzero_spectrum(rng, k):
    # X X^T has the n eigenvalues of X^T X and d - n zeros; a centered X
    # has rank n - 1, so the n-th is zero too, up to round-off.
    x = centered(rng, 30, 8)
    pairs = gram_eig_top(x, k)
    want = np.linalg.eigvalsh(x @ x.T)[::-1][:8]
    assert pairs.spectrum.shape == (8,)
    assert np.abs(pairs.spectrum - want).max() <= 1e-12 * want[0]
    top = min(k, 8)
    assert np.array_equal(pairs.spectrum[:top], pairs.values[:top])


def test_require_centered_allocates_nothing_of_the_data_size(rng):
    x = centered(rng, 200, 500)
    tracemalloc.start()
    try:
        require_centered(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2

"""The K-means kernels of `ufcm.kmeans` against plain-loop references.

Data is features by samples, (k, n), as the kernels take it; center rows
are (c, k). `assign_labels` ranks centers by the expanded distance
||c||^2 - 2 y.c, so its labels equal the loop's argmin of the direct
distance wherever the gap between the best and second-best center exceeds
the rounding of that expansion; near-ties follow the expanded value
(documented below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ufcm import kmeans
from ufcm.kmeans import IndicatorMatrix

GAP = 1e-9  # relative to ||y||^2 + max ||c||^2, the scale of the rounding


def loop_distances(y, centers):
    """(n, c) squared distances from each column of ``y`` to each center
    row."""
    d2 = np.zeros((y.shape[1], centers.shape[0]))
    for i in range(y.shape[1]):
        for k in range(centers.shape[0]):
            for m in range(y.shape[0]):
                d2[i, k] += (y[m, i] - centers[k, m]) ** 2
    return d2


def loop_sums(y, labels, c):
    sums = np.zeros((c, y.shape[0]))
    counts = np.zeros(c, dtype=np.int64)
    for i, lab in enumerate(labels):
        sums[lab] += y[:, i]
        counts[lab] += 1
    return sums, counts


def check_labels_against_loop(y, centers):
    labels = kmeans.assign_labels(y, centers)
    d2 = loop_distances(y, centers)
    assert labels.shape == (y.shape[1],)
    if centers.shape[0] == 1:
        assert np.all(labels == 0)
        return
    two = np.sort(d2, axis=1)[:, :2]
    scale = np.einsum("ij,ij->j", y, y) + np.max(
        np.einsum("ij,ij->i", centers, centers)
    )
    clear = two[:, 1] - two[:, 0] > GAP * np.maximum(scale, 1.0)
    assert np.array_equal(labels[clear], np.argmin(d2, axis=1)[clear])
    # Where the gap is within rounding, the label is still a nearest center
    # up to that rounding.
    chosen = d2[np.arange(y.shape[1]), labels]
    assert np.all(chosen - two[:, 0] <= GAP * np.maximum(scale, 1.0))


def check_sums_against_loop(y, labels, c):
    sums = kmeans.centroid_sums(y, labels, c)
    ref_sums, ref_counts = loop_sums(y, labels, c)
    assert sums.shape == (c, y.shape[0])
    assert np.array_equal(IndicatorMatrix(labels, c).counts(), ref_counts)
    # Relative to the members' absolute sum: summation order may differ.
    magnitude, _ = loop_sums(np.abs(y), labels, c)
    assert np.all(np.abs(sums - ref_sums) <= 1e-12 * magnitude)


def instance(seed, n=200, k=6, c=4):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(k, n))
    centers = rng.normal(size=(c, k))
    labels = rng.integers(0, c, size=n)
    return y, centers, labels


@pytest.mark.parametrize("seed", range(5))
def test_assign_labels_matches_loop_argmin(seed):
    y, centers, _ = instance(seed)
    check_labels_against_loop(y, centers)


def test_assign_labels_accepts_column_major_rows():
    y, centers, _ = instance(7, n=50)
    columns = np.asfortranarray(y)  # same values, column-major storage
    assert np.array_equal(
        kmeans.assign_labels(columns, centers),
        kmeans.assign_labels(y, centers),
    )


@pytest.mark.parametrize(
    "point, centers, expected",
    [
        ([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], 0),
        ([0.5, 0.0], [[0.0, 0.0], [1.0, 0.0]], 0),
        ([0.0, 0.0], [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]], 0),
        ([0.0, 0.0], [[3.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 1),
    ],
)
def test_exact_tie_goes_to_lowest_index(point, centers, expected):
    y = np.array([point]).T
    assert kmeans.assign_labels(y, np.array(centers))[0] == expected


def test_near_tie_follows_expanded_distance():
    # y sits 1e-6 closer to the second center. Direct differences resolve
    # that, but ||c||^2 - 2 y.c rounds both centers to the same value at
    # magnitude 1e12, so the exact-tie rule picks index 0.
    a = 1e6
    y = np.array([[a + 0.5 + 1e-6]])
    centers = np.array([[a], [a + 1.0]])
    assert np.argmin(loop_distances(y, centers)[0]) == 1
    norms = np.einsum("ij,ij->i", centers, centers)[:, None]
    expanded = norms - 2.0 * (centers @ y)
    assert expanded[0, 0] == expanded[1, 0]
    assert kmeans.assign_labels(y, centers)[0] == 0


@pytest.mark.parametrize("seed", range(5))
def test_centroid_sums_match_loop(seed):
    y, _, labels = instance(seed)
    check_sums_against_loop(y, labels, 4)


def test_centroid_sums_of_a_transposed_view_match_loop():
    rows = np.random.default_rng(3).normal(size=(40, 30))  # samples as rows
    labels = np.arange(40) % 3
    check_sums_against_loop(rows.T, labels, 3)


def test_centroid_sums_empty_cluster_counts_zero():
    y = np.arange(6.0).reshape(3, 2).T
    labels = np.array([0, 2, 0])
    sums = kmeans.centroid_sums(y, labels, 4)
    assert IndicatorMatrix(labels, 4).counts().tolist() == [2, 0, 1, 0]
    assert sums.tolist() == [[4.0, 6.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0]]


@pytest.mark.parametrize("c", [255, 256, 257])
def test_centroid_sums_one_hot_matches_loop_at_rank_dtype_boundary(c):
    # Fewer samples than clusters, so many clusters are empty; the labels
    # reach c - 1, past the one-byte range at c = 257.
    rng = np.random.default_rng(c)
    y = rng.normal(size=(5, 200))
    labels = rng.integers(0, c, size=200)
    labels[:2] = [0, c - 1]
    check_sums_against_loop(y, labels, c)
    sums = kmeans.centroid_sums(y, labels, c)
    empty = np.bincount(labels, minlength=c) == 0
    assert empty.sum() >= c - 200
    assert not sums[empty].any()


@pytest.mark.parametrize("seed", range(5))
def test_fit_value_matches_loop(seed):
    y, centers, labels = instance(seed)
    ref = 0.0
    for i, lab in enumerate(labels):
        for m in range(y.shape[0]):
            ref += (y[m, i] - centers[lab, m]) ** 2
    assert kmeans.fit_value(y, centers.T, labels) == pytest.approx(
        ref, rel=1e-13
    )


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 5))
    c = draw(st.integers(1, 6))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    y = draw(arrays(np.float64, (k, n), elements=values))
    centers = draw(arrays(np.float64, (c, k), elements=values))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    return y, centers, labels


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_kernels_match_loops_on_random_shapes(inputs):
    y, centers, labels = inputs
    check_labels_against_loop(y, centers)
    check_sums_against_loop(y, labels, centers.shape[0])


def row_wise_scores(y, centers):
    """The (n, c) expanded scores as a row-wise kernel computes them."""
    scores = y.T @ centers.T
    scores *= -2.0
    scores += np.einsum("ij,ij->i", centers, centers)
    return scores


@st.composite
def assignment_inputs(draw):
    """Inputs on which the labels hang on exact ties or on rounding.

    Either every value sits on a grid of quarters, so exact ties are
    common, or each row lies on the bisector of two random centers, so its
    two scores tie up to rounding and the label follows the last bits of
    the product, which depend on the GEMM's operand order. Centers repeat
    wherever the drawn row indices do, and c spans the width at which the
    rank dtype grows past one byte (255 | 256). Values come from a drawn
    seed, which keeps c = 257 cheap to draw.
    """
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, 40))
    c = draw(st.one_of(st.integers(1, 20), st.sampled_from([255, 256, 257])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = draw(st.booleans())
    levels = draw(st.integers(1, 8))  # grid points either side of 0
    if on_grid:
        pool = rng.integers(-levels, levels + 1, size=(c, k)) / 4.0
    else:
        pool = rng.normal(size=(c, k))
    centers = pool[rng.integers(0, c, size=c)]
    if on_grid:
        rows = rng.integers(-levels, levels + 1, size=(n, k)) / 4.0
    else:
        a, b = rng.integers(0, c, size=(2, n))
        gap = centers[a] - centers[b]
        norm2 = np.maximum(np.einsum("ij,ij->i", gap, gap), 1e-300)
        v = rng.normal(size=(n, k))
        v -= (np.einsum("ij,ij->i", v, gap) / norm2)[:, None] * gap
        rows = (centers[a] + centers[b]) / 2.0 + v
    y = rows.T  # features by samples, column-major storage
    if draw(st.booleans()):
        y = np.ascontiguousarray(y)
    return y, centers


@settings(max_examples=300, deadline=None)
@given(assignment_inputs())
def test_assign_labels_equals_argmin_of_row_wise_scores(inputs):
    y, centers = inputs
    labels = kmeans.assign_labels(y, centers)
    assert labels.dtype == np.int64
    assert np.array_equal(
        labels, np.argmin(row_wise_scores(y, centers), axis=1)
    )


@pytest.mark.parametrize("c", [1, 2, 255, 256, 257])
def test_all_centers_tied_gives_index_0(c):
    # Every row of the score array attains the minimum, so the winning
    # rank is row 0's, c itself: it must fit the rank dtype.
    y = np.array([[0.0, 1.0], [2.0, -1.0]]).T
    centers = np.tile([1.0, 0.0], (c, 1))
    assert kmeans.assign_labels(y, centers).tolist() == [0, 0]

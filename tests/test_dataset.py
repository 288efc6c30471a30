import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import NON_REAL, names_dtype, write_csv
from ufcm.dataset import (
    CsvFormatError,
    DataMatrix,
    center,
    load_csv,
    make_blobs,
)
from ufcm.linalg import require_centered


def test_datamatrix_shape_and_orientation():
    dm = DataMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    assert dm.d == 2 and dm.n == 3


def test_datamatrix_rejects_single_sample():
    with pytest.raises(ValueError, match="two samples"):
        DataMatrix(np.array([[1.0], [2.0]]))


def test_datamatrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        DataMatrix(np.array([[1.0, np.nan]]))


def test_datamatrix_rejects_gappy_labels():
    with pytest.raises(ValueError, match="contiguous"):
        DataMatrix(np.zeros((2, 3)), labels=[0, 2, 2])


def test_datamatrix_does_not_freeze_caller_array():
    # A C-ordered float64 input is shared, not copied: `values` is a
    # read-only view of it.
    x = np.zeros((2, 2))
    values = DataMatrix(x).values
    assert np.shares_memory(values, x)
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 1.0
    x[0, 0] = 1.0  # caller array stays writable, and the write shows through
    assert values[0, 0] == 1.0


@pytest.mark.parametrize(
    "x",
    [
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(6).reshape(2, 3),
        np.arange(6.0, dtype=np.float32).reshape(2, 3),
        np.arange(6).reshape(2, 3) % 2 == 0,
    ],
    ids=["f-order", "int", "float32", "bool"],
)
def test_datamatrix_copies_other_layouts_and_real_dtypes_once(x):
    values = DataMatrix(x).values
    assert not np.shares_memory(values, x)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert np.array_equal(values, x)
    assert not values.flags.writeable


@pytest.mark.parametrize("kind", sorted(NON_REAL))
def test_datamatrix_rejects_non_real_input_naming_the_dtype(kind):
    bad = NON_REAL[kind](np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError, match=names_dtype(bad)):
        DataMatrix(bad)


def test_load_csv_with_label_column(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("a,b,cls\n1.0,2.0,x\n3.0,4.0,y\n5.0,6.0,x\n")
    dm = load_csv(path, label_column="cls")
    assert dm.d == 2 and dm.n == 3
    assert dm.feature_names == ["a", "b"]
    assert dm.labels.tolist() == [0, 1, 0]
    assert dm.values[:, 2].tolist() == [5.0, 6.0]
    with pytest.raises(CsvFormatError, match="no column named 'species'"):
        load_csv(path, label_column="species")
    with pytest.raises(CsvFormatError, match="index 3 out of range for 3"):
        load_csv(path, label_column=3)


def test_load_csv_label_by_index_without_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    dm = load_csv(path, label_column=2)
    assert dm.d == 2 and dm.n == 2
    assert dm.labels.tolist() == [0, 1]
    with pytest.raises(CsvFormatError, match="by name but the file has no"):
        load_csv(path, label_column="cls")


def test_load_csv_blank_cell_names_row_and_column(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,\n")
    with pytest.raises(CsvFormatError, match=r"row 3.*'b'.*empty"):
        load_csv(path)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\noops,4.0\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 0"):
        load_csv(path)
    # The rescan skips the label column and names the bad cell past it.
    path.write_text("a,cls,b\n1.0,x,2.0\n3.0,y,oops\n")
    with pytest.raises(
        CsvFormatError, match=r"row 3, column 'b': cannot parse 'oops'"
    ):
        load_csv(path, label_column="cls")


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError, match="has 1 cells, expected 2"):
        load_csv(path)


def test_load_csv_rejects_inf(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0,inf\n2.0,3.0\n")
    with pytest.raises(CsvFormatError, match="non-finite"):
        load_csv(path)


def test_load_csv_iris_shaped(tmp_path):
    # 150 samples x 4 features + 3-class label column.
    rng = np.random.default_rng(0)
    path = tmp_path / "iris_like.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sl", "sw", "pl", "pw", "species"])
        for i in range(150):
            writer.writerow(
                [f"{v:.3f}" for v in rng.normal(size=4)] + [f"cls{i % 3}"]
            )
    # Independent count with the stock reader.
    with open(path, newline="") as fh:
        n_lines = sum(1 for _ in csv.reader(fh))
    dm = load_csv(path, label_column="species")
    assert (dm.d, dm.n) == (4, n_lines - 1) == (4, 150)
    assert np.bincount(dm.labels).tolist() == [50, 50, 50]


@pytest.mark.parametrize(
    "cell",
    [
        "2#3",  # numpy's reader would drop the rest as a comment if allowed
        "1_000",  # float() accepts digit-group underscores, numpy does not
        "١",  # ARABIC-INDIC DIGIT ONE: float() accepts it, numpy does not
    ],
)
def test_load_csv_rejects_what_numpy_cannot_parse(tmp_path, cell):
    path = tmp_path / "odd.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(
        CsvFormatError, match=rf"row 3, column 'b': cannot parse '{cell}'"
    ):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_load_csv_non_finite_names_row_and_column(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"a,b\n1.0,2.0\n{cell},4.0\n")
    with pytest.raises(
        CsvFormatError, match=rf"row 3, column 'a': non-finite value '{cell}'"
    ):
        load_csv(path)


def test_load_csv_rows_narrower_than_header(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("a,b,c\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(CsvFormatError, match="row 2 has 2 cells, expected 3"):
        load_csv(path)


def test_load_csv_header_only_is_no_data_and_warns_nothing(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)
        path.write_text("\n\n")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_csv(path)


@pytest.mark.parametrize(
    "text, label_column, message",
    [
        pytest.param(
            "a,b\n1.0,2.0\n",
            None,
            "one data row; need at least two samples",
            id="one-row",
        ),
        pytest.param(
            "a,label\n1.0,x\n\n", "label", "one data row", id="one-row-label"
        ),
        pytest.param(
            "label\nx\ny\n",
            "label",
            "no feature column besides the label",
            id="label-only-by-name",
        ),
        pytest.param(
            "x\ny\nz\n",
            0,
            "no feature column besides the label",
            id="label-only-by-index",
        ),
    ],
)
def test_load_csv_too_little_data_names_the_file(
    tmp_path, text, label_column, message
):
    path = tmp_path / "small.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as info:
        load_csv(path, label_column=label_column)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_csv_quoted_cells_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "dialect.csv"
    path.write_bytes(
        b'\r\n"a","b"\r\n"1.5", 2.0\r\n\r\n3.0 ,"-4e-3"\r\n\r\n'
    )
    dm = load_csv(path)
    assert dm.feature_names == ["a", "b"]
    assert dm.values.tolist() == [[1.5, 3.0], [2.0, -4e-3]]


@pytest.mark.parametrize("label_column", ["cls", 1])
def test_load_csv_label_column_in_the_middle(tmp_path, label_column):
    path = tmp_path / "middle.csv"
    path.write_text('a,cls,b\n1.0,"y",2.0\n3.0, x ,4.0\n5.0,y,6.0\n')
    dm = load_csv(path, label_column=label_column)
    assert dm.feature_names == ["a", "b"]
    assert dm.values.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
    assert dm.labels.tolist() == [1, 0, 1]


def test_load_csv_skips_a_byte_order_mark_before_data(tmp_path):
    # Read as plain UTF-8, the first cell '\ufeff1.0' is no number, so the
    # first data row would be taken as a header and lost.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    dm = load_csv(path)
    assert dm.feature_names is None
    assert dm.values.T.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_load_csv_skips_a_byte_order_mark_before_the_header(tmp_path):
    # Read as plain UTF-8, the first name is '\ufeffa'.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\nx,1.0\ny,2.0\nx,3.0\n")
    dm = load_csv(path, label_column="a")
    assert dm.feature_names == ["b"]
    assert dm.labels.tolist() == [0, 1, 0]
    assert dm.values.tolist() == [[1.0, 2.0, 3.0]]


def test_load_csv_rejects_a_non_utf8_header(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,\xe9b\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(CsvFormatError, match=r"latin1\.csv: not UTF-8 text"):
        load_csv(path)


def test_load_csv_rejects_a_non_utf8_byte_in_a_later_row(tmp_path):
    # Far enough past the first row that the fast parse, not the header
    # read, meets the bad byte and the row-by-row rescan decodes it again.
    path = tmp_path / "bad.csv"
    rows = "".join(f"{i}.0,{i}.5\n" for i in range(3000)).encode()
    path.write_bytes(b"a,b\n" + rows + b"1.0,\xff2.0\n")
    assert len(rows) > 4 * 8192
    with pytest.raises(CsvFormatError, match=r"bad\.csv: not UTF-8 text"):
        load_csv(path)


def test_center_arithmetic():
    dm = DataMatrix(np.array([[1.0, 3.0], [2.0, 2.0]]))
    centered = center(dm)
    assert np.array_equal(centered.values, [[-1.0, 1.0], [0.0, 0.0]])


def test_center_idempotent():
    rng = np.random.default_rng(1)
    dm = DataMatrix(rng.normal(size=(4, 9)) * 10.0)
    once = center(dm)
    twice = center(once)
    assert np.abs(twice.values - once.values).max() < 1e-12


def test_center_zero_means_by_direct_summation():
    rng = np.random.default_rng(2)
    dm = DataMatrix(rng.normal(loc=5.0, size=(5, 20)))
    centered = center(dm)
    for i in range(5):
        total = sum(float(v) for v in centered.values[i])
        orig_mean = abs(float(dm.values[i].mean()))
        assert abs(total / 20.0) < 1e-10 * (1.0 + orig_mean)


def test_center_allocates_one_d_by_n_array():
    data = DataMatrix(np.random.default_rng(3).normal(size=(200, 500)))
    tracemalloc.start()
    try:
        centered = center(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * centered.values.nbytes


def test_scale_makes_one_array_with_the_bits_of_center_scale_center():
    rng = np.random.default_rng(4)
    values = rng.normal(loc=3.0, size=(200, 500))
    values[7] = 2.5  # constant: its std of 0 divides as 1
    values[9] = 1e6 + 1e-6 * rng.normal(size=500)
    data = DataMatrix(values)
    centered = center(data)
    std = centered.values.std(axis=1)
    std[std == 0.0] = 1.0
    want = center(DataMatrix(centered.values / std[:, None])).values
    tracemalloc.start()
    try:
        got = center(data, scale=True).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # The result, and the d x n temporary inside `np.std`.
    assert peak < 2.5 * got.nbytes
    # Feature 9's std near 1e-6 scales the first centering's residue up:
    # the second centering is what brings it back under the check.
    require_centered(got)


def test_center_keeps_labels():
    dm = DataMatrix(np.arange(8.0).reshape(2, 4), labels=[0, 0, 1, 1])
    centered = center(dm)
    assert centered.labels.tolist() == [0, 0, 1, 1]


def test_make_blobs_shapes_and_labels():
    dm = make_blobs(50, 3, 5, 45, separation=4.0, noise_scale=1.0, seed=0)
    assert (dm.d, dm.n) == (50, 150)
    assert np.bincount(dm.labels).tolist() == [50, 50, 50]
    assert dm.feature_names[0] == "informative_0"
    assert dm.feature_names[5] == "noise_0"


def test_make_blobs_same_seed_bit_identical():
    a = make_blobs(10, 2, 3, 4, separation=2.0, noise_scale=0.5, seed=42)
    b = make_blobs(10, 2, 3, 4, separation=2.0, noise_scale=0.5, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_make_blobs_noise_variance():
    dm = make_blobs(1000, 3, 2, 6, separation=4.0, noise_scale=1.5, seed=3)
    for i in range(2, 8):
        row = dm.values[i]
        # two-pass sample variance, independent of numpy's var
        mean = sum(row) / row.size
        var = sum((v - mean) ** 2 for v in row) / (row.size - 1)
        assert abs(var - 1.5**2) < 0.2 * 1.5**2


def test_make_blobs_separation_between_cluster_means():
    dm = make_blobs(500, 3, 4, 1, separation=6.0, noise_scale=1.0, seed=4)
    means = [
        dm.values[:4, dm.labels == k].mean(axis=1) for k in range(3)
    ]
    for a in range(3):
        for b in range(a + 1, 3):
            # empirical means sit within ~0.1 of the true centers
            assert np.linalg.norm(means[a] - means[b]) > 6.0 * 0.9


def test_make_blobs_validates():
    with pytest.raises(ValueError):
        make_blobs(0, 3, 2, 2, separation=1.0, noise_scale=1.0, seed=0)
    with pytest.raises(ValueError):
        make_blobs(5, 3, 2, 2, separation=0.0, noise_scale=1.0, seed=0)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    dm = DataMatrix(
        rng.normal(size=(3, 7)) * np.pi,
        feature_names=["x", "y", "z"],
        labels=[0, 1, 2, 0, 1, 2, 0],
    )
    path = tmp_path / "rt.csv"
    write_csv(dm, path)
    back = load_csv(path, label_column="label")
    assert np.array_equal(back.values, dm.values)  # bitwise via repr()
    assert np.array_equal(back.labels, dm.labels)
    assert back.feature_names == dm.feature_names


def test_csv_round_trip_without_labels(tmp_path):
    dm = DataMatrix(np.array([[1.5, -2.25], [1e-17, 3.0]]))
    path = tmp_path / "rt2.csv"
    write_csv(dm, path)
    back = load_csv(path)
    assert np.array_equal(back.values, dm.values)
    assert back.labels is None


# Finite float64 values, with the edge cases written out so every run has
# them: signed zeros, subnormals, the extremes and a 17-digit repr.
_EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    1.7976931348623157e308,
    0.1 + 0.2,
]


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(2, 6)),
        elements=st.one_of(
            st.sampled_from(_EDGE_FLOATS),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
)
def test_csv_round_trip_is_bit_identical(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    write_csv(DataMatrix(values), path)
    back = load_csv(path)
    assert back.values.tobytes() == values.tobytes()

"""Dataset loading, validation, centering, and synthetic blob generation.

The in-memory convention is features-by-samples: ``values[i, j]`` is feature
i of sample j, so a matrix has shape (d, n). CSV files on disk use the
opposite, samples-as-rows layout and are transposed on load.

Ground-truth labels, when present, exist for evaluation only. The solver
takes a bare ndarray, so labels can never leak into fitting.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .linalg import require_real


class CsvFormatError(ValueError):
    """A CSV file could not be parsed into a numeric data matrix."""


@dataclass
class DataMatrix:
    """d features x n samples with optional feature names and labels.

    `values` is a read-only view of the input when that is a C-ordered
    float64 array: it shares the input's memory, so a later write through
    the caller's own reference shows through `values`, and the caller's
    array stays writable. Input of any other dtype or layout is copied
    once. Bool, integer and float input is accepted; complex, string and
    other dtypes raise ValueError.

    Labels must be contiguous class indices 0..c-1; `load_csv` and
    `make_blobs` produce them in that form, direct construction validates it.
    """

    values: np.ndarray
    feature_names: list[str] | None = None
    labels: np.ndarray | None = field(default=None)

    def __post_init__(self):
        values = require_real(self.values, "values")
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={values.ndim}")
        values = np.ascontiguousarray(values, dtype=np.float64)
        d, n = values.shape
        if d < 1:
            raise ValueError("need at least one feature")
        if n < 2:
            raise ValueError(f"need at least two samples, got n={n}")
        if not np.all(np.isfinite(values)):
            raise ValueError("data matrix contains non-finite entries")
        # Freeze a view, so a caller-owned array stays writable.
        self.values = values.view()
        self.values.flags.writeable = False

        if self.feature_names is not None:
            if len(self.feature_names) != d:
                raise ValueError(
                    f"{len(self.feature_names)} feature names for {d} features"
                )
            self.feature_names = list(self.feature_names)

        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64, order="C")
            if labels.shape != (n,):
                raise ValueError(f"labels shape {labels.shape} != ({n},)")
            classes = np.unique(labels)
            if not np.array_equal(classes, np.arange(classes.size)):
                raise ValueError(
                    "labels must be contiguous class indices 0..c-1"
                )
            labels.flags.writeable = False
            self.labels = labels

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def center(data: DataMatrix, scale: bool = False) -> DataMatrix:
    """Subtract the per-feature sample mean and, with `scale`, divide by
    each feature's std (1 for a constant feature) and center again.

    `scale` is the CLI's ``--scale``. The paper's abstract fixes no
    preprocessing, but the objective is not scale-invariant: scaling to
    unit variance changes which features are selected. The second
    centering is needed because dividing by a tiny std scales the first
    one's residue up past `solve`'s centering check.

    Returns the matrix with names and labels carried over; its values are
    the one d x n array the subtraction makes, updated in place, not a
    copy. Idempotent up to floating-point residue.
    """
    values = data.values - data.values.mean(axis=1)[:, None]
    if scale:
        std = values.std(axis=1)
        std[std == 0.0] = 1.0
        values /= std[:, None]
        values -= values.mean(axis=1)[:, None]
    return DataMatrix(
        values, feature_names=data.feature_names, labels=data.labels
    )


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _to_float(text: str) -> float:
    """Parse a stripped cell as numpy's text reader does: Python's float
    syntax without digit-group underscores or non-ASCII characters."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _raise_first_bad_cell(
    path, header, n_cols, label_idx, reason: str
) -> NoReturn:
    """Rescan the file row by row and raise a CsvFormatError naming the
    first ragged row or bad cell. Runs only after the fast parse has failed;
    `reason` words the error if the rescan finds nothing."""

    def col_name(j: int) -> str:
        return repr(header[j]) if header is not None else str(j)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = (row for row in csv.reader(fh) if row)
        if header is not None:
            next(rows)
        for line, row in enumerate(rows, 1 if header is None else 2):
            if len(row) != n_cols:
                raise CsvFormatError(
                    f"{path}: row {line} has {len(row)} cells, "
                    f"expected {n_cols}"
                )
            for j, cell in enumerate(row):
                if j == label_idx:
                    continue
                where = f"{path}: row {line}, column {col_name(j)}"
                text = cell.strip()
                if not text:
                    raise CsvFormatError(f"{where}: empty cell")
                try:
                    value = _to_float(text)
                except ValueError:
                    raise CsvFormatError(
                        f"{where}: cannot parse {cell!r} as a number"
                    ) from None
                if not np.isfinite(value):
                    raise CsvFormatError(f"{where}: non-finite value {cell!r}")
    raise CsvFormatError(f"{path}: {reason}")


def load_csv(path, label_column: str | int | None = None) -> DataMatrix:
    """Load a samples-as-rows CSV into a (d, n) DataMatrix.

    Args:
        path: UTF-8 CSV file, comma-separated; a leading byte-order mark
            and blank lines are skipped and CRLF line ends are accepted.
            The first line may be a header (detected by whether every cell
            parses as a number). Data cells are finite reals in numpy's
            float syntax: Python's float() syntax without digit-group
            underscores (``1_000``) or non-ASCII digits, surrounding
            whitespace allowed, optionally quoted (``"1.5"``). ``#`` starts
            no comment: a cell holding one is an error.
        label_column: column holding ground-truth labels, by header name or
            zero-based index. Label values are re-indexed to 0..c-1 in sorted
            order of their string form.

    Raises:
        CsvFormatError: on an empty cell, an unparseable or non-finite value
            (row and column reported), a ragged row, fewer than two data
            rows, no feature column besides the label, or non-UTF-8 text.
    """
    try:
        return _parse_csv(path, label_column)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _parse_csv(path, label_column) -> DataMatrix:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = next((row for row in csv.reader(fh) if row), None)
        if first is None:
            raise CsvFormatError(f"{path}: empty file")
        header = first if _looks_like_header(first) else None
        if header is None:
            fh.seek(0)
        n_cols = len(first)

        label_idx: int | None = None
        if label_column is not None:
            if isinstance(label_column, str):
                if header is None:
                    raise CsvFormatError(
                        f"{path}: label column {label_column!r} requested "
                        "by name but the file has no header"
                    )
                try:
                    label_idx = header.index(label_column)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: no column named {label_column!r} in header"
                    ) from None
            else:
                label_idx = int(label_column)
                if not 0 <= label_idx < n_cols:
                    raise CsvFormatError(
                        f"{path}: label column index {label_idx} out of range "
                        f"for {n_cols} columns"
                    )

        raw_labels: list[str] = []

        def keep_label(cell: str) -> float:
            raw_labels.append(cell.strip())
            return 0.0

        try:
            with warnings.catch_warnings():
                # A header-only file is reported below as "no data rows".
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                rows = np.loadtxt(
                    fh,
                    dtype=np.float64,
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    ndmin=2,
                    converters=(
                        None if label_idx is None else {label_idx: keep_label}
                    ),
                )
        except ValueError as exc:
            _raise_first_bad_cell(path, header, n_cols, label_idx, str(exc))
    if not rows.size:
        raise CsvFormatError(f"{path}: no data rows")
    if rows.shape[1] != n_cols or not np.isfinite(rows).all():
        _raise_first_bad_cell(path, header, n_cols, label_idx, "bad cell")
    if len(rows) < 2:
        raise CsvFormatError(
            f"{path}: one data row; need at least two samples"
        )
    if label_idx is not None and n_cols == 1:
        raise CsvFormatError(f"{path}: no feature column besides the label")

    labels = None
    keep = np.ones(n_cols, dtype=bool)
    if label_idx is not None:
        _, labels = np.unique(raw_labels, return_inverse=True)
        labels = labels.astype(np.int64)
        keep[label_idx] = False

    feature_names = None
    if header is not None:
        feature_names = [h for j, h in enumerate(header) if j != label_idx]

    # One gather drops the label column and transposes: its result is
    # C-ordered, so DataMatrix keeps it without a copy.
    return DataMatrix(rows.T[keep], feature_names=feature_names, labels=labels)


def make_blobs(
    n_per_cluster: int,
    c: int,
    d_informative: int,
    d_noise: int,
    separation: float,
    noise_scale: float,
    seed: int,
) -> DataMatrix:
    """Generate Gaussian blobs with appended pure-noise features.

    The first `d_informative` features carry cluster structure: cluster
    centers are drawn at random and rescaled so the closest pair sits exactly
    `separation` apart, then samples scatter around them with standard
    deviation `noise_scale`. The remaining `d_noise` features are zero-mean
    Gaussian noise of the same scale, identical across clusters. Labels are
    the generating cluster ids. Bit-reproducible for a fixed seed.
    """
    if min(n_per_cluster, c, d_informative, d_noise) < 1:
        raise ValueError("all counts must be >= 1")
    if separation <= 0:
        raise ValueError("separation must be > 0")
    rng = np.random.default_rng(seed)

    centers = rng.normal(size=(c, d_informative))
    if c > 1:
        gaps = [
            np.linalg.norm(centers[a] - centers[b])
            for a in range(c)
            for b in range(a + 1, c)
        ]
        centers *= separation / min(gaps)

    blocks = [
        centers[k][:, None]
        + rng.normal(scale=noise_scale, size=(d_informative, n_per_cluster))
        for k in range(c)
    ]
    informative = np.hstack(blocks)
    n = n_per_cluster * c
    noise = rng.normal(scale=noise_scale, size=(d_noise, n))

    names = [f"informative_{i}" for i in range(d_informative)]
    names += [f"noise_{i}" for i in range(d_noise)]
    labels = np.repeat(np.arange(c, dtype=np.int64), n_per_cluster)
    return DataMatrix(
        np.vstack([informative, noise]), feature_names=names, labels=labels
    )

import csv
import re

import numpy as np
import pytest


# Arrays that hold no real numbers, each made from a float array. Every
# public entry point rejects them with a ValueError naming the dtype.
NON_REAL = {
    "complex": lambda x: x + 0j,
    "object": lambda x: x.astype(object),
    "string": lambda x: x.astype(str),
    "void": lambda x: x.view("V8"),
    "datetime": lambda x: x.astype(np.int64).astype("datetime64[s]"),
}


def names_dtype(bad) -> str:
    """A `pytest.raises` match for the error on the non-real array `bad`."""
    return f"must be real numbers, got dtype {re.escape(str(bad.dtype))}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_orthonormal(rng, d, k):
    """Orthonormal (d, k) via QR of a Gaussian draw."""
    q, _ = np.linalg.qr(rng.normal(size=(d, k)))
    return q


def write_csv(data, path) -> None:
    """Write a DataMatrix as samples-as-rows CSV that `load_csv` round-trips
    exactly.

    Values are written with repr(), the shortest decimal form that parses
    back to the identical float64. Labels, when present, go in a last column
    named "label".
    """
    names = data.feature_names or [f"f{i}" for i in range(data.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        head = list(names)
        if data.labels is not None:
            head.append("label")
        writer.writerow(head)
        for j in range(data.n):
            row = [repr(float(v)) for v in data.values[:, j]]
            if data.labels is not None:
                row.append(str(int(data.labels[j])))
            writer.writerow(row)

import csv

import numpy as np
import pytest


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

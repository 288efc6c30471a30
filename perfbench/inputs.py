"""Seeded inputs for the benchmark workloads.

The generator lives here, not in `ufcm.dataset`, so that a change to the
library's own blob generator cannot change what the benchmark measures.

Gaussian blobs: cluster centers are drawn in the informative features and
rescaled so the closest pair sits SEPARATION apart; samples scatter around
them with standard deviation NOISE. The remaining features are pure noise
of the same scale. Feature and sample order are then shuffled, so a ranking
that favours low indices or a solver that favours label order gains nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEPARATION = 4.0
NOISE = 1.0


@dataclass(frozen=True)
class BlobSpec:
    d_informative: int
    d_noise: int
    c: int
    n_per_cluster: int

    @property
    def d(self) -> int:
        return self.d_informative + self.d_noise

    @property
    def n(self) -> int:
        return self.c * self.n_per_cluster


@dataclass(frozen=True)
class Blobs:
    x: np.ndarray            # (d, n), centered features-by-samples
    labels: np.ndarray       # (n,) int64 in 0..c-1
    informative: np.ndarray  # sorted indices of the planted features


def make_blobs(spec: BlobSpec, seed: int, part: int = 0) -> Blobs:
    """Centered (d, n) blob matrix; the same seed and part give the same
    bits. Parts are independent draws for one seed."""
    rng = np.random.default_rng([seed, part, spec.d, spec.n, spec.c])
    centers = rng.normal(size=(spec.c, spec.d_informative))
    gaps = [
        np.linalg.norm(centers[a] - centers[b])
        for a in range(spec.c)
        for b in range(a + 1, spec.c)
    ]
    centers *= SEPARATION / min(gaps)

    labels = np.repeat(np.arange(spec.c, dtype=np.int64), spec.n_per_cluster)
    x = rng.normal(scale=NOISE, size=(spec.d, spec.n))
    x[: spec.d_informative] += centers[labels].T

    feat = rng.permutation(spec.d)
    samp = rng.permutation(spec.n)
    x = x[np.argsort(feat)][:, samp]
    labels = labels[samp]
    informative = np.sort(feat[: spec.d_informative])

    x = x - x.mean(axis=1, keepdims=True)
    return Blobs(np.ascontiguousarray(x), labels, informative)


def write_labelled_csv(blobs: Blobs, path: Path) -> None:
    """Samples-as-rows CSV with a header and a trailing `label` column.

    Values are written with repr(), which `ufcm.load_csv` parses back to the
    same float64.
    """
    d = blobs.x.shape[0]
    header = ",".join([f"f{i}" for i in range(d)] + ["label"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for j, row in enumerate(blobs.x.T.tolist()):
            fh.write(",".join(map(repr, row)) + f",{int(blobs.labels[j])}\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_array(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(
        f"{a.dtype.str}{a.shape}".encode() + a.tobytes()
    ).hexdigest()

"""Tests of the benchmark's own code: inputs, output checks and spans."""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import hwm
import spans
from inputs import BlobSpec, make_blobs, sha256_file, write_labelled_csv

SMALL = BlobSpec(d_informative=3, d_noise=7, c=3, n_per_cluster=5)


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b = make_blobs(SMALL, 7), make_blobs(SMALL, 7)
    other, part = make_blobs(SMALL, 8), make_blobs(SMALL, 7, part=1)
    assert a.x.tobytes() == b.x.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.informative, b.informative)
    assert a.x.tobytes() != other.x.tobytes()
    assert a.x.tobytes() != part.x.tobytes()
    write_labelled_csv(a, tmp_path / "a.csv")
    write_labelled_csv(b, tmp_path / "b.csv")
    assert sha256_file(tmp_path / "a.csv") == sha256_file(tmp_path / "b.csv")


def test_generator_shape_and_planted_features():
    blobs = make_blobs(SMALL, 1)
    assert blobs.x.shape == (SMALL.d, SMALL.n)
    assert np.abs(blobs.x.mean(axis=1)).max() < 1e-12
    assert blobs.informative.size == SMALL.d_informative
    sizes = np.bincount(blobs.labels).tolist()
    assert sizes == [SMALL.n_per_cluster] * SMALL.c


def test_csv_round_trips_through_the_library(tmp_path):
    ufcm = pytest.importorskip("ufcm")
    blobs = make_blobs(SMALL, 2)
    write_labelled_csv(blobs, tmp_path / "x.csv")
    data = ufcm.load_csv(tmp_path / "x.csv", label_column="label")
    assert np.array_equal(data.values, blobs.x)
    assert np.array_equal(data.labels, blobs.labels)


def test_check_trace_rejects_a_decreasing_objective():
    assert checks.check_trace([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]) == []
    # A fall within 1e-8 * (1 + |J|) is round-off, not a decrease.
    assert checks.check_trace([100.0, 100.0 - 1e-7], [0.0, 0.0]) == []
    assert checks.check_trace([1.0, 0.5], [0.0, 0.0])


def test_check_rejects_a_non_orthonormal_w():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 3)))
    assert checks.check_w(q) == []
    assert checks.check_w(1.01 * q)
    assert checks.check_trace([1.0, 1.0], [0.0, 1e-6])


def test_check_floor():
    assert checks.check_floor("precision", 0.5, 0.5) == []
    assert checks.check_floor("precision", 0.4, 0.5)
    assert checks.check_floor("precision", float("nan"), 0.5)


def _tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    return [
        spans.Span(0, "root", 0.0, 10.0, None),
        spans.Span(1, "a", 1.0, 3.0, 0),
        spans.Span(2, "b", 4.0, 8.0, 0),
        spans.Span(3, "c", 5.0, 6.0, 2),
    ]


def test_self_time_on_a_hand_built_tree():
    assert spans.self_times(_tree()) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert spans.check_arithmetic(_tree()) == []
    second_a = spans.Span(4, "a", 8.5, 9.0, 0)
    assert spans.self_total(_tree() + [second_a], "a") == 2.5


def test_span_arithmetic_flags_children_longer_than_the_parent():
    bad = _tree() + [spans.Span(4, "d", 2.0, 9.5, 0)]
    failures = spans.check_arithmetic(bad)
    assert any("children sum" in f for f in failures)


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda v: v + 1
    mod.outer = lambda v: mod.inner(v) * 2
    original_inner, original_outer = mod.inner, mod.outer

    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a, k, r: {"arg": a[0]})
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(3) == 8
    tracer.restore()

    assert mod.inner is original_inner and mod.outer is original_outer
    outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert outer.parent is None and inner.parent == outer.sid
    assert inner.info == {"arg": 3}
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert spans.check_arithmetic(tracer.spans) == []


def test_hwm_runs_a_module_keeps_its_exit_status_and_records_the_peak(
    tmp_path,
):
    (tmp_path / "grow.py").write_text(
        "import sys\nblock = b\"x\" * (64 * 2**20)\nsys.exit(3)\n"
    )
    peak = tmp_path / "peak.json"
    script = Path(hwm.__file__)
    proc = subprocess.run(
        [sys.executable, str(script), str(peak), "grow"],
        cwd=tmp_path,
        env={"PYTHONPATH": str(tmp_path)},
    )
    assert proc.returncode == 3
    assert json.loads(peak.read_text())["peak_mb"] > 64
    assert 0 < hwm.vm_hwm_mb()

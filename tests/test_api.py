import ast
import importlib
from pathlib import Path

import pytest

import ufcm
import ufcm.cli

# Helpers only the tests called, deleted from the package.
DELETED = [
    "CenterReport",
    "ContingencyTable",
    "ScatterSet",
    "assign",
    "l2p_norm",
    "labeled_scatters",
    "max_variance_ranking",
    "objective",
    "pca_init",
    "total_scatter",
    "write_csv",
]


def test_every_exported_name_resolves():
    for name in ufcm.__all__:
        assert getattr(ufcm, name) is not None, name


def test_exports_have_no_duplicates():
    assert len(ufcm.__all__) == len(set(ufcm.__all__))


def test_deleted_helpers_are_gone():
    for name in DELETED:
        assert not hasattr(ufcm, name), name
    assert not hasattr(ufcm.cli, "read_trace")
    assert not hasattr(ufcm.IndicatorMatrix, "dense")
    assert not hasattr(ufcm.DataMatrix, "n_classes")
    # Solver internals, still in their modules but not exported.
    assert "sym_eig_top" not in ufcm.__all__
    assert "EigenPairs" not in ufcm.__all__
    internals = {
        ufcm.solver: ["build_m", "compute_d", "update_g", "update_w"],
        ufcm.kmeans: ["centroids"],
    }
    for module, names in internals.items():
        for name in names:
            assert name not in ufcm.__all__, name
            assert not hasattr(ufcm, name), name
            assert callable(getattr(module, name)), name


def test_every_name_the_benchmark_traces_exists():
    # perfbench/run.py wraps these module attributes; it skips a missing
    # one silently and its layer then reads 0. Read without importing it.
    run_py = Path(__file__).parents[1] / "perfbench" / "run.py"
    tree = ast.parse(run_py.read_text("utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert table.elts
    for entry in table.elts:
        module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_runtime_depends_on_numpy_alone():
    # scipy is a test-only dependency: the tests use it as an oracle.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert [dep.split(">=")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(
        dep.startswith("scipy") for dep in project["optional-dependencies"]["test"]
    )

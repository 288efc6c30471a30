import ast
import dataclasses
import importlib
import os
import subprocess
import sys
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
    # The row-norm floor is a constant, the G update is the K-means
    # centroid step itself, and the Krylov routing width is linalg's.
    fields = [f.name for f in dataclasses.fields(ufcm.SolverConfig)]
    assert len(fields) == 9 and "eps_row" not in fields
    assert ufcm.solver.update_g is ufcm.kmeans.centroids
    assert not hasattr(ufcm.solver, "_KRYLOV_WIDTH")


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


_NUMPY_ALONE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import ufcm.cli
rc = ufcm.cli.main([
    "--synthetic", "blobs:n_per_cluster=10,c=3,d_informative=3,d_noise=5,"
    "separation=4.0,noise_scale=1.0",
    "--clusters", "3", "--alpha", "0.5,1", "--max-iter", "2",
    "--select", "3", "--eval-runs", "2", "--out", sys.argv[1],
])
test_only = ("scipy", "hypothesis", "pytest")
loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None and name.split(".")[0] in test_only
)
print(rc, loaded)
"""


def test_the_cli_runs_with_numpy_alone(tmp_path):
    # The tests import scipy, hypothesis and pytest; a fresh process with
    # scipy blocked shows that a labelled CLI run needs none of them.
    env = dict(os.environ, PYTHONPATH=str(Path(ufcm.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_ALONE, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout == "0 []\n"
    assert len(list((tmp_path / "out").glob("record_gp*.json"))) == 2

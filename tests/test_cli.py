import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import re
import weakref

import numpy as np
import pytest

from ufcm.cli import (
    ExperimentSpec,
    UsageError,
    build_parser,
    emit_trace,
    load_record,
    main,
    run_experiment,
)
from conftest import write_csv
from ufcm import cli, solver
from ufcm.dataset import DataMatrix, center, load_csv, make_blobs
from ufcm.solver import SolverConfig, SolverTrace, solve

BLOBS = (
    "blobs:n_per_cluster=15,c=3,d_informative=3,d_noise=5,"
    "separation=4.0,noise_scale=1.0"
)


def spec_for(out, **kw):
    args = dict(
        out=str(out),
        clusters=3,
        synthetic=BLOBS,
        select_counts=[3, 8],
        restarts=2,
        max_iter=10,
        seed=9,
        eval_runs=3,
    )
    args.update(kw)
    return ExperimentSpec(**args)


def stripped(path):
    record = json.loads(path.read_text())
    record.pop("timing")
    return json.dumps(record, sort_keys=True)


def test_single_point_smoke(tmp_path):
    rows = run_experiment(spec_for(tmp_path / "out"))
    out = tmp_path / "out"
    assert (out / "record_gp000.json").exists()
    assert (out / "trace_gp000.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "best_by_acc.csv").exists()
    assert len(rows) == 2  # one per select count
    record, cfg = load_record(out / "record_gp000.json")
    assert isinstance(cfg, SolverConfig)
    assert set(record["evaluation"]) == {"3", "8"}
    assert record["evaluation"]["3"]["acc_mean"] > 0.5
    assert len(record["selected"]["3"]) == 3
    assert record["solver"]["iterations"] + 1 == len(
        record["trace"]["objective"]
    )


def test_record_trace_reports_the_eigensolver(tmp_path):
    # d = 300 features, n = 30 samples: the W steps are matrix-free.
    wide = (
        "blobs:n_per_cluster=10,c=3,d_informative=5,d_noise=295,"
        "separation=4.0,noise_scale=1.0"
    )
    out = tmp_path / "out"
    run_experiment(
        spec_for(out, synthetic=wide, select_counts=[5], max_iter=3)
    )
    record, _ = load_record(out / "record_gp000.json")
    tr = record["trace"]
    states = len(tr["objective"])
    assert tr["eig_path"] == ["dense"] + ["krylov"] * (states - 1)
    assert tr["eig_steps"][0] == 0
    assert len(tr["eig_steps"]) == len(tr["eig_residual"]) == states
    assert tr["eig_checks"][0] == 0
    assert min(tr["eig_checks"][1:]) >= 1
    assert len(tr["eig_restarts"]) == states
    assert tr["eig_restarts"][0] == 0
    assert max(tr["eig_residual"]) <= 1e-8


def test_record_trace_reports_the_preconditioned_loop(tmp_path):
    # d = 150 > 65 d' = 130 features, n = 200 samples: X X^T and its
    # eigenbasis are held, and at alpha = 0.1, beta = 0.1 the W steps run in
    # that basis.
    held = (
        "blobs:n_per_cluster=100,c=2,d_informative=5,d_noise=145,"
        "separation=4.0,noise_scale=1.0"
    )
    out = tmp_path / "out"
    run_experiment(
        spec_for(
            out, synthetic=held, clusters=2, alpha=[0.1], beta=[0.1],
            select_counts=[5], max_iter=3,
        )
    )
    record, _ = load_record(out / "record_gp000.json")
    tr = record["trace"]
    states = len(tr["objective"])
    assert states > 1
    assert tr["eig_path"] == ["dense"] + ["davidson"] * (states - 1)
    for steps, checks in zip(tr["eig_steps"][1:], tr["eig_checks"][1:]):
        assert checks == steps + 1
    assert set(tr["eig_stop"]) == {""}
    assert max(tr["eig_residual"]) <= 1e-8


def test_record_trace_reports_the_u_update(tmp_path):
    for side in ("a", "b"):
        run_experiment(spec_for(tmp_path / side, restarts=3))
    record, _ = load_record(tmp_path / "a" / "record_gp000.json")
    tr = record["trace"]
    states = len(tr["objective"])
    assert len(tr["lloyd_steps"]) == len(tr["u_winner"]) == states
    assert min(tr["lloyd_steps"]) >= 1
    assert tr["u_winner"][0] == -1
    assert set(tr["u_winner"]) <= {-1, 0, 1, 2}
    assert stripped(tmp_path / "a" / "record_gp000.json") == stripped(
        tmp_path / "b" / "record_gp000.json"
    )


def test_grid_4x4x3_produces_48_records(tmp_path):
    out = tmp_path / "grid"
    spec = spec_for(
        out,
        select_counts=[3],
        max_iter=3,
        restarts=1,
        eval_runs=1,
        alpha=[1e-3, 1e-1, 1e1, 1e3],
        beta=[1e-3, 1e-1, 1e1, 1e3],
        p=[0.5, 1.0, 1.5],
    )
    rows = run_experiment(spec)
    assert len(rows) == 48
    assert len(list(out.glob("record_gp*.json"))) == 48
    assert len(list(out.glob("trace_gp*.csv"))) == 48
    # grid order is the cartesian product, alpha-major
    record, cfg = load_record(out / "record_gp000.json")
    assert (cfg.alpha, cfg.beta, cfg.p) == (1e-3, 1e-3, 0.5)
    record, cfg = load_record(out / "record_gp047.json")
    assert (cfg.alpha, cfg.beta, cfg.p) == (1e3, 1e3, 1.5)


def test_a_grid_shares_one_start(tmp_path, monkeypatch):
    # The PCA eigh and the init K-means run go through the solver's names;
    # every other eigh is a W step, which the records count.
    calls = {"run_kmeans": 0, "sym_eig_top": 0}

    def counted(name):
        inner = getattr(solver, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    out = tmp_path / "out"
    run_experiment(spec_for(out, alpha=[0.1, 1.0, 10.0], max_iter=3))
    w_steps = 0
    for gi in range(3):
        record, _ = load_record(out / f"record_gp{gi:03d}.json")
        paths = record["trace"]["eig_path"]
        assert paths[0] == "dense"
        w_steps += sum(p != "krylov" for p in paths[1:])
    assert calls == {"run_kmeans": 1, "sym_eig_top": 1 + w_steps}


def test_repeat_runs_byte_identical_modulo_timing(tmp_path):
    run_experiment(spec_for(tmp_path / "a"))
    run_experiment(spec_for(tmp_path / "b"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert stripped(a / "record_gp000.json") == stripped(
        b / "record_gp000.json"
    )
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "trace_gp000.csv").read_bytes() == (
        b / "trace_gp000.csv"
    ).read_bytes()


def test_record_trace_is_the_solver_trace(tmp_path, monkeypatch):
    results = []

    def recording_solve(x, cfg, start):
        result = solve(x, cfg, start)
        # A non-finite value in a field the solver keeps finite.
        result.trace.w_orth_error[-1] = math.nan
        results.append(result)
        return result

    def no_constants(name):
        raise AssertionError(f"{name} in the record")

    monkeypatch.setattr("ufcm.cli.solve", recording_solve)
    out = tmp_path / "out"
    run_experiment(spec_for(out, max_iter=3, select_counts=[3]))
    text = (out / "record_gp000.json").read_text()
    trace = json.loads(text, parse_constant=no_constants)["trace"]
    names = [f.name for f in dataclasses.fields(SolverTrace)]
    assert sorted(trace) == sorted(names)
    assert trace["rel_change"][0] is None  # inf: no change before state 0
    assert trace["w_orth_error"][-1] is None
    for name, values in dataclasses.asdict(results[0].trace).items():
        assert trace[name] == [
            None if isinstance(v, float) and not math.isfinite(v) else v
            for v in values
        ]


def test_jobs_flag_accepts_only_1(tmp_path, capsys):
    argv = [
        "--synthetic", BLOBS,
        "--clusters", "3",
        "--grid-alpha", "0.5,1",
        "--select", "3",
        "--max-iter", "3",
        "--seed", "9",
    ]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "one")]) == 0
    for gi in range(2):
        name = f"record_gp{gi:03d}.json"
        assert stripped(tmp_path / "plain" / name) == stripped(
            tmp_path / "one" / name
        )
    capsys.readouterr()
    out = tmp_path / "two"
    assert main([*argv, "--jobs", "2", "--out", str(out)]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not list(out.glob("record_gp*.json"))


def test_emit_trace_round_trip(tmp_path):
    data = make_blobs(20, 3, 3, 5, separation=4.0, noise_scale=1.0, seed=0)
    x = data.values - data.values.mean(axis=1, keepdims=True)
    result = solve(x, SolverConfig(alpha=1.0, beta=1.0, p=1.0, c=3, seed=0))
    path = tmp_path / "trace.csv"
    emit_trace(result, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["iteration", "objective", "fit", "scatter", "regularizer"]
    tr = result.trace
    columns = [[float(cell) for cell in col] for col in zip(*rows)]
    assert columns == [  # exact re-parse
        list(range(len(tr))),
        tr.objective,
        tr.fit_term,
        tr.scatter_term,
        tr.regularizer_pow_p,
    ]
    obj = columns[1]
    assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(obj, obj[1:]))
    assert len(obj) == result.iterations + 1


def test_csv_input_path(tmp_path):
    data = make_blobs(12, 2, 2, 3, separation=4.0, noise_scale=1.0, seed=1)
    csv_path = tmp_path / "data.csv"
    write_csv(data, csv_path)
    out = tmp_path / "out"
    code = main(
        [
            "--input", str(csv_path),
            "--label-column", "label",
            "--clusters", "2",
            "--select", "2",
            "--restarts", "1",
            "--max-iter", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    record, _ = load_record(out / "record_gp000.json")
    assert record["source"]["kind"] == "csv"
    assert len(record["source"]["sha256"]) == 64
    assert record["evaluation"]["2"]["acc_mean"] >= 0.9


def test_the_raw_matrix_is_freed_before_the_first_solve(
    tmp_path, monkeypatch
):
    # Only the prepared matrix is needed through the grid; the loaded one
    # would stay resident beside it for the whole run.
    data = make_blobs(12, 2, 2, 3, separation=4.0, noise_scale=1.0, seed=1)
    csv_path = tmp_path / "data.csv"
    write_csv(data, csv_path)
    loaded, alive = [], []

    def load(*args, **kwargs):
        raw = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(raw))
        return raw

    def solve_and_look(*args):
        alive.append(loaded[0]() is not None)
        return solve(*args)

    monkeypatch.setattr("ufcm.cli.load_csv", load)
    monkeypatch.setattr("ufcm.cli.solve", solve_and_look)
    code = main(
        [
            "--input", str(csv_path),
            "--label-column", "label",
            "--clusters", "2",
            "--alpha", "0.5,2",
            "--max-iter", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert alive == [False, False]


def test_csv_record_digest_is_sha256_of_the_file(tmp_path):
    data = make_blobs(12, 2, 2, 3, separation=4.0, noise_scale=1.0, seed=1)
    csv_path = tmp_path / "data.csv"
    write_csv(data, csv_path)
    # Trailing blank lines load as nothing but push the file past several
    # hashing blocks.
    with open(csv_path, "a", newline="") as fh:
        fh.write("\n" * (3 << 19))
    out = tmp_path / "out"
    code = main(
        [
            "--input", str(csv_path),
            "--clusters", "2",
            "--restarts", "1",
            "--max-iter", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    record, _ = load_record(out / "record_gp000.json")
    expected = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert record["source"]["sha256"] == expected


def test_scale_gives_centered_unit_variance_features(tmp_path, monkeypatch):
    # A feature of 1e6 + 1e-6 N(0, 1) has a std near 1e-6: dividing by it
    # scales the ~1e-10 residue of centering up to ~1e-4, which fails
    # `solve`'s centering check unless the scaled data is centered again.
    blobs = make_blobs(15, 3, 3, 5, separation=4.0, noise_scale=1.0, seed=2)
    rng = np.random.default_rng(0)
    tiny = 1e6 + 1e-6 * rng.normal(size=blobs.n)
    constant = np.full(blobs.n, 2.5)
    values = np.vstack([blobs.values, tiny, constant])
    csv_path = tmp_path / "data.csv"
    write_csv(DataMatrix(values, labels=blobs.labels), csv_path)
    solved = []

    def spy(x, cfg, start):
        solved.append(x)
        return solve(x, cfg, start)

    monkeypatch.setattr("ufcm.cli.solve", spy)
    out = tmp_path / "out"
    argv = [
        "--input", str(csv_path),
        "--label-column", "label",
        "--clusters", "3",
        "--select", "3",
        "--max-iter", "3",
        "--scale",
        "--out", str(out),
    ]
    assert main(argv) == 0
    (x,) = solved
    assert np.abs(x.mean(axis=1)).max() <= 1e-12
    assert np.allclose(x[:-1].std(axis=1), 1.0, rtol=1e-12)
    assert np.array_equal(x[-1], np.zeros(blobs.n))
    record, _ = load_record(out / "record_gp000.json")
    assert record["preprocessing"] == {"centered": True, "unit_variance": True}


@pytest.mark.parametrize("scale", [False, True])
def test_the_cli_centers_through_one_traced_name(tmp_path, monkeypatch, scale):
    # perfbench's `dataset.center` span wraps `ufcm.cli.center`, so a
    # scaled run must reach it too.
    calls = []

    def spy(data, scale=False):
        calls.append(scale)
        return center(data, scale=scale)

    monkeypatch.setattr("ufcm.cli.center", spy)
    argv = [
        "--synthetic", BLOBS,
        "--clusters", "3",
        "--select", "3",
        "--max-iter", "2",
        "--out", str(tmp_path / "out"),
    ]
    assert main(argv + ["--scale"] * scale) == 0
    assert calls == [scale]


def test_unlabeled_csv_skips_evaluation(tmp_path):
    data = make_blobs(12, 2, 2, 3, separation=4.0, noise_scale=1.0, seed=1)
    unlabeled = type(data)(data.values)  # drop labels
    csv_path = tmp_path / "data.csv"
    write_csv(unlabeled, csv_path)
    out = tmp_path / "out"
    code = main(
        [
            "--input", str(csv_path),
            "--clusters", "2",
            "--max-iter", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    record, _ = load_record(out / "record_gp000.json")
    assert record["evaluation"] is None
    assert not (out / "best_by_acc.csv").exists()


def test_usage_error_needs_exactly_one_source(tmp_path):
    assert main(["--clusters", "3", "--out", str(tmp_path)]) == 2
    assert (
        main(
            [
                "--clusters", "3",
                "--input", "x.csv",
                "--synthetic", BLOBS,
                "--out", str(tmp_path),
            ]
        )
        == 2
    )


def test_missing_input_file_is_runtime_error(tmp_path):
    code = main(
        [
            "--input", str(tmp_path / "nope.csv"),
            "--clusters", "2",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1


def test_bad_synthetic_spec_is_usage_error(tmp_path):
    for spec in (
        "rings:radius=1",
        BLOBS.replace("n_per_cluster=15", "n_per_cluster=abc"),
        BLOBS.replace("n_per_cluster=15", "n_per_cluster=0"),
        BLOBS.replace("separation=4.0", "separation=-1"),
        BLOBS + ",radius=1",  # unknown key
        BLOBS.replace(",noise_scale=1.0", ""),  # missing key
    ):
        argv = ["--synthetic", spec, "--clusters", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2, spec


def test_a_repeated_synthetic_key_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--synthetic", BLOBS + ",c=2", "--clusters", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "synthetic parameter 'c' given twice" in capsys.readouterr().err
    assert not out.exists()


def test_select_beyond_feature_count_is_usage_error_before_solving(
    tmp_path, capsys, monkeypatch
):
    def no_solve(*args):
        raise AssertionError("solve ran")

    monkeypatch.setattr("ufcm.cli.solve", no_solve)
    code = main(
        [
            "--synthetic", BLOBS,  # 3 + 5 = 8 features
            "--clusters", "3",
            "--select", "3,50",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "--select 50 exceeds feature count 8" in capsys.readouterr().err


DIM_TOO_BIG = "d_prime=9 exceeds feature count 8"
DIM_HINT = "(--dim defaults to --clusters)"


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--clusters", "0"], "c must be >= 1", id="clusters"),
        pytest.param(["--alpha", "-1"], "alpha must be > 0", id="alpha"),
        pytest.param(
            ["--alpha", "inf"], "alpha must be finite", id="alpha-inf"
        ),
        pytest.param(["--beta", "nan"], "beta must be finite", id="beta-nan"),
        pytest.param(["--p", "3"], "p must lie in (0, 2)", id="p"),
        pytest.param(["--tol", "0"], "tol must be > 0", id="tol"),
        pytest.param(["--tol", "inf"], "tol must be finite", id="tol-inf"),
        pytest.param(["--dim", "0"], "d_prime must be >= 1", id="dim"),
        pytest.param(["--restarts", "-1"], "r must be >= 0", id="restarts"),
        pytest.param(
            ["--max-iter", "0"], "max_iter must be >= 1", id="max-iter"
        ),
        pytest.param(
            ["--grid-p", "0.5,3"], "p must lie in (0, 2)", id="grid-p"
        ),
        pytest.param(["--dim", "9"], DIM_TOO_BIG, id="dim-over-d"),
        pytest.param(
            ["--clusters", "9"],
            f"{DIM_TOO_BIG} {DIM_HINT}",
            id="clusters-over-d",
        ),
        pytest.param(
            ["--clusters", "46", "--dim", "2"],
            "c=46 exceeds sample count 45",
            id="clusters-over-n",
        ),
    ],
)
def test_bad_solver_settings_are_usage_errors_before_solving(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_solve(*args):
        raise AssertionError("solve ran")

    monkeypatch.setattr("ufcm.cli.solve", no_solve)
    out = tmp_path / "out"
    argv = ["--synthetic", BLOBS, "--clusters", "3", *flags, "--out", str(out)]
    assert main(argv) == 2  # BLOBS: 8 features, 45 samples
    err = capsys.readouterr().err
    assert message in err
    # The hint names --dim only where d' came from --clusters.
    assert (DIM_HINT in err) == (DIM_HINT in message)
    assert not out.exists()


def test_clusters_over_samples_without_dim_gets_no_dim_hint(
    tmp_path, capsys
):
    data = DataMatrix(np.random.default_rng(0).normal(size=(10, 3)))
    csv_path = tmp_path / "data.csv"
    write_csv(data, csv_path)
    out = tmp_path / "out"
    argv = ["--input", str(csv_path), "--clusters", "4", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "c=4 exceeds sample count 3" in err
    assert DIM_HINT not in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["input", "synthetic"])
def test_negative_seed_is_usage_error_before_out_dir(tmp_path, capsys, source):
    if source == "input":
        data = DataMatrix(np.random.default_rng(0).normal(size=(12, 3)))
        csv_path = tmp_path / "data.csv"
        write_csv(data, csv_path)
        flags = ["--input", str(csv_path)]
    else:
        flags = ["--synthetic", BLOBS]
    out = tmp_path / "out"
    argv = [*flags, "--clusters", "3", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "synthetic spec" not in err
    assert not out.exists()


def test_malformed_csv_is_usage_error_and_makes_no_out_dir(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--input", str(csv_path), "--clusters", "2", "--out", str(out)]
    assert main(argv) == 2
    assert "oops" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags, message",
    [
        pytest.param("a,b\n", [], "no data rows", id="header-only"),
        pytest.param(
            "a,b\n1.0,2.0\n", [], "one data row", id="one-row"
        ),
        pytest.param(
            "label\n0\n1\n2\n",
            ["--label-column", "label"],
            "no feature column besides the label",
            id="label-only",
        ),
    ],
)
def test_csv_with_too_little_data_is_usage_error_naming_the_path(
    tmp_path, capsys, text, flags, message
):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--input", str(csv_path), *flags, "--clusters", "1"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{csv_path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_csv_is_usage_error_naming_the_path(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(b"a,b\n1.0,2.0\n3.0,\xff4.0\n")
    out = tmp_path / "out"
    argv = ["--input", str(csv_path), "--clusters", "2", "--out", str(out)]
    assert main(argv) == 2
    assert f"{csv_path}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_each_grid_point_logs_one_debug_line(tmp_path, caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="ufcm.cli")
    out = tmp_path / "out"
    run_experiment(spec_for(out, alpha=[0.1, 10.0], beta=[0.5]))
    records = [r for r in caplog.records if r.name == "ufcm.cli"]
    assert len(records) == 2
    for gi, (rec, alpha) in enumerate(zip(records, [0.1, 10.0])):
        timing = json.loads((out / f"record_gp{gi:03d}.json").read_text())[
            "timing"
        ]
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage() == (
            f"grid point {gi}: alpha={alpha!r} beta=0.5 p=1.0 "
            f"solve_s={timing['solve_s']:.3f} "
            f"evaluate_s={timing['evaluate_s']:.3f}"
        )
    assert capsys.readouterr() == ("", "")


def test_parser_dests_are_the_spec_fields():
    # `main` builds the spec from every parsed argument by keyword, and an
    # omitted option is left out, so the spec's own default applies.
    parser = build_parser()
    dests = {a.dest for a in parser._actions if a.dest != "help"}
    assert dests == {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert {a.default for a in parser._actions} == {argparse.SUPPRESS}
    args = parser.parse_args(
        ["--synthetic", BLOBS, "--clusters", "3", "--out", "o"]
    )
    assert ExperimentSpec(**vars(args)) == ExperimentSpec(
        out="o", clusters=3, synthetic=BLOBS
    )


@pytest.mark.parametrize("name", ["alpha", "beta", "p"])
def test_help_and_docstring_state_the_spec_defaults(name):
    # The spec's field is the only copy of the default: --help formats it,
    # and the module docstring's option table must agree with it.
    spec = ExperimentSpec(out="o", clusters=3, synthetic=BLOBS)
    want = getattr(spec, name)
    (action,) = [
        a for a in build_parser()._actions if f"--{name}" in a.option_strings
    ]
    shown = re.fullmatch(r".*\(default: ([^;]+); bare: (.+)\)", action.help)
    assert [float(v) for v in shown.group(1).split(",")] == want
    assert shown.group(2) == cli.BARE_GRIDS[name]
    (row,) = [
        line.strip()
        for line in cli.__doc__.splitlines()
        if line.strip().startswith(f"--{name} / --grid-{name}")
    ]
    _, _, default, bare = re.split(r"\s{2,}", row)
    assert [float(v) for v in default.split(",")] == want
    assert bare == cli.BARE_GRIDS[name]


@pytest.mark.parametrize("flag", ["--alpha", "--grid-alpha"])
def test_grid_flag_without_value_uses_default_grid(flag):
    args = build_parser().parse_args(
        ["--synthetic", BLOBS, "--clusters", "3", "--out", "o", flag]
    )
    assert args.alpha == [1e-3, 1e-1, 1e1, 1e3]


@pytest.mark.parametrize("flag", ["--p", "--grid-p"])
def test_bare_p_flag_sweeps_a_grid_inside_its_range(tmp_path, flag):
    out = tmp_path / "out"
    argv = [
        "--synthetic", BLOBS,
        "--clusters", "3",
        "--select", "3",
        "--max-iter", "3",
        "--out", str(out),
        flag,
    ]
    assert main(argv) == 0
    records = sorted(out.glob("record_gp*.json"))
    assert [load_record(path)[1].p for path in records] == [0.5, 1.0, 1.5]


def test_both_spellings_set_one_value_and_the_last_wins(tmp_path):
    argv = [
        "--synthetic", BLOBS,
        "--clusters", "3",
        "--select", "3",
        "--max-iter", "3",
        "--seed", "9",
    ]
    for flag in ("--alpha", "--grid-alpha"):
        out = str(tmp_path / flag)
        assert main([*argv, flag, "0.5,1", "--out", out]) == 0
    for gi in range(2):
        name = f"record_gp{gi:03d}.json"
        assert stripped(tmp_path / "--alpha" / name) == stripped(
            tmp_path / "--grid-alpha" / name
        )
    out = tmp_path / "last"
    flags = ["--grid-alpha", "0.1,1", "--alpha", "2"]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    assert len(list(out.glob("record_gp*.json"))) == 1
    _, cfg = load_record(out / "record_gp000.json")
    assert cfg.alpha == 2.0


def test_load_record_revalidates_config(tmp_path):
    run_experiment(spec_for(tmp_path / "out", max_iter=3, select_counts=[3]))
    path = tmp_path / "out" / "record_gp000.json"
    record = json.loads(path.read_text())
    record["config"]["p"] = 3.0  # tampered
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="p must lie"):
        load_record(path)


@pytest.fixture
def record_path(tmp_path):
    run_experiment(spec_for(tmp_path / "out", max_iter=3, select_counts=[3]))
    return tmp_path / "out" / "record_gp000.json"


def _rewrite(path, edit):
    record = json.loads(path.read_text())
    path.write_text(json.dumps(edit(record)))


def test_load_record_names_the_path_on_bad_json_or_bad_utf8(record_path):
    record_path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError) as info:
        load_record(record_path)
    assert str(info.value).startswith(f"{record_path}: ")
    record_path.write_bytes(b'{"config": "\xff"}')
    with pytest.raises(ValueError, match="can't decode") as info:
        load_record(record_path)
    assert str(info.value).startswith(f"{record_path}: ")


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda r: [r], 'not a record with a "config" object'),
        (lambda r: {k: v for k, v in r.items() if k != "config"},
         'not a record with a "config" object'),
        (lambda r: {**r, "config": [1, 2]},
         'not a record with a "config" object'),
        (lambda r: {**r, "config": {
            k: v for k, v in r["config"].items() if k != "alpha"}},
         "missing keys ['alpha']"),
        (lambda r: {**r, "config": {**r["config"], "gamma": 1.0}},
         "unknown keys ['gamma']"),
        (lambda r: {**r, "config": {**r["config"], "alpha": "big"}},
         "must be real number"),
        (lambda r: {**r, "config": {**r["config"], "c": 2.5}},
         "c must be an integer"),
        # The row-norm floor was a setting once; only its fixed value loads.
        (lambda r: {**r, "config": {**r["config"], "eps_row": 1e300}},
         "config has eps_row=1e+300"),
    ],
)
def test_load_record_names_the_path_and_the_problem(
    record_path, edit, problem
):
    _rewrite(record_path, edit)
    with pytest.raises(ValueError) as info:
        load_record(record_path)
    message = str(info.value)
    assert message.startswith(f"{record_path}: ")
    assert problem in message


def test_load_record_reads_an_old_record_at_the_fixed_row_floor(record_path):
    # Records once carried the floor as config "eps_row"; at the value that
    # is now `solver.EPS_ROW` they load to the same config.
    _, cfg = load_record(record_path)
    _rewrite(record_path, lambda r: {
        **r, "config": {**r["config"], "eps_row": 1e-08}})
    assert load_record(record_path)[1] == cfg


def test_spec_validation():
    with pytest.raises(UsageError):
        ExperimentSpec(out="o", clusters=3)  # no source
    with pytest.raises(UsageError):
        ExperimentSpec(out="o", clusters=3, synthetic=BLOBS, alpha=[])
    with pytest.raises(UsageError):
        ExperimentSpec(out="o", clusters=3, synthetic=BLOBS, eval_runs=0)
    with pytest.raises(UsageError, match="positive"):
        ExperimentSpec(out="o", clusters=3, synthetic=BLOBS, select_counts=[0])
    with pytest.raises(UsageError, match="distinct"):
        ExperimentSpec(
            out="o", clusters=3, synthetic=BLOBS, select_counts=[3, 3]
        )
    with pytest.raises(UsageError, match="--label-column"):
        ExperimentSpec(
            out="o", clusters=3, synthetic=BLOBS, label_column="label"
        )

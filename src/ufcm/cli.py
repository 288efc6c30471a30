"""Batch experiment runner.

Pipeline: load or generate the data and center it with `dataset.center`
(which with --scale also scales it to unit variance), and build the
solver's start (`solver.build_start`: the PCA init and the init K-means
run, which depend on the data, c, d' and the seed but not on alpha, beta
or p), once per run; then, per grid point, solve from that shared start,
rank features, select each requested count, and evaluate by repeated
K-means against ground-truth labels. One JSON record and one columnar
trace file per grid point, a flat CSV summary across all of them, and
(when labels exist) the best-by-accuracy row in a separate file, since
picking by accuracy is an oracle selection unavailable to a truly
unsupervised user. Grid points run one after another in grid order.

The grid is the product of the solver hyperparameters, alpha-major. Each
takes one value or a comma list under either of two spellings of one
option; a bare flag gives that option's bare grid, and of repeated flags
the last wins. The defaults are `ExperimentSpec`'s:

    option                   value                  default  bare grid
    --alpha / --grid-alpha   margin weight, > 0     1        1e-3,1e-1,1e1,1e3
    --beta / --grid-beta     sparsity weight, >= 0  1        1e-3,1e-1,1e1,1e3
    --p / --grid-p           row-norm exponent in   1        0.5,1,1.5
                             (0, 2)

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import logging
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import CsvFormatError, DataMatrix, center, load_csv, make_blobs
from .metrics import EvalStats, evaluate_clustering, rank_features, select
from .solver import EPS_ROW, SolverConfig, SolverResult, build_start, solve

# The grid a bare flag sweeps; p's lies inside its range (0, 2).
BARE_GRIDS = {
    "alpha": "1e-3,1e-1,1e1,1e3",
    "beta": "1e-3,1e-1,1e1,1e3",
    "p": "0.5,1,1.5",
}

_log = logging.getLogger(__name__)

_BLOB_KEYS = {
    "n_per_cluster": int,
    "c": int,
    "d_informative": int,
    "d_noise": int,
    "separation": float,
    "noise_scale": float,
}


class UsageError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    out: str
    clusters: int
    input: str | None = None
    label_column: str | int | None = None
    synthetic: str | None = None
    alpha: list[float] = field(default_factory=lambda: [1.0])
    beta: list[float] = field(default_factory=lambda: [1.0])
    p: list[float] = field(default_factory=lambda: [1.0])
    dim: int | None = None
    select_counts: list[int] | None = None
    restarts: int = SolverConfig.r
    max_iter: int = SolverConfig.max_iter
    tol: float = SolverConfig.tol
    seed: int = SolverConfig.seed
    eval_runs: int = 5
    jobs: int = 1
    scale: bool = False

    def __post_init__(self):
        if (self.input is None) == (self.synthetic is None):
            raise UsageError("exactly one of --input / --synthetic required")
        if self.synthetic is not None and self.label_column is not None:
            raise UsageError("--label-column applies only to --input")
        for name in ("alpha", "beta", "p"):
            if not getattr(self, name):
                raise UsageError(f"--{name} needs at least one value")
        if self.select_counts is not None:
            if not self.select_counts or min(self.select_counts) < 1:
                raise UsageError("--select values must be positive")
            if len(set(self.select_counts)) != len(self.select_counts):
                raise UsageError("--select values must be distinct")
        if self.eval_runs < 1:
            raise UsageError("--eval-runs must be >= 1")
        if self.jobs != 1:
            raise UsageError("--jobs must be 1: grid points run one at a time")
        try:
            self.solver_configs()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def solver_configs(self) -> list[SolverConfig]:
        """One solver configuration per (alpha, beta, p) grid point."""
        return [
            SolverConfig(
                alpha=alpha,
                beta=beta,
                p=p,
                c=self.clusters,
                d_prime=self.dim,
                r=self.restarts,
                max_iter=self.max_iter,
                tol=self.tol,
                seed=self.seed,
            )
            for alpha, beta, p in itertools.product(
                self.alpha, self.beta, self.p
            )
        ]


def _parse_synthetic(text: str, seed: int) -> DataMatrix:
    kind, _, body = text.partition(":")
    if kind != "blobs":
        raise UsageError(f"unknown synthetic generator {kind!r}")
    kwargs = {}
    for item in body.split(","):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in _BLOB_KEYS:
            raise UsageError(f"bad synthetic parameter {item!r}")
        if key in kwargs:
            raise UsageError(f"synthetic parameter {key!r} given twice")
        kwargs[key] = value
    missing = set(_BLOB_KEYS) - set(kwargs)
    if missing:
        raise UsageError(f"synthetic spec missing {sorted(missing)}")
    try:
        return make_blobs(
            seed=seed, **{k: _BLOB_KEYS[k](v) for k, v in kwargs.items()}
        )
    except ValueError as exc:
        raise UsageError(f"bad synthetic spec {text!r}: {exc}") from exc


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_data(spec: ExperimentSpec) -> tuple[DataMatrix, dict]:
    """The prepared data matrix and a description of its source. The raw
    matrix is not returned, so it is freed before the first solve."""
    if spec.input is not None:
        digest = _sha256_file(spec.input)
        raw = load_csv(spec.input, label_column=spec.label_column)
        source = {
            "kind": "csv",
            "path": spec.input,
            "sha256": digest,
            "label_column": spec.label_column,
        }
    else:
        text = f"{spec.synthetic}|seed={spec.seed}"
        raw = _parse_synthetic(spec.synthetic, spec.seed)
        source = {
            "kind": "synthetic",
            "generator": spec.synthetic,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    return center(raw, scale=spec.scale), source


def emit_trace(result: SolverResult, path) -> None:
    """Write the objective trace as plot-ready columns, one row per state."""
    tr = result.trace
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "objective", "fit", "scatter", "regularizer"]
        )
        for i in range(len(tr)):
            writer.writerow(
                [
                    i,
                    repr(tr.objective[i]),
                    repr(tr.fit_term[i]),
                    repr(tr.scatter_term[i]),
                    repr(tr.regularizer_pow_p[i]),
                ]
            )


def _run_grid_point(
    data, spec, source, gi, cfg, start, start_s
) -> list[dict]:
    """Solve one (alpha, beta, p) point from the grid's shared start, built
    in `start_s` seconds, write its record and trace, and return its summary
    rows, one per selection count."""
    out = Path(spec.out)
    t0 = time.perf_counter()
    result = solve(data.values, cfg, start)
    solve_s = time.perf_counter() - t0

    ranking = rank_features(result.w)
    selected: dict[str, list[int]] = {}
    evaluation: dict[str, dict] = {}
    rows = []
    t0 = time.perf_counter()
    for mi, m in enumerate(spec.select_counts or [data.d]):
        selected[str(m)] = [int(i) for i in ranking.order[:m]]
        stats = dict.fromkeys(EvalStats._fields, "")
        if data.labels is not None:
            eval_seed = int(
                np.random.SeedSequence(
                    [spec.seed, gi, mi]
                ).generate_state(1)[0]
            )
            stats = evaluate_clustering(
                select(data, ranking, m),
                spec.clusters,
                spec.eval_runs,
                eval_seed,
            )._asdict()
            evaluation[str(m)] = stats
        rows.append(
            {
                "grid_index": gi,
                "alpha": cfg.alpha,
                "beta": cfg.beta,
                "p": cfg.p,
                "m": m,
                **stats,
                "converged": result.converged,
                "iterations": result.iterations,
                "objective": result.trace.objective[-1],
            }
        )
    eval_s = time.perf_counter() - t0
    _log.debug(
        "grid point %d: alpha=%r beta=%r p=%r solve_s=%.3f evaluate_s=%.3f",
        gi, cfg.alpha, cfg.beta, cfg.p, solve_s, eval_s,
    )

    # JSON has no inf or nan: each non-finite float is written as null.
    trace = {
        name: [
            None if isinstance(v, float) and not math.isfinite(v) else v
            for v in values
        ]
        for name, values in asdict(result.trace).items()
    }
    record = {
        "schema": "ufcm-result-v1",
        "source": source,
        "seed": spec.seed,
        "grid_index": gi,
        "config": asdict(cfg),
        "d_prime_resolved": result.w.shape[1],
        "preprocessing": {"centered": True, "unit_variance": spec.scale},
        "solver": {
            "converged": result.converged,
            "iterations": result.iterations,
            "final_objective": trace["objective"][-1],
        },
        "trace": trace,
        "eval_runs": spec.eval_runs,
        "selected": selected,
        "evaluation": evaluation if data.labels is not None else None,
        # solve_s leaves out the shared start, start_s is the whole grid's.
        "timing": {
            "start_s": start_s,
            "solve_s": solve_s,
            "evaluate_s": eval_s,
        },
    }
    (out / f"record_gp{gi:03d}.json").write_text(
        json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    emit_trace(result, out / f"trace_gp{gi:03d}.csv")
    return rows


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Execute every grid point, write records, traces, and the summary.

    Returns the summary rows, in grid order. Each grid point writes its own
    record and trace as it finishes; the summary is written after the last.
    """
    data, source = _load_data(spec)
    if spec.select_counts and max(spec.select_counts) > data.d:
        raise UsageError(
            f"--select {max(spec.select_counts)} exceeds feature count "
            f"{data.d}"
        )
    configs = spec.solver_configs()
    try:
        configs[0].d_prime_for(data.d, data.n)  # d' and c are grid-wide
    except ValueError as exc:
        # The solver words d' as d_prime, which a user who left --dim
        # unset never passed.
        defaulted = spec.dim is None and spec.clusters > data.d
        hint = " (--dim defaults to --clusters)" if defaulted else ""
        raise UsageError(f"{exc}{hint}") from exc
    # Made only once the input passed every usage check, so that an exit 2
    # leaves no empty directory behind.
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    start = build_start(data.values, configs[0])
    start_s = time.perf_counter() - t0
    rows = []
    for gi, cfg in enumerate(configs):
        rows.extend(
            _run_grid_point(data, spec, source, gi, cfg, start, start_s)
        )

    # Every grid point has at least one row, all with the same keys.
    fields = list(rows[0])
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    scored = [r for r in rows if r["acc_mean"] != ""]
    if scored:
        best = max(scored, key=lambda r: r["acc_mean"])
        with open(
            out / "best_by_acc.csv", "w", newline="", encoding="utf-8"
        ) as fh:
            writer = csv.DictWriter(fh, fieldnames=fields + ["selection"])
            writer.writeheader()
            writer.writerow({**best, "selection": "oracle-best-acc"})
    return rows


def load_record(path) -> tuple[dict, SolverConfig]:
    """Read a result record back, re-validating its embedded config.

    Raises ValueError naming `path` unless the file holds a JSON object
    whose "config" object has every required `SolverConfig` field, no
    other key, and values that pass its checks. Records written while the
    row-norm floor was a setting carry it as "eps_row"; one equal to
    `solver.EPS_ROW` loads without it, and any other value is refused,
    since this version cannot reproduce that run.
    """
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        msg = f"{path}: {exc.msg}"
        raise json.JSONDecodeError(msg, exc.doc, exc.pos) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    config = record.get("config") if isinstance(record, dict) else None
    if not isinstance(config, dict):
        raise ValueError(f'{path}: not a record with a "config" object')
    config = dict(config)
    if (eps_row := config.pop("eps_row", EPS_ROW)) != EPS_ROW:
        raise ValueError(
            f"{path}: config has eps_row={eps_row!r}; the row-norm floor is "
            f"fixed at {EPS_ROW!r}, so this version cannot reproduce the run"
        )
    names = {f.name for f in fields(SolverConfig)}
    required = {f.name for f in fields(SolverConfig) if f.default is MISSING}
    problems = []
    if unknown := sorted(config.keys() - names):
        problems.append(f"unknown keys {unknown}")
    if missing := sorted(required - config.keys()):
        problems.append(f"missing keys {missing}")
    if problems:
        raise ValueError(f"{path}: config has {' and '.join(problems)}")
    try:
        return record, SolverConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _comma_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _comma_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _label_column(text: str) -> str | int:
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufcm",
        description="Unsupervised feature selection experiment runner.",
        # An omitted option takes ExperimentSpec's default.
        argument_default=argparse.SUPPRESS,
    )
    src = parser.add_argument_group("data source (exactly one)")
    src.add_argument("--input", help="samples-as-rows CSV file")
    src.add_argument(
        "--synthetic",
        help=(
            "generator spec, e.g. blobs:n_per_cluster=50,c=3,"
            "d_informative=5,d_noise=45,separation=4.0,noise_scale=1.0"
        ),
    )
    parser.add_argument(
        "--label-column",
        type=_label_column,
        help="CSV column with ground-truth labels (name or 0-based index)",
    )
    defaults = {
        f.name: f.default_factory()
        for f in fields(ExperimentSpec)
        if f.name in BARE_GRIDS
    }
    for name, bare in BARE_GRIDS.items():
        default = ",".join(f"{v:g}" for v in defaults[name])
        parser.add_argument(
            f"--{name}",
            f"--grid-{name}",
            type=_comma_floats,
            nargs="?",
            const=_comma_floats(bare),
            help=f"value or comma list (default: {default}; bare: {bare})",
        )
    parser.add_argument("--clusters", type=int, required=True)
    parser.add_argument(
        "--dim",
        type=int,
        help="projection dimension d' (default: clusters; resolved by "
        "SolverConfig.d_prime_for)",
    )
    parser.add_argument(
        "--select",
        dest="select_counts",
        metavar="SELECT",
        type=_comma_ints,
        help="comma list of selected-feature counts (default: all features)",
    )
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--eval-runs", type=int)
    parser.add_argument(
        "--scale",
        action="store_true",
        help="scale features to unit variance after centering",
    )
    parser.add_argument(
        "--jobs", type=int, help="must be 1 (kept for old scripts)"
    )
    parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run_experiment(ExperimentSpec(**vars(args)))
    except (UsageError, CsvFormatError) as exc:
        print(f"ufcm: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"ufcm: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ufcm library and CLI; see README.md beside this file.

    python3 perfbench/run.py --workload tall-eig --seed 1 --seconds 30 \\
        --trace 0

Run from the repository root. The program is imported from `src/`; nothing
is installed. Inputs are generated from --seed by `inputs.py`. Scratch files
go to `.perfbench_work/` under the root and are removed on exit.

--trace 0 times untraced units and prints the end-to-end metrics. --trace 1
alternates untraced and traced units (spans recorded by `spans.Tracer`
around the library's module-level names) and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json. The last line of stdout is
the result; the line before it holds the environment, the inputs, every
sample and every failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from envinfo import environment
from inputs import (
    BlobSpec,
    make_blobs,
    sha256_array,
    sha256_file,
    write_labelled_csv,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
MIN_UNITS = 3
IMPORT_PROBE = "import ufcm; print('ok', flush=True)"


@dataclass(frozen=True)
class SolveWorkload:
    blobs: BlobSpec
    instances: int
    max_iter: int
    precision_floor: float


@dataclass(frozen=True)
class CliWorkload:
    blobs: BlobSpec
    grid_alpha: str
    select: str
    max_iter: int
    eval_runs: int
    precision_floor: float

    @property
    def rows(self) -> int:
        return len(self.grid_alpha.split(",")) * len(self.select.split(","))


# Shared by every workload; d' defaults to c.
SOLVER = dict(alpha=1.0, beta=1.0, p=1.0, r=10, tol=1e-12)

# tall-eig: d >> n, so the d x d M build and eigensolve block the result.
# wide-kmeans: n >> d, so the r=10 restarted Lloyd loops block the result;
# it cycles through three draws because Lloyd step counts vary between them.
# cli-csv: import, CSV parsing, record writes and evaluation K-means on the
# raw selected features block the result.
#
# Every solve stops after a fixed number of outer iterations that every seed
# tried reached before converging, so each run measures the same solver work
# whatever the seed: with tol=1e-12 the iteration at which the solver hits
# its fixed point varies between seeds by a factor of four. So a change that
# makes the solver converge in fewer outer iterations cannot move run_s;
# convergence rate is outside what this benchmark measures. The precision
# floors sit below every seed tried and far above chance (k/d = 0.017, 0.1
# and 0.05): they catch a broken ranking, not a bad seed.
WORKLOADS = {
    "tall-eig": SolveWorkload(BlobSpec(20, 1180, 4, 50), 1, 4, 0.15),
    "wide-kmeans": SolveWorkload(BlobSpec(20, 180, 10, 500), 3, 4, 0.9),
    "cli-csv": CliWorkload(
        BlobSpec(40, 760, 5, 300), "0.1,1,10", "10,20,40,100", 3, 5, 0.5
    ),
}


def _steps(args, kwargs, result):
    return {"steps": len(result.fit_history)}


def _eig_bytes(args, kwargs, result):
    return {"in_mb": 8 * args[0].shape[0] ** 2 / 1e6}


def _restart_won(args, kwargs, result):
    # The incumbent wins ties and is then returned as the same object.
    u_prev = kwargs["u_prev"] if "u_prev" in kwargs else args[1]
    return {"restart_won": int(result.indicator is not u_prev)}


# (module, name the program looks up at call time, span name, note).
TRACED = [
    ("ufcm.solver", "solve", "solver.solve", None),
    ("ufcm.cli", "solve", "solver.solve", None),
    ("ufcm.solver", "compute_d", "solver.d_update", None),
    ("ufcm.solver", "build_m", "solver.m_build", None),
    ("ufcm.solver", "update_w", "solver.w_update", None),
    ("ufcm.solver", "sym_eig_top", "linalg.eig", _eig_bytes),
    ("ufcm.solver", "update_g", "solver.g_update", None),
    ("ufcm.solver", "run_kmeans", "kmeans.init", _steps),
    (
        "ufcm.solver",
        "update_u_with_candidates",
        "kmeans.u_update",
        _restart_won,
    ),
    ("ufcm.kmeans", "run_kmeans", "kmeans.lloyd", _steps),
    ("ufcm.metrics", "run_kmeans", "metrics.eval_kmeans", _steps),
    ("ufcm.cli", "main", "cli.main", None),
    ("ufcm.cli", "load_csv", "dataset.load_csv", None),
    ("ufcm.cli", "center", "dataset.center", None),
    ("ufcm.cli", "rank_features", "metrics.rank", None),
    ("ufcm.cli", "evaluate_clustering", "metrics.eval", None),
]


def traced_call(module, attr: str, *args):
    """Call `module.attr(*args)` with every TRACED name wrapped, then
    restore them. The callee is looked up after wrapping, so it gets a span.
    A name the program no longer has is skipped; its layer reads 0.

    Returns the result, its wall time, the spans and the failed checks of
    the span tree and of the restore.
    """
    targets = [
        (importlib.import_module(m), a, name, note)
        for m, a, name, note in TRACED
    ]
    targets = [t for t in targets if hasattr(t[0], t[1])]
    before = [getattr(mod, a) for mod, a, _, _ in targets]
    tracer = spans.Tracer()
    try:
        for mod, a, name, note in targets:
            tracer.wrap(mod, a, name, note)
        fn = getattr(module, attr)
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.restore()
    failures = spans.check_arithmetic(tracer.spans)
    failures += [
        f"{mod.__name__}.{a} was not restored"
        for (mod, a, _, _), orig in zip(targets, before)
        if getattr(mod, a) is not orig
    ]
    return result, elapsed, tracer.spans, failures


def layer_metrics(sp: list[spans.Span], csv_bytes: int = 0) -> dict:
    total, count, info = spans.total, spans.count, spans.info_sum
    runs = count(sp, "kmeans.lloyd")
    wins = info(sp, "kmeans.u_update", "restart_won")
    load_s = total(sp, "dataset.load_csv")
    in_cli = count(sp, "cli.main") > 0
    return {
        "linalg.eig_s": total(sp, "linalg.eig"),
        "linalg.eig_calls": count(sp, "linalg.eig"),
        "linalg.eig_in_mb": info(sp, "linalg.eig", "in_mb"),
        "solver.solve_s": total(sp, "solver.solve"),
        "solver.m_build_s": total(sp, "solver.m_build"),
        "solver.g_update_s": total(sp, "solver.g_update"),
        "solver.d_update_s": total(sp, "solver.d_update"),
        "solver.self_s": spans.self_total(sp, "solver.solve"),
        "kmeans.u_update_s": total(sp, "kmeans.u_update"),
        "kmeans.init_s": total(sp, "kmeans.init"),
        "kmeans.lloyd_s": total(sp, "kmeans.lloyd"),
        "kmeans.lloyd_runs": runs,
        "kmeans.lloyd_steps": info(sp, "kmeans.lloyd", "steps"),
        "kmeans.restart_win_ratio": wins / runs if runs else 0.0,
        "metrics.eval_s": total(sp, "metrics.eval"),
        "metrics.eval_lloyd_steps": info(sp, "metrics.eval_kmeans", "steps"),
        "metrics.rank_s": total(sp, "metrics.rank"),
        "dataset.load_csv_s": load_s,
        "dataset.load_csv_mb_per_s": (
            csv_bytes / 1e6 / load_s if load_s else 0.0
        ),
        "dataset.center_s": total(sp, "dataset.center"),
        "cli.main_s": total(sp, "cli.main"),
        "cli.self_s": spans.self_total(sp, "cli.main"),
        "cli.grid_points": count(sp, "solver.solve") if in_cli else 0,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_import(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until `import ufcm`
    returns."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ok":
        raise RuntimeError(f"import probe exited {proc.returncode}")
    return elapsed


def hwm_cmd(peak: Path, module: str, *args: str) -> list[str]:
    """Command that runs `module` as `python3 -m` would and writes the
    process's peak resident MB to `peak` (see hwm.py)."""
    return [sys.executable, str(BENCH / "hwm.py"), str(peak), module, *args]


def read_peak(peak: Path) -> float:
    return json.loads(peak.read_text("utf-8"))["peak_mb"]


def solve_peak(x: np.ndarray, params: dict, work: Path):
    """One solve of `x` in a fresh process (solve_once.py): its peak
    resident MB before and after the solve, as a unit's (value, failures)."""
    path, peak = work / "peak_input.npy", work / "peak.json"
    np.save(path, x)
    proc = subprocess.run(
        hwm_cmd(peak, "solve_once", str(path), json.dumps(params)),
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=120,
    )
    path.unlink()
    if proc.returncode != 0:
        tail = proc.stderr[-2000:]
        return None, [f"solve_once exited {proc.returncode}: {tail}"]
    before = json.loads(proc.stdout.splitlines()[-1])["before_mb"]
    return {"before_mb": before, "peak_mb": read_peak(peak)}, []


class Run:
    """Repeats units until the time is spent; counts attempts and failures."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def more(self) -> bool:
        return (
            self.attempted < MIN_UNITS
            or time.perf_counter() - self.start < self.seconds
        )

    def unit(self, fn):
        """Run one unit: `fn()` returns (value, failed checks). A failed
        check or an exception counts the unit as failed."""
        self.attempted += 1
        try:
            value, failures = fn()
        except Exception:
            value, failures = None, [traceback.format_exc()]
        if failures:
            self.failed += 1
            self.failures += failures
        return value

    def repeat(self, plain, traced=None) -> tuple[list, list]:
        """Alternate `plain` and, when given, `traced` units."""
        plain_out, traced_out = [], []
        while self.more():
            value = self.unit(plain)
            if value is not None:
                plain_out.append(value)
            if traced is not None:
                value = self.unit(traced)
                if value is not None:
                    traced_out.append(value)
        return plain_out, traced_out


def per_layer(plain: list, traced: list) -> dict:
    """Median of each layer metric over the traced units, plus the tracing
    overhead: median traced minus median untraced wall time."""
    if not (plain and traced):
        return {}
    layers = [m for _, m in traced]
    metrics = {
        name: statistics.median(m[name] for m in layers) for name in layers[0]
    }
    metrics["trace.overhead_s"] = statistics.median(
        t for t, _ in traced
    ) - statistics.median(t for t, _ in plain)
    return metrics


def mean_of(dicts: list[dict]) -> dict:
    return {
        name: statistics.fmean(d[name] for d in dicts) for name in dicts[0]
    }


def precision_at_k(chosen, planted) -> float:
    return len(set(chosen) & set(planted)) / len(planted)


def run_solve(
    ufcm,
    wl: SolveWorkload,
    seed: int,
    trace: bool,
    run: Run,
    info: dict,
    work: Path,
) -> dict:
    """A unit solves the next of the workload's inputs, in turn. `run_s` is
    the mean over the inputs of each input's median solve time;
    `peak_rss_mb` is the peak of a fresh process that solves the first
    input once, after the timed units."""
    parts = [make_blobs(wl.blobs, seed, part) for part in range(wl.instances)]
    info["inputs"] = {
        "shape": list(parts[0].x.shape),
        "sha256": [sha256_array(b.x) for b in parts],
    }
    c = wl.blobs.c
    params = dict(c=c, max_iter=wl.max_iter, seed=seed, **SOLVER)
    cfg = ufcm.SolverConfig(**params)
    # Warm the process (BLAS threads, allocator, first-call paths) untimed.
    warm = make_blobs(BlobSpec(4, 16, c, 10), seed)
    ufcm.solve(warm.x, ufcm.SolverConfig(c=c, max_iter=2, **SOLVER))

    digests = [set() for _ in parts]
    scores: list[dict] = [{} for _ in parts]
    quality: dict = {}

    def inspect(part: int, result) -> list[str]:
        blobs = parts[part]
        planted = blobs.informative.tolist()
        top = ufcm.rank_features(result.w).order[: len(planted)].tolist()
        assignments = result.u.assignments
        scores[part] = {
            "quality.precision_at_k": precision_at_k(top, planted),
            "quality.acc_mean": ufcm.accuracy(assignments, blobs.labels),
        }
        quality.update(mean_of([s for s in scores if s]))
        digests[part].add(sha256_array(result.w) + sha256_array(assignments))
        fails = checks.check_solve(result)
        fails += checks.check_floor(
            "precision_at_k",
            scores[part]["quality.precision_at_k"],
            wl.precision_floor,
        )
        if len(digests[part]) > 1:
            fails.append(
                f"solves of input {part}, traced or not, differ in W or U"
            )
        return fails

    turn = itertools.cycle(range(len(parts)))
    part = 0  # a traced unit solves the input its untraced twin just did

    def plain():
        nonlocal part
        part = next(turn)
        t0 = time.perf_counter()
        result = ufcm.solver.solve(parts[part].x, cfg)
        elapsed = time.perf_counter() - t0
        return (elapsed, part), inspect(part, result)

    def traced():
        result, elapsed, sp, fails = traced_call(
            ufcm.solver, "solve", parts[part].x, cfg
        )
        return (elapsed, layer_metrics(sp)), fails + inspect(part, result)

    plain_out, traced_out = run.repeat(plain, traced if trace else None)
    info["samples"] = {
        "run_s": [t for t, _ in plain_out],
        "run_part": [p for _, p in plain_out],
        "traced_s": [t for t, _ in traced_out],
    }
    info["quality"] = quality
    if trace:
        return {**per_layer(plain_out, traced_out), **quality}
    per_part = [
        [t for t, p in plain_out if p == part] for part in range(len(parts))
    ]
    peak = run.unit(lambda: solve_peak(parts[0].x, params, work))
    if not all(per_part) or peak is None:
        return {}
    info["samples"]["peak_rss_mb_before_solve"] = peak["before_mb"]
    return {
        "run_s": statistics.fmean(statistics.median(ts) for ts in per_part),
        "peak_rss_mb": peak["peak_mb"],
    }


def run_cli(
    ufcm,
    wl: CliWorkload,
    seed: int,
    trace: bool,
    run: Run,
    info: dict,
    work: Path,
) -> dict:
    """A unit is one `ufcm` CLI run on the CSV written below: a subprocess
    when untraced, `ufcm.cli.main` in this process for --trace 1."""
    blobs = make_blobs(wl.blobs, seed)
    planted = blobs.informative.tolist()
    csv_path = work / "input.csv"
    write_labelled_csv(blobs, csv_path)
    csv_bytes = csv_path.stat().st_size
    info["inputs"] = {
        "shape": list(blobs.x.shape),
        "csv_sha256": sha256_file(csv_path),
        "csv_bytes": csv_bytes,
    }
    argv = [
        "--input", str(csv_path),
        "--label-column", "label",
        "--clusters", str(wl.blobs.c),
        "--grid-alpha", wl.grid_alpha,
        "--select", wl.select,
        "--max-iter", str(wl.max_iter),
        "--tol", str(SOLVER["tol"]),
        "--eval-runs", str(wl.eval_runs),
        "--seed", str(seed),
        "--jobs", "1",
    ]
    k = str(len(planted))
    env = child_env()
    digests: set[str] = set()
    quality: dict = {}
    outs = (work / f"out{i}" for i in itertools.count())

    def inspect(out: Path) -> list[str]:
        fails = checks.check_cli_output(out, ufcm.cli.load_record, wl.rows)
        if fails:
            return fails
        records = [
            ufcm.cli.load_record(p)[0]
            for p in sorted(out.glob("record_gp*.json"))
        ]
        shutil.rmtree(out)
        quality["quality.precision_at_k"] = statistics.median(
            precision_at_k(r["selected"][k], planted) for r in records
        )
        quality["quality.acc_mean"] = statistics.fmean(
            e["acc_mean"] for r in records for e in r["evaluation"].values()
        )
        for r in records:
            r.pop("timing")
        text = json.dumps(records, sort_keys=True)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        fails = checks.check_floor(
            "precision_at_k",
            quality["quality.precision_at_k"],
            wl.precision_floor,
        )
        if len(digests) > 1:
            fails.append("runs on one input, traced or not, wrote different "
                         "records (sha256 without timing)")
        return fails

    def subprocess_unit():
        out, peak = next(outs), work / "peak.json"
        cmd = hwm_cmd(peak, "ufcm.cli", *argv, "--out", str(out))
        with open(work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT
            )
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
            return None, [f"ufcm exited {proc.returncode}: {tail}"]
        return (elapsed, read_peak(peak)), inspect(out)

    def in_process():
        out = next(outs)
        t0 = time.perf_counter()
        rc = ufcm.cli.main(argv + ["--out", str(out)])
        elapsed = time.perf_counter() - t0
        if rc != 0:
            return None, [f"ufcm.cli.main returned {rc}"]
        return (elapsed, None), inspect(out)

    def traced():
        out = next(outs)
        rc, elapsed, sp, fails = traced_call(
            ufcm.cli, "main", argv + ["--out", str(out)]
        )
        if rc != 0:
            return None, fails + [f"traced ufcm.cli.main returned {rc}"]
        return (elapsed, layer_metrics(sp, csv_bytes)), fails + inspect(out)

    if trace:
        plain_out, traced_out = run.repeat(in_process, traced)
    else:
        plain_out, traced_out = run.repeat(subprocess_unit)
    info["samples"] = {
        "run_s": [t for t, _ in plain_out],
        "traced_s": [t for t, _ in traced_out],
    }
    info["quality"] = quality
    if trace:
        return {**per_layer(plain_out, traced_out), **quality}
    if not plain_out:
        return {}
    return {
        "run_s": statistics.median(t for t, _ in plain_out),
        "peak_rss_mb": statistics.median(r for _, r in plain_out),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "ufcm" / "__init__.py").is_file():
        print(f"perfbench: no ufcm package under {SRC}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}

    sys.path.insert(0, str(SRC))
    import ufcm
    import ufcm.cli

    backend = getattr(ufcm, "BACKEND", None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT, SRC / "ufcm", backend),
    }
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        if not trace:
            time_import(child_env())  # writes the bytecode cache; untimed
            setup = [time_import(child_env()) for _ in range(SETUP_SAMPLES)]
        run = Run(args.seconds)
        if isinstance(wl, SolveWorkload):
            values = run_solve(ufcm, wl, args.seed, trace, run, info, work)
        else:
            values = run_cli(ufcm, wl, args.seed, trace, run, info, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if setup:
        info["samples"]["setup_s"] = setup
        values["setup_s"] = statistics.median(setup)
    info["failures"] = run.failures
    print(json.dumps(info, sort_keys=True))

    missing = sorted(set(expected) - set(values))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in expected.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

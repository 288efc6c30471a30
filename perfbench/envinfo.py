"""The environment block written into every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _blas_threads() -> int | None:
    """Thread count that numpy's bundled OpenBLAS reports, when it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the git checkout at `root`; None outside one or without git.
    The ceiling keeps git from finding a repository above `root`."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(src: Path) -> str:
    """Digest of every .py file of the package, by relative path."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, backend: str | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "ufcm_backend": backend,
        "git_commit": _git_commit(root),
        "src_sha256": source_sha256(src),
    }

"""One `ufcm.solve` of an input read from a .npy file.

    PYTHONPATH=src python3 perfbench/hwm.py <peak.json> solve_once \\
        <input.npy> '<config json>'

The config is the keyword arguments of `ufcm.SolverConfig`. Reading the
input from a file means the process holds only the interpreter, numpy,
scipy, ufcm and the input when the solve starts: no generator or harness
temporaries raise its high-water mark first. Prints that high-water mark,
in MB, as one JSON line before solving.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import ufcm
from hwm import vm_hwm_mb

x = np.load(sys.argv[1])
cfg = ufcm.SolverConfig(**json.loads(sys.argv[2]))
print(json.dumps({"before_mb": vm_hwm_mb()}), flush=True)
ufcm.solve(x, cfg)

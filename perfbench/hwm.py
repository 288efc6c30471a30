"""Run a module as `python3 -m` would, then record the process's peak
resident memory.

    python3 perfbench/hwm.py <peak.json> <module> [args...]

The peak is VmHWM from /proc/self/status: the high-water mark of the
process's own memory since exec. ru_maxrss is not used: Linux carries the
spawning process's high-water mark into it across exec, so a child of a
large harness reads at least the harness's size. The module's exit status
is kept.
"""

from __future__ import annotations

import json
import runpy
import sys


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    out, module = sys.argv[1], sys.argv[2]
    del sys.argv[1:3]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"peak_mb": vm_hwm_mb()}, fh)


if __name__ == "__main__":
    main()

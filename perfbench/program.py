"""Where the program under test lives and how its processes are started.

The benchmark runs loopstatics from the `src/` tree of the checkout it
sits in, never from an installed copy.  Every process that runs the
program gets the same fixed BLAS thread count: timings and, when s > 1,
the bytes of the reported null basis both depend on it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# One thread is a fixed count on every machine with at least one CPU, and
# keeps a run from competing with itself for the cores it shares with
# other jobs.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def pin_blas(env) -> None:
    for name in _BLAS_VARS:
        env[name] = str(BLAS_THREADS)


def program_env() -> dict:
    """Environment for a process that imports loopstatics from src/."""
    if not (SRC / "loopstatics" / "cli.py").is_file():
        raise SetupError(f"no loopstatics sources under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    pin_blas(env)
    return env


def run_cli(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    """Run `loopstatics <argv>` in a fresh interpreter (set-up only)."""
    proc = subprocess.run(
        [sys.executable, "-m", "loopstatics.cli", *argv],
        cwd=cwd, env=program_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SetupError(f"loopstatics {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return proc

"""loopstatics benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lattice-axial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --quick

A run builds its inputs from the seed, times a fresh interpreter importing
`loopstatics.cli` (setup_s), then starts one worker process for the
workload and has it repeat the workload's pass of CLI commands until the
passes have taken `--seconds`.  Every pass's outputs are checked by the
independent checker while the worker waits, outside the timed region.
With `--trace 1` untraced and traced passes alternate and the per-layer
metrics are printed instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--quick` runs the checker's negative controls, then one untraced and one
traced pass of every workload, and exits 0 only if everything checks out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from program import BENCH, OUT, ROOT, SetupError, pin_blas, program_env

pin_blas(os.environ)  # before numpy loads: the checker runs in this process

import numpy as np  # noqa: E402
from checker import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 11
# No pass starts once a run has taken this long, so that a run on a
# machine twice as slow as the reference one still ends within 180 s.
PASS_DEADLINE_S = 100.0


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing loopstatics.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import loopstatics.cli"],
                              cwd=ROOT, env=program_env(), capture_output=True, text=True)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"importing loopstatics.cli failed: {proc.stderr.strip()}")
    return statistics.median(times)


class Worker:
    """The process that runs a workload's passes (see worker.py)."""

    def __init__(self, workdir: Path, commands: list, trace_file):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src")],
            cwd=workdir, env=program_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.request({"commands": commands, "trace_file": trace_file and str(trace_file)})

    def request(self, obj) -> dict:
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has exited; its exit code is reported below
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def check_pass(commands, answer, outcome) -> None:
    """Check every command's outputs; count attempts, failures and errors."""
    for cmd, res in zip(commands, answer["results"]):
        outcome["attempted"] += 1
        if res["rc"] != 0:
            outcome["failed"] += 1
            print(f"failed: loopstatics {' '.join(cmd.argv)} -> {res['rc']}: "
                  f"{res['stderr'].strip()[-500:]}", file=sys.stderr)
            continue
        try:
            cmd.check(res)
        except (CheckError, OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            outcome["correct"] = False
            print(f"check failed: loopstatics {' '.join(cmd.argv)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = WORKLOADS[name](np.random.default_rng(seed % 2**64), workdir)
    setup_s = None if trace else measure_setup()
    outcome = {"correct": True, "attempted": 0, "failed": 0}
    plain, traced, layers = [], [], []
    trace_file = workdir / "trace.jsonl" if trace else None
    worker = Worker(workdir, [c.argv for c in commands], trace_file)
    try:
        measured = 0.0
        while True:
            for is_traced in ((False, True) if trace else (False,)):
                shutil.rmtree(workdir / "out", ignore_errors=True)
                (workdir / "out").mkdir()
                answer = worker.request({"op": "pass", "traced": is_traced})
                measured += answer["seconds"]
                (traced if is_traced else plain).append(answer["seconds"])
                if is_traced:
                    layers.append(answer["layers"])
                check_pass(commands, answer, outcome)
            if measured >= seconds or perf_counter() - started > PASS_DEADLINE_S:
                break
        peak_rss_mb = worker.request({"op": "quit"})["peak_rss_mb"]
    finally:
        worker.close()
    if trace:
        metrics = {
            key: {"value": statistics.median(row[key] for row in layers), "unit": _unit(key)}
            for key in layers[0]
        }
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {**outcome, "metrics": metrics}


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_bytes", "B"),
                         ("_mb", "MB"), ("_ratio", "ratio"), ("_loops", "count")):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")


def quick(seed: int) -> int:
    from controls import run_controls

    failures = run_controls(OUT / "controls")
    for message in failures:
        print(f"negative control not rejected: {message}", file=sys.stderr)
    ok = not failures
    for name in WORKLOADS:
        result = run_workload(name, seed, 0.0, trace=True)
        print(json.dumps({"workload": name, **result}))
        ok = ok and result["correct"] and result["failed"] == 0
    print("quick check passed" if ok else "quick check FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="negative controls plus one pass of every workload")
    args = parser.parse_args(argv)
    try:
        program_env()
        if args.quick:
            return quick(args.seed)
        if not args.workload:
            parser.error("--workload is required unless --quick is given")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"error: set-up output of the program is wrong: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

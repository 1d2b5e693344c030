"""The benchmark's workloads: seeded inputs, the fixed list of CLI commands
that makes one pass, and the independent check of each command's output.

Building a workload is set-up: it writes the input documents into the run
directory and computes everything the checker needs before any pass.
Command paths are relative to that directory, the worker's working
directory; outputs go under its `out/`, which is emptied before each pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import frames
from checker import (
    Frame,
    axial_loops,
    check_axial_report,
    check_cycles,
    check_export,
    check_gen_prism,
    check_state_report,
    load_json,
    require,
)
from program import run_cli

# 343 nodes, 1638 bars, 1296 loops, s = 615: the size of the ROADMAP's
# baseline frame, where SVD, chain summation and JSON output dominate.
LATTICE_SIDE = 7
STATE_KEYS = ("jk", "ki", "ij", "ih", "jh", "kh")


@dataclass(frozen=True)
class Command:
    argv: list
    check: Callable[[dict], None]  # called with the worker's result for the command


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n")


def _write_state(path: Path, loops: dict) -> None:
    entries = [{"cycle": g, **dict(zip(STATE_KEYS, map(float, r)))} for g, r in loops.items()]
    _write(path, {"format": "stress-state/1", "resultants": entries})


def lattice_axial(rng: np.random.Generator, wd: Path) -> list:
    doc, s, m = frames.lattice(rng, LATTICE_SIDE)
    _write(wd / "lattice.json", doc)
    frame = Frame(doc)
    return [Command(
        ["axial", "lattice.json", "-o", "out/axial.json"],
        lambda res: check_axial_report(frame, load_json(wd / "out/axial.json"), s, m),
    )]


def lattice_state(rng: np.random.Generator, wd: Path) -> list:
    doc, s, m = frames.lattice(rng, LATTICE_SIDE)
    _write(wd / "lattice.json", doc)
    frame = Frame(doc)
    require((frame.s, frame.m) == (s, m), f"lattice has s={frame.s} m={frame.m}")
    # A state is keyed by the program's own cycle ids, so read its basis
    # once, as a user writing a state would, and check it.
    run_cli(["cycles", "lattice.json", "-o", "cycles.json"], wd)
    gens = check_cycles(frame, load_json(wd / "cycles.json"))
    general = {g: rng.normal(size=6) for g in gens}
    null = frame.null_space()
    q = null @ rng.normal(size=null.shape[1])
    q /= np.max(np.abs(q))
    axial = axial_loops(frame, gens, q)
    _write_state(wd / "general.json", general)
    _write_state(wd / "axial.json", axial)

    def report(name):
        return load_json(wd / "out" / name)

    def export_dir(name):
        return wd / "out" / name

    return [
        Command(["check", "lattice.json", "--state", "general.json",
                 "-o", "out/check_general.json"],
                lambda res: check_state_report(
                    frame, report("check_general.json"), gens, general)),
        Command(["check", "lattice.json", "--state", "axial.json",
                 "-o", "out/check_axial.json"],
                lambda res: check_state_report(
                    frame, report("check_axial.json"), gens, axial, q)),
        Command(["export", "lattice.json", "--state", "axial.json",
                 "--out-dir", "out/export_axial"],
                lambda res: check_export(frame, export_dir("export_axial"),
                                         res["stdout"], res["stderr"], gens, axial, q)),
        Command(["export", "lattice.json", "--state", "general.json", "--merge-loops",
                 "--out-dir", "out/export_general"],
                lambda res: check_export(frame, export_dir("export_general"),
                                         res["stdout"], res["stderr"], gens, general)),
    ]


def small_frames(rng: np.random.Generator, wd: Path) -> list:
    batch = [(f"k5_{i}", *frames.k5(rng), ()) for i in range(3)]
    batch += [(f"prism_{i}", *frames.prism(rng, critical=False), ()) for i in range(2)]
    batch.append(("prism_critical", *frames.prism(rng, critical=True), frames.PRISM_STRUTS))
    batch += [(f"lattice_{side}", *frames.lattice(rng, side), ()) for side in (3, 4)]
    commands = []
    for name, doc, s, m, struts in batch:
        _write(wd / f"{name}.json", doc)
        frame = Frame(doc)

        def check_axial(res, frame=frame, name=name, s=s, m=m, struts=struts):
            check_axial_report(frame, load_json(wd / f"out/{name}.json"), s, m, struts)

        def check_mesh(res, frame=frame, name=name):
            check_export(frame, wd / "out" / name, res["stdout"], res["stderr"])

        commands.append(Command(["axial", f"{name}.json", "-o", f"out/{name}.json"], check_axial))
        if s > 0:
            commands.append(Command(
                ["export", f"{name}.json", "--axial", "--out-dir", f"out/{name}"], check_mesh))
    commands.append(Command(
        ["gen", "prism", "--critical", "-o", "out/gen_prism.json"],
        lambda res: check_gen_prism(load_json(wd / "out/gen_prism.json")),
    ))
    return commands


WORKLOADS = {
    "lattice-axial": lattice_axial,
    "lattice-state": lattice_state,
    "small-frames": small_frames,
}

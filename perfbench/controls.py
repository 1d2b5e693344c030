"""Negative controls: outputs of the program, deliberately corrupted, that
the checker must reject.  Run by `run.py --quick` and by test_controls.py.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import numpy as np

import frames
from checker import CheckError, Frame, check_axial_report, check_export, load_json
from program import run_cli


def _flip_bar_force(report):
    bar = report["tree"]["edges"][0]
    row = next(r for r in report["bar_resultants"] if r["bar"] == bar)
    row["force"] = [-x for x in row["force"]]


def _drop_basis_vector(report):
    report["statics"]["selfstress_basis"].pop()


def _break_chain(report):
    cycle = next(c for c in report["cycles"] if len(c["chain"]) > 2)
    tree_terms = [t for t in cycle["chain"] if t[0] != cycle["generator"]]
    cycle["chain"].remove(tree_terms[0])


def _fail_loaded_verdict(report):
    row = max(report["axial_check"], key=lambda r: abs(r["axial_force"]))
    row["moment_matches"] = row["is_axial"] = False


def _move_mesh_vertex(directory: Path):
    path = directory / "force.obj"
    lines = path.read_text().splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith("v "))
    tag, x, y, z = lines[i].split()
    lines[i] = f"v {float(x) + 0.1!r} {y} {z}"
    path.write_text("\n".join(lines) + "\n")


def run_controls(workdir: Path) -> list:
    """Names of the corruptions the checker failed to reject ([] is a pass).

    The outputs come from the program on a two-cell lattice (s = 15); the
    clean outputs must pass before any corruption counts.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    doc, s, m = frames.lattice(np.random.default_rng(0), 3)
    (workdir / "frame.json").write_text(json.dumps(doc))
    frame = Frame(doc)
    run_cli(["axial", "frame.json", "-o", "axial.json"], workdir)
    export = run_cli(["export", "frame.json", "--axial", "--out-dir", "mesh"], workdir)
    report = load_json(workdir / "axial.json")

    def check_report(rep):
        check_axial_report(frame, rep, s, m)

    def check_mesh(directory):
        check_export(frame, directory, export.stdout, export.stderr)

    try:
        check_report(report)
        check_mesh(workdir / "mesh")
    except CheckError as exc:
        return [f"clean outputs rejected: {exc}"]

    failures = []
    for name, corrupt in (("flipped bar-force sign", _flip_bar_force),
                          ("dropped basis vector", _drop_basis_vector),
                          ("chain with a nonzero boundary", _break_chain),
                          ("failed verdict on the most loaded bar", _fail_loaded_verdict)):
        bad = copy.deepcopy(report)
        corrupt(bad)
        try:
            check_report(bad)
            failures.append(name)
        except CheckError:
            pass
    moved = workdir / "mesh_moved"
    shutil.copytree(workdir / "mesh", moved)
    _move_mesh_vertex(moved)
    try:
        check_mesh(moved)
        failures.append("mesh loop with one vertex moved")
    except CheckError:
        pass
    return failures

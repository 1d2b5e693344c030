"""Command-line interface.

Subcommands: `gen` writes built-in example structures, `cycles` reports
the spanning tree and fundamental cycle basis, `axial` runs the
equilibrium-matrix analysis and reconstructs the axial state through the
loop formalism, `check` evaluates a supplied stress state, and `export`
writes form/force diagram mesh files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .cycles import fundamental_cycles, spanning_tree
from .diagrams import export_diagrams, realize_state
from .document import document_from_graph, load_structure, parse_state, serialize_structure
from .errors import StateError, StructureError
from .report import build_report
from .statics import analyze_statics, axial_to_state
from .structures import k5_frame, prism_critical_twist, prism_frame


def _parse_node_id(text: str):
    """Interpret a node id flag: JSON scalars stay typed, else a string."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return text
    return value if isinstance(value, (str, int)) and not isinstance(value, bool) else text


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(text, out: str | None):
    """Write text, or its pieces in order, to the `out` file or stdout."""
    pieces = (text,) if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load(args):
    """The structure's graph, spanning tree and fundamental cycles."""
    _, graph = load_structure(_read_text(args.structure))
    tree = spanning_tree(graph, root=args.tree_root)
    return graph, tree, fundamental_cycles(graph, tree)


def _report_text(report, fmt: str):
    """The report as text, or as the pieces of its JSON."""
    return report.to_text() if fmt == "text" else report.json_pieces()


def _tolerance(text: str) -> float:
    """A relative tolerance: a number with 0 <= tol < 1, so not NaN or inf."""
    try:
        if 0.0 <= float(text) < 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number with 0 <= tol < 1, got {text!r}")


def _add_common(p, tol: bool = True, report: bool = True):
    """The structure and the options that a subcommand reads: `tol` adds
    --tol, `report` adds the report's --format and -o/--out."""
    p.add_argument("structure", help="structure document path ('-' for stdin)")
    p.add_argument("--tree-root", type=_parse_node_id, default=None,
                   help="override the spanning-tree root node")
    if tol:
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="relative tolerance for rank and axial checks, 0 <= tol < 1")
    if report:
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("-o", "--out", default=None, help="write output to a file")


class _Parser(argparse.ArgumentParser):
    """A parser, and through `add_subparsers` its subparsers, that takes a
    negative number in any form float() reads, -1e5 say, for a value, and
    options only spelled in full, so that `export --out` is not read as
    `--out-dir`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopstatics",
        description="Loop-based graphic statics for 3D frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a built-in example structure")
    gen_sub = gen.add_subparsers(dest="example", required=True)
    gen_k5 = gen_sub.add_parser("k5", help="complete five-node frame")
    gen_k5.add_argument("--center", type=float, nargs=3, default=(0.0, 0.0, 0.0),
                        metavar=("X", "Y", "Z"))
    gen_k5.add_argument("-o", "--out", default=None)
    gen_prism = gen_sub.add_parser("prism", help="three-prism tensegrity")
    gen_prism.add_argument("--radius", type=float, default=1.0)
    gen_prism.add_argument("--half-height", type=float, default=0.5)
    twist = gen_prism.add_mutually_exclusive_group()
    twist.add_argument("--twist", type=float, default=0.0,
                       help="top-triangle twist in radians")
    twist.add_argument("--critical", action="store_true",
                       help="use the self-stressable twist, pi/6 in closed form")
    gen_prism.add_argument("-o", "--out", default=None)

    cycles = sub.add_parser("cycles", help="spanning tree and cycle basis report")
    _add_common(cycles, tol=False)

    axial = sub.add_parser(
        "axial", help="equilibrium-matrix analysis and loop reconstruction"
    )
    _add_common(axial)

    check = sub.add_parser("check", help="evaluate a supplied stress state")
    _add_common(check)
    check.add_argument("--state", required=True, help="stress-state document path")

    export = sub.add_parser("export", help="write form/force diagram meshes")
    _add_common(export, report=False)
    source = export.add_mutually_exclusive_group()
    source.add_argument("--state", default=None, help="stress-state document path")
    source.add_argument("--axial", action="store_true",
                        help="realize the first axial self-stress from the oracle")
    export.add_argument("--loops", choices=("bars", "cycles"), default="bars",
                        help="one dual loop per bar or per basis cycle")
    export.add_argument("--share-vertex", action="store_true",
                        help="translate loops so they share a central node")
    export.add_argument("--merge-loops", action="store_true",
                        help="accepted, has no effect: every item is one loop")
    export.add_argument("--out-dir", default=".", help="output directory")
    return parser


def _cmd_gen(args) -> int:
    if args.example == "k5":
        doc = document_from_graph(k5_frame(center=tuple(args.center)), {"example": "k5"})
    else:
        twist = prism_critical_twist(args.radius, args.half_height) \
            if args.critical else args.twist
        doc = document_from_graph(
            prism_frame(args.radius, args.half_height, twist),
            {"example": "three-prism", "radius": float(args.radius),
             "half_height": float(args.half_height), "twist": float(twist)},
        )
    _emit(serialize_structure(doc), args.out)
    return 0


def _cmd_cycles(args) -> int:
    graph, tree, basis = _load(args)
    report = build_report(graph, tree=tree, basis=basis)
    _emit(_report_text(report, args.format), args.out)
    return 0


def _cmd_axial(args) -> int:
    graph, tree, basis = _load(args)
    summary = analyze_statics(graph, rtol=args.tol)
    state = axial_to_state(graph, basis, summary.axial_vector(0)) if summary.s else None
    report = build_report(graph, tree=tree, basis=basis, summary=summary, state=state,
                          tol=args.tol)
    _emit(_report_text(report, args.format), args.out)
    return 0


def _cmd_check(args) -> int:
    graph, tree, basis = _load(args)
    state = parse_state(_read_text(args.state))
    report = build_report(graph, tree=tree, basis=basis, state=state, tol=args.tol)
    _emit(_report_text(report, args.format), args.out)
    return 0


def _cmd_export(args) -> int:
    graph, tree, basis = _load(args)
    state = None
    if args.state:
        state = parse_state(_read_text(args.state))
    elif args.axial:
        summary = analyze_statics(graph, rtol=args.tol)
        if summary.s == 0:
            raise StructureError("structure has no axial self-stress to export")
        state = axial_to_state(graph, basis, summary.axial_vector(0))
    realized = None
    if state is not None:
        realized = realize_state(
            graph, basis, state,
            per="cycle" if args.loops == "cycles" else "bar",
            tol=args.tol,
            share_vertex=args.share_vertex,
        )
    paths = export_diagrams(graph, realized, args.out_dir)
    for p in paths:
        print(p)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "cycles": _cmd_cycles,
    "axial": _cmd_axial,
    "check": _cmd_check,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StructureError, StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

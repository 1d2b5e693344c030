"""Diagram export: form and force diagrams as ASCII polyline meshes.

The writer emits OBJ-style text: `o` names an object, `v x y z` records a
vertex, and each vertex is followed by an `h <value>` attribute line
carrying its stress-space coordinate.  Closed loops are written as `l`
polylines that repeat their first index, preserving orientation.  Output
bytes are deterministic for identical input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .chains import FrameGraph
from .cycles import FundamentalCycle
from .errors import StructureError
from .selfstress import SelfStressState, _axial_verdicts, _bar_array, _bar_frames
from .synthesis import _axial_loop, merge_chain, synthesize_chain
from .wedge import Bivector6, DualChain, LoopPath, Point4

_SHARED_CENTER = Point4(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RealizedDiagram:
    """Named dual loops realizing a state, plus which ones fell back to
    rectangle chains because their resultant was not axial."""

    loops: tuple  # of (name, LoopPath | DualChain)
    fallbacks: tuple = ()


def realize_state(
    graph: FrameGraph,
    basis: list[FundamentalCycle],
    state: SelfStressState,
    per: str = "bar",
    tol: float = 1e-9,
    share_vertex: bool = False,
    merge: bool = False,
) -> RealizedDiagram:
    """Build one dual loop per bar (`per="bar"`) or per basis cycle
    (`per="cycle"`).

    Bars that pass the axial test, judged together over the whole state,
    become flat triangles normal to their bar; anything else is realized as
    a rectangle chain and reported as a fallback.
    Zero resultants are skipped.  With share_vertex, every loop is
    translated so its first vertex lands on a common central node
    (translation does not change any projected area).
    """
    b = _bar_array(state, basis, graph)
    units, mids = _bar_frames(graph)
    parallel, matches, _ = _axial_verdicts(b[:, :3], b[:, 3:], units, mids, tol)
    if per == "bar":
        items = [(f"bar_{bar}", i) for i, bar in enumerate(graph.edge_ids)]
    elif per == "cycle":
        # a generator bar lies on its own loop only, so its row is the loop's
        col = {bar: i for i, bar in enumerate(graph.edge_ids)}
        items = [(f"cycle_{c.generator}", col[c.generator]) for c in basis]
    else:
        raise StructureError(f"unknown realization mode {per!r}")

    loops, fallbacks = [], []
    for name, i in items:
        if not b[i].any():
            continue
        if parallel[i] and matches[i]:
            realized = _axial_loop(mids[i], b[i, :3], b[i, 3:])
        else:
            realized = synthesize_chain(Bivector6(*b[i]), Point4(*mids[i], 0.0))
        if isinstance(realized, DualChain):
            fallbacks.append(name)
            if merge:
                realized = merge_chain(realized)
        if share_vertex:
            realized = _translate_to_center(realized)
        loops.append((name, realized))
    return RealizedDiagram(loops=tuple(loops), fallbacks=tuple(fallbacks))


def _translate_to_center(realized):
    def shift_for(loop: LoopPath) -> Point4:
        return Point4.from_array(_SHARED_CENTER.to_array() - loop.vertices[0].to_array())

    if isinstance(realized, LoopPath):
        return realized.translated(shift_for(realized))
    if not realized.terms:
        return realized
    delta = shift_for(realized.terms[0][1])
    return DualChain(tuple((c, lp.translated(delta)) for c, lp in realized.terms))


def _fmt(x: float) -> str:
    return repr(float(x))


class _MeshWriter:
    def __init__(self):
        self.lines = ["# loopstatics mesh 1"]
        self.vertex_count = 0

    def add_object(self, name: str, vertices: list[Point4], polylines: list[list[int]]):
        """polylines hold 0-based local vertex indices."""
        base = self.vertex_count + 1
        self.lines.append(f"o {name}")
        for v in vertices:
            self.lines.append(f"v {_fmt(v.x)} {_fmt(v.y)} {_fmt(v.z)}")
            self.lines.append(f"h {_fmt(v.h)}")
        self.vertex_count += len(vertices)
        for poly in polylines:
            self.lines.append("l " + " ".join(str(base + i) for i in poly))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def form_diagram_text(graph: FrameGraph) -> str:
    """Structure geometry as one polyline object; bars become 2-point lines."""
    writer = _MeshWriter()
    index = {n: i for i, n in enumerate(graph.node_ids)}
    vertices = [
        Point4(*(float(c) for c in graph.position(n)), 0.0) for n in graph.node_ids
    ]
    polylines = []
    for e in graph.edge_ids:
        tail, head = graph.ends(e)
        polylines.append([index[tail], index[head]])
    writer.add_object("form", vertices, polylines)
    return writer.text()


def force_diagram_text(loops) -> str:
    """Dual loops as named closed polylines; each chain term becomes its
    own object (reversed when its coefficient is negative)."""
    writer = _MeshWriter()
    for name, realized in loops:
        if isinstance(realized, LoopPath):
            _add_loop(writer, name, realized)
        else:
            term_no = 0
            for coeff, loop in realized.terms:
                oriented = loop if coeff > 0 else loop.reversed()
                for _ in range(abs(coeff)):
                    _add_loop(writer, f"{name}_part{term_no}", oriented)
                    term_no += 1
    return writer.text()


def _add_loop(writer: _MeshWriter, name: str, loop: LoopPath):
    n = len(loop.vertices)
    writer.add_object(name, list(loop.vertices), [list(range(n)) + [0]])


def export_diagrams(
    graph: FrameGraph,
    loops=None,
    directory: str | Path = ".",
    form_name: str = "form.obj",
    force_name: str = "force.obj",
) -> list[Path]:
    """Write the form diagram, and the force diagram when there are loops.

    Returns the written paths.  `loops` is a sequence of (name, loop)
    pairs as produced by realize_state; pass None or empty for form only.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    form_path = directory / form_name
    form_path.write_text(form_diagram_text(graph))
    paths.append(form_path)
    if loops:
        force_path = directory / force_name
        force_path.write_text(force_diagram_text(loops))
        paths.append(force_path)
    return paths

"""Diagram export: form and force diagrams as ASCII polyline meshes.

The writer emits OBJ-style text under a `# loopstatics mesh 2` header:
`o` names an object, `v x y z` records a vertex, and each vertex is
followed by an `h <value>` attribute line carrying its stress-space
coordinate.  The force diagram is one object per realized bar or cycle,
each one closed loop of 3 or 6 vertices, written as an `l` polyline that
repeats its first index, preserving orientation.  Output bytes are
deterministic for identical input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .chains import FrameGraph
from .cycles import FundamentalCycle
from .errors import StructureError
from .selfstress import SelfStressState, _judged_bars
from .synthesis import _normal_form_loops, _triangles
from .wedge import _shoelace


@dataclass(frozen=True)
class RealizedDiagram:
    """Named dual loops realizing a state, as vertex rows.

    Each item is (name, rows), one per realized bar or cycle: the vertex
    rows, (x, y, z, h) float tuples, of one loop closed back to its first
    vertex.
    """

    items: tuple
    # Always empty, as every resultant is one loop; kept for callers that
    # count fallback drawings.
    fallbacks = ()

    def __len__(self) -> int:
        return len(self.items)


def realize_state(
    graph: FrameGraph,
    basis: list[FundamentalCycle],
    state: SelfStressState,
    per: str = "bar",
    tol: float = 1e-9,
    share_vertex: bool = False,
) -> RealizedDiagram:
    """Build one dual loop per bar (`per="bar"`) or per basis cycle
    (`per="cycle"`).

    Bars that pass the axial test, judged together over the whole state,
    become flat triangles normal to their bar.  Any other resultant becomes
    the loop of its normal form: 3 vertices when its bivector is simple, 6
    when not.  Zero Bars, whose force and moment are within tol of the
    state's scales, get no loop.  Each loop is built about the origin, then
    moved to its bar's midpoint or, with share_vertex, to put its first
    vertex on a common node, the origin; no translation changes an area.
    All loops are built at once as vertex arrays; a loop whose written
    vertices have lost its areas to rounding is refused (`_check_loops`).
    """
    b, mids, parallel, matches, _, zero, scales = _judged_bars(state, basis, graph, tol)
    if per == "bar":
        names, rows = [f"bar_{bar}" for bar in graph.edge_ids], np.arange(graph.e)
    elif per == "cycle":
        # a generator bar lies on its own loop only, so its row is the loop's
        names = [f"cycle_{c.generator}" for c in basis]
        rows = np.array([graph.columns[c.generator] for c in basis], dtype=int)
    else:
        raise StructureError(f"unknown realization mode {per!r}")

    loaded = ~zero[rows]
    names = [name for name, keep in zip(names, loaded.tolist()) if keep]
    rows = rows[loaded]
    b, mids, axial = b[rows], mids[rows], (parallel & matches)[rows]
    general = ~axial
    loops = np.empty((len(rows), 6, 4))
    # each force over the power of two that brings its largest entry near 1,
    # so that its square cannot underflow; its norm is scaled back exactly
    exps = np.frexp(np.abs(b[axial, :3]).max(axis=1))[1]
    f_norms = np.ldexp([np.linalg.norm(f) for f in np.ldexp(b[axial, :3], -exps[:, None])], exps)
    loops[axial, :3] = _triangles(b[axial, :3], b[axial, 3:], f_norms)
    loops[general], simple = _normal_form_loops(b[general])
    sizes = np.full(len(rows), 3)
    sizes[general] = np.where(simple, 3, 6)
    vertices = loops[np.arange(6) < sizes[:, None]]
    anchors = -vertices[np.cumsum(sizes) - sizes] if share_vertex else \
        np.column_stack([mids, np.zeros(len(rows))])
    vertices = vertices + np.repeat(anchors, sizes, axis=0)
    # what each loop carries, over 2**shift: its row, less a triangle's
    # moment along its normal, which no loop in the normal plane can carry
    carried = np.ldexp(b, scales[0])
    normals = b[axial, :3] / f_norms[:, None]
    carried[axial, 3:] -= (carried[axial, 3:] * normals).sum(axis=1)[:, None] * normals
    _check_loops(names, vertices, sizes, carried, scales)
    vertex_rows = iter(map(tuple, vertices.tolist()))
    return RealizedDiagram(tuple(
        (name, list(islice(vertex_rows, size))) for name, size in zip(names, sizes.tolist())
    ))


# A written loop may carry areas off from its resultant's by at most this
# share of the state's force scale (force areas) or moment scale (moment
# areas): more is lost to rounding of its vertices, not a drawing.
AREA_TOL = 1e-6


def _check_loops(names, vertices, sizes, carried, scales) -> None:
    """Reject the first loop, in output order, that has a non-finite
    coordinate, consecutive vertices that coincide, or shoelace areas, from
    its vertices as written, more than AREA_TOL times the state's scales
    off what it carries; at finite coordinates only rounding causes the
    last two.  `vertices` holds the loops' rows back to back, `sizes` their
    lengths, one per name; `carried` holds their areas over 2**shift, for
    `scales` = (shift, force scale, moment scale)."""
    if not len(sizes):
        return
    areas, starts, following = _shoelace(vertices, sizes)
    nonfinite = ~np.isfinite(vertices)
    coincide = (vertices == vertices[following]).all(axis=1)
    shift, f_scale, m_scale = scales
    off = np.ldexp(areas, shift) - carried
    wrong = (np.linalg.norm(off[:, :3], axis=1) > AREA_TOL * f_scale) | \
        (np.linalg.norm(off[:, 3:], axis=1) > AREA_TOL * m_scale)
    bad = np.logical_or.reduceat(nonfinite.any(axis=1) | coincide, starts) | wrong
    if not bad.any():
        return
    first = int(np.argmax(bad))
    rows = slice(starts[first], starts[first] + sizes[first])
    if nonfinite[rows].any():
        raise StructureError(f"non-finite coordinate {'xyzh'[np.argwhere(nonfinite[rows])[0, 1]]}")
    why = "consecutive vertices coincide" if coincide[rows].any() else \
        f"its areas are off by more than {AREA_TOL:g} of the state's scale"
    raise StructureError(f"loop {names[first]} collapsed under rounding at these "
                         f"coordinates: {why}")


_VERTEX = "v %r %r %r\nh %r"


def _mesh_text(objects) -> str:
    """The one mesh writer: OBJ-style text for (name, vertex rows,
    polylines) objects.  Rows are (x, y, z, h) tuples of Python floats, as
    repr of a numpy float is not the number's text; polylines hold 0-based
    local vertex indices, and None stands for one loop through every
    vertex, closed back to the first."""
    lines = ["# loopstatics mesh 2"]
    base = 1
    for name, rows, polylines in objects:
        lines.append(f"o {name}")
        lines += [_VERTEX % row for row in rows]
        if polylines is None:
            polylines = [[*range(len(rows)), 0]]
        lines += ["l " + " ".join(str(base + i) for i in poly) for poly in polylines]
        base += len(rows)
    return "\n".join(lines) + "\n"


def form_diagram_text(graph: FrameGraph) -> str:
    """Structure geometry as one polyline object; bars become 2-point lines."""
    rows = [(*p, 0.0) for p in graph.positions.tolist()]
    return _mesh_text([("form", rows, graph.end_rows.tolist())])


def force_diagram_text(realized: RealizedDiagram) -> str:
    """Dual loops as named closed polylines, one object per item."""
    return _mesh_text((name, rows, None) for name, rows in realized.items)


def export_diagrams(
    graph: FrameGraph,
    realized: RealizedDiagram | None = None,
    directory: str | Path = ".",
) -> list[Path]:
    """Write the form diagram to form.obj, and the force diagram to
    force.obj when there are loops.

    Returns the written paths.  `realized` is what realize_state returns;
    pass None or an empty one for form only.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / "form.obj"]
    paths[0].write_text(form_diagram_text(graph))
    if realized:
        paths.append(directory / "force.obj")
        paths[1].write_text(force_diagram_text(realized))
    return paths

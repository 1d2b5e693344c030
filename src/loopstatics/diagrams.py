"""Diagram export: form and force diagrams as ASCII polyline meshes.

The writer emits OBJ-style text: `o` names an object, `v x y z` records a
vertex, and each vertex is followed by an `h <value>` attribute line
carrying its stress-space coordinate.  Closed loops are written as `l`
polylines that repeat their first index, preserving orientation.  Output
bytes are deterministic for identical input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .chains import FrameGraph
from .cycles import FundamentalCycle
from .errors import StructureError
from .selfstress import SelfStressState, _axial_verdicts, _bar_array, _bar_frames
from .synthesis import _merge_rows, _rectangles, _triangles


@dataclass(frozen=True)
class RealizedDiagram:
    """Named dual loops realizing a state, as vertex rows.

    Each item is (name, is_chain, loops), one per realized bar or cycle; a
    loop is a list of (x, y, z, h) float tuples, closed back to its first
    vertex.  A chain item is a chain of rectangles, the fallback for a
    resultant that no triangle carries; any other item is one triangle.
    `forceless` names the chain items that pass the axial test but carry
    no force.
    """

    items: tuple
    forceless: tuple = ()

    @property
    def fallbacks(self) -> tuple:
        """Names of the loops that fell back to rectangle chains."""
        return tuple(name for name, chain, _ in self.items if chain)

    def __len__(self) -> int:
        return len(self.items)


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
    (translation does not change any projected area).  All triangles, and
    all rectangles, are built at once as vertex arrays.
    """
    b = _bar_array(state, basis, graph)
    units, mids = _bar_frames(graph)
    parallel, matches, _ = _axial_verdicts(b[:, :3], b[:, 3:], units, mids, tol)
    if per == "bar":
        names, rows = [f"bar_{bar}" for bar in graph.edge_ids], np.arange(graph.e)
    elif per == "cycle":
        # a generator bar lies on its own loop only, so its row is the loop's
        col = {bar: i for i, bar in enumerate(graph.edge_ids)}
        names = [f"cycle_{c.generator}" for c in basis]
        rows = np.array([col[c.generator] for c in basis], dtype=int)
    else:
        raise StructureError(f"unknown realization mode {per!r}")

    loaded = b[rows].any(axis=1)
    names = [name for name, keep in zip(names, loaded.tolist()) if keep]
    rows = rows[loaded]
    b, mids, axial = b[rows], mids[rows], (parallel & matches)[rows]
    # An axial bar whose force norm is zero (its square may underflow) can
    # carry no triangle; it becomes rectangles about the origin.
    f_norms = np.zeros(len(rows))
    f_norms[axial] = [np.linalg.norm(f) for f in b[axial, :3]]
    tri = f_norms > 0.0
    anchors = np.zeros((len(rows), 4))
    anchors[~axial, :3] = mids[~axial]
    triangles = _triangles(mids[tri], b[tri, :3], b[tri, 3:], f_norms[tri])
    present = b[~tri] != 0.0
    rects_per_item = present.sum(axis=1)
    rects = _rectangles(anchors[~tri], b[~tri])[present]
    _check_loops(
        names,
        np.concatenate([triangles.reshape(-1, 4), rects.reshape(-1, 4)]),
        np.repeat([3, 4], [len(triangles), len(rects)]),
        np.concatenate([np.flatnonzero(tri),
                        np.repeat(np.flatnonzero(~tri), rects_per_item)]),
    )

    tri_rows, rect_rows = iter(triangles.tolist()), iter(rects.tolist())
    counts = iter(rects_per_item.tolist())
    items = []
    for name, is_triangle in zip(names, tri.tolist()):
        if is_triangle:
            items.append((name, False, [list(map(tuple, next(tri_rows)))]))
            continue
        loops = [list(map(tuple, corners)) for corners in islice(rect_rows, next(counts))]
        items.append((name, True, _merge_rows(loops) if merge else loops))
    if share_vertex:
        items = _translate_to_center(names, items)
    forceless = (name for name, is_axial, drawn in zip(names, axial.tolist(), tri.tolist())
                 if is_axial and not drawn)
    return RealizedDiagram(tuple(items), tuple(forceless))


def _check_loops(names, vertices, sizes, owners) -> None:
    """Reject the first item, in output order, with a loop that has a
    non-finite coordinate, fewer than 3 vertices, or consecutive vertices
    that coincide, which at finite coordinates only rounding can cause.
    `vertices` holds every loop's rows back to back, `sizes` the loops'
    lengths and `owners` their items' indices into `names`."""
    if not len(sizes):
        return
    if sizes.min() < 3:
        raise StructureError("a loop needs at least 3 vertices")
    ends = np.cumsum(sizes)
    following = np.arange(1, len(vertices) + 1)
    following[ends - 1] = ends - sizes
    finite = np.isfinite(vertices)
    bad = ~finite.all(axis=1) | (vertices == vertices[following]).all(axis=1)
    if not bad.any():
        return
    owner = np.repeat(owners, sizes)
    first = owner[bad].min()
    nonfinite = np.argwhere(~finite[owner == first])
    if len(nonfinite):
        raise StructureError(f"non-finite coordinate {'xyzh'[nonfinite[0, 1]]}")
    raise StructureError(f"loop {names[first]} collapsed under rounding at these "
                         "coordinates: consecutive vertices coincide")


def _translate_to_center(names, items) -> list:
    """Every item's loops moved so that the item's first vertex lands on
    the origin."""
    loops = [(k, loop) for k, (_, _, item_loops) in enumerate(items) for loop in item_loops]
    if not loops:
        return items
    owners = np.array([k for k, _ in loops])
    sizes = np.array([len(loop) for _, loop in loops])
    vertices = np.array([row for _, loop in loops for row in loop])
    owner = np.repeat(owners, sizes)
    first = np.searchsorted(owner, owner)  # each vertex's item's first vertex
    vertices = vertices + (0.0 - vertices[first])
    _check_loops(names, vertices, sizes, owners)
    rows = iter(map(tuple, vertices.tolist()))
    moved = [[] for _ in items]
    for k, loop in loops:
        moved[k].append(list(islice(rows, len(loop))))
    return [(name, chain, moved[k]) for k, (name, chain, _) in enumerate(items)]


_VERTEX = "v %r %r %r\nh %r"


def _mesh_text(objects) -> str:
    """The one mesh writer: OBJ-style text for (name, vertex rows,
    polylines) objects.  Rows are (x, y, z, h) tuples of Python floats, as
    repr of a numpy float is not the number's text; polylines hold 0-based
    local vertex indices, and None stands for one loop through every
    vertex, closed back to the first."""
    lines = ["# loopstatics mesh 1"]
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
    index = {n: i for i, n in enumerate(graph.node_ids)}
    rows = [(*graph.position(n).tolist(), 0.0) for n in graph.node_ids]
    polylines = [[index[end] for end in graph.ends(e)] for e in graph.edge_ids]
    return _mesh_text([("form", rows, polylines)])


def force_diagram_text(realized: RealizedDiagram) -> str:
    """Dual loops as named closed polylines; each loop of a chain item
    becomes its own object."""
    return _mesh_text(
        (f"{name}_part{k}" if chain else name, rows, None)
        for name, chain, item_loops in realized.items
        for k, rows in enumerate(item_loops)
    )


def export_diagrams(
    graph: FrameGraph,
    realized: RealizedDiagram | None = None,
    directory: str | Path = ".",
    form_name: str = "form.obj",
    force_name: str = "force.obj",
) -> list[Path]:
    """Write the form diagram, and the force diagram when there are loops.

    Returns the written paths.  `realized` is what realize_state returns;
    pass None or an empty one for form only.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    form_path = directory / form_name
    form_path.write_text(form_diagram_text(graph))
    paths.append(form_path)
    if realized:
        force_path = directory / force_name
        force_path.write_text(force_diagram_text(realized))
        paths.append(force_path)
    return paths

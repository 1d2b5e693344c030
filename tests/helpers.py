"""Shared builders for randomized tests: graphs, states, loops."""

from __future__ import annotations

import numpy as np

from loopstatics import (
    ZERO_BIVECTOR,
    BarResultant,
    Bivector6,
    FrameGraph,
    LoopPath,
    Point4,
    SelfStressState,
    equilibrium_matrix,
    loop_area,
    prism_frame,
)
from loopstatics.selfstress import _judged_bars
from loopstatics.statics import _BLOCK, _column_sq, _select_in_order
from loopstatics.synthesis import _normal_form_loops


def int_k5() -> FrameGraph:
    """Complete graph on integer nodes 0..4 in general 3D position."""
    pos = [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0),
        (1.0, -1.0, -1.0),
        (-1.0, 1.0, -1.0),
        (-1.0, -1.0, 1.0),
    ]
    nodes = [(i, pos[i]) for i in range(5)]
    edges = [((i, j), i, j) for i in range(5) for j in range(i + 1, 5)]
    return FrameGraph(nodes, edges)


def triangle_graph() -> FrameGraph:
    nodes = [(0, (0.0, 0.0, 0.0)), (1, (1.0, 0.0, 0.0)), (2, (0.0, 1.0, 0.0))]
    edges = [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]
    return FrameGraph(nodes, edges)


def random_connected_graph(
    rng: np.random.Generator, max_nodes: int = 12, max_edges: int = 30
) -> FrameGraph:
    """Random spanning tree plus random chords; parallel bars allowed."""
    v = int(rng.integers(2, max_nodes + 1))
    positions = rng.uniform(-1.0, 1.0, size=(v, 3))
    # nudge apart so no bar is zero-length
    positions += np.arange(v)[:, None] * 1e-3
    nodes = [(i, tuple(positions[i])) for i in range(v)]
    edges = []
    for child in range(1, v):
        parent = int(rng.integers(0, child))
        edges.append((f"e{len(edges)}", parent, child))
    n_extra = int(rng.integers(0, max_edges - (v - 1) + 1))
    for _ in range(n_extra):
        a = int(rng.integers(0, v))
        b = int(rng.integers(0, v))
        if a == b:
            continue
        edges.append((f"e{len(edges)}", a, b))
    return FrameGraph(nodes, edges)


def lattice_graph(rng: np.random.Generator, side: int = 3) -> FrameGraph:
    """Jittered cubic lattice, `side` nodes per edge, with one diagonal of
    random orientation in every unit face square.  Every cube has all six
    faces triangulated, so the frame is rigid: m = 0, s = e - 3v + 6
    (15 for side 3)."""
    def nid(c):
        return int((c[0] * side + c[1]) * side + c[2])

    grid = [(i, j, k) for i in range(side) for j in range(side) for k in range(side)]
    nodes = [(nid(c), tuple(np.array(c, float) + rng.uniform(-0.15, 0.15, 3)))
             for c in grid]
    axes = np.eye(3, dtype=int)
    ends = []
    for c in map(np.array, grid):
        ends += [(c, c + a) for a in axes if (c + a).max() < side]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            far = c + axes[a] + axes[b]
            if far.max() < side:
                ends.append((c, far) if rng.random() < 0.5 else (c + axes[a], c + axes[b]))
    edges = [(f"b{k}", nid(t), nid(h)) for k, (t, h) in enumerate(ends)]
    return FrameGraph(nodes, edges)


def relabel_bars(graph: FrameGraph, name) -> FrameGraph:
    """The same frame with bar k (in input order) renamed name(k)."""
    return FrameGraph(
        [(n, graph.position(n)) for n in graph.node_ids],
        [(name(k), *graph.ends(e)) for k, e in enumerate(graph.edge_ids)],
    )


def random_state(rng: np.random.Generator, basis) -> SelfStressState:
    return SelfStressState(
        {c.generator: Bivector6(*rng.normal(size=6)) for c in basis}
    )


def random_loop(rng: np.random.Generator, n_min: int = 3, n_max: int = 10) -> LoopPath:
    n = int(rng.integers(n_min, n_max + 1))
    pts = rng.uniform(-1.0, 1.0, size=(n, 4))
    return LoopPath(tuple(Point4(*p) for p in pts))


def random_planar_loop(rng: np.random.Generator) -> LoopPath:
    """Non-degenerate planar polygon in a random 2-plane of 4D space."""
    n = int(rng.integers(3, 9))
    # random orthonormal in-plane frame via QR of a random 4x2 block
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    t1, t2 = q[:, 0], q[:, 1]
    center = rng.uniform(-2.0, 2.0, size=4)
    # jittered but well-spread angles keep the polygon area away from zero
    angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.9, size=n)) / n
    radii = rng.uniform(0.5, 1.5, size=n)
    pts = [center + r * (np.cos(a) * t1 + np.sin(a) * t2) for a, r in zip(angles, radii)]
    loop = LoopPath(tuple(Point4(*p) for p in pts))
    return loop


def loop_of(rows) -> LoopPath:
    """The loop through (x, y, z, h) vertex rows, such as a loop of a
    RealizedDiagram item."""
    return LoopPath(tuple(Point4(*v) for v in rows))


def item_area(rows) -> Bivector6:
    """The area of a RealizedDiagram item's loop."""
    return loop_area(loop_of(rows))


def normal_form_loop(target: Bivector6, anchor=(0.0, 0.0, 0.0, 0.0)) -> LoopPath:
    """The loop of `synthesis._normal_form_loops` for one nonzero target,
    moved to the anchor: 3 vertices when the target is simple, else 6."""
    loops, simple = _normal_form_loops(target.components()[None])
    return loop_of((loops[0, :3] if simple[0] else loops[0]) + np.asarray(anchor, dtype=float))


# -- reference realization: the object-based, one-loop-at-a-time code that
# the array path in synthesis and diagrams must reproduce bit for bit --

_REF_PLANES = ((1, 2), (2, 0), (0, 1), (0, 3), (1, 3), (2, 3))  # jk ki ij ih jh kh


def ref_normal_form_loop(row) -> LoopPath:
    """The loop about the origin of one nonzero bivector row (Bivector6
    order), from the self-dual split of the row over its largest entry:
    p = (f + m)/2 and q = (f - m)/2 with unit vectors a and b give the
    weights l1 = |p| + |q|, l2 = |p| - |q| of the planes
    P1 = ((a + b)/2, (a - b)/2) and P2 = ((a - b)/2, (a + b)/2), P2 reversed
    where l2 < 0.  Each plane's triangle is (0, s e, s f) with s^2 / 2 = |l|,
    e the column of -P^2 with the largest diagonal, normalized, and
    f = -P e; the second is dropped when |l2| <= 64 eps l1."""
    row = np.asarray(row, dtype=float)
    scale = np.abs(row).max()
    f, m = row[:3] / scale, row[3:] / scale
    units = []
    for half in ((f + m) / 2.0, (f - m) / 2.0):
        length = np.sqrt((half * half).sum())
        units.append((half / length if length > 0.0 else np.array([1.0, 0.0, 0.0]), length))
    (a, lp), (b, lq) = units
    weights = (lp + lq, lp - lq)
    planes = (np.concatenate([a + b, a - b]) / 2.0,
              (-1.0 if weights[1] < 0.0 else 1.0) * np.concatenate([a - b, a + b]) / 2.0)
    verts = []
    for plane, weight in zip(planes, weights):
        p = np.zeros((4, 4))
        for (i, j), x in zip(_REF_PLANES, plane):
            p[i, j], p[j, i] = x, -x
        projector = -(p[:, :, None] * p[None, :, :]).sum(axis=1)
        e = projector[:, np.argmax(np.diagonal(projector))]
        e = e / np.sqrt((e * e).sum())
        side = np.sqrt(2.0 * scale * abs(weight))
        verts += [np.full(4, -0.0), side * e, side * -(p * e).sum(axis=1)]
    if abs(weights[1]) <= 64 * np.finfo(float).eps * weights[0]:
        verts = verts[:3]
    return LoopPath(tuple(Point4(*v) for v in verts))


def ref_in_plane_frame(normal: np.ndarray):
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        w = e - (e @ normal) * normal
        n = np.linalg.norm(w)
        if n > 1e-8:
            t1 = w / n
            return t1, np.cross(normal, t1)
    raise AssertionError("degenerate normal")


def ref_axial_loop(f: np.ndarray, m: np.ndarray) -> LoopPath:
    """The triangle about the origin of one axial bar: equilateral, of area
    |f|, right-handed about f, with h_i = 2 e_i . m / ((9/2) R^2) for its
    edges e_i = v_(i-1) - v_(i+1) and circumradius R."""
    f_norm = float(np.linalg.norm(f))
    n = f / f_norm
    t1, t2 = ref_in_plane_frame(n)
    radius = float(np.sqrt(4.0 * f_norm / (3.0 * np.sqrt(3.0))))
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    spatial = [radius * (np.cos(a) * t1 + np.sin(a) * t2) for a in angles]
    h = [((spatial[i - 1] - spatial[(i + 1) % 3]) * m).sum() / (2.25 * radius * radius)
         for i in range(3)]
    return LoopPath(tuple(Point4(*p, hv) for p, hv in zip(spatial, h)))


def ref_realize_loops(graph, basis, state, per="bar", tol=1e-9, share_vertex=False):
    """(name, LoopPath) pairs as realize_state builds them, one loop at a
    time: about the origin, then moved to the bar's midpoint or, with
    share_vertex, so that the first vertex is the origin."""
    b, mids, parallel, matches, _, zero, _ = _judged_bars(state, basis, graph, tol)
    if per == "bar":
        items = [(f"bar_{bar}", i) for i, bar in enumerate(graph.edge_ids)]
    else:
        items = [(f"cycle_{c.generator}", graph.columns[c.generator]) for c in basis]
    loops = []
    for name, i in items:
        if zero[i]:
            continue
        if parallel[i] and matches[i]:
            loop = ref_axial_loop(b[i, :3], b[i, 3:])
        else:
            loop = ref_normal_form_loop(b[i])
        anchor = -loop.vertices[0].to_array() if share_vertex else (*mids[i], 0.0)
        loops.append((name, loop.translated(Point4(*anchor))))
    return tuple(loops)


class RefMeshWriter:
    def __init__(self):
        self.lines = ["# loopstatics mesh 2"]
        self.vertex_count = 0

    def add_object(self, name, vertices, polylines):
        base = self.vertex_count + 1
        self.lines.append(f"o {name}")
        for v in vertices:
            self.lines.append(f"v {float(v.x)!r} {float(v.y)!r} {float(v.z)!r}")
            self.lines.append(f"h {float(v.h)!r}")
        self.vertex_count += len(vertices)
        for poly in polylines:
            self.lines.append("l " + " ".join(str(base + i) for i in poly))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def ref_force_diagram_text(loops) -> str:
    writer = RefMeshWriter()
    for name, loop in loops:
        n = len(loop.vertices)
        writer.add_object(name, list(loop.vertices), [list(range(n)) + [0]])
    return writer.text()


# -- reference statics: the per-bar code that the array path in selfstress
# and statics must reproduce bit for bit --


def ref_bar_resultant(state: SelfStressState, bar, basis, graph: FrameGraph) -> BarResultant:
    """Signed sum of the resultants of every basis loop containing the bar,
    in basis order: the per-bar definition that `_bar_array` sums for all
    bars at once."""
    assert graph.has_edge(bar)
    total = ZERO_BIVECTOR
    for cycle in basis:
        coeff = cycle.chain.coefficient(bar)
        if coeff != 0:
            total = total + coeff * state.resultant(cycle.generator)
    return BarResultant.of(bar, total)


def ref_bar_frames(graph: FrameGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unit direction and midpoint of every bar, one bar at a time."""
    return tuple(
        np.array([at(bar) for bar in graph.edge_ids]).reshape(-1, 3)
        for at in (graph.direction, graph.midpoint)
    )


def ref_equilibrium_matrix(graph: FrameGraph) -> np.ndarray:
    """The equilibrium matrix filled column by column."""
    rows = {n: 3 * i for i, n in enumerate(graph.node_ids)}
    a = np.zeros((3 * graph.v, graph.e))
    for col, edge in enumerate(graph.edge_ids):
        u = graph.direction(edge)
        tail, head = graph.ends(edge)
        a[rows[head] : rows[head] + 3, col] = u
        a[rows[tail] : rows[tail] + 3, col] = -u
    return a


def ref_positive_qr(x: np.ndarray) -> np.ndarray:
    """The Householder Q of x = QR, its columns signed so R's diagonal is
    positive."""
    q, r = np.linalg.qr(x)
    q *= np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q


def ref_force_method_basis(a: np.ndarray, cut: float, s: int) -> np.ndarray:
    """The force-method null basis by the route that keeps both factors of
    the basic columns and forms each Householder Q: the oracle for
    `statics._force_method_basis`, which must match it to rounding."""
    qt, rinv, redundant = _ref_redundant_bars(a, cut)
    assert redundant.size == s
    basic = np.ones(a.shape[1], dtype=bool)
    basic[redundant] = False
    n = np.zeros((a.shape[1], s))  # N^T
    n[redundant, np.arange(s)] = 1.0
    n[basic] = -(rinv @ (qt @ a[:, redundant]))
    v = ref_positive_qr(n)
    v[basic] -= rinv @ (qt @ (a @ v))
    return ref_positive_qr(v).T


def _ref_redundant_bars(a: np.ndarray, cut: float, orthonormal=ref_positive_qr) -> tuple:
    """qt, rinv and the redundant columns of `statics._redundant_bars`,
    with each block's directions orthonormalized by `orthonormal`."""
    rows, e = a.shape
    size = min(rows, e)
    qt, rinv = np.empty((size, rows)), np.zeros((size, size))
    rank, redundant = 0, []
    for start in range(0, e, _BLOCK):
        cols = np.arange(start, min(start + _BLOCK, e))
        q = qt[:rank]
        block = a[:, cols]
        used = np.flatnonzero(block.any(axis=1))
        c = q[:, used] @ block[used]
        x = block - q.T @ c
        keep = _column_sq(x) > cut * cut
        redundant += cols[~keep].tolist()
        cols, x = cols[keep], x[:, keep]
        coef = rinv[:rank, :rank] @ c[:, keep]
        z = np.linalg.qr(x, mode="r")
        basic, dropped = _select_in_order(z, coef, cut)
        redundant += cols[dropped].tolist()
        if not basic.size:
            continue
        x = x[:, basic]
        v = x @ np.linalg.inv(np.linalg.qr(z[:, basic], mode="r"))
        y = orthonormal(v - q.T @ (q @ v))
        d_inv = np.linalg.inv(y.T @ x)
        p = basic.size
        qt[rank:rank + p] = y.T
        rinv[:rank, rank:rank + p] = -coef[:, basic] @ d_inv
        rinv[rank:rank + p, rank:rank + p] = d_inv
        rank += p
    return qt[:rank], rinv[:rank, :rank], np.array(sorted(redundant), dtype=int)


def _ref_sigma_min(radius: float, half_height: float, twist: float) -> float:
    a = equilibrium_matrix(prism_frame(radius, half_height, twist)).matrix
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def ref_prism_critical_twist(
    radius: float = 1.0,
    half_height: float = 0.5,
    scan_points: int = 240,
    tol: float = 1e-12,
) -> float:
    """The prism's critical twist located numerically, the oracle for the
    closed form in `structures.prism_critical_twist`.

    Coarse scan of the smallest singular value over (0, 2*pi/3), then
    golden-section refinement of the dip down to `tol` radians.  (The
    smallest singular value has no sign change, so interval refinement on
    the minimum replaces literal bisection.)
    """
    lo, hi = 1e-3, 2.0 * np.pi / 3.0 - 1e-3
    twists = np.linspace(lo, hi, scan_points)
    sigmas = [_ref_sigma_min(radius, half_height, t) for t in twists]
    k = int(np.argmin(sigmas))
    a = twists[max(k - 1, 0)]
    b = twists[min(k + 1, scan_points - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _ref_sigma_min(radius, half_height, c)
    fd = _ref_sigma_min(radius, half_height, d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _ref_sigma_min(radius, half_height, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _ref_sigma_min(radius, half_height, d)
    return float(0.5 * (a + b))


# -- reference loop-space statics: the paper's route to the axial
# self-stresses, independent of the equilibrium matrix and its SVD --


def ref_loop_space_selfstresses(graph: FrameGraph, basis, axial: bool = True) -> np.ndarray:
    """The chain sums, as e x 6 x d bar (force, total moment) rows, of an
    orthonormal basis of the null space of K, the loop-space system over
    the 6c components of the c loop resultants of `basis`.

    K's first rows are node balance of the chain sums, with the incidence
    taken from `graph.end_rows`.  They vanish identically, so alone they
    leave d = 6c = `selfstress_dimension` states.  With `axial`, K also
    requires each loop's resultant to be (u, mid x u) q_g on its generator
    g, and each tree bar's chain sum to be axial: every bar's chain sum
    must lie on its bar's line (u, mid x u), from `graph.positions`.  Then
    d is the frame's count s of axial self-stresses."""
    pos, ends = graph.positions, graph.end_rows
    tail, head = pos[ends[:, 0]], pos[ends[:, 1]]
    units = (head - tail) / np.linalg.norm(head - tail, axis=1)[:, None]
    lines = np.hstack([units, np.cross(0.5 * (tail + head), units)])
    lines /= np.linalg.norm(lines, axis=1)[:, None]
    incidence = np.zeros((graph.e, len(basis)))  # bar x loop
    for k, cycle in enumerate(basis):
        for bar, coeff in cycle.chain.items():
            incidence[graph.columns[bar], k] = coeff
    chain_sum = np.kron(incidence, np.eye(6))  # 6c loop components -> 6e bar rows
    nodes = np.zeros((graph.v, graph.e))
    np.add.at(nodes, (ends[:, 1], np.arange(graph.e)), 1.0)  # +1 into a node
    np.add.at(nodes, (ends[:, 0], np.arange(graph.e)), -1.0)
    rows = [np.kron(nodes, np.eye(6)) @ chain_sum]
    if axial:
        off_line = np.eye(6) - lines[:, :, None] * lines[:, None, :]  # e x 6 x 6
        rows.append((off_line @ chain_sum.reshape(graph.e, 6, -1)).reshape(6 * graph.e, -1))
    k = np.vstack(rows)
    # all of V only when K has fewer rows than columns, as balance alone can
    _, sigma, vt = np.linalg.svd(k, full_matrices=k.shape[0] < k.shape[1])
    rank = int(np.sum(sigma > 1e-9 * max(sigma.max(initial=0.0), 1.0)))
    return (chain_sum @ vt[rank:].T).reshape(graph.e, 6, -1)

"""Shared builders for randomized tests: graphs, states, loops."""

from __future__ import annotations

import numpy as np

from loopstatics import Bivector6, FrameGraph, LoopPath, Point4, SelfStressState


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

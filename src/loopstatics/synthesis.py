"""Construction of explicit dual-loop geometry for prescribed resultants.

Any six-component resultant can be realized as a formal sum of up to six
axis-aligned rectangles (disconnected sums are legitimate loop elements).
Axial resultants get a nicer realization: a single flat triangle normal to
the bar with area equal to the force magnitude, its vertex h-coordinates
chosen to reproduce the moment.  Zero Bars are realized by bow-tie loops
of identically zero oriented area.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .wedge import LoopPath, Point4

_ORIGIN4 = Point4(0.0, 0.0, 0.0, 0.0)

# Each component's rectangle lies in the plane of (axis for the signed side,
# axis for the unit side), indices into (x, y, z, h), in the component order
# of Bivector6: jk, ki, ij, ih, jh, kh.
_RECT_AXES = ((1, 2), (2, 0), (0, 1), (0, 3), (1, 3), (2, 3))
_SIDE_A = np.eye(4)[[a for a, _ in _RECT_AXES]]
_SIDE_B = np.eye(4)[[b for _, b in _RECT_AXES]]

# The triangle's corners, each angle's cosine and sine taken on its own as a
# numpy scalar, so the corners keep their bits whatever the batch size.
_TURNS = [(np.cos(a), np.sin(a)) for a in 2.0 * np.pi * np.arange(3) / 3.0]


def _rectangles(anchors: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Corner rows (k, 6, 4, 4) of one rectangle per component for k anchors
    (k x 4) and k x 6 signed areas: a corner at the anchor, sides `area` and
    1.  Zero-area rectangles are included; callers drop them."""
    base = anchors[:, None, :]
    side = base + areas[:, :, None] * _SIDE_A
    return np.stack(np.broadcast_arrays(base, side, side + _SIDE_B, base + _SIDE_B), axis=2)


def _in_plane_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed in-plane frames (t1, t2, normal) for k x 3 unit normals;
    t1 follows the smallest-index coordinate axis that projects
    non-degenerately.  Each projection's length is the scalar BLAS norm of
    its own row, as the triangles' bits depend on it."""
    t1 = np.empty_like(normals)
    todo = np.arange(len(normals))
    for axis in range(3):
        w = np.eye(3)[axis] - normals[todo, axis, None] * normals[todo]
        norms = np.array([np.linalg.norm(row) for row in w])
        done = norms > 1e-8
        t1[todo[done]] = w[done] / norms[done, None]
        todo = todo[~done]
    if len(todo):
        raise StructureError("degenerate normal")  # unreachable for unit normals
    return t1, np.cross(normals, t1)


def _triangles(mids, forces, moments, f_norms) -> np.ndarray:
    """Vertex rows (k, 3, 4) of the triangles of k axial bars, unchecked:
    equilateral, centred on the midpoint, right-handed about the force.
    The nonzero force norms are each force's scalar BLAS norm, passed in
    so that callers test the same number for zero."""
    t1, t2 = _in_plane_frames(forces / f_norms[:, None])
    # equilateral triangle: area = (3*sqrt(3)/4) * R^2 with circumradius R
    radius = np.sqrt(4.0 * f_norms / (3.0 * np.sqrt(3.0)))[:, None]
    v0, v1, v2 = (mids + radius * (c * t1 + s * t2) for c, s in _TURNS)
    # h-values from the three h-plane shoelace equations; the matrix columns
    # are the triangle edge vectors, so the min-norm solve is exact whenever
    # moment . normal = 0 (always true for axial-consistent inputs).  One
    # LAPACK solve per bar keeps each bar's bits.
    edges = np.stack([v2 - v1, v0 - v2, v1 - v0], axis=2)
    h = [np.linalg.lstsq(e, 2.0 * m, rcond=None)[0] for e, m in zip(edges, moments)]
    return np.concatenate([np.stack([v0, v1, v2], axis=1),
                           np.reshape(h, (-1, 3, 1))], axis=2)


def zero_bar_loop(normal, anchor: Point4 = _ORIGIN4, size: float = 1.0) -> LoopPath:
    """Bow-tie quadrilateral in the plane of the given unit normal whose two
    lobes cancel: every projected area is zero."""
    n = np.asarray(normal, dtype=float)
    n_len = float(np.linalg.norm(n))
    if abs(n_len - 1.0) > 1e-9:
        raise StructureError("plane normal must be a unit vector")
    (t1,), (t2,) = _in_plane_frames((n / n_len)[None])
    c = anchor.to_array()
    arms = (size * t1, -size * t1, size * t2, -size * t2)
    verts = []
    for arm in arms:
        p = c.copy()
        p[:3] += arm
        verts.append(Point4.from_array(p))
    return LoopPath(tuple(verts))


def _merge_rows(loops: list) -> list:
    """Splice loops that share a vertex into connected loops of the same
    summed area, for loops given as lists of (x, y, z, h) tuples, all with
    coefficient +1; tuples compare and hash as Point4 does."""
    pending = list(loops)
    merged = []
    while pending:
        current = pending.pop(0)
        changed = True
        while changed:
            changed = False
            for other in list(pending):
                shared = _shared_vertex(current, other)
                if shared is None:
                    continue
                i, j = shared
                # rotate both so the shared vertex is first, then splice
                cur = current[i:] + current[:i]
                oth = other[j:] + other[:j]
                current = cur + oth
                pending.remove(other)
                changed = True
                break
        merged.append(current)
    cleaned = (_drop_consecutive_duplicates(verts) for verts in merged)
    return [verts for verts in cleaned if len(verts) >= 3]


def _shared_vertex(a: list, b: list) -> tuple[int, int] | None:
    index = {v: i for i, v in enumerate(a)}
    for j, v in enumerate(b):
        if v in index:
            return index[v], j
    return None


def _drop_consecutive_duplicates(verts: list) -> list:
    out = []
    for v in verts:
        if not out or v != out[-1]:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out

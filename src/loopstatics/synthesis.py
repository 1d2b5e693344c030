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
from .selfstress import _axial_verdicts
from .wedge import Bivector6, DualChain, LoopPath, Point4

_ORIGIN4 = Point4(0.0, 0.0, 0.0, 0.0)

# Plane -> (axis for the signed side, axis for the unit side), indices into
# (x, y, z, h).  Same component order as Bivector6.
_RECT_AXES = {
    "jk": (1, 2),
    "ki": (2, 0),
    "ij": (0, 1),
    "ih": (0, 3),
    "jh": (1, 3),
    "kh": (2, 3),
}


def _rectangle(anchor: Point4, axis_a: int, axis_b: int, area: float) -> LoopPath:
    """Rectangle of signed area `area` in the (axis_a, axis_b) plane, with
    one corner at the anchor, sides `area` and 1."""
    base = anchor.to_array()
    ea = np.zeros(4)
    eb = np.zeros(4)
    ea[axis_a] = 1.0
    eb[axis_b] = 1.0
    corners = (base, base + area * ea, base + area * ea + eb, base + eb)
    return LoopPath(tuple(Point4.from_array(c) for c in corners))


def synthesize_chain(target: Bivector6, anchor: Point4 = _ORIGIN4) -> DualChain:
    """Formal sum of at most six axis-aligned rectangles whose areas add to
    the target, one rectangle per nonzero component; exact up to rounding."""
    terms = []
    for name, (axis_a, axis_b) in _RECT_AXES.items():
        comp = getattr(target, name)
        if comp != 0.0:
            terms.append((1, _rectangle(anchor, axis_a, axis_b, comp)))
    return DualChain(tuple(terms))


def _in_plane_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed in-plane frame (t1, t2, normal); t1 follows the
    smallest-index coordinate axis that projects non-degenerately."""
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        w = e - (e @ normal) * normal
        n = np.linalg.norm(w)
        if n > 1e-8:
            t1 = w / n
            return t1, np.cross(normal, t1)
    raise StructureError("degenerate normal")  # unreachable for unit normals


def triangle_for_axial(
    tail: np.ndarray,
    head: np.ndarray,
    force: np.ndarray,
    moment: np.ndarray,
    tol: float = 1e-9,
) -> LoopPath | DualChain:
    """Flat triangle realizing an axial bar resultant.

    The triangle is equilateral, centred on the bar midpoint, normal to the
    bar, with spatial area |force| and right-hand orientation around the
    force; its vertex h-coordinates solve the 3x3 moment system.  Inputs
    must be axial-consistent: force parallel to the bar and moment equal to
    midpoint x force, both within tol (the bar judged on its own, see
    `_axial_verdicts`).  A zero force falls back to synthesize_chain (a
    DualChain), since no triangle can carry it.
    """
    p0, p1, f, m = (np.asarray(a, dtype=float) for a in (tail, head, force, moment))
    d = p1 - p0
    length = float(np.linalg.norm(d))
    if length == 0.0:
        raise StructureError("bar has coincident endpoints")
    mid = 0.5 * (p0 + p1)
    if np.any(f):
        u = d / length
        parallel, matches, _ = _axial_verdicts(f[None], m[None], u[None], mid[None], tol)
        if not parallel[0]:
            raise StructureError("force is not parallel to the bar")
        if not matches[0]:
            raise StructureError("moment is inconsistent with an axial force")
    return _axial_loop(mid, f, m)


def _axial_loop(mid: np.ndarray, f: np.ndarray, m: np.ndarray) -> LoopPath | DualChain:
    """triangle_for_axial's geometry, unchecked; zero force gives rectangles."""
    f_norm = float(np.linalg.norm(f))
    if f_norm == 0.0:
        return synthesize_chain(Bivector6.from_force_moment(f, m))
    n = f / f_norm
    t1, t2 = _in_plane_frame(n)
    # equilateral triangle: area = (3*sqrt(3)/4) * R^2 with circumradius R
    radius = float(np.sqrt(4.0 * f_norm / (3.0 * np.sqrt(3.0))))
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    spatial = [mid + radius * (np.cos(a) * t1 + np.sin(a) * t2) for a in angles]

    # h-values from the three h-plane shoelace equations; the matrix columns
    # are the triangle edge vectors, so the min-norm solve is exact whenever
    # moment . normal = 0 (always true for axial-consistent inputs).
    v0, v1, v2 = spatial
    b = np.column_stack([v2 - v1, v0 - v2, v1 - v0])
    h, *_ = np.linalg.lstsq(b, 2.0 * m, rcond=None)
    return LoopPath(
        tuple(Point4(p[0], p[1], p[2], hv) for p, hv in zip(spatial, h))
    )


def zero_bar_loop(normal, anchor: Point4 = _ORIGIN4, size: float = 1.0) -> LoopPath:
    """Bow-tie quadrilateral in the plane of the given unit normal whose two
    lobes cancel: every projected area is zero."""
    n = np.asarray(normal, dtype=float)
    n_len = float(np.linalg.norm(n))
    if abs(n_len - 1.0) > 1e-9:
        raise StructureError("plane normal must be a unit vector")
    t1, t2 = _in_plane_frame(n / n_len)
    c = anchor.to_array()
    arms = (size * t1, -size * t1, size * t2, -size * t2)
    verts = []
    for arm in arms:
        p = c.copy()
        p[:3] += arm
        verts.append(Point4.from_array(p))
    return LoopPath(tuple(verts))


def merge_chain(chain: DualChain) -> DualChain:
    """Splice loops that share a vertex into connected loops.

    Negative coefficients are folded in by reversing orientation and
    repeated loops are duplicated, so the merged chain has the same area.
    Mainly cosmetic: exports read better as one polyline than as a formal
    sum of rectangles.
    """
    pending: list[list[Point4]] = []
    for coeff, loop in chain.terms:
        verts = list(loop.vertices if coeff > 0 else loop.reversed().vertices)
        pending.extend([list(verts)] * abs(coeff))

    merged: list[list[Point4]] = []
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

    terms = []
    for verts in merged:
        cleaned = _drop_consecutive_duplicates(verts)
        if len(cleaned) >= 3:
            terms.append((1, LoopPath(tuple(cleaned))))
    return DualChain(tuple(terms))


def _shared_vertex(a: list[Point4], b: list[Point4]) -> tuple[int, int] | None:
    index = {v: i for i, v in enumerate(a)}
    for j, v in enumerate(b):
        if v in index:
            return index[v], j
    return None


def _drop_consecutive_duplicates(verts: list[Point4]) -> list[Point4]:
    out: list[Point4] = []
    for v in verts:
        if not out or v != out[-1]:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out

"""Construction of explicit dual-loop geometry for prescribed resultants.

Every resultant is realized as one closed loop.  An axial resultant is a
flat triangle normal to the bar with area equal to the force magnitude,
its vertex h-coordinates chosen to reproduce the moment.  Any other
resultant is the loop of its bivector's normal form: two triangles in
orthogonal planes through one anchor, or a single triangle when the
bivector is simple.  Zero Bars carry no loop in an export; `zero_bar_loop`
gives the bow-tie of identically zero oriented area that draws one.
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError
from .wedge import _PLANES, LoopPath, Point4

_ORIGIN4 = Point4(0.0, 0.0, 0.0, 0.0)

# The triangle's corners, each angle's cosine and sine taken on its own as a
# numpy scalar, so the corners keep their bits whatever the batch size.
_TURNS = [(np.cos(a), np.sin(a)) for a in 2.0 * np.pi * np.arange(3) / 3.0]

# A bivector is simple when its second plane's weight is at most this share
# of its first's: the rounding of the normal form, not a second plane.
_SIMPLE = 64 * np.finfo(float).eps
_A, _B = np.array(_PLANES).T


def _in_plane_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed in-plane frames (t1, t2, normal) for k x 3 unit normals;
    t1 follows the x axis's projection unless it is degenerate, and then the
    y axis's, which is not for a unit normal.  Each projection's length is
    the scalar BLAS norm of its own row, as the triangles' bits depend on
    it."""
    t1 = np.empty_like(normals)
    todo = np.arange(len(normals))
    for axis in range(2):
        w = np.eye(3)[axis] - normals[todo, axis, None] * normals[todo]
        norms = np.array([np.linalg.norm(row) for row in w])
        done = norms > 1e-8
        t1[todo[done]] = w[done] / norms[done, None]
        todo = todo[~done]
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


def _normal_form_loops(anchors: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex rows (k, 6, 4) of one closed loop for each of k nonzero
    bivector rows (k x 6, in Bivector6 order) through k x 4 anchors, and
    which bivectors are simple, so that their loop is its first 3 rows.

    A 4D bivector has the normal form B = l1 e1^f1 + l2 e2^f2, with
    (e1, f1, e2, f2) orthonormal and l1 >= l2 >= 0, and the triangle
    (p, p + a e, p + a f) has area (a^2 / 2) e^f.  So the loop
    (p, p + a1 e1, p + a1 f1, p, p + a2 e2, p + a2 f2) with a_i^2 / 2 = l_i
    has area B.  For M the skew matrix of B, e1 is the top eigenvector of
    M^T M and f1 = -M e1 / l1; e2 is taken orthogonal to (e1, f1)
    explicitly, so that l1 = l2 needs no care, and f2 comes from M less
    its first term.  Each row's bits do not depend on the other rows."""
    scale = np.abs(rows).max(axis=1)  # keeps M^T M clear of overflow and underflow
    m = np.zeros((len(rows), 4, 4))
    m[:, _A, _B] = rows / scale[:, None]
    m[:, _B, _A] = -m[:, _A, _B]
    gram = (m[:, :, :, None] * m[:, :, None, :]).sum(axis=1)
    e1 = np.linalg.eigh(gram)[1][:, :, 3]
    l1, f1 = _turned(m, e1)
    m -= l1[:, None, None] * (_outer(e1, f1) - _outer(f1, e1))
    rest = np.eye(4) - _outer(e1, e1) - _outer(f1, f1)  # projects onto the second plane
    column = rest.diagonal(axis1=1, axis2=2).argmax(axis=1)
    e2 = rest[np.arange(len(rest)), :, column]
    e2 /= np.sqrt((e2 * e2).sum(axis=1))[:, None]
    l2, f2 = _turned(m, e2)
    a1, a2 = (np.sqrt(2.0 * scale * weight)[:, None] for weight in (l1, l2))
    p = anchors
    loops = np.stack([p, p + a1 * e1, p + a1 * f1, p, p + a2 * e2, p + a2 * f2], axis=1)
    return loops, l2 <= _SIMPLE * l1


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _turned(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|M e| and the unit vector -M e / |M e|, zero where M e is, for k
    skew matrices M and k unit vectors e."""
    me = (m * e[:, None, :]).sum(axis=2)
    length = np.sqrt((me * me).sum(axis=1))
    return length, np.divide(-me, length[:, None], out=np.zeros_like(me),
                             where=length[:, None] > 0.0)


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

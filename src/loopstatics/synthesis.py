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
from .wedge import _A, _B, LoopPath, Point4, _normal_form

_ORIGIN4 = Point4(0.0, 0.0, 0.0, 0.0)

# The triangle's corners, each angle's cosine and sine taken on its own as a
# numpy scalar, so the corners keep their bits whatever the batch size.
_TURNS = [(np.cos(a), np.sin(a)) for a in 2.0 * np.pi * np.arange(3) / 3.0]

# A bivector is simple when its second plane's weight is at most this share
# of its first's: the rounding of the normal form, not a second plane.
_SIMPLE = 64 * np.finfo(float).eps


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


def _triangles(forces, moments, f_norms) -> np.ndarray:
    """Vertex rows (k, 3, 4) of the triangles of k axial bars about the
    origin, unchecked: equilateral, right-handed about the force; f_norms
    are the forces' nonzero scalar BLAS norms, passed in so that callers
    test the same number for zero.  The edges e_i = v_(i-1) - v_(i+1) of a
    triangle of circumradius R have sum e_i e_i^T = (9/2) R^2 times its
    plane's projector, so h_i = 2 e_i . m / ((9/2) R^2) is the min-norm
    solution of the h-plane shoelace equations, exact when m . normal = 0
    (always, for axial-consistent inputs)."""
    t1, t2 = _in_plane_frames(forces / f_norms[:, None])
    # equilateral triangle: area = (3*sqrt(3)/4) * R^2 with circumradius R
    radius = np.sqrt(4.0 * f_norms / (3.0 * np.sqrt(3.0)))[:, None]
    v = np.stack([radius * (c * t1 + s * t2) for c, s in _TURNS], axis=1)
    edges = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    h = (edges * moments[:, None, :]).sum(axis=2) / (2.25 * radius * radius)
    return np.concatenate([v, h[:, :, None]], axis=2)


def _normal_form_loops(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex rows (k, 6, 4) of one closed loop about the origin for each of
    k nonzero bivector rows (k x 6, in Bivector6 order), and which bivectors
    are simple, so that their loop is its first 3 rows.

    The triangle (0, a e, a f), for e, f an orthonormal pair of a unit simple
    bivector P, has area (a^2 / 2) P, so the loop
    (0, a1 e1, a1 f1, 0, a2 e2, a2 f2) with a_i^2 / 2 = |l_i| has the area
    l1 P1 + l2 P2 of `_normal_form`, P2 reversed where l2 < 0.  -P^2
    projects onto P's plane: e is its column with the largest diagonal,
    normalized, and f = -P e.  Every step is elementwise, so each row's bits
    do not depend on the other rows or on the BLAS."""
    scale, units, weights, simple = _normal_form(rows, _SIMPLE)
    a, b = units[:, 0], units[:, 1]
    planes = np.stack([np.hstack([a + b, a - b]), np.hstack([a - b, a + b])], axis=1) / 2.0
    planes[weights[:, 1] < 0.0, 1] *= -1.0
    p = np.zeros((len(rows), 2, 4, 4))
    p[:, :, _A, _B] = planes
    p[:, :, _B, _A] = -planes
    projector = -(p[:, :, :, :, None] * p[:, :, None, :, :]).sum(axis=3)
    column = projector.diagonal(axis1=2, axis2=3).argmax(axis=2)
    e = np.take_along_axis(projector, column[:, :, None, None], axis=3)[..., 0]
    e /= np.sqrt((e * e).sum(axis=2))[:, :, None]
    sides = np.sqrt(2.0 * scale[:, None] * np.abs(weights))[:, :, None]
    # the first vertex, -0.0, adds to any anchor exactly
    triangles = [np.full_like(e, -0.0), sides * e, sides * -(p * e[:, :, None, :]).sum(axis=3)]
    return np.stack(triangles, axis=2).reshape(-1, 6, 4), simple


def zero_bar_loop(normal, anchor: Point4 = _ORIGIN4, size: float = 1.0) -> LoopPath:
    """Bow-tie quadrilateral in the plane of the given unit normal whose two
    lobes cancel: every projected area is zero."""
    n = np.asarray(normal, dtype=float)
    n_len = float(np.linalg.norm(n))
    if abs(n_len - 1.0) > 1e-9:
        raise StructureError("plane normal must be a unit vector")
    (t1,), (t2,) = _in_plane_frames((n / n_len)[None])
    arms = np.column_stack([size * np.array([t1, -t1, t2, -t2]), np.zeros(4)])
    return LoopPath(tuple(map(Point4.from_array, anchor.to_array() + arms)))

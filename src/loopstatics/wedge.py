"""Closed loops in 4D and their six projected oriented areas.

Force diagrams live in an extended stress space with the three spatial
axes i, j, k plus a fourth axis h.  A closed loop there has six bivector
area components, one per coordinate plane, each computed by the shoelace
formula on the loop's projection.  The three spatial-plane areas encode a
force vector (Hodge dual, right-hand rule); the three h-plane areas encode
a total moment about the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, isfinite

import numpy as np

from .errors import StructureError

# (row, col) coordinate indices for the six projection planes, in the
# component order of Bivector6: jk, ki, ij, ih, jh, kh.
_PLANES = ((1, 2), (2, 0), (0, 1), (0, 3), (1, 3), (2, 3))
_A, _B = np.array(_PLANES).T


@dataclass(frozen=True)
class Point4:
    """Point in extended stress space: spatial x, y, z plus the h axis."""

    x: float
    y: float
    z: float
    h: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z", "h"):
            if not isfinite(getattr(self, name)):
                raise StructureError(f"non-finite coordinate {name}")

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.h], dtype=float)

    def translated(self, delta: "Point4") -> "Point4":
        return Point4(self.x + delta.x, self.y + delta.y, self.z + delta.z,
                      self.h + delta.h)

    @classmethod
    def from_array(cls, arr) -> "Point4":
        a = np.asarray(arr, dtype=float)
        if a.shape == (3,):
            return cls(float(a[0]), float(a[1]), float(a[2]), 0.0)
        if a.shape == (4,):
            return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))
        raise StructureError("expected 3 or 4 coordinates")


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline in 4D; the last vertex connects back to the first."""

    vertices: tuple[Point4, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise StructureError("a loop needs at least 3 vertices")
        for a, b in zip(verts, verts[1:] + verts[:1]):
            if a == b:
                raise StructureError("consecutive duplicate vertices in loop")

    def vertex_array(self) -> np.ndarray:
        return np.array([v.to_array() for v in self.vertices])

    def reversed(self) -> "LoopPath":
        return LoopPath(tuple(self.vertices[::-1]))

    def rolled(self, k: int) -> "LoopPath":
        """Same loop, re-indexed to start at vertex k."""
        k %= len(self.vertices)
        return LoopPath(self.vertices[k:] + self.vertices[:k])

    def translated(self, delta: Point4) -> "LoopPath":
        return LoopPath(tuple(v.translated(delta) for v in self.vertices))


@dataclass(frozen=True)
class Bivector6:
    """Six oriented areas of a 4D loop, named by projection plane.

    jk, ki, ij are the spatial planes (force); ih, jh, kh involve the
    h axis (total moment).  Negation flips every component.
    """

    jk: float = 0.0
    ki: float = 0.0
    ij: float = 0.0
    ih: float = 0.0
    jh: float = 0.0
    kh: float = 0.0

    def components(self) -> np.ndarray:
        return np.array([self.jk, self.ki, self.ij, self.ih, self.jh, self.kh])

    def norm(self) -> float:
        """Euclidean norm of the six areas, free of overflow and underflow
        in its squares."""
        return hypot(self.jk, self.ki, self.ij, self.ih, self.jh, self.kh)

    def __add__(self, other: "Bivector6") -> "Bivector6":
        return Bivector6(*(self.components() + other.components()))

    def __sub__(self, other: "Bivector6") -> "Bivector6":
        return Bivector6(*(self.components() - other.components()))

    def __neg__(self) -> "Bivector6":
        return Bivector6(-self.jk, -self.ki, -self.ij, -self.ih, -self.jh, -self.kh)

    def __mul__(self, k: float) -> "Bivector6":
        return Bivector6(*(k * self.components()))

    __rmul__ = __mul__

    @classmethod
    def from_force_moment(cls, force, moment) -> "Bivector6":
        """Pack a force and a total moment into plane areas (inverse of
        force_of / moment_of)."""
        f = np.asarray(force, dtype=float)
        m = np.asarray(moment, dtype=float)
        return cls(jk=f[0], ki=f[1], ij=f[2], ih=m[0], jh=m[1], kh=m[2])


ZERO_BIVECTOR = Bivector6()


@dataclass(frozen=True)
class DualChain:
    """Integer formal sum of loops; its area is the signed sum of term areas."""

    terms: tuple[tuple[int, LoopPath], ...] = ()

    def __post_init__(self):
        norm = []
        for coeff, loop in self.terms:
            icoeff = int(coeff)
            if icoeff != coeff:
                raise StructureError("loop coefficients must be integers")
            norm.append((icoeff, loop))
        object.__setattr__(self, "terms", tuple(norm))

    def __add__(self, other: "DualChain") -> "DualChain":
        return DualChain(self.terms + other.terms)

    def __len__(self) -> int:
        return len(self.terms)


def loop_area(loop: LoopPath) -> Bivector6:
    """Shoelace area of the loop's projection onto each of the six planes;
    unchanged (to rounding) by translating the whole loop."""
    return Bivector6(*_shoelace(loop.vertex_array(), [len(loop.vertices)])[0][0].tolist())


def _shoelace(vertices: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shoelace areas (k x 6, Bivector6 order) of k loops whose vertex rows
    lie back to back in `vertices`, sizes[i] rows each, with each loop's
    first row and the row that follows each row around its loop.  Each
    vertex is taken about its loop's first, so the areas do not lose the
    loop's bits to its distance from the origin."""
    starts = np.cumsum(sizes) - sizes
    following = np.arange(1, len(vertices) + 1)
    following[starts + sizes - 1] = starts
    d = vertices - vertices[np.repeat(starts, sizes)]
    nxt = d[following]
    areas = 0.5 * np.add.reduceat(d[:, _A] * nxt[:, _B] - d[:, _B] * nxt[:, _A], starts)
    return areas, starts, following


def chain_area(chain: DualChain) -> Bivector6:
    """Coefficient-weighted sum of term areas; linear in the chain."""
    total = ZERO_BIVECTOR
    for coeff, loop in chain.terms:
        total = total + coeff * loop_area(loop)
    return total


def force_of(b: Bivector6) -> np.ndarray:
    """Force vector dual to the spatial areas: a counter-clockwise loop in
    the ij plane (seen from +k) carries force along +k."""
    return np.array([b.jk, b.ki, b.ij])


def moment_of(b: Bivector6) -> np.ndarray:
    """Total moment about the origin, read from the h-plane areas."""
    return np.array([b.ih, b.jh, b.kh])


def is_simple(b: Bivector6, tol: float = 1e-9) -> bool:
    """True iff the bivector is realizable by a single planar loop: the
    second weight of its normal form is at most tol times the first, a rule
    that does not depend on the bivector's scale (`_normal_form`)."""
    return bool(_normal_form(b.components()[None], tol)[3][0])


def _normal_form(rows: np.ndarray, tol: float):
    """The normal form l1 P1 + l2 P2 of k x 6 bivector rows (f, m), from the
    self-dual split of each row over its largest entry, p = (f + m)/2 and
    q = (f - m)/2 (Dorst, Fontijne & Mann 2007): l1, l2 = |p| +- |q| and
    P1, P2 = ((a +- b)/2, (a -+ b)/2) for the unit vectors a, b of p, q (the
    x axis where zero).  Returns the largest entries, (a, b) (k x 2 x 3),
    (l1, l2) (k x 2) and whether |l2| <= tol l1: as |p|^2 - |q|^2 = f . m,
    the simple rows are the zero-pitch wrenches (Ball 1900)."""
    scale = np.abs(rows).max(axis=1)
    r = np.divide(rows, scale[:, None], out=np.zeros_like(rows), where=scale[:, None] > 0.0)
    halves = np.stack([r[:, :3] + r[:, 3:], r[:, :3] - r[:, 3:]], axis=1) / 2.0
    lengths = np.sqrt((halves * halves).sum(axis=2))[:, :, None]
    units = np.divide(halves, lengths, out=np.tile([1.0, 0.0, 0.0], (len(rows), 2, 1)),
                      where=lengths > 0.0)
    weights = np.hstack([lengths[:, 0] + lengths[:, 1], lengths[:, 0] - lengths[:, 1]])
    return scale, units, weights, np.abs(weights[:, 1]) <= tol * weights[:, 0]

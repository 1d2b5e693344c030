"""Built-in example structures: the K5 frame and the three-prism tensegrity.

The prism generator places six nodes on a cylinder (bottom triangle at
angles 0, 120, 240 degrees; top triangle rotated by the twist angle) with
three bottom cables, three top cables, three near-vertical cables and
three diagonal struts.  The prism becomes self-stressable at the
closed-form critical twist pi/2 - pi/n of an n-prism, pi/6 here (Tibert &
Pellegrino 2003), whatever its radius and height; the tests check it
against a numerical search for the dip of the smallest singular value of
the equilibrium matrix.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .chains import FrameGraph
from .errors import StructureError


def k5_frame(
    outer: list | None = None, center=(0.0, 0.0, 0.0)
) -> FrameGraph:
    """Complete graph on five nodes: four outer corners plus a hub.

    Default outer corners are a regular tetrahedron with the hub at its
    centroid.  Bars: four spokes s0..s3 (hub -> corner, listed first so
    the default spanning tree is the radial one), then the six outer
    edges o01..o23 (lower corner index -> higher).
    """
    if outer is None:
        outer = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    if len(outer) != 4:
        raise StructureError("K5 needs exactly 4 outer corners")
    nodes = [("c", tuple(map(float, center)))]
    nodes += [(f"o{i}", tuple(map(float, p))) for i, p in enumerate(outer)]
    edges = [(f"s{i}", "c", f"o{i}") for i in range(4)]
    edges += [(f"o{i}{j}", f"o{i}", f"o{j}") for i, j in combinations(range(4), 2)]
    return FrameGraph(nodes, edges)


def prism_frame(
    radius: float = 1.0, half_height: float = 0.5, twist: float = np.pi / 6
) -> FrameGraph:
    """Three-prism tensegrity topology on a cylinder; every node has
    valence four.

    Nodes b0..b2 sit at z = -half_height, t0..t2 at +half_height with the
    top triangle rotated by `twist` radians.  Bars: bottom cables bot0..2,
    top cables top0..2, near-vertical cables vert0..2 (bi -> ti) and
    diagonal struts strut0..2 (bi -> t(i+1)).
    """
    if radius <= 0:
        raise StructureError("radius must be positive")
    nodes = []
    for i in range(3):
        a = 2.0 * np.pi * i / 3.0
        nodes.append((f"b{i}", (radius * np.cos(a), radius * np.sin(a), -half_height)))
    for i in range(3):
        a = 2.0 * np.pi * i / 3.0 + twist
        nodes.append((f"t{i}", (radius * np.cos(a), radius * np.sin(a), half_height)))
    edges = [(f"bot{i}", f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]
    edges += [(f"top{i}", f"t{i}", f"t{(i + 1) % 3}") for i in range(3)]
    edges += [(f"vert{i}", f"b{i}", f"t{i}") for i in range(3)]
    edges += [(f"strut{i}", f"b{i}", f"t{(i + 1) % 3}") for i in range(3)]
    return FrameGraph(nodes, edges)


PRISM_STRUTS = ("strut0", "strut1", "strut2")
PRISM_CABLES = ("bot0", "bot1", "bot2", "top0", "top1", "top2", "vert0", "vert1", "vert2")


def prism_critical_twist(radius: float = 1.0, half_height: float = 0.5) -> float:
    """Twist angle at which the prism gains its axial self-stress and its
    mechanism: pi/2 - pi/3 = pi/6 for any radius and any non-zero
    half-height.  A flat prism (half-height 0) has three self-stresses at
    every twist, so it has no critical twist.
    """
    if radius <= 0:
        raise StructureError("radius must be positive")
    if half_height == 0:
        raise StructureError("half-height must be non-zero: a flat prism has "
                             "no critical twist")
    return math.pi / 6

"""Seeded structure documents for the benchmark's workloads.

Every document is built here from a numpy Generator, never by the program,
so the program only ever receives generated inputs.  Each generator also
says what the frame's statics must be by construction (`s`, `m`), which
the checker holds the program's report to.
"""

from __future__ import annotations

import math

import numpy as np

STRUCTURE_FORMAT = "frame-structure/1"

# A ±0.15 jitter on a unit grid keeps every lattice generic (m = 0) with a
# rank gap of ten orders of magnitude, so rank decisions are never close.
LATTICE_JITTER = 0.15

# Twists kept this far from the critical pi/6 leave the prism's smallest
# singular value far above the rank tolerance, so s = 0 is decisive.
NONCRITICAL_TWISTS = ((0.15, 0.40), (0.65, 0.95))


def _document(nodes, bars, metadata) -> dict:
    return {
        "format": STRUCTURE_FORMAT,
        "metadata": metadata,
        "nodes": [
            {"id": nid, "x": float(p[0]), "y": float(p[1]), "z": float(p[2])}
            for nid, p in nodes
        ],
        "bars": [{"id": bid, "tail": t, "head": h} for bid, t, h in bars],
    }


def lattice(rng: np.random.Generator, side: int) -> tuple[dict, int, int]:
    """Perturbed cubic lattice, `side` nodes per edge, with one diagonal in
    every unit face square.

    Every cube has all six faces triangulated, so each cube is rigid and
    so is the whole lattice: m = 0 and s = e - 3v + 6.  Diagonals run at
    random, except that the squares at the lattice's eight corners take
    the diagonal through the corner: a corner held by its three axis bars
    alone makes those bars zero in every self-stress.
    """
    def nid(i, j, k):
        return f"n{i}_{j}_{k}"

    def is_corner(p):
        return all(x in (0, side - 1) for x in p)

    grid = [(i, j, k) for i in range(side) for j in range(side) for k in range(side)]
    nodes = [
        (nid(*c), np.array(c, float) + rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, 3))
        for c in grid
    ]
    ends = []
    for i, j, k in grid:
        for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            if max(i + di, j + dj, k + dk) < side:
                ends.append((nid(i, j, k), nid(i + di, j + dj, k + dk)))
    for normal in range(3):
        a, b = (ax for ax in range(3) if ax != normal)
        for c in grid:
            if c[a] + 1 >= side or c[b] + 1 >= side:
                continue
            ca, cb, cab = list(c), list(c), list(c)
            ca[a] += 1
            cb[b] += 1
            cab[a] += 1
            cab[b] += 1
            through_c = rng.random() < 0.5
            if is_corner(c) or is_corner(cab):
                through_c = True
            elif is_corner(ca) or is_corner(cb):
                through_c = False
            if through_c:
                ends.append((nid(*c), nid(*cab)))
            else:
                ends.append((nid(*ca), nid(*cb)))
    bars = [(f"b{n}", t, h) for n, (t, h) in enumerate(ends)]
    doc = _document(nodes, bars, {"example": "lattice", "side": side})
    return doc, len(bars) - 3 * len(nodes) + 6, 0


def k5(rng: np.random.Generator) -> tuple[dict, int, int]:
    """K5 with jittered tetrahedron corners and a hub near their centroid.

    The hub stays inside the tetrahedron, so the one axial self-stress
    loads every bar well away from zero: s = 1, m = 0.
    """
    outer = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)
    outer += rng.uniform(-0.3, 0.3, outer.shape)
    hub = rng.uniform(-0.2, 0.2, 3)
    nodes = [("c", hub)] + [(f"o{i}", p) for i, p in enumerate(outer)]
    bars = [(f"s{i}", "c", f"o{i}") for i in range(4)]
    bars += [(f"o{i}{j}", f"o{i}", f"o{j}") for i in range(4) for j in range(i + 1, 4)]
    return _document(nodes, bars, {"example": "k5"}), 1, 0


PRISM_STRUTS = ("strut0", "strut1", "strut2")


def prism(rng: np.random.Generator, critical: bool) -> tuple[dict, int, int]:
    """Three-prism tensegrity of random size, at the closed-form critical
    twist pi/6 (s = m = 1) or at a random non-critical twist (s = m = 0)."""
    radius = rng.uniform(0.8, 1.5)
    half_height = rng.uniform(0.3, 0.8)
    if critical:
        twist = math.pi / 6
    else:
        lo, hi = NONCRITICAL_TWISTS[int(rng.integers(len(NONCRITICAL_TWISTS)))]
        twist = rng.uniform(lo, hi)
    nodes = []
    for level, z, offset in (("b", -half_height, 0.0), ("t", half_height, twist)):
        for i in range(3):
            a = 2.0 * math.pi * i / 3.0 + offset
            nodes.append((f"{level}{i}", (radius * math.cos(a), radius * math.sin(a), z)))
    bars = [(f"bot{i}", f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]
    bars += [(f"top{i}", f"t{i}", f"t{(i + 1) % 3}") for i in range(3)]
    bars += [(f"vert{i}", f"b{i}", f"t{i}") for i in range(3)]
    bars += [(f"strut{i}", f"b{i}", f"t{(i + 1) % 3}") for i in range(3)]
    metadata = {"example": "three-prism", "twist": float(twist)}
    s = 1 if critical else 0
    return _document(nodes, bars, metadata), s, s

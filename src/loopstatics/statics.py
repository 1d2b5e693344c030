"""Classical pin-jointed statics: equilibrium matrix, SVD null space,
Maxwell-Calladine counts, and conversion of an axial force vector into a
loop-resultant state.

This module is the independent cross-check for the loop formalism: the
null space of the equilibrium matrix gives the purely axial self-stresses
of the frame treated as a truss, and converting such a vector into
per-loop resultants must reproduce every bar force by chain summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .chains import EdgeId, FrameGraph
from .cycles import FundamentalCycle
from .errors import StructureError
from .selfstress import SelfStressState, _bar_frames, _node_array
from .wedge import Bivector6


@dataclass(frozen=True, eq=False)
class EquilibriumMatrix:
    """Dense 3v x e matrix: bar (t -> h) puts +unit at head rows, -unit at
    tail rows, so A q = 0 is nodal force balance with tension-positive q."""

    matrix: np.ndarray
    node_ids: tuple
    edge_ids: tuple


@dataclass(frozen=True)
class AxialForceVector:
    """Axial force per bar, tension-positive; absent bars carry zero."""

    forces: Mapping  # edge id -> float

    def __getitem__(self, edge: EdgeId) -> float:
        return float(self.forces.get(edge, 0.0))

    def as_array(self, edge_ids) -> np.ndarray:
        return np.array([self[e] for e in edge_ids])


@dataclass(frozen=True, eq=False)
class StaticsSummary:
    """SVD analysis of one frame's equilibrium matrix."""

    s: int  # independent axial self-stresses
    m: int  # mechanisms beyond the 6 rigid-body motions
    rank: int
    sigma_min: float | None  # smallest retained singular value
    singular_values: np.ndarray
    null_basis: np.ndarray  # s x e, orthonormal rows, columns in edge_ids order
    edge_ids: tuple

    def axial_vector(self, k: int) -> AxialForceVector:
        """Row k of the null basis as bar forces."""
        return AxialForceVector(dict(zip(self.edge_ids, self.null_basis[k])))

    @property
    def selfstress_basis(self) -> tuple:
        """Every null-basis row as an AxialForceVector."""
        return tuple(self.axial_vector(k) for k in range(self.s))


def equilibrium_matrix(graph: FrameGraph) -> EquilibriumMatrix:
    rows = {n: 3 * i for i, n in enumerate(graph.node_ids)}
    a = np.zeros((3 * graph.v, graph.e))
    for col, edge in enumerate(graph.edge_ids):
        u = graph.direction(edge)  # raises on coincident endpoints
        tail, head = graph.ends(edge)
        a[rows[head] : rows[head] + 3, col] = u
        a[rows[tail] : rows[tail] + 3, col] = -u
    return EquilibriumMatrix(matrix=a, node_ids=graph.node_ids, edge_ids=graph.edge_ids)


def analyze_statics(graph: FrameGraph, rtol: float = 1e-9) -> StaticsSummary:
    """Rank, self-stress and mechanism counts, and an orthonormal null basis.

    Singular values below rtol times the largest are treated as zero.  Each
    null-basis row is signed so that its largest-magnitude entry (the first
    one, on ties) is positive.
    """
    eq = equilibrium_matrix(graph)
    _, sigma, vt = np.linalg.svd(eq.matrix)
    if sigma.size and sigma[0] > 0:
        rank = int(np.sum(sigma > rtol * sigma[0]))
    else:
        rank = 0
    s = graph.e - rank
    m = 3 * graph.v - 6 - rank
    null = vt[rank:].copy()
    if s:
        lead = null[np.arange(s), np.abs(null).argmax(axis=1)]
        null[lead < 0] *= -1.0
    sigma_min = float(sigma[rank - 1]) if rank > 0 else None
    return StaticsSummary(
        s=s,
        m=m,
        rank=rank,
        sigma_min=sigma_min,
        singular_values=sigma,
        null_basis=null,
        edge_ids=eq.edge_ids,
    )


def axial_selfstress_basis(graph: FrameGraph, rtol: float = 1e-9) -> list[AxialForceVector]:
    """Orthonormal basis of axial self-stresses; empty when there are none."""
    return list(analyze_statics(graph, rtol=rtol).selfstress_basis)


def maxwell_calladine(graph: FrameGraph, rtol: float = 1e-9) -> tuple[int, int]:
    """(s, m) with s - m = e - 3v + 6 for a free-standing 3D frame."""
    if graph.v < 3:
        raise StructureError("rigid-body count needs at least 3 nodes")
    summary = analyze_statics(graph, rtol=rtol)
    return summary.s, summary.m


def axial_to_state(
    graph: FrameGraph,
    basis: list[FundamentalCycle],
    q: AxialForceVector,
    tol: float = 1e-8,
) -> SelfStressState:
    """Loop-resultant state carrying the given axial forces.

    Each basis loop gets the resultant of its generator bar: force q*u
    along the bar, total moment midpoint x force, for all loops in one
    array pass.  Requires q to be in the null space of the equilibrium
    matrix; chain summation then reproduces q on every bar, tree bars
    included.
    """
    unknown = [e for e in q.forces if not graph.has_edge(e)]
    if unknown:
        raise StructureError(
            "axial vector names unknown bars: " + ", ".join(repr(e) for e in unknown)
        )
    units, mids = _bar_frames(graph)
    qv = q.as_array(graph.edge_ids)
    residual = float(np.linalg.norm(_node_array(graph, qv[:, None] * units)))  # |A q|
    scale = float(np.sqrt(2 * graph.e) * np.linalg.norm(qv))
    if residual > tol * max(scale, 1e-300):
        raise StructureError(
            f"axial force vector is not a self-stress (|A q| = {residual:.3e})"
        )
    col = {bar: i for i, bar in enumerate(graph.edge_ids)}
    gens = np.array([col[c.generator] for c in basis], dtype=int)
    force = qv[gens, None] * units[gens]
    rows = np.hstack([force, np.cross(mids[gens], force)])
    return SelfStressState(
        {c.generator: Bivector6(*row) for c, row in zip(basis, rows.tolist())}
    )

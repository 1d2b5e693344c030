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
from .selfstress import SelfStressState, _node_array
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
    a = _block(graph.units, graph.end_rows, 0, 3 * graph.v, np.arange(graph.e))
    return EquilibriumMatrix(matrix=a, node_ids=graph.node_ids, edge_ids=graph.edge_ids)


def _block(units, ends, r0: int, r1: int, cols, order: str = "C") -> np.ndarray:
    """A[r0:r1, cols] of the equilibrium matrix of bars with these e x 3
    unit vectors and e x 2 (tail, head) node indices.  BLAS products round
    by layout, so `order` is that of the slice of the dense A it stands for."""
    rows = 3 * ends[cols][:, :, None] + np.arange(3) - r0  # bars x (tail, head) x 3
    inside = (rows >= 0) & (rows < r1 - r0)
    block = np.zeros((r1 - r0, len(rows)), order=order)
    u = units[cols]
    block[rows[inside], inside.nonzero()[0]] = np.stack([-u, u], axis=1)[inside]
    return block


def analyze_statics(graph: FrameGraph, rtol: float = 1e-9) -> StaticsSummary:
    """Rank, self-stress and mechanism counts, and an orthonormal null basis.

    Singular values at or below rtol times the largest are treated as zero;
    rtol is at least numpy's default rank tolerance, max(3v, e) machine
    epsilons.

    The null basis is the force method's: the redundant bars F are the bars
    whose column of the equilibrium matrix depends on the columns before it
    (in bar input order), the reduced form N is the null basis with
    N[:, F] = I, and the rows are N^T times the inverse of the positive-
    diagonal R of its QR, with no Q formed.  N and one correction step take
    one pseudo-inverse of the other (basic) columns.  The basis is thus a
    function of the frame alone, up to rounding.

    The dense equilibrium matrix A lives only through the SVD, whose input
    and copy of it are the peak.  The basis steps build with `_block` only
    the blocks of A they use, 64 columns or 192 rows at a time, and hold no
    more than about two factors the size of A's basic columns.

    The counts take the frame's 6 rigid-body motions, so a frame with fewer
    than 3 nodes, or with every node on one line, is a StructureError.
    """
    pos = graph.positions
    if graph.v < 3 or np.linalg.matrix_rank(pos - pos.mean(axis=0)) < 2:
        raise StructureError(
            "statics need at least 3 nodes not on one line: the counts take 6 rigid-body motions"
        )
    rows = 3 * graph.v
    a = _block(graph.units, graph.end_rows, 0, rows, np.arange(graph.e))
    # The frames live on through the SVD into the basis steps.  Copies made
    # now, with A allocated, keep clear of the freed heap that, in a process
    # that runs the statics again and again, takes the SVD's copy of A and
    # its work buffer; with the first arrays kept, the benchmark's
    # lattice-axial worker peaked at ~82 MB instead of ~70 MB on 3 of 5 seeds.
    units, ends = graph.units.copy(), graph.end_rows.copy()
    sigma = np.linalg.svd(a, compute_uv=False)
    # a tolerance below numpy's default rank tolerance would count rounding
    # noise as rank, and let it pass for independent columns
    cut = max(rtol, max(a.shape) * np.finfo(float).eps) * sigma[0] if sigma.size else 0.0
    del a
    rank = int(np.sum(sigma > cut))
    s = graph.e - rank
    null = _force_method_basis(units, ends, rows, cut, s) if s else np.zeros((0, graph.e))
    return StaticsSummary(
        s=s,
        m=rows - 6 - rank,
        rank=rank,
        sigma_min=float(sigma[rank - 1]) if rank > 0 else None,
        singular_values=sigma,
        null_basis=null,
        edge_ids=graph.edge_ids,
    )


# Columns taken together by the redundant-bar search, whose Python
# iterations scale with blocks plus redundant bars, and by the basis's
# products and orthonormalization, whose work arrays are this wide.
_BLOCK = 64
# Rows of the equilibrium matrix built at a time for the product A @ v.
_ROWS = 192


def _force_method_basis(units: np.ndarray, ends: np.ndarray, m: int, cut: float,
                        s: int) -> np.ndarray:
    """The s x e orthonormalized reduced form of the null space of the
    m-row equilibrium matrix A of bars with these unit vectors and end
    nodes; `cut` is the rank cut that a column's scaled residual must
    exceed.  N^T is I on the redundant rows F and -solve @ A[:, F] on the
    basic rows.

    At once it holds solve (basic bars x 3v), N^T (e x s) and, for the
    correction, A @ v (3v x s); the products with solve, the blocks of A
    and the orthonormalization's work are 64 columns wide."""
    solve, redundant = _redundant_bars(units, ends, m, cut)
    if redundant.size != s:
        raise StructureError(
            f"rank cut is ambiguous at this tolerance: the singular values give "
            f"s = {s}, but {redundant.size} bars depend on the bars before them"
        )
    e = units.shape[0]
    basic = np.ones(e, dtype=bool)
    basic[redundant] = False
    v = np.zeros((e, s))  # N^T
    v[redundant, np.arange(s)] = 1.0
    for j in range(0, s, _BLOCK):
        cols = slice(j, j + _BLOCK)
        v[basic, cols] = -(solve @ _block(units, ends, 0, m, redundant[cols], order="F"))
    _orthonormalize(v)
    # one correction step: re-solve the basic part against the residual
    residual = _product(units, ends, m, v)
    for j in range(0, s, _BLOCK):
        cols = slice(j, j + _BLOCK)
        v[basic, cols] -= solve @ residual[:, cols]
    del solve, residual  # frees their memory before the second pass
    _orthonormalize(v)
    return v.T


def _product(units: np.ndarray, ends: np.ndarray, m: int, v: np.ndarray) -> np.ndarray:
    """A @ v for the m-row equilibrium matrix A, one block of _ROWS rows of
    A at a time; under one BLAS thread it is the full product to the bit."""
    out = np.empty((m, v.shape[1]))
    every = np.arange(units.shape[0])
    for r0 in range(0, m, _ROWS):
        out[r0:r0 + _ROWS] = _block(units, ends, r0, min(r0 + _ROWS, m), every) @ v
    return out


def _redundant_bars(units: np.ndarray, ends: np.ndarray, m: int, cut: float) -> tuple:
    """Blocked Gram-Schmidt, in order, over the columns of the m-row
    equilibrium matrix A of bars with these unit vectors and end nodes;
    each block of 64 columns, A[:, cols], is built as it is reached.

    Returns the pseudo-inverse of the independent (basic) columns, rinv @ qt,
    and the sorted indices of the redundant columns.  qt holds orthonormal
    rows spanning the basic columns and rinv is the inverse of their
    triangular factor (A[:, basic] = qt.T @ r).  A column is redundant
    when its residual against the earlier basic columns, over the norm of
    (its coefficients on them, -1), is at most `cut`: that is the norm of
    a unit combination of the columns up to it, and unlike the bare
    residual it does not grow with the rounding of large coefficients.

    Each block is projected against the basis, and the QR of its residuals
    gives them in a small orthonormal frame, where `_select_in_order` picks
    the basic columns.  Their directions are projected against the basis
    a second time before they join it.

    At once it holds qt and rinv, each up to min(m, e) x m, and one block's
    work.  solve is formed 64 columns at a time over qt, whose rows it
    returns a view of, so rinv, qt and solve are never all live."""
    e = units.shape[0]
    size = min(m, e)
    qt, rinv = np.empty((size, m)), np.zeros((size, size))
    rank, redundant = 0, []
    for start in range(0, e, _BLOCK):
        cols = np.arange(start, min(start + _BLOCK, e))
        q = qt[:rank]
        block = _block(units, ends, 0, m, cols, order="F")
        used = np.flatnonzero(block.any(axis=1))  # A is sparse
        c = q[:, used] @ block[used]
        x = block - q.T @ c  # A[:, cols] = q.T @ c + x
        # a bare residual at most `cut` is redundant whatever its coefficients
        keep = _column_sq(x) > cut * cut
        redundant += cols[~keep].tolist()
        cols, x = cols[keep], x[:, keep]
        coef = rinv[:rank, :rank] @ c[:, keep]  # on the basic columns
        z = np.linalg.qr(x, mode="r")
        basic, dropped = _select_in_order(z, coef, cut)
        redundant += cols[dropped].tolist()
        if not basic.size:
            continue
        x = x[:, basic]
        v = x @ np.linalg.inv(np.linalg.qr(z[:, basic], mode="r"))  # orthonormal to rounding
        y = _orthonormal(v - q.T @ (q @ v))
        d_inv = np.linalg.inv(y.T @ x)
        p = basic.size
        qt[rank:rank + p] = y.T
        rinv[:rank, rank:rank + p] = -coef[:, basic] @ d_inv
        rinv[rank:rank + p, rank:rank + p] = d_inv
        rank += p
    solve = qt[:rank]
    for j in range(0, m, _BLOCK):  # rinv @ qt, written over qt
        solve[:, j:j + _BLOCK] = rinv[:rank, :rank] @ solve[:, j:j + _BLOCK]
    return solve, np.array(sorted(redundant), dtype=int)


def _select_in_order(z: np.ndarray, coef: np.ndarray, cut: float) -> tuple:
    """(basic, redundant) positions among a block's columns, given in an
    orthonormal frame as z, with `coef` their coefficients on the earlier
    basic columns.  A QR accepts the prefix up to the first redundant
    column; the rest, in the QR's frame past the prefix, go round again
    with their coefficients on the prefix added."""
    idx, basic, redundant = np.arange(z.shape[1]), [], []
    while idx.size:
        keep = _column_sq(z) > cut * cut * (1.0 + _column_sq(coef))
        redundant += idx[~keep].tolist()
        idx, z, coef = idx[keep], z[:, keep], coef[:, keep]
        if not idx.size:
            break
        r = np.linalg.qr(z, mode="r")
        diag = np.abs(np.diagonal(r))
        small = np.flatnonzero(diag <= cut)
        p = int(small[0]) if small.size else diag.size
        # columns of the inverse factor of [basic columns, prefix]
        inv_r = np.linalg.inv(r[:p, :p])
        small = np.flatnonzero((_column_sq(coef[:, :p] @ inv_r) + _column_sq(inv_r)) * (cut * cut) >= 1.0)
        p = int(small[0]) if small.size else p
        basic += idx[:p].tolist()
        if p == idx.size:
            break
        redundant.append(int(idx[p]))
        rest, inv_r = slice(p + 1, None), inv_r[:p, :p]
        on_prefix = inv_r @ r[:p, rest]
        coef = np.vstack([coef[:, rest] - coef[:, :p] @ on_prefix, on_prefix])
        idx, z = idx[rest], r[p:, rest]
    return np.array(basic, dtype=int), np.array(redundant, dtype=int)


def _column_sq(x: np.ndarray) -> np.ndarray:
    """Squared norm of every column."""
    return np.einsum("ij,ij->j", x, x)


def _orthonormal(x: np.ndarray) -> np.ndarray:
    """Q of x = QR with R's diagonal positive, as x times the inverse of R
    (flipping a row of R flips that column of its inverse); no Q is formed."""
    r_inv = np.linalg.inv(np.linalg.qr(x, mode="r"))
    r_inv *= np.where(np.diagonal(r_inv) < 0, -1.0, 1.0)
    return x @ r_inv


def _orthonormalize(x: np.ndarray) -> None:
    """Overwrite x with the Q of x = QR, R's diagonal positive, by block
    Gram-Schmidt run twice (Barlow & Smoktunowicz 2013): each block of 64
    columns is projected against the columns before it and passed through
    `_orthonormal`, twice.  Two passes keep Q orthonormal to rounding
    where one leaves an error that grows with x's condition number.

    Besides x it holds one block's projection and orthonormalization."""
    for j in range(0, x.shape[1], _BLOCK):
        q, block = x[:, :j], x[:, j:j + _BLOCK]
        for _ in range(2):
            if j:
                block -= q @ (q.T @ block)
            block[...] = _orthonormal(block)


def axial_selfstress_basis(graph: FrameGraph, rtol: float = 1e-9) -> list[AxialForceVector]:
    """Orthonormal basis of axial self-stresses; empty when there are none."""
    return list(analyze_statics(graph, rtol=rtol).selfstress_basis)


def maxwell_calladine(graph: FrameGraph, rtol: float = 1e-9) -> tuple[int, int]:
    """(s, m) with s - m = e - 3v + 6 for a free-standing 3D frame."""
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
    units, mids = graph.units, graph.midpoints
    qv = q.as_array(graph.edge_ids)
    residual = float(np.linalg.norm(_node_array(graph, qv[:, None] * units)))  # |A q|
    scale = float(np.sqrt(2 * graph.e) * np.linalg.norm(qv))
    if residual > tol * max(scale, 1e-300):
        raise StructureError(
            f"axial force vector is not a self-stress (|A q| = {residual:.3e})"
        )
    gens = np.array([graph.columns[c.generator] for c in basis], dtype=int)
    force = qv[gens, None] * units[gens]
    rows = np.hstack([force, np.cross(mids[gens], force)])
    return SelfStressState(
        {c.generator: Bivector6(*row) for c, row in zip(basis, rows.tolist())}
    )

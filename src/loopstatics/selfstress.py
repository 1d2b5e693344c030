"""States of self-stress expressed as one resultant bivector per basis loop.

Assigning any six-component resultant to every basis loop defines a valid
self-stress: the resultant carried across a cut on any bar is the signed
sum of the resultants of the loops that bar belongs to, and node balance
then holds identically because every basis loop has zero boundary.

Sign conventions
----------------
* The resultant acts on the positive cut face of a bar, the face the
  bar's own direction exits; a fundamental cycle traverses its generator
  in the bar direction, matching this choice.
* Node incidence sign: +1 for a bar directed into the node, -1 out.
* The axial scalar is force dotted with the bar direction, so tension is
  positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .chains import EdgeId, FrameGraph
from .cycles import FundamentalCycle
from .errors import StateError
from .wedge import ZERO_BIVECTOR, Bivector6, force_of, moment_of


@dataclass(frozen=True)
class SelfStressState:
    """Map from cycle id (generator bar id) to the loop's resultant."""

    resultants: Mapping  # cycle id -> Bivector6

    def resultant(self, cycle_id) -> Bivector6:
        try:
            return self.resultants[cycle_id]
        except KeyError:
            raise StateError(f"state has no resultant for cycle {cycle_id!r}") from None

    def require_complete(self, basis: list[FundamentalCycle]) -> None:
        """Exactly one resultant per basis loop: none missing, none unknown."""
        gens = {c.generator for c in basis}
        missing = [c.generator for c in basis if c.generator not in self.resultants]
        unknown = [k for k in self.resultants if k not in gens]
        if missing or unknown:
            what = "is missing resultants for" if missing else "has resultants for unknown"
            ids = ", ".join(repr(i) for i in missing or unknown)
            raise StateError(f"state {what} cycles: {ids}")

    def __add__(self, other: "SelfStressState") -> "SelfStressState":
        keys = set(self.resultants) | set(other.resultants)
        return SelfStressState(
            {
                k: self.resultants.get(k, ZERO_BIVECTOR)
                + other.resultants.get(k, ZERO_BIVECTOR)
                for k in keys
            }
        )

    def __mul__(self, k: float) -> "SelfStressState":
        return SelfStressState({c: k * b for c, b in self.resultants.items()})

    __rmul__ = __mul__

    @classmethod
    def zero(cls, basis: list[FundamentalCycle]) -> "SelfStressState":
        return cls({c.generator: ZERO_BIVECTOR for c in basis})


@dataclass(frozen=True, eq=False)
class BarResultant:
    """Force and total moment (about the origin) on a bar's positive cut face."""

    bar: EdgeId
    bivector: Bivector6
    force: np.ndarray
    total_moment: np.ndarray

    @classmethod
    def of(cls, bar: EdgeId, b: Bivector6) -> "BarResultant":
        return cls(bar=bar, bivector=b, force=force_of(b), total_moment=moment_of(b))


# -- array core: bars, nodes and loops numbered in graph and basis order --


def _bar_array(state: SelfStressState, basis: list, graph: FrameGraph) -> np.ndarray:
    """Chain summation for every bar at once: the e x 6 array B = C^T R of
    bar (force, total moment) rows, where C is the signed loop x bar
    incidence of the basis and R the c x 6 state."""
    state.require_complete(basis)
    col = graph.columns
    triplets = [
        (k, col[bar], c) for k, cyc in enumerate(basis) for bar, c in cyc.chain.items()
    ]
    loops, bars, signs = np.array(triplets, dtype=int).reshape(-1, 3).T
    resultants = np.array([state.resultant(c.generator).components() for c in basis])
    b = np.zeros((graph.e, 6))
    # add.at accumulates in triplet order, i.e. in basis order per bar
    np.add.at(b, bars, signs[:, None] * resultants.reshape(-1, 6)[loops])
    return b


def _node_array(graph: FrameGraph, b: np.ndarray) -> np.ndarray:
    """Node balance for every node: the v x k incidence-signed sum of the
    e x k bar rows, accumulated per node in bar input order."""
    signs = np.tile([-1.0, 1.0], graph.e)[:, None]  # (tail, head) of each bar
    n = np.zeros((graph.v, b.shape[1]))
    np.add.at(n, graph.end_rows.ravel(), signs * np.repeat(b, 2, axis=0))
    return n


def _axial_verdicts(b: np.ndarray, units, mids, tol: float):
    """The axial test for bars judged together, as arrays, given their
    e x 6 (force, total moment) rows.

    A bar's force must be parallel to it, and its total moment must equal
    midpoint x force, each within tol times the largest bar force, or the
    largest max(|m|, |r| |f|), among the bars judged.  Returns
    (force_parallel, moment_matches, axial_force, zero, scales); tension is
    positive, and a Zero Bar is one whose force and moment are themselves
    within those bounds.  Norms are taken of the rows over one power of
    two, 2**shift, which brings the largest entry of b near 1: exact, so
    the verdicts do not change when the state is scaled, and no square
    underflows.  scales is (shift, force scale, moment scale), the two
    largest norms over 2**shift.
    """
    forces, moments = b[:, :3], b[:, 3:]
    shift = -np.frexp(np.abs(b).max(initial=0.0))[1]

    def norms(rows):
        return np.linalg.norm(np.ldexp(rows, shift), axis=1)

    axial = np.array([f @ u for f, u in zip(forces, units)])
    f_norm = norms(forces)
    lever = np.linalg.norm(mids, axis=1) * f_norm
    m_norm = norms(moments)
    m_own = np.maximum(m_norm, lever)
    perp = norms(forces - axial[:, None] * units)
    m_err = norms(moments - np.cross(mids, forces))
    f_scale, m_scale = f_norm.max(initial=0.0), m_own.max(initial=0.0)
    bound_f, bound_m = tol * f_scale, tol * m_scale
    zero = (f_norm <= bound_f) & (m_norm <= bound_m)
    return perp <= bound_f, m_err <= bound_m, axial, zero, (shift, f_scale, m_scale)


def _judged_bars(state: SelfStressState, basis: list, graph: FrameGraph, tol: float):
    """Chain summation, bar frames and axial verdicts of every bar:
    (b, mids, force_parallel, moment_matches, axial_force, zero, scales),
    with b as `_bar_array` and the rest as `_axial_verdicts` give them."""
    b = _bar_array(state, basis, graph)
    return (b, graph.midpoints, *_axial_verdicts(b, graph.units, graph.midpoints, tol))


def all_bar_resultants(
    state: SelfStressState, basis: list[FundamentalCycle], graph: FrameGraph
) -> dict:
    rows = zip(graph.edge_ids, _bar_array(state, basis, graph))
    return {bar: BarResultant.of(bar, Bivector6(*row)) for bar, row in rows}


@dataclass(frozen=True)
class AxialCheck:
    """Per-bar verdict: force along the bar and no internal bending/torsion."""

    bar: EdgeId
    force_parallel: bool
    moment_matches: bool
    axial_force: float  # tension-positive

    @property
    def is_axial(self) -> bool:
        return self.force_parallel and self.moment_matches


def check_axial(
    state: SelfStressState,
    graph: FrameGraph,
    basis: list[FundamentalCycle],
    tol: float = 1e-9,
) -> dict:
    """Axial test for every bar, judged together by `_axial_verdicts`.

    A bar passes when its force is parallel to the bar and its total moment
    equals midpoint x force, i.e. its internal bending and torsion vanish.
    """
    _, _, parallel, matches, axial, _, _ = _judged_bars(state, basis, graph, tol)
    return {
        bar: AxialCheck(bar, bool(parallel[i]), bool(matches[i]), float(axial[i]))
        for i, bar in enumerate(graph.edge_ids)
    }


def selfstress_dimension(graph: FrameGraph) -> int:
    """Independent self-stress count of the fully welded frame: six per
    basis loop."""
    return 6 * (graph.e - graph.v + 1)

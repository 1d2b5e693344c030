"""Integer chain algebra over the nodes and directed bars of a frame.

A rigid-jointed frame is modelled as a directed graph: nodes carry 3D
positions, bars carry an orientation (tail -> head).  Formal integer sums
of nodes (`Chain0`) and of bars (`Chain1`) form free Abelian groups, and
the boundary operator sends each bar to head-minus-tail.  Loops are the
chains with zero boundary; they need not be connected walks.  All chain
arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import StructureError

NodeId = Hashable
EdgeId = Hashable


class FrameGraph:
    """Directed graph of a frame: nodes with 3D positions, directed bars.

    Invariants enforced at construction: unique node and bar ids, bar
    endpoints exist, no self-loops, the graph is connected.  Parallel bars
    between the same node pair are allowed.  Instances are immutable.
    """

    def __init__(
        self,
        nodes: Iterable[tuple[NodeId, Sequence[float]]],
        edges: Iterable[tuple[EdgeId, NodeId, NodeId]],
    ):
        rows: dict[NodeId, int] = {}  # node id -> row of positions
        coords: list[np.ndarray] = []
        for node_id, pos in nodes:
            if node_id in rows:
                raise StructureError(f"duplicate node id {node_id!r}")
            p = np.asarray(pos, dtype=float)
            if p.shape != (3,):
                raise StructureError(
                    f"node {node_id!r}: position must have 3 coordinates"
                )
            if not np.all(np.isfinite(p)):
                raise StructureError(f"node {node_id!r}: non-finite coordinates")
            rows[node_id] = len(coords)
            coords.append(p)
        if not rows:
            raise StructureError("graph has no nodes")

        ends: dict[EdgeId, tuple[NodeId, NodeId]] = {}
        for edge_id, tail, head in edges:
            if edge_id in ends:
                raise StructureError(f"duplicate bar id {edge_id!r}")
            for end in (tail, head):
                if end not in rows:
                    raise StructureError(
                        f"bar {edge_id!r} references unknown node {end!r}"
                    )
            if tail == head:
                raise StructureError(f"bar {edge_id!r} is a self-loop at {tail!r}")
            ends[edge_id] = (tail, head)

        self.node_ids: tuple[NodeId, ...] = tuple(rows)
        self.edge_ids: tuple[EdgeId, ...] = tuple(ends)
        self._rows = rows
        self._ends = ends
        # The frame as read-only arrays, built once: node positions (v x 3)
        # in node_ids order and every bar's (tail, head) node rows (e x 2) in
        # edge_ids order; `columns` maps a bar id to its row of end_rows.
        # The bars' `units` and `midpoints` are built at first use.
        self.positions = np.array(coords)
        self.end_rows = np.array(
            [rows[end] for pair in ends.values() for end in pair], dtype=int
        ).reshape(-1, 2)
        self.positions.flags.writeable = self.end_rows.flags.writeable = False
        self.columns = MappingProxyType({bar: i for i, bar in enumerate(ends)})

        incident: dict[NodeId, list[EdgeId]] = {n: [] for n in rows}
        for edge_id, (tail, head) in ends.items():
            incident[tail].append(edge_id)
            incident[head].append(edge_id)
        self._incident = {n: tuple(es) for n, es in incident.items()}

        unreachable = self._unreachable_from(self.node_ids[0])
        if unreachable:
            raise StructureError(
                "graph is disconnected; unreachable nodes: "
                + ", ".join(repr(n) for n in unreachable)
            )

    def _unreachable_from(self, start: NodeId) -> list[NodeId]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for e in self._incident[u]:
                tail, head = self._ends[e]
                other = head if tail == u else tail
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return [n for n in self.node_ids if n not in seen]

    # -- basic queries ----------------------------------------------------

    @property
    def v(self) -> int:
        return len(self.node_ids)

    @property
    def e(self) -> int:
        return len(self.edge_ids)

    def has_node(self, node: NodeId) -> bool:
        return node in self._rows

    def has_edge(self, edge: EdgeId) -> bool:
        return edge in self._ends

    def position(self, node: NodeId) -> np.ndarray:
        try:
            return self.positions[self._rows[node]].copy()
        except KeyError:
            raise StructureError(f"unknown node {node!r}") from None

    def ends(self, edge: EdgeId) -> tuple[NodeId, NodeId]:
        """(tail, head) of a bar."""
        try:
            return self._ends[edge]
        except KeyError:
            raise StructureError(f"unknown bar {edge!r}") from None

    def incident_edges(self, node: NodeId) -> tuple[EdgeId, ...]:
        """Bars touching a node, in input order."""
        try:
            return self._incident[node]
        except KeyError:
            raise StructureError(f"unknown node {node!r}") from None

    # -- bar geometry ------------------------------------------------------

    def _end_positions(self, edge: EdgeId) -> tuple[np.ndarray, np.ndarray]:
        tail, head = self.ends(edge)
        return self.positions[self._rows[tail]], self.positions[self._rows[head]]

    def length(self, edge: EdgeId) -> float:
        tail, head = self._end_positions(edge)
        return float(np.linalg.norm(head - tail))

    def direction(self, edge: EdgeId) -> np.ndarray:
        """Unit vector tail -> head; zero-length bars are an error."""
        tail, head = self._end_positions(edge)
        d = head - tail
        n = np.linalg.norm(d)
        if n == 0.0:
            raise StructureError(f"bar {edge!r} has coincident endpoints")
        return d / n

    def midpoint(self, edge: EdgeId) -> np.ndarray:
        tail, head = self._end_positions(edge)
        return 0.5 * (tail + head)

    @cached_property
    def units(self) -> np.ndarray:
        """Read-only unit vectors tail -> head of every bar (e x 3), built at
        first use; each length is one scalar dot product's square root, as in
        `direction`, to the bit.  Coincident endpoints are an error."""
        tail, head = self.positions[self.end_rows.T]
        d = head - tail
        lengths = np.sqrt([x.dot(x) for x in d])
        if not lengths.all():
            bar = self.edge_ids[int(np.argmin(lengths != 0.0))]
            raise StructureError(f"bar {bar!r} has coincident endpoints")
        units = d / lengths[:, None]
        units.flags.writeable = False
        return units

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Read-only midpoints of every bar (e x 3), built at first use."""
        tail, head = self.positions[self.end_rows.T]
        mids = 0.5 * (tail + head)
        mids.flags.writeable = False
        return mids

    def __repr__(self) -> str:
        return f"FrameGraph(v={self.v}, e={self.e})"


class _FormalSum:
    """Formal integer sum over hashable generators; zeros are dropped."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[Hashable, int] | None = None):
        c: dict[Hashable, int] = {}
        if coeffs:
            for key, val in coeffs.items():
                ival = int(val)
                if ival != val:
                    raise StructureError(f"coefficient for {key!r} is not an integer")
                if ival != 0:
                    c[key] = ival
        self._c = c

    def coefficient(self, key: Hashable) -> int:
        return self._c.get(key, 0)

    def items(self):
        return self._c.items()

    def keys(self):
        return self._c.keys()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash((type(self).__name__, frozenset(self._c.items())))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        c = dict(self._c)
        for key, val in other._c.items():
            c[key] = c.get(key, 0) + val
        return type(self)(c)

    def __neg__(self):
        return type(self)({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k: int):
        return type(self)({key: k * v for key, v in self._c.items()})

    def __repr__(self) -> str:
        if not self._c:
            return f"{type(self).__name__}(0)"
        terms = " ".join(
            f"{'+' if v >= 0 else '-'}{abs(v)}*{k!r}" for k, v in self._c.items()
        )
        return f"{type(self).__name__}({terms})"


class Chain0(_FormalSum):
    """Integer formal sum of nodes."""


class Chain1(_FormalSum):
    """Integer formal sum of directed bars."""


def boundary(chain: Chain1, graph: FrameGraph) -> Chain0:
    """Boundary of a bar chain: each bar contributes head minus tail.

    A group homomorphism Chain1 -> Chain0; unknown bar ids are an error.
    """
    acc: dict[NodeId, int] = {}
    for edge, coeff in chain.items():
        tail, head = graph.ends(edge)
        acc[head] = acc.get(head, 0) + coeff
        acc[tail] = acc.get(tail, 0) - coeff
    return Chain0(acc)


def is_cycle(chain: Chain1, graph: FrameGraph) -> bool:
    """True iff the chain has zero boundary (a loop, possibly disconnected)."""
    return not boundary(chain, graph)

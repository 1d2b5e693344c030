"""Spanning trees and fundamental cycle bases.

A spanning tree leaves e - v + 1 bars outside the tree, and each such bar
generates one independent loop: the bar itself plus the signed tree path
from its head back to its tail.  The basis is deterministic: breadth-first
tree from the smallest node id, scanning bars in input order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .chains import Chain1, EdgeId, FrameGraph, NodeId, is_cycle
from .errors import StructureError


@dataclass(frozen=True)
class TreeLink:
    """How a node hangs off its BFS parent.

    sign is +1 when the connecting bar is directed parent -> node,
    -1 when directed node -> parent.
    """

    parent: NodeId
    edge: EdgeId
    sign: int


@dataclass(frozen=True)
class SpanningTree:
    root: NodeId
    edge_ids: frozenset
    links: dict  # node -> TreeLink; absent for the root
    depth: dict  # node -> hop count from root

    def __contains__(self, edge: EdgeId) -> bool:
        return edge in self.edge_ids


@dataclass(frozen=True)
class FundamentalCycle:
    """One basis loop: the generator bar (+1) plus its tree path.

    The generator id doubles as the cycle id throughout the package.
    All chain coefficients are in {-1, 0, +1}.
    """

    generator: EdgeId
    chain: Chain1


def spanning_tree(graph: FrameGraph, root: NodeId | None = None) -> SpanningTree:
    """Deterministic BFS spanning tree with v - 1 bars.

    Starts from `root` (default: smallest node id) and scans each node's
    incident bars in input order, so identical inputs give identical trees.
    A FrameGraph is connected, so the tree reaches every node.
    """
    if root is None:
        try:
            root = min(graph.node_ids)
        except TypeError:
            raise StructureError(
                "node ids are not mutually orderable; pass an explicit root"
            ) from None
    elif not graph.has_node(root):
        raise StructureError(f"unknown root node {root!r}")

    links: dict[NodeId, TreeLink] = {}
    depth: dict[NodeId, int] = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for edge in graph.incident_edges(u):
            tail, head = graph.ends(edge)
            other = head if tail == u else tail
            if other not in depth:
                depth[other] = depth[u] + 1
                links[other] = TreeLink(parent=u, edge=edge, sign=1 if tail == u else -1)
                queue.append(other)
    return SpanningTree(
        root=root,
        edge_ids=frozenset(link.edge for link in links.values()),
        links=links,
        depth=depth,
    )


def _tree_path_coeffs(tree: SpanningTree, start: NodeId, goal: NodeId) -> dict:
    """Signed tree-bar coefficients for the walk start -> goal.

    A bar traversed tail -> head along the walk gets +1, otherwise -1.
    Both ends climb to their common ancestor, the deeper one first.
    """
    up_from_start: list[tuple[EdgeId, int]] = []
    up_from_goal: list[tuple[EdgeId, int]] = []
    a, b = start, goal
    while a != b:
        if tree.depth[a] >= tree.depth[b]:
            link = tree.links[a]
            up_from_start.append((link.edge, -link.sign))
            a = link.parent
        else:
            link = tree.links[b]
            up_from_goal.append((link.edge, link.sign))
            b = link.parent
    return dict(up_from_start + up_from_goal)  # a tree path uses each bar once


def fundamental_cycles(
    graph: FrameGraph, tree: SpanningTree | None = None
) -> list[FundamentalCycle]:
    """One loop per non-tree bar, in bar input order; e - v + 1 in total.

    Each loop runs along its generator bar (coefficient +1) and returns
    through the tree from the generator's head to its tail.
    """
    if tree is None:
        tree = spanning_tree(graph)
    basis = []
    for edge in graph.edge_ids:
        if edge in tree.edge_ids:
            continue
        tail, head = graph.ends(edge)
        coeffs = _tree_path_coeffs(tree, head, tail)
        coeffs[edge] = coeffs.get(edge, 0) + 1
        basis.append(FundamentalCycle(generator=edge, chain=Chain1(coeffs)))
    return basis


def assert_valid_basis(graph: FrameGraph, basis: list[FundamentalCycle]) -> None:
    """Sanity checks: count, zero boundary, one non-tree generator each."""
    expected = graph.e - graph.v + 1
    if len(basis) != expected:
        raise StructureError(
            f"cycle basis has {len(basis)} loops, expected {expected}"
        )
    for cycle in basis:
        if not is_cycle(cycle.chain, graph):
            raise StructureError(f"basis loop {cycle.generator!r} has a boundary")
        if cycle.chain.coefficient(cycle.generator) != 1:
            raise StructureError(
                f"basis loop {cycle.generator!r} lacks +1 on its generator"
            )

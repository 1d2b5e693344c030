"""Structure documents: versioned JSON for frames and stress states.

A structure document lists nodes (id, x, y, z) and bars (id, tail, head).
Bars may instead give an unordered `ends` pair, in which case the lower
node id becomes the tail.  Unknown fields are preserved through a
parse -> serialize round trip, and serialization is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .chains import FrameGraph
from .errors import StateError, StructureError
from .selfstress import SelfStressState
from .wedge import Bivector6

STRUCTURE_FORMAT = "frame-structure/1"
STATE_FORMAT = "stress-state/1"

_BIVECTOR_KEYS = ("jk", "ki", "ij", "ih", "jh", "kh")

# Largest |coordinate| or |state component| a document may hold.  A product
# of two inputs (a lever arm times a force) squared inside a norm is then at
# most 1e256, far enough below the float limit (1.8e308) for the sums over
# bars and loops that go with it.
MAX_MAGNITUDE = 1e64


@dataclass(frozen=True)
class NodeRecord:
    id: object
    x: float
    y: float
    z: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BarRecord:
    id: object
    tail: object
    head: object
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StructureDocument:
    nodes: tuple
    bars: tuple
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    version: str = STRUCTURE_FORMAT


def _load_document(text: str, error: type, what: str, default: str) -> tuple:
    """The document's JSON object and its format, which must be of the same
    family as `default`; NaN, Infinity and absurd nesting are rejected."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise error(f"syntax error in {what} document: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid {what} document: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{what} document must be a JSON object")
    version = raw.get("format", default)
    if not isinstance(version, str) or not version.startswith(default.split("/")[0] + "/"):
        raise error(f"unsupported {what} format {version!r}")
    return raw, version


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _require_id(value, what: str, error: type = StructureError):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise error(f"{what} id must be a string or integer, got {value!r}")
    return value


def _require_number(value, what: str, error: type = StructureError) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    if not abs(value) <= MAX_MAGNITUDE:  # also NaN and infinities
        raise error(f"{what} must be finite and at most {MAX_MAGNITUDE:g} "
                    f"in magnitude, got {value!r}")
    return float(value)


def _parse_node(obj) -> NodeRecord:
    if not isinstance(obj, dict):
        raise StructureError(f"node entry must be an object, got {obj!r}")
    missing = [k for k in ("id", "x", "y", "z") if k not in obj]
    if missing:
        raise StructureError(f"node entry missing fields: {', '.join(missing)}")
    node_id = _require_id(obj["id"], "node")
    extras = {k: v for k, v in obj.items() if k not in ("id", "x", "y", "z")}
    return NodeRecord(
        id=node_id,
        x=_require_number(obj["x"], f"node {node_id!r} x"),
        y=_require_number(obj["y"], f"node {node_id!r} y"),
        z=_require_number(obj["z"], f"node {node_id!r} z"),
        extras=extras,
    )


def _parse_bar(obj) -> BarRecord:
    if not isinstance(obj, dict):
        raise StructureError(f"bar entry must be an object, got {obj!r}")
    if "id" not in obj:
        raise StructureError("bar entry missing id")
    bar_id = _require_id(obj["id"], "bar")
    known = {"id", "tail", "head", "ends"}
    extras = {k: v for k, v in obj.items() if k not in known}
    if "tail" in obj and "head" in obj:
        tail = _require_id(obj["tail"], f"bar {bar_id!r} tail")
        head = _require_id(obj["head"], f"bar {bar_id!r} head")
    elif "ends" in obj:
        ends = obj["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise StructureError(f"bar {bar_id!r}: ends must be a pair")
        a = _require_id(ends[0], f"bar {bar_id!r} end")
        b = _require_id(ends[1], f"bar {bar_id!r} end")
        try:
            tail, head = (a, b) if a < b else (b, a)
        except TypeError:
            raise StructureError(
                f"bar {bar_id!r}: unordered ends need orderable node ids"
            ) from None
    else:
        raise StructureError(f"bar {bar_id!r} needs tail/head or ends")
    return BarRecord(id=bar_id, tail=tail, head=head, extras=extras)


def parse_structure(text: str) -> StructureDocument:
    raw, version = _load_document(text, StructureError, "structure", STRUCTURE_FORMAT)
    nodes = raw.get("nodes")
    bars = raw.get("bars")
    if not isinstance(nodes, list) or not nodes:
        raise StructureError("document needs a non-empty nodes array")
    if not isinstance(bars, list):
        raise StructureError("document needs a bars array")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise StructureError("metadata must be an object")
    extras = {
        k: v
        for k, v in raw.items()
        if k not in ("format", "metadata", "nodes", "bars")
    }
    return StructureDocument(
        nodes=tuple(_parse_node(n) for n in nodes),
        bars=tuple(_parse_bar(b) for b in bars),
        metadata=metadata,
        extras=extras,
        version=version,
    )


def serialize_structure(doc: StructureDocument) -> str:
    out = {"format": doc.version, "metadata": doc.metadata}
    out["nodes"] = [
        {"id": n.id, "x": n.x, "y": n.y, "z": n.z, **dict(sorted(n.extras.items()))}
        for n in doc.nodes
    ]
    out["bars"] = [
        {"id": b.id, "tail": b.tail, "head": b.head, **dict(sorted(b.extras.items()))}
        for b in doc.bars
    ]
    out.update(sorted(doc.extras.items()))
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def validate_structure(doc: StructureDocument) -> FrameGraph:
    """Build the frame graph, rejecting duplicate ids, unknown node
    references, self-loops and disconnected input with named diagnostics."""
    return FrameGraph(
        nodes=[(n.id, (n.x, n.y, n.z)) for n in doc.nodes],
        edges=[(b.id, b.tail, b.head) for b in doc.bars],
    )


def load_structure(text: str) -> tuple[StructureDocument, FrameGraph]:
    doc = parse_structure(text)
    return doc, validate_structure(doc)


def document_from_graph(
    graph: FrameGraph, metadata: dict | None = None
) -> StructureDocument:
    """The graph as a structure document, held to the loader's bounds."""
    nodes = []
    for n in graph.node_ids:
        _require_id(n, "node")
        x, y, z = (_require_number(float(c), f"node {n!r} {axis}")
                   for c, axis in zip(graph.position(n), "xyz"))
        nodes.append(NodeRecord(id=n, x=x, y=y, z=z))
    bars = []
    for e in graph.edge_ids:
        _require_id(e, "bar")
        tail, head = graph.ends(e)
        bars.append(BarRecord(id=e, tail=tail, head=head))
    return StructureDocument(
        nodes=tuple(nodes), bars=tuple(bars), metadata=dict(metadata or {})
    )


# -- stress states -------------------------------------------------------


def parse_state(text: str) -> SelfStressState:
    raw, _ = _load_document(text, StateError, "state", STATE_FORMAT)
    entries = raw.get("resultants")
    if not isinstance(entries, list):
        raise StateError("state document needs a resultants array")
    resultants = {}
    for entry in entries:
        if not isinstance(entry, dict) or "cycle" not in entry:
            raise StateError(f"bad resultant entry: {entry!r}")
        cycle = _require_id(entry["cycle"], "cycle", StateError)
        if cycle in resultants:
            raise StateError(f"duplicate resultant for cycle {cycle!r}")
        comps = {}
        for key in _BIVECTOR_KEYS:
            comps[key] = _require_number(
                entry.get(key, 0.0), f"cycle {cycle!r} {key}", StateError
            )
        resultants[cycle] = Bivector6(**comps)
    return SelfStressState(resultants)


def serialize_state(state: SelfStressState) -> str:
    entries = []
    for cycle in sorted(state.resultants, key=str):
        b = state.resultants[cycle]
        entry = {"cycle": cycle}
        entry.update({k: float(getattr(b, k)) for k in _BIVECTOR_KEYS})
        entries.append(entry)
    return json.dumps(
        {"format": STATE_FORMAT, "resultants": entries}, indent=2, allow_nan=False
    ) + "\n"

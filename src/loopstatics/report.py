"""Analysis reports: counts, cycle basis, statics summary, resultant tables.

Reports are plain dicts rendered to deterministic JSON; the counting
identities (cycle count = e - v + 1 and s - m = e - 3v + 6) are asserted
at build time so an inconsistent report can never be emitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chains import FrameGraph
from .cycles import FundamentalCycle, SpanningTree, fundamental_cycles, spanning_tree
from .errors import StateError
from .selfstress import (
    SelfStressState,
    _axial_verdicts,
    _bar_array,
    _bar_frames,
    _node_array,
    selfstress_dimension,
)
from .statics import StaticsSummary, analyze_statics

REPORT_FORMAT = "frame-report/1"

CONVENTIONS = {
    "axial_sign": "tension-positive",
    "resultant_face": "positive cut face; the bar direction exits the cut",
    "incidence_sign": "+1 into a node, -1 out",
    "moment_reference": "global origin",
}


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    counts: dict
    tree: dict
    cycles: list
    statics: dict  # s, m, rank, sigma_min; empty without statics
    bar_resultants: list = field(default_factory=list)
    node_residuals: list = field(default_factory=list)
    axial_check: list = field(default_factory=list)
    null_basis: np.ndarray | None = None  # s x e, None without statics
    edge_ids: tuple = ()  # the null basis's column order

    def __post_init__(self):
        c = self.counts
        if c["cycles"] != c["e"] - c["v"] + 1:
            raise StateError("report inconsistency: cycle count != e - v + 1")
        if c["selfstress_dimension"] != 6 * c["cycles"]:
            raise StateError("report inconsistency: welded dimension != 6(e - v + 1)")
        s, m = self.statics.get("s"), self.statics.get("m")
        if s is not None and m is not None:
            if s - m != c["e"] - 3 * c["v"] + 6:
                raise StateError("report inconsistency: s - m != e - 3v + 6")

    def _document(self, basis: list) -> dict:
        statics = self.statics
        if self.null_basis is not None:
            statics = {**statics, "selfstress_basis": basis}
        return {
            "format": REPORT_FORMAT,
            "conventions": CONVENTIONS,
            "counts": self.counts,
            "tree": self.tree,
            "cycles": self.cycles,
            "statics": statics,
            "bar_resultants": self.bar_resultants,
            "node_residuals": self.node_residuals,
            "axial_check": self.axial_check,
        }

    def to_dict(self) -> dict:
        """The report as plain JSON values; each null-basis vector is a
        list of [bar, value] pairs in bar input order."""
        basis = [] if self.null_basis is None else [
            [[e, x] for e, x in zip(self.edge_ids, row)] for row in self.null_basis.tolist()
        ]
        return self._document(basis)

    def to_json(self) -> str:
        """Byte for byte `json.dumps(self.to_dict(), indent=2, allow_nan=False)`
        plus a newline.  The null basis is written straight from its array:
        every vector fills one template of `[bar, %r]` pairs, as JSON writes
        floats with `float.__repr__`."""
        text = json.dumps(self._document([]), indent=2, allow_nan=False) + "\n"
        if self.null_basis is None or not len(self.null_basis):
            return text
        if not np.isfinite(self.null_basis).all():
            raise ValueError("Out of range float values are not JSON compliant")
        head, _, tail = text.partition('"selfstress_basis": []')
        template = _vector_template(self.edge_ids)
        pieces = [head, '"selfstress_basis": [\n']
        for row in self.null_basis:
            pieces += (template % tuple(row.tolist()), ",\n")
        pieces[-1] = "\n    ]"
        pieces.append(tail)
        return "".join(pieces)

    def to_text(self) -> str:
        c = self.counts
        lines = [
            f"nodes {c['v']}  bars {c['e']}  basis loops {c['cycles']}  "
            f"welded self-stress dimension {c['selfstress_dimension']}",
        ]
        if self.statics:
            st = self.statics
            lines.append(
                f"axial statics: s={st['s']} m={st['m']} rank={st['rank']} "
                f"sigma_min={st['sigma_min']}"
            )
        lines.append(f"tree root {self.tree['root']!r}, edges: "
                     + " ".join(str(e) for e in self.tree['edges']))
        for cyc in self.cycles:
            terms = " ".join(f"{c:+d}*{e}" for e, c in cyc["chain"])
            lines.append(f"loop {cyc['generator']}: {terms}")
        for row in self.bar_resultants:
            f = row["force"]
            lines.append(
                f"bar {row['bar']}: axial {row['axial_force']:+.6g}  "
                f"force ({f[0]:.6g}, {f[1]:.6g}, {f[2]:.6g})"
            )
        for row in self.axial_check:
            lines.append(f"axial check {row['bar']}: "
                         + ("pass" if row["is_axial"] else "FAIL"))
        return "\n".join(lines) + "\n"


def _chain_rows(cycle: FundamentalCycle) -> list:
    return [[e, c] for e, c in sorted(cycle.chain.items(), key=lambda kv: str(kv[0]))]


def _vector_template(edge_ids) -> str:
    """One null-basis vector as `to_dict` nests it under `statics`, in the
    layout of json.dumps(indent=2), with a %r slot for each bar's value."""
    pad = "\n" + " " * 10
    bars = (json.dumps(e, indent=2, allow_nan=False).replace("\n", pad).replace("%", "%%")
            for e in edge_ids)
    return ("      [\n"
            + ",\n".join(f"        [{pad}{bar},{pad}%r\n        ]" for bar in bars)
            + "\n      ]")


def _vec(v) -> list:
    return [float(x) for x in np.asarray(v)]


def build_report(
    graph: FrameGraph,
    tree: SpanningTree | None = None,
    basis: list | None = None,
    summary: StaticsSummary | None = None,
    state: SelfStressState | None = None,
    rtol: float = 1e-9,
    with_statics: bool = True,
    axial_tol: float = 1e-9,
) -> AnalysisReport:
    """Assemble a report; missing pieces are computed on demand."""
    if tree is None:
        tree = spanning_tree(graph)
    if basis is None:
        basis = fundamental_cycles(graph, tree)
    statics: dict = {}
    if with_statics:
        if summary is None:
            summary = analyze_statics(graph, rtol=rtol)
        statics = {
            "s": summary.s,
            "m": summary.m,
            "rank": summary.rank,
            "sigma_min": summary.sigma_min,
        }
    counts = {
        "v": graph.v,
        "e": graph.e,
        "cycles": len(basis),
        "selfstress_dimension": selfstress_dimension(graph),
    }
    bar_rows, node_rows, axial_rows = [], [], []
    if state is not None:
        b = _bar_array(state, basis, graph)
        frames = _bar_frames(graph)
        parallel, matches, axial = _axial_verdicts(b[:, :3], b[:, 3:], *frames, axial_tol)
        for i, bar in enumerate(graph.edge_ids):
            axial_force = float(axial[i])
            bar_rows.append({"bar": bar, "force": _vec(b[i, :3]),
                             "total_moment": _vec(b[i, 3:]), "axial_force": axial_force})
            axial_rows.append({"bar": bar, "is_axial": bool(parallel[i] and matches[i]),
                               "force_parallel": bool(parallel[i]),
                               "moment_matches": bool(matches[i]),
                               "axial_force": axial_force})
        node_rows = [
            {"node": node, "force": _vec(row[:3]), "moment": _vec(row[3:])}
            for node, row in zip(graph.node_ids, _node_array(graph, b))
        ]
    return AnalysisReport(
        counts=counts,
        tree={
            "root": tree.root,
            "edges": sorted(tree.edge_ids, key=str),
        },
        cycles=[
            {"generator": c.generator, "chain": _chain_rows(c)} for c in basis
        ],
        statics=statics,
        bar_resultants=bar_rows,
        node_residuals=node_rows,
        axial_check=axial_rows,
        null_basis=summary.null_basis if with_statics else None,
        edge_ids=graph.edge_ids,
    )

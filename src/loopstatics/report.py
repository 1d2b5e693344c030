"""Analysis reports: counts, cycle basis, statics summary, resultant tables.

Reports are written as deterministic JSON, one table row at a time; the
counting identities (cycle count = e - v + 1 and s - m = e - 3v + 6) are
asserted at build time so an inconsistent report can never be emitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chains import FrameGraph
from .cycles import FundamentalCycle, SpanningTree, fundamental_cycles, spanning_tree
from .errors import StateError
from .selfstress import SelfStressState, _judged_bars, _node_array, selfstress_dimension
from .statics import StaticsSummary

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
    edge_ids: tuple = ()  # row order of the bar tables, column order of the null basis
    node_ids: tuple = ()  # row order of the node table
    bar_table: np.ndarray | None = None  # e x 7: force, total moment, axial force
    verdicts: np.ndarray | None = None  # e x 2 bool: force parallel, moment matches
    node_table: np.ndarray | None = None  # v x 6: force and moment sums
    null_basis: np.ndarray | None = None  # s x e, None without statics

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

    def _document(self) -> dict:
        """The report with every list-valued table empty: the skeleton
        that `json_pieces` fills."""
        statics = self.statics
        if self.null_basis is not None:
            statics = {**statics, "selfstress_basis": []}
        return {
            "format": REPORT_FORMAT,
            "conventions": CONVENTIONS,
            "counts": self.counts,
            "tree": self.tree,
            "cycles": [],
            "statics": statics,
            "bar_resultants": [],
            "node_residuals": [],
            "axial_check": [],
        }

    def to_json(self) -> str:
        """The report's JSON in the stdlib's `indent=2` layout plus a
        newline, so `json.dumps(json.loads(text), indent=2, allow_nan=False)
        + "\n"` is the text again: the pieces of `json_pieces`, joined."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of `to_json` as an iterator of pieces, so that a writer
        never holds more than one row: the stdlib's indented layout of the
        report without its tables, cut at each table, and each table row,
        written straight from the report's arrays and cycle rows.  Each row
        fills one template, laid out as the stdlib lays out a row of slots,
        and each null-basis vector fills one template of `[bar, %r]` pairs,
        formatted when its piece is taken.  Floats go through `%r`, as JSON
        writes them with `float.__repr__`.  Non-finite tables raise
        ValueError here, before any piece."""
        for table in (self.bar_table, self.node_table, self.null_basis):
            if table is not None and not np.isfinite(table).all():
                raise ValueError("Out of range float values are not JSON compliant")
        skeleton = json.dumps(self._document(), indent=2, allow_nan=False) + "\n"
        return _splice(skeleton, self._table_rows())

    def _table_rows(self) -> list:
        """(key, indent of the key, iterator of row texts) of each table in
        the document, in document order."""
        bar_ids = [json.dumps(e, indent=2) for e in self.edge_ids]
        in_row = dict(zip(self.edge_ids, _nested(bar_ids, 6)))
        in_pair = dict(zip(self.edge_ids, _nested(bar_ids, 10)))
        chain_sep = ",\n" + " " * 8
        cycles = (
            _CYCLE_ROW % (in_row[c["generator"]],
                          chain_sep.join(_PAIR % (in_pair[e], k) for e, k in c["chain"]))
            for c in self.cycles
        )
        tables = [("cycles", 2, cycles)]
        if self.null_basis is not None:
            template = _vector_template(in_pair.values())
            # one row of Python floats at a time
            tables.append(("selfstress_basis", 4,
                           (template % tuple(row.tolist()) for row in self.null_basis)))
        bars = nodes = checks = ()
        if self.bar_table is not None:
            table = self.bar_table.tolist()
            bars = (_BAR_ROW % (in_row[e], *r) for e, r in zip(self.edge_ids, table))
            node_ids = _nested([json.dumps(n, indent=2) for n in self.node_ids], 6)
            nodes = (_NODE_ROW % (n, *r) for n, r in zip(node_ids, self.node_table.tolist()))
            json_bool = {True: "true", False: "false"}
            checks = (
                _CHECK_ROW % (in_row[e], json_bool[p and m], json_bool[p], json_bool[m], r[6])
                for e, (p, m), r in zip(self.edge_ids, self.verdicts.tolist(), table)
            )
        return tables + [("bar_resultants", 2, bars), ("node_residuals", 2, nodes),
                         ("axial_check", 2, checks)]

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
        if self.bar_table is not None:
            for bar, f in zip(self.edge_ids, self.bar_table.tolist()):
                lines.append(
                    f"bar {bar}: axial {f[6]:+.6g}  "
                    f"force ({f[0]:.6g}, {f[1]:.6g}, {f[2]:.6g})"
                )
            for bar, (parallel, matches) in zip(self.edge_ids, self.verdicts.tolist()):
                lines.append(f"axial check {bar}: "
                             + ("pass" if parallel and matches else "FAIL"))
        return "\n".join(lines) + "\n"


def _layout(row, depth: int) -> str:
    """json.dumps(row, indent=2) as the text of a list item `depth` spaces
    deep, its first line unindented, with each "%s" or "%r" string turned
    into that slot."""
    text = json.dumps(row, indent=2).replace("\n", "\n" + " " * depth)
    return text.replace('"%s"', "%s").replace('"%r"', "%r")


# Rows are items of top-level lists, 4 spaces deep; [bar, value] pairs are
# items of a cycle's chain or of a null-basis vector, 8 spaces deep.
_CYCLE_ROW = _layout({"generator": "%s", "chain": ["%s"]}, 4)
_BAR_ROW = _layout({"bar": "%s", "force": ["%r"] * 3, "total_moment": ["%r"] * 3,
                    "axial_force": "%r"}, 4)
_NODE_ROW = _layout({"node": "%s", "force": ["%r"] * 3, "moment": ["%r"] * 3}, 4)
_CHECK_ROW = _layout({"bar": "%s", "is_axial": "%s", "force_parallel": "%s",
                      "moment_matches": "%s", "axial_force": "%r"}, 4)
_PAIR = _layout(["%s", "%s"], 8)


def _nested(dumped: list, depth: int) -> list:
    """JSON texts of ids re-indented to sit `depth` spaces deep (only list
    ids, such as tuples, span lines)."""
    return [text.replace("\n", "\n" + " " * depth) for text in dumped]


def _splice(text: str, tables: list):
    """Pieces of `text` with each table's rows in place of its `[]`; a
    table without rows keeps its `[]`."""
    pos = 0
    for key, indent, rows in tables:
        mark = f'"{key}": []'
        at = text.index(mark, pos)
        yield text[pos:at]
        pad = "\n" + " " * (indent + 2)
        first = True
        for row in rows:
            yield (f'"{key}": [' if first else ",") + pad + row
            first = False
        yield mark if first else "\n" + " " * indent + "]"
        pos = at + len(mark)
    yield text[pos:]


def _chain_rows(cycle: FundamentalCycle) -> list:
    return [[e, c] for e, c in sorted(cycle.chain.items(), key=lambda kv: str(kv[0]))]


def _vector_template(bars) -> str:
    """One null-basis vector, a list item 6 spaces deep, with a %r slot for
    each bar's value; `bars` are the bars' JSON texts as pair items, and
    are %-escaped here, since they become part of the template."""
    pairs = (_PAIR % (bar.replace("%", "%%"), "%r") for bar in bars)
    pad = "\n" + " " * 8
    return "[" + pad + ("," + pad).join(pairs) + "\n" + " " * 6 + "]"


def build_report(
    graph: FrameGraph,
    tree: SpanningTree | None = None,
    basis: list | None = None,
    summary: StaticsSummary | None = None,
    state: SelfStressState | None = None,
    tol: float = 1e-9,
) -> AnalysisReport:
    """Assemble a report, with statics when `summary` is given and bar,
    node and verdict tables, judged at relative tolerance `tol`, when
    `state` is; a missing tree or basis is computed."""
    if tree is None:
        tree = spanning_tree(graph)
    if basis is None:
        basis = fundamental_cycles(graph, tree)
    statics = {}
    if summary is not None:
        statics = {key: getattr(summary, key) for key in ("s", "m", "rank", "sigma_min")}
    counts = {"v": graph.v, "e": graph.e, "cycles": len(basis),
              "selfstress_dimension": selfstress_dimension(graph)}
    bar_table = verdicts = node_table = None
    if state is not None:
        b, _, parallel, matches, axial, _, _ = _judged_bars(state, basis, graph, tol)
        bar_table = np.column_stack([b, axial])
        verdicts = np.column_stack([parallel, matches])
        node_table = _node_array(graph, b)
    return AnalysisReport(
        counts=counts,
        tree={"root": tree.root, "edges": sorted(tree.edge_ids, key=str)},
        cycles=[{"generator": c.generator, "chain": _chain_rows(c)} for c in basis],
        statics=statics,
        edge_ids=graph.edge_ids,
        node_ids=graph.node_ids,
        bar_table=bar_table,
        verdicts=verdicts,
        node_table=node_table,
        null_basis=None if summary is None else summary.null_basis,
    )

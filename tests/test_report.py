"""The report serializer: `to_json` writes every table from the report's
arrays, in exactly the layout that the stdlib encoder gives the same
values, and the values it writes are the arrays'."""

import dataclasses
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstatics import (
    Bivector6,
    SelfStressState,
    analyze_statics,
    axial_to_state,
    build_report,
    document_from_graph,
    fundamental_cycles,
    k5_frame,
    prism_critical_twist,
    prism_frame,
    serialize_state,
    serialize_structure,
)
from loopstatics.cli import main

from helpers import int_k5, lattice_graph, random_state, relabel_bars

_NAMES = {
    "given": None,
    "int": lambda k: 100 + k,
    "escapes": lambda k: f'%r %s %% "b{k}" \\ é中\n',
}

_FRAMES = {
    "k5": k5_frame,  # s = 1
    "prism": lambda: prism_frame(twist=0.3),  # s = 0
    "critical-prism": lambda: prism_frame(twist=prism_critical_twist()),  # s = 1
    "lattice": lambda: lattice_graph(np.random.default_rng(20), 3),  # s = 15
}


def _frame(kind: str, names: str):
    g = _FRAMES[kind]()
    return g if _NAMES[names] is None else relabel_bars(g, _NAMES[names])


def _state(g, kind: str):
    basis = fundamental_cycles(g)
    if kind == "axial":
        summary = analyze_statics(g)
        return axial_to_state(g, basis, summary.axial_vector(0)) if summary.s else None
    return None if kind == "none" else random_state(np.random.default_rng(21), basis)


def _json(value):
    """A value as it reads back from JSON: tuples become lists."""
    return json.loads(json.dumps(value))


def _bits(rows) -> bytes:
    """The float64 bits of a table, so that -0.0 is not 0.0."""
    return np.ascontiguousarray(rows, dtype=float).tobytes()


# The report's keys, and each table's row keys, in the order written.
_DOCUMENT_KEYS = ["format", "conventions", "counts", "tree", "cycles", "statics",
                  "bar_resultants", "node_residuals", "axial_check"]
_ROW_KEYS = {
    "cycles": ["generator", "chain"],
    "bar_resultants": ["bar", "force", "total_moment", "axial_force"],
    "node_residuals": ["node", "force", "moment"],
    "axial_check": ["bar", "is_axial", "force_parallel", "moment_matches", "axial_force"],
}


def assert_serializers_agree(report):
    """The report's text is the stdlib's indented layout of what it parses
    to, and what it parses to is the report's arrays, bit for bit."""
    text = report.to_json()
    assert isinstance(text, str)
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, allow_nan=False) + "\n" == text
    assert list(doc) == _DOCUMENT_KEYS
    assert all(list(row) == keys for table, keys in _ROW_KEYS.items() for row in doc[table])
    bar_ids, node_ids = _json(report.edge_ids), _json(report.node_ids)
    assert doc["counts"] == report.counts and doc["tree"] == _json(report.tree)
    assert doc["cycles"] == _json(report.cycles)
    statics = dict(doc["statics"])
    basis = statics.pop("selfstress_basis", None)
    assert statics == report.statics
    if report.null_basis is None:
        assert basis is None
    else:
        assert all([pair[0] for pair in vector] == bar_ids for vector in basis)
        values = [[pair[1] for pair in vector] for vector in basis]
        assert _bits(values) == _bits(report.null_basis)
    if report.bar_table is None:
        assert doc["bar_resultants"] == doc["node_residuals"] == doc["axial_check"] == []
        return
    bars, checks, nodes = doc["bar_resultants"], doc["axial_check"], doc["node_residuals"]
    assert [row["bar"] for row in bars] == [row["bar"] for row in checks] == bar_ids
    assert _bits([r["force"] + r["total_moment"] + [r["axial_force"]] for r in bars]) \
        == _bits(report.bar_table)
    assert _bits([r["axial_force"] for r in checks]) == _bits(report.bar_table[:, 6])
    assert [[r["force_parallel"], r["moment_matches"], r["is_axial"]] for r in checks] \
        == [[p, m, p and m] for p, m in report.verdicts.tolist()]
    assert [row["node"] for row in nodes] == node_ids
    assert _bits([r["force"] + r["moment"] for r in nodes]) == _bits(report.node_table)


@pytest.mark.parametrize("names", list(_NAMES))
@pytest.mark.parametrize("state", ["none", "axial", "general"])
@pytest.mark.parametrize("kind", list(_FRAMES))
def test_to_json_is_the_stdlib_encoding_of_to_dict(kind, state, names):
    g = _frame(kind, names)
    summary = analyze_statics(g)
    report = build_report(g, summary=summary, state=_state(g, state))
    basis = json.loads(report.to_json())["statics"]["selfstress_basis"]
    assert len(basis) == summary.s
    assert_serializers_agree(report)


@pytest.mark.parametrize("kind", list(_FRAMES))
def test_without_statics(kind):
    g = _frame(kind, "escapes")
    for state in ("none", "general"):
        report = build_report(g, state=_state(g, state))
        assert json.loads(report.to_json())["statics"] == {}
        assert_serializers_agree(report)


def _check_state(g, kind: str):
    """A state as `check` reads one: general, axial, axial with one loop
    replaced (so both verdicts occur), or general with zero and negative
    zero components."""
    basis = fundamental_cycles(g)
    rng = np.random.default_rng(23)
    if kind in ("general", "zeros"):
        state = random_state(rng, basis)
        if kind == "general":
            return state
        return SelfStressState({
            c: Bivector6(*np.where(rng.random(6) < 0.4, rng.choice([0.0, -0.0], 6),
                                   b.components()))
            for c, b in state.resultants.items()
        })
    state = _state(g, "axial")
    if kind == "axial":
        return state
    resultants = dict(state.resultants)
    resultants[basis[0].generator] = Bivector6(*rng.normal(size=6))
    return SelfStressState(resultants)


@pytest.mark.parametrize("names", list(_NAMES))
@pytest.mark.parametrize("state", ["general", "axial", "mixed", "zeros"])
@pytest.mark.parametrize("kind", ["k5", "critical-prism", "lattice"])
def test_check_reports_serialize_like_the_stdlib(kind, state, names):
    g = _frame(kind, names)
    report = build_report(g, state=_check_state(g, state))
    assert_serializers_agree(report)
    verdicts = {row["is_axial"] for row in json.loads(report.to_json())["axial_check"]}
    assert verdicts == {"axial": {True}, "mixed": {True, False}}.get(state, verdicts)
    assert "np.float64(" not in report.to_json() + report.to_text()


def test_negative_zeros_and_both_verdicts_keep_their_text():
    report = build_report(k5_frame(), summary=analyze_statics(k5_frame()),
                          state=_check_state(k5_frame(), "mixed"))
    bars, nodes = report.bar_table.copy(), report.node_table.copy()
    bars[0, :] = -0.0
    nodes[1, 3:] = -0.0
    report = dataclasses.replace(report, bar_table=bars, node_table=nodes)
    text = report.to_json()
    assert '"axial_force": -0.0' in text and "true" in text and "false" in text
    assert_serializers_agree(report)


def _assert_rejected_like_the_stdlib(report, bad):
    """`to_json` refuses a report with a non-finite entry in `bad`, one of
    its tables, with the stdlib's error for that table's values."""
    with pytest.raises(ValueError, match="JSON compliant"):
        json.dumps(bad.tolist(), allow_nan=False)
    with pytest.raises(ValueError, match="JSON compliant"):
        report.to_json()


@pytest.mark.parametrize("table", ["bar_table", "node_table"])
def test_non_finite_table_is_rejected_like_the_stdlib(table):
    report = build_report(k5_frame(), state=_check_state(k5_frame(), "general"))
    bad = getattr(report, table).copy()
    bad[1, 2] = np.inf
    report = dataclasses.replace(report, **{table: bad})
    _assert_rejected_like_the_stdlib(report, bad)


def test_tuple_bar_ids_are_indented_as_nested_lists():
    # JSON turns tuple ids into lists, so only the text is compared
    g = int_k5()
    report = build_report(g, summary=analyze_statics(g),
                          state=random_state(np.random.default_rng(24), fundamental_cycles(g)))
    assert '"selfstress_basis": [\n      [\n        [\n          [\n            0,' \
        in report.to_json()
    assert '"bar": [\n        0,\n        1\n      ],' in report.to_json()
    assert_serializers_agree(report)


def test_non_finite_basis_is_rejected_like_the_stdlib():
    report = build_report(k5_frame(), summary=analyze_statics(k5_frame()))
    bad = report.null_basis.copy()
    bad[0, 3] = np.nan
    report = dataclasses.replace(report, null_basis=bad)
    _assert_rejected_like_the_stdlib(report, bad)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from([2, 3]),
       names=st.sampled_from(list(_NAMES)), state=st.sampled_from(["none", "general"]))
def test_random_lattices_serialize_alike(seed, side, names, state):
    g = lattice_graph(np.random.default_rng(seed), side)
    if _NAMES[names] is not None:
        g = relabel_bars(g, _NAMES[names])
    assert_serializers_agree(build_report(g, summary=analyze_statics(g), state=_state(g, state)))


def test_report_file_is_the_stdout_text(tmp_path):
    """A report of several MB is written to its file in pieces, unchanged."""
    g = lattice_graph(np.random.default_rng(22), 5)  # s = 171
    path = tmp_path / "s.json"
    path.write_text(serialize_structure(document_from_graph(g)))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["axial", str(path)]) == 0
        assert main(["axial", str(path), "-o", str(tmp_path / "r.json")]) == 0
    assert len(out.getvalue()) > 3 << 20
    assert (tmp_path / "r.json").read_text() == out.getvalue()


def _cli_report(g, command: str, state):
    """The report that `loopstatics <command>` builds for g."""
    basis = fundamental_cycles(g)
    if command == "axial":
        summary = analyze_statics(g)
        axial = axial_to_state(g, basis, summary.axial_vector(0)) if summary.s else None
        return build_report(g, basis=basis, summary=summary, state=axial)
    return build_report(g, basis=basis, state=state)


@pytest.mark.parametrize("command", ["axial", "cycles", "check"])
@pytest.mark.parametrize("kind", ["k5", "critical-prism", "lattice"])
def test_file_stdout_and_to_json_are_the_same_bytes(tmp_path, kind, command):
    """The CLI writes the report's pieces to the -o file and to stdout; both
    are to_json() byte for byte, with a state (axial, check) and without
    (cycles)."""
    g = _FRAMES[kind]()
    path = tmp_path / "s.json"
    path.write_text(serialize_structure(document_from_graph(g)))
    state = None
    argv = [command, str(path)]
    if command == "check":
        state = random_state(np.random.default_rng(25), fundamental_cycles(g))
        (tmp_path / "state.json").write_text(serialize_state(state))
        argv += ["--state", str(tmp_path / "state.json")]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
        assert main(argv + ["-o", str(tmp_path / "r.json")]) == 0
    report = _cli_report(g, command, state)
    assert (command != "cycles") == (report.bar_table is not None)
    text = report.to_json()
    assert text == "".join(report.json_pieces())
    assert (tmp_path / "r.json").read_bytes() == out.getvalue().encode() == text.encode()

"""The report serializer: `to_json` writes the null basis from its array,
and must give exactly the text of the stdlib encoder on `to_dict`."""

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


def assert_serializers_agree(report, same_values=True):
    text = report.to_json()
    assert isinstance(text, str)
    assert text == json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    if same_values:
        assert json.loads(text) == report.to_dict()


@pytest.mark.parametrize("names", list(_NAMES))
@pytest.mark.parametrize("state", ["none", "axial", "general"])
@pytest.mark.parametrize("kind", list(_FRAMES))
def test_to_json_is_the_stdlib_encoding_of_to_dict(kind, state, names):
    g = _frame(kind, names)
    report = build_report(g, state=_state(g, state))
    basis = report.to_dict()["statics"]["selfstress_basis"]
    assert len(basis) == analyze_statics(g).s
    assert all([pair[0] for pair in vector] == list(g.edge_ids) for vector in basis)
    assert_serializers_agree(report)


@pytest.mark.parametrize("kind", list(_FRAMES))
def test_without_statics(kind):
    g = _frame(kind, "escapes")
    for state in ("none", "general"):
        report = build_report(g, state=_state(g, state), with_statics=False)
        assert report.to_dict()["statics"] == {}
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
    report = build_report(g, state=_check_state(g, state), with_statics=False)
    assert_serializers_agree(report)
    verdicts = {row["is_axial"] for row in report.to_dict()["axial_check"]}
    assert verdicts == {"axial": {True}, "mixed": {True, False}}.get(state, verdicts)
    assert "np.float64(" not in report.to_json() + report.to_text()


def test_negative_zeros_and_both_verdicts_keep_their_text():
    report = build_report(k5_frame(), state=_check_state(k5_frame(), "mixed"))
    bars, nodes = report.bar_table.copy(), report.node_table.copy()
    bars[0, :] = -0.0
    nodes[1, 3:] = -0.0
    report = dataclasses.replace(report, bar_table=bars, node_table=nodes)
    text = report.to_json()
    assert '"axial_force": -0.0' in text and "true" in text and "false" in text
    assert_serializers_agree(report)


@pytest.mark.parametrize("table", ["bar_table", "node_table"])
def test_non_finite_table_is_rejected_like_the_stdlib(table):
    report = build_report(k5_frame(), state=_check_state(k5_frame(), "general"))
    bad = getattr(report, table).copy()
    bad[1, 2] = np.inf
    report = dataclasses.replace(report, **{table: bad})
    with pytest.raises(ValueError, match="JSON compliant"):
        json.dumps(report.to_dict(), allow_nan=False)
    with pytest.raises(ValueError, match="JSON compliant"):
        report.to_json()


def test_tuple_bar_ids_are_indented_as_nested_lists():
    # JSON turns tuple ids into lists, so only the text is compared
    g = int_k5()
    report = build_report(g, state=random_state(np.random.default_rng(24),
                                                fundamental_cycles(g)))
    assert '"selfstress_basis": [\n      [\n        [\n          [\n            0,' \
        in report.to_json()
    assert '"bar": [\n        0,\n        1\n      ],' in report.to_json()
    assert_serializers_agree(report, same_values=False)


def test_non_finite_basis_is_rejected_like_the_stdlib():
    report = build_report(k5_frame())
    bad = report.null_basis.copy()
    bad[0, 3] = np.nan
    report = dataclasses.replace(report, null_basis=bad)
    with pytest.raises(ValueError, match="JSON compliant"):
        json.dumps(report.to_dict(), allow_nan=False)
    with pytest.raises(ValueError, match="JSON compliant"):
        report.to_json()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from([2, 3]),
       names=st.sampled_from(list(_NAMES)), state=st.sampled_from(["none", "general"]))
def test_random_lattices_serialize_alike(seed, side, names, state):
    g = lattice_graph(np.random.default_rng(seed), side)
    if _NAMES[names] is not None:
        g = relabel_bars(g, _NAMES[names])
    assert_serializers_agree(build_report(g, state=_state(g, state)))


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
    return build_report(g, basis=basis, state=state, with_statics=False)


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

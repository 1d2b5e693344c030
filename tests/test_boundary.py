"""Regressions at the program's edges: axial verdicts on bars that carry a
vanishing share of the state, and malformed documents, which must end in
one `error:` line and exit 2, never a traceback or invalid JSON."""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopstatics import (
    Bivector6,
    SelfStressState,
    StateError,
    StructureError,
    analyze_statics,
    axial_to_state,
    document_from_graph,
    fundamental_cycles,
    k5_frame,
    load_structure,
    parse_state,
    parse_structure,
    serialize_state,
    serialize_structure,
)
from loopstatics.cli import main
from loopstatics.document import MAX_MAGNITUDE

from helpers import random_state


def _no_constants(name):
    raise ValueError(f"non-finite token {name} in output")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _k5_text() -> str:
    return serialize_structure(document_from_graph(k5_frame()))


def _pendant_text() -> str:
    """K5 plus a node p joined to o0, o1 and o2: the three new bars carry
    nothing in the axial self-stress, so their forces are rounding noise."""
    doc = json.loads(_k5_text())
    doc["nodes"].append({"id": "p", "x": 2.0, "y": 0.3, "z": 0.7})
    doc["bars"] += [
        {"id": f"p{name}", "tail": f"o{i}", "head": "p"}
        for i, name in enumerate("abc")
    ]
    return json.dumps(doc)


@pytest.fixture()
def k5_path(tmp_path):
    path = tmp_path / "k5.json"
    path.write_text(_k5_text())
    return path


@pytest.fixture()
def pendant_path(tmp_path):
    path = tmp_path / "pendant.json"
    path.write_text(_pendant_text())
    return path


class TestNoiseForceBars:
    def test_every_bar_of_the_axial_state_is_axial(self, pendant_path):
        code, out, _ = run("axial", pendant_path)
        assert code == 0
        report = json.loads(out)
        forces = {row["bar"]: abs(row["axial_force"]) for row in report["axial_check"]}
        assert forces["pa"] < 1e-12 * max(forces.values())
        assert all(row["is_axial"] for row in report["axial_check"])

    def test_axial_export_draws_one_triangle_per_bar(self, pendant_path, tmp_path):
        """One triangle per loaded bar: the pendant's three noise bars are
        Zero Bars and get none."""
        code, out, err = run("export", pendant_path, "--axial", "--out-dir", tmp_path / "d")
        assert (code, err) == (0, "")
        text = (tmp_path / "d" / "force.obj").read_text()
        assert text.count("\no bar_") == 10
        assert "\no bar_p" not in text
        assert text.count("\nv ") == 30

    def test_noise_bar_mesh_does_not_follow_its_last_bits(self, pendant_path, tmp_path):
        """The pendant's axial state twice: once with a noise bar's loop
        carrying a force of 1.1e-18 along its bar, once with exactly 0.
        Either way the bar is a Zero Bar, so the meshes are the same bytes."""
        _, g = load_structure(pendant_path.read_text())
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, analyze_statics(g).axial_vector(0))
        noise = next(c.generator for c in basis if c.generator.startswith("p"))
        force = 1.1e-18 * g.direction(noise)
        meshes = []
        for row in (Bivector6.from_force_moment(force, np.cross(g.midpoint(noise), force)),
                    Bivector6()):
            path = tmp_path / f"state{len(meshes)}.json"
            path.write_text(serialize_state(SelfStressState({**state.resultants, noise: row})))
            out_dir = tmp_path / f"d{len(meshes)}"
            code, _, err = run("export", pendant_path, "--state", path, "--loops", "cycles",
                               "--out-dir", out_dir)
            assert (code, err) == (0, "")
            meshes.append((out_dir / "force.obj").read_bytes())
        assert meshes[0] == meshes[1]
        assert f"o cycle_{noise}\n".encode() not in meshes[0]


def _k5_state(kind: str) -> SelfStressState:
    """On `gen k5`, a general state (N(0, 1) components, rng 1) or the
    axial state of the first null-basis vector."""
    g = k5_frame()
    basis = fundamental_cycles(g)
    if kind == "general":
        return random_state(np.random.default_rng(1), basis)
    return axial_to_state(g, basis, analyze_statics(g).axial_vector(0))


class TestTinyStates:
    """A state at 2^-600, whose squares underflow, is judged as at scale 1:
    the norms are taken over an exact power of two."""

    def _write(self, tmp_path, kind, scale):
        path = tmp_path / f"{kind}_{scale!r}.json"
        path.write_text(serialize_state(_k5_state(kind) * scale))
        return path

    def test_check_verdicts_do_not_depend_on_scale(self, k5_path, tmp_path):
        for kind in ("general", "axial"):
            columns = []
            for scale in (1.0, 2.0 ** -600):
                code, out, err = run("check", k5_path, "--state", self._write(tmp_path, kind, scale))
                assert (code, err) == (0, "")
                columns.append([(row["is_axial"], row["force_parallel"], row["moment_matches"])
                                for row in json.loads(out)["axial_check"]])
            assert columns[0] == columns[1], kind
            assert {row[0] for row in columns[0]} == {kind == "axial"}

    @pytest.mark.parametrize("kind", ["general", "axial"])
    def test_export_of_a_tiny_state_collapses(self, k5_path, tmp_path, kind):
        """Its loops are drawn, not left out as Zero Bars, and at sides of
        ~1e-90 about midpoints near 1 they round onto themselves."""
        path = self._write(tmp_path, kind, 2.0 ** -600)
        code, out, err = run("export", k5_path, "--state", path, "--out-dir", tmp_path / "d")
        assert code == 2 and out == ""
        assert err.startswith("error: loop bar_") and err.count("\n") == 1, err
        assert "collapsed under rounding" in err

    def test_a_loop_whose_areas_round_away_is_refused(self, k5_path, tmp_path):
        """Loop o01 alone at 2^-600, anchored at (1, 0, 0): its x offsets
        round away while y, z and h keep theirs, so no vertices coincide,
        yet its ki, ij and ih areas are lost."""
        state = _k5_state("general")
        path = tmp_path / "o01.json"
        path.write_text(serialize_state(SelfStressState({
            c: b if c == "o01" else Bivector6() for c, b in state.resultants.items()
        }) * 2.0 ** -600))
        code, out, err = run("export", k5_path, "--state", path, "--loops", "cycles",
                             "--out-dir", tmp_path / "d")
        assert code == 2 and out == ""
        assert err.startswith("error: loop cycle_o01 collapsed under rounding"), err
        assert err.count("\n") == 1 and "areas" in err, err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_state_constant_rejected(self, token):
        with pytest.raises(StateError, match=token):
            parse_state('{"resultants": [{"cycle": "o01", "jk": %s}]}' % token)

    def test_structure_constant_rejected(self):
        with pytest.raises(StructureError, match="NaN"):
            parse_structure(_k5_text().replace('"x": 1.0', '"x": NaN', 1))

    def test_overflowing_literal_rejected(self):
        with pytest.raises(StateError, match="finite"):
            parse_state('{"resultants": [{"cycle": "o01", "jk": 1e999}]}')

    def test_check_with_nan_state_exits_2(self, k5_path, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(_STATE_TEXT.replace('"jk": 1.0', '"jk": NaN', 1))
        code, out, err = run("check", k5_path, "--state", state)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def _uniform_state_text(value: float) -> str:
    """A state for the K5 frame with every component of every loop at value."""
    return serialize_state(
        SelfStressState({c.generator: Bivector6(*[value] * 6) for c in _BASIS})
    )


def run_strict(*argv):
    """`run` with every warning, numpy overflow included, raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(*argv)


class TestHugeNumbers:
    """Finite numbers whose products overflow inside a norm are refused
    where documents are read, before any arithmetic."""

    @pytest.mark.parametrize("command", ["check", "export"])
    def test_huge_state_exits_2(self, k5_path, tmp_path, command):
        state = tmp_path / "state.json"
        state.write_text(_uniform_state_text(1e300))
        argv = [command, k5_path, "--state", state]
        if command == "export":
            argv += ["--out-dir", tmp_path / "d"]
        code, out, err = run_strict(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cycle") and err.count("\n") == 1, err
        assert "1e+300" in err

    def test_huge_coordinate_exits_2(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(_k5_text().replace('"x": 1.0', '"x": -1e300', 1))
        code, out, err = run_strict("axial", path)
        assert code == 2 and out == ""
        assert err.startswith("error: node") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ("gen", "prism", "--radius", "1e70"),
        ("gen", "prism", "--radius", "1e300", "--critical"),
        ("gen", "prism", "--half-height=-1e65"),
        ("gen", "k5", "--center", "1e300", "0", "0"),
    ])
    def test_generated_coordinate_beyond_the_bound_exits_2(self, tmp_path, argv):
        """`gen` writes only documents that the loader accepts."""
        path = tmp_path / "gen.json"
        code, out, err = run_strict(*argv, "-o", path)
        assert code == 2 and out == ""
        assert err.startswith("error: node") and err.count("\n") == 1, err
        assert "must be finite and at most 1e+64" in err
        assert not path.exists()

    def test_generated_coordinate_at_the_bound_loads(self, tmp_path):
        path = tmp_path / "gen.json"
        assert run_strict("gen", "k5", "--center", MAX_MAGNITUDE, 0, 0, "-o", path)[0] == 0
        code, out, err = run_strict("cycles", path)
        assert code == 0, err

    @staticmethod
    def _far_k5(tmp_path, factor):
        """K5 with every coordinate times factor: its document and path."""
        doc = json.loads(_k5_text())
        for node in doc["nodes"]:
            for axis in "xyz":
                node[axis] *= factor
        path = tmp_path / f"far_{factor:g}.json"
        path.write_text(json.dumps(doc))
        return doc, path

    def test_diagram_lost_to_rounding_names_its_loop(self, tmp_path):
        """K5 with every coordinate times 1e16: the per-bar triangles, of
        side ~1 around midpoints near 1e16, round onto themselves."""
        doc, path = self._far_k5(tmp_path, 1e16)
        code, out, err = run_strict("export", path, "--axial", "--out-dir", tmp_path / "d")
        assert code == 2 and out == ""
        assert err.count("\n") == 1, err
        first_bar = doc["bars"][0]["id"]
        assert err.startswith(f"error: loop bar_{first_bar} collapsed under rounding"), err
        assert "at these coordinates" in err

    @pytest.mark.parametrize("factor", [1e10, 1e12])
    def test_shared_vertex_loops_keep_their_bits(self, tmp_path, factor):
        """K5 times 1e10 or 1e12: moved to their midpoints, the per-bar
        triangles lose their areas to rounding, but built about the origin
        and moved to the shared node they keep them."""
        _, path = self._far_k5(tmp_path, factor)
        code, out, err = run_strict("export", path, "--axial", "--out-dir", tmp_path / "d")
        assert code == 2 and out == ""
        assert err.startswith("error: loop bar_s0 collapsed under rounding"), err
        code, out, err = run_strict("export", path, "--axial", "--share-vertex",
                                    "--out-dir", tmp_path / "shared")
        assert (code, err) == (0, "")
        assert (tmp_path / "shared" / "force.obj").read_text().count("\no bar_") == 10

    def test_bound_is_inclusive(self):
        too_big = np.nextafter(MAX_MAGNITUDE, np.inf)
        assert parse_state(_uniform_state_text(MAX_MAGNITUDE)).resultants
        with pytest.raises(StateError, match="magnitude"):
            parse_state(_uniform_state_text(too_big))
        with pytest.raises(StructureError, match="magnitude"):
            parse_structure(_k5_text().replace('"x": 1.0', f'"x": {float(too_big)!r}', 1))

    def test_largest_inputs_stay_finite(self, k5_path, tmp_path):
        """Every component at the bound, on K5 as it is and with coordinates
        at the bound too: no command overflows."""
        doc = json.loads(_k5_text())
        for node in doc["nodes"]:
            for axis in "xyz":
                node[axis] *= MAX_MAGNITUDE
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        state = tmp_path / "st.json"
        state.write_text(_uniform_state_text(MAX_MAGNITUDE))
        for argv in (["axial", big], ["check", big, "--state", state],
                     ["check", k5_path, "--state", state],
                     ["export", k5_path, "--state", state, "--out-dir", tmp_path / "a"],
                     ["export", k5_path, "--state", state, "--merge-loops",
                      "--out-dir", tmp_path / "b"]):
            code, out, err = run_strict(*argv)
            assert code == 0, err
            if argv[0] != "export":
                json.loads(out, parse_constant=_no_constants)


class TestStateIds:
    def test_unknown_cycle_is_named(self, k5_path, tmp_path):
        basis = fundamental_cycles(k5_frame())
        entries = {c.generator: Bivector6(jk=1.0) for c in basis}
        entries["nosuch"] = Bivector6(jk=1.0)
        state = tmp_path / "state.json"
        state.write_text(serialize_state(SelfStressState(entries)))
        code, _, err = run("check", k5_path, "--state", state)
        assert code == 2
        assert "'nosuch'" in err

    def test_require_complete_rejects_unknown_cycles(self):
        basis = fundamental_cycles(k5_frame())
        entries = {c.generator: Bivector6() for c in basis}
        entries["nosuch"] = Bivector6()
        with pytest.raises(StateError, match="nosuch"):
            SelfStressState(entries).require_complete(basis)


class TestBooleanIds:
    @pytest.mark.parametrize("field", ["id", "tail"])
    def test_boolean_rejected(self, field):
        doc = json.loads(_k5_text())
        target = doc["nodes"][0] if field == "id" else doc["bars"][0]
        target[field] = True
        with pytest.raises(StructureError, match="True"):
            parse_structure(json.dumps(doc))

    def test_boolean_cycle_rejected(self):
        with pytest.raises(StateError, match="True"):
            parse_state('{"resultants": [{"cycle": true}]}')


    def test_boolean_tree_root_is_not_node_one(self, tmp_path):
        doc = {
            "nodes": [{"id": i, "x": float(i), "y": float(i % 2), "z": 0.0}
                      for i in range(3)],
            "bars": [{"id": 10 + i, "ends": [i, (i + 1) % 3]} for i in range(3)],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("cycles", path, "--tree-root", "true")
        assert code == 2
        assert "unknown root node 'true'" in err


class TestZeroLengthBar:
    def test_export_rejects_it_like_check(self, tmp_path):
        nodes = [("a", 0, 0), ("b", 1, 0), ("c", 0, 1), ("d", 0, 1)]
        doc = {
            "nodes": [{"id": n, "x": x, "y": y, "z": 0} for n, x, y in nodes],
            "bars": [{"id": t + h, "tail": t, "head": h}
                     for t, h in ("ab", "bc", "ca", "cd", "da")],
        }
        (tmp_path / "s.json").write_text(json.dumps(doc))
        (tmp_path / "st.json").write_text(
            '{"resultants": [{"cycle": "bc", "jk": 1.0}, {"cycle": "cd", "ij": 2.0}]}'
        )
        for argv in (["check"], ["export", "--out-dir", tmp_path / "d"]):
            code, _, err = run(*argv, tmp_path / "s.json", "--state", tmp_path / "st.json")
            assert code == 2
            assert "'cd' has coincident endpoints" in err


class TestDeepNesting:
    def test_structure_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run("cycles", path)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


# -- fuzzing ---------------------------------------------------------------

_BASIS = fundamental_cycles(k5_frame())
_STATE_TEXT = serialize_state(
    SelfStressState({c.generator: Bivector6(*range(1, 7)) for c in _BASIS})
)
_CONSTANTS = ("NaN", "Infinity", "-Infinity")

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-10.0, 10.0),
    st.sampled_from(["o0", "o01", "s0", "c", "nosuch", ""]),
    st.just([]),
    st.just({}),
    st.sampled_from(_CONSTANTS),  # written as a bare JSON token
    st.sampled_from([1e300, -1e300]),  # finite, but its square overflows
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(text: str, data) -> str:
    """Replace or delete one value of the document, or cut its text short."""
    doc = json.loads(text)
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
        return json.dumps(doc)
    value = data.draw(_values)
    if value in _CONSTANTS:
        parent[path[-1]] = "@@"
        return json.dumps(doc).replace('"@@"', value)
    parent[path[-1]] = value
    return json.dumps(doc)


def _assert_clean_exit(code, out, err, report=True):
    if code == 0:
        if report:
            json.loads(out, parse_constant=_no_constants)
    else:
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), target=st.sampled_from(["structure", "state"]))
def test_mutated_documents_end_cleanly(tmp_path, data, target):
    structure, state = _k5_text(), _STATE_TEXT
    if target == "structure":
        structure = _mutate(structure, data)
    else:
        state = _mutate(state, data)
    (tmp_path / "s.json").write_text(structure)
    (tmp_path / "st.json").write_text(state)
    command = data.draw(st.sampled_from(["check", "axial", "export"]))
    argv = [command, tmp_path / "s.json"]
    if command != "export":  # which writes meshes, not a report
        argv += ["--format", "json"]
    if command != "axial":
        argv += ["--state", tmp_path / "st.json"]
    if command == "export":
        argv += ["--out-dir", tmp_path / "d"]
    _assert_clean_exit(*run_strict(*argv), report=command != "export")

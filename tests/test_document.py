import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from loopstatics import (
    SelfStressState,
    Bivector6,
    StateError,
    StructureError,
    fundamental_cycles,
    k5_frame,
    parse_state,
    parse_structure,
    prism_frame,
    serialize_state,
    serialize_structure,
    validate_structure,
)
from loopstatics.cli import main

MINIMAL = """
{
  "format": "frame-structure/1",
  "nodes": [
    {"id": "x", "x": 0, "y": 0, "z": 0},
    {"id": "y", "x": 1, "y": 0, "z": 0}
  ],
  "bars": [{"id": "a", "tail": "x", "head": "y"}]
}
"""


def gen(*argv):
    """The document `loopstatics gen` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["gen", *argv]) == 0
    return parse_structure(out.getvalue())


class TestParseValidate:
    def test_minimal_document(self):
        doc = parse_structure(MINIMAL)
        g = validate_structure(doc)
        assert (g.v, g.e) == (2, 1)
        assert g.ends("a") == ("x", "y")

    def test_unordered_ends_take_lower_id_as_tail(self):
        text = json.dumps(
            {
                "nodes": [
                    {"id": "b", "x": 0, "y": 0, "z": 0},
                    {"id": "a", "x": 1, "y": 0, "z": 0},
                ],
                "bars": [{"id": "e", "ends": ["b", "a"]}],
            }
        )
        g = validate_structure(parse_structure(text))
        assert g.ends("e") == ("a", "b")

    def test_missing_node_reference_names_the_bar(self):
        text = MINIMAL.replace('"head": "y"', '"head": "ghost"')
        with pytest.raises(StructureError, match="'a'.*unknown node 'ghost'"):
            validate_structure(parse_structure(text))

    def test_syntax_error_is_distinct(self):
        with pytest.raises(StructureError, match="syntax error"):
            parse_structure("{ not json")

    def test_duplicate_node_id(self):
        text = MINIMAL.replace('"id": "y"', '"id": "x"')
        with pytest.raises(StructureError, match="duplicate node"):
            validate_structure(parse_structure(text))

    def test_disconnected_graph(self):
        raw = json.loads(MINIMAL)
        raw["nodes"].append({"id": "z", "x": 5, "y": 5, "z": 5})
        with pytest.raises(StructureError, match="disconnected"):
            validate_structure(parse_structure(json.dumps(raw)))

    def test_unsupported_format_version(self):
        raw = json.loads(MINIMAL)
        raw["format"] = "something/9"
        with pytest.raises(StructureError, match="unsupported"):
            parse_structure(json.dumps(raw))

    def test_non_numeric_coordinate(self):
        text = MINIMAL.replace('"x": 1', '"x": "one"')
        with pytest.raises(StructureError, match="must be a number"):
            parse_structure(text)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        doc = parse_structure(MINIMAL)
        again = parse_structure(serialize_structure(doc))
        assert again == doc

    def test_k5_generator_output_reparses_identically(self):
        doc = gen("k5")
        assert parse_structure(serialize_structure(doc)) == doc

    def test_unknown_fields_survive(self):
        raw = json.loads(MINIMAL)
        raw["project"] = {"name": "bridge 7"}
        raw["nodes"][0]["label"] = "support"
        raw["bars"][0]["material"] = "steel"
        doc = parse_structure(json.dumps(raw))
        text = serialize_structure(doc)
        again = parse_structure(text)
        assert again == doc
        assert again.extras["project"] == {"name": "bridge 7"}
        assert again.nodes[0].extras["label"] == "support"
        assert again.bars[0].extras["material"] == "steel"

    def test_serialization_is_deterministic(self):
        doc = gen("prism", "--twist", "0.25")
        assert serialize_structure(doc) == serialize_structure(doc)


class TestGenerators:
    def test_k5_counts(self):
        g = validate_structure(gen("k5"))
        assert (g.v, g.e) == (5, 10)
        assert len(fundamental_cycles(g)) == 6

    def test_k5_center_elsewhere_same_topology(self):
        base = validate_structure(gen("k5"))
        moved = validate_structure(gen("k5", "--center", "4", "4", "4"))
        assert moved.edge_ids == base.edge_ids
        assert [moved.ends(e) for e in moved.edge_ids] == [
            base.ends(e) for e in base.edge_ids
        ]

    def test_prism_counts_and_valence(self):
        g = validate_structure(gen("prism", "--twist", "0.4"))
        assert (g.v, g.e) == (6, 12)
        for n in g.node_ids:
            assert len(g.incident_edges(n)) == 4

    def test_prism_geometry_on_the_cylinder(self):
        doc = gen("prism", "--radius", "1", "--half-height", "0.5", "--twist", "0.3")
        for rec in doc.nodes:
            assert np.hypot(rec.x, rec.y) == pytest.approx(1.0)
            assert abs(rec.z) == pytest.approx(0.5)

    def test_prism_needs_positive_radius(self):
        with pytest.raises(StructureError, match="radius"):
            prism_frame(radius=0.0)

    def test_k5_needs_four_corners(self):
        with pytest.raises(StructureError, match="4 outer"):
            k5_frame(outer=[(0, 0, 0)])


class TestStateDocuments:
    def test_round_trip(self):
        state = SelfStressState(
            {
                "p": Bivector6(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                "q": Bivector6(ij=-0.5),
            }
        )
        again = parse_state(serialize_state(state))
        assert set(again.resultants) == {"p", "q"}
        assert again.resultants["p"] == state.resultants["p"]
        assert again.resultants["q"] == state.resultants["q"]

    def test_missing_components_default_to_zero(self):
        state = parse_state('{"resultants": [{"cycle": "p", "ij": 2.0}]}')
        assert state.resultants["p"] == Bivector6(ij=2.0)

    def test_duplicate_cycle_rejected(self):
        text = '{"resultants": [{"cycle": "p"}, {"cycle": "p"}]}'
        with pytest.raises(StateError, match="duplicate"):
            parse_state(text)

    def test_syntax_error(self):
        with pytest.raises(StateError, match="syntax error"):
            parse_state("nope")

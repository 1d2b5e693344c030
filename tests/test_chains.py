import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstatics import (
    Chain0,
    Chain1,
    FrameGraph,
    StructureError,
    boundary,
    fundamental_cycles,
    is_cycle,
)

from helpers import int_k5, random_connected_graph


def two_node_graph():
    return FrameGraph(
        nodes=[("x", (0.0, 0.0, 0.0)), ("y", (1.0, 0.0, 0.0))],
        edges=[("a", "x", "y")],
    )


class TestBoundary:
    def test_single_edge_head_minus_tail(self):
        g = two_node_graph()
        assert boundary(Chain1({"a": 1}), g) == Chain0({"y": 1, "x": -1})

    def test_zero_chain_maps_to_zero(self):
        g = two_node_graph()
        assert boundary(Chain1(), g) == Chain0()

    def test_closed_triangle_telescopes(self):
        g = int_k5()
        tri = Chain1({(0, 1): 1, (1, 2): 1, (0, 2): -1})
        assert boundary(tri, g) == Chain0()

    def test_unknown_edge_rejected(self):
        g = two_node_graph()
        with pytest.raises(StructureError, match="unknown bar"):
            boundary(Chain1({"nope": 1}), g)


class TestIsCycle:
    def test_triangle_is_cycle(self):
        g = int_k5()
        assert is_cycle(Chain1({(0, 1): 1, (1, 2): 1, (0, 2): -1}), g)

    def test_single_edge_is_not(self):
        g = two_node_graph()
        assert not is_cycle(Chain1({"a": 1}), g)

    def test_disconnected_formal_sum_is_cycle(self):
        # two vertex-disjoint triangles of K5 added formally: still boundary-free
        g = int_k5()
        both = Chain1(
            {(0, 1): 1, (1, 2): 1, (0, 2): -1, (2, 3): 1, (3, 4): 1, (2, 4): -1}
        )
        assert is_cycle(both, g)


class TestChainArithmetic:
    def test_coefficientwise_sum(self):
        a = Chain1({"a": 1, "b": 1})
        b = Chain1({"b": 1, "d": -1})
        assert a + b == Chain1({"a": 1, "b": 2, "d": -1})

    def test_commutative(self):
        a = Chain1({"a": 3, "b": -2})
        b = Chain1({"b": 5, "c": 1})
        assert a + b == b + a

    def test_additive_inverse(self):
        c = Chain1({"a": 2, "c": -7})
        assert c + -1 * c == Chain1()

    def test_scale_by_zero(self):
        assert 0 * Chain1({"a": 5}) == Chain1()

    def test_equality_ignores_explicit_zeros(self):
        assert Chain1({"a": 1, "b": 0}) == Chain1({"a": 1})
        assert Chain0({"x": 0}) == Chain0()

    def test_mixed_degree_rejected(self):
        with pytest.raises(TypeError):
            Chain1({"a": 1}) + Chain0({"x": 1})

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(StructureError):
            Chain1({"a": 0.5})


_coeffs = st.dictionaries(
    st.sampled_from([(i, j) for i in range(5) for j in range(i + 1, 5)]),
    st.integers(-5, 5),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(_coeffs, _coeffs)
def test_boundary_is_a_homomorphism(ca, cb):
    g = int_k5()
    x, y = Chain1(ca), Chain1(cb)
    assert boundary(x + y, g) == boundary(x, g) + boundary(y, g)


@settings(deadline=None)
@given(_coeffs, _coeffs, st.integers(-4, 4))
def test_chain_group_laws(ca, cb, k):
    x, y = Chain1(ca), Chain1(cb)
    assert x + y == y + x
    assert k * (x + y) == k * x + k * y


class TestFrameGraphValidation:
    def test_duplicate_node_id(self):
        with pytest.raises(StructureError, match="duplicate node"):
            FrameGraph(
                nodes=[("x", (0, 0, 0)), ("x", (1, 0, 0))],
                edges=[],
            )

    def test_duplicate_bar_id(self):
        with pytest.raises(StructureError, match="duplicate bar"):
            FrameGraph(
                nodes=[("x", (0, 0, 0)), ("y", (1, 0, 0))],
                edges=[("a", "x", "y"), ("a", "y", "x")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError, match="self-loop"):
            FrameGraph(nodes=[("x", (0, 0, 0))], edges=[("a", "x", "x")])

    def test_unknown_endpoint_names_bar(self):
        with pytest.raises(StructureError, match="'a'.*unknown node"):
            FrameGraph(nodes=[("x", (0, 0, 0))], edges=[("a", "x", "ghost")])

    def test_disconnected_rejected_with_diagnostic(self):
        with pytest.raises(StructureError, match="disconnected"):
            FrameGraph(
                nodes=[("x", (0, 0, 0)), ("y", (1, 0, 0)), ("z", (2, 0, 0))],
                edges=[("a", "x", "y")],
            )

    def test_parallel_bars_allowed(self):
        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (1, 0, 0))],
            edges=[("a", "x", "y"), ("b", "x", "y")],
        )
        assert g.e == 2

    def test_non_finite_position_rejected(self):
        with pytest.raises(StructureError, match="non-finite"):
            FrameGraph(nodes=[("x", (0, 0, np.inf))], edges=[])

    def test_bar_geometry(self):
        g = two_node_graph()
        assert g.length("a") == 1.0
        assert np.allclose(g.direction("a"), [1, 0, 0])
        assert np.allclose(g.midpoint("a"), [0.5, 0, 0])

    def test_bar_frames_are_built_at_first_use_and_refuse_coincident_ends(self):
        """`units` and `midpoints` are built once, when first read; a bar
        whose ends coincide makes `units` raise at each read, while the
        graph and its cycles stand."""
        g = two_node_graph()
        assert "units" not in vars(g) and "midpoints" not in vars(g)
        assert g.units is g.units and g.midpoints is g.midpoints
        assert g.units.tolist() == [[1.0, 0.0, 0.0]]
        flat = FrameGraph(nodes=[("x", (0, 0, 0)), ("y", (0, 0, 0))],
                          edges=[("a", "x", "y"), ("b", "x", "y")])
        assert len(fundamental_cycles(flat)) == 1
        for _ in range(2):
            with pytest.raises(StructureError, match="bar 'a' has coincident endpoints"):
                flat.units
        assert flat.midpoints.tolist() == [[0.0, 0.0, 0.0]] * 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_frame_arrays_are_the_per_node_and_per_bar_queries(seed):
    """`positions` and `end_rows` hold, bit for bit, the coordinates given
    and each bar's (tail, head) rows; the geometry queries read them with
    the same bits as the given coordinates; writing to either raises."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    given_at = {n: g.position(n) for n in g.node_ids}
    nodes = [(n, given_at[n]) for n in g.node_ids]
    h = FrameGraph(nodes, [(e, *g.ends(e)) for e in g.edge_ids])
    rows = {n: i for i, n in enumerate(h.node_ids)}
    assert h.positions.shape == (h.v, 3) and h.end_rows.shape == (h.e, 2)
    assert h.positions.tobytes() == np.array([p for _, p in nodes]).tobytes()
    for n in h.node_ids:
        assert h.position(n).tobytes() == h.positions[rows[n]].tobytes()
    for i, bar in enumerate(h.edge_ids):
        tail, head = h.ends(bar)
        assert h.end_rows[i].tolist() == [rows[tail], rows[head]] and h.columns[bar] == i
        d = given_at[head] - given_at[tail]
        assert h.direction(bar).tobytes() == (d / np.linalg.norm(d)).tobytes()
        assert h.midpoint(bar).tobytes() == (0.5 * (given_at[tail] + given_at[head])).tobytes()
        assert h.length(bar) == float(np.linalg.norm(d))
    for array in (h.positions, h.end_rows):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    with pytest.raises(TypeError):
        h.columns[h.edge_ids[0]] = 1

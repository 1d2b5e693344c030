import numpy as np
import pytest

from loopstatics import (
    Chain1,
    FrameGraph,
    StructureError,
    fundamental_cycles,
    is_cycle,
    k5_frame,
    prism_frame,
    spanning_tree,
)
from loopstatics.cycles import assert_valid_basis

from helpers import int_k5, random_connected_graph, triangle_graph


def path_graph(n=4):
    nodes = [(i, (float(i), 0.0, 0.0)) for i in range(n)]
    edges = [(f"e{i}", i, i + 1) for i in range(n - 1)]
    return FrameGraph(nodes, edges)


class TestSpanningTree:
    def test_k5_tree_has_four_edges(self):
        tree = spanning_tree(k5_frame())
        assert len(tree.edge_ids) == 4

    def test_k5_default_tree_is_radial(self):
        # hub sorts first and spokes are listed first, so BFS takes the spokes
        tree = spanning_tree(k5_frame())
        assert tree.root == "c"
        assert tree.edge_ids == frozenset({"s0", "s1", "s2", "s3"})

    def test_prism_tree_has_five_edges(self):
        tree = spanning_tree(prism_frame())
        assert len(tree.edge_ids) == 5

    def test_triangle_tree(self):
        g = triangle_graph()
        tree = spanning_tree(g)
        assert len(tree.edge_ids) == 2
        assert len(fundamental_cycles(g, tree)) == 1

    def test_deterministic(self):
        g1, g2 = k5_frame(), k5_frame()
        t1, t2 = spanning_tree(g1), spanning_tree(g2)
        assert t1.edge_ids == t2.edge_ids
        assert t1.links == t2.links

    def test_explicit_root(self):
        tree = spanning_tree(k5_frame(), root="o2")
        assert tree.root == "o2"
        assert len(tree.edge_ids) == 4

    def test_unknown_root(self):
        with pytest.raises(StructureError, match="unknown root"):
            spanning_tree(k5_frame(), root="nope")


class TestFundamentalCycles:
    def test_k5_has_six(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        assert len(basis) == 6
        assert_valid_basis(g, basis)

    def test_prism_has_seven(self):
        g = prism_frame()
        basis = fundamental_cycles(g)
        assert len(basis) == 7
        assert_valid_basis(g, basis)

    def test_tree_input_gives_empty_basis(self):
        g = path_graph()
        assert fundamental_cycles(g) == []

    def test_generator_coefficient_is_plus_one(self):
        for cycle in fundamental_cycles(int_k5()):
            assert cycle.chain.coefficient(cycle.generator) == 1

    def test_coefficients_are_unit(self):
        for cycle in fundamental_cycles(prism_frame()):
            assert set(abs(c) for _, c in cycle.chain.items()) <= {1}

    def test_k5_spoke_cycle_shape(self):
        # loop of outer bar o01 returns through spokes s1 (against) and s0 (with)
        g = k5_frame()
        basis = {c.generator: c for c in fundamental_cycles(g)}
        assert basis["o01"].chain == Chain1({"o01": 1, "s0": 1, "s1": -1})

    def test_parallel_edges_form_a_two_bar_cycle(self):
        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (1, 0, 0))],
            edges=[("a", "x", "y"), ("b", "x", "y")],
        )
        basis = fundamental_cycles(g)
        assert len(basis) == 1
        assert basis[0].chain == Chain1({"b": 1, "a": -1})


def membership(bar, basis) -> list:
    """(cycle id, signed coefficient) of the basis loops through a bar."""
    return [(c.generator, c.chain.coefficient(bar)) for c in basis if c.chain.coefficient(bar)]


class TestCycleMembership:
    def test_k5_tree_bar_in_three_loops(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        hits = membership("s1", basis)
        assert len(hits) == 3
        assert all(coeff in (-1, 1) for _, coeff in hits)
        assert {cid for cid, _ in hits} == {"o01", "o12", "o13"}

    def test_non_tree_bar_owns_its_cycle(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        assert membership("o23", basis) == [("o23", 1)]

    def test_bridge_belongs_to_no_cycle(self):
        nodes = [(i, (float(i % 3), float(i // 3), 0.0)) for i in range(6)]
        edges = [
            ("t1a", 0, 1), ("t1b", 1, 2), ("t1c", 0, 2),
            ("bridge", 2, 3),
            ("t2a", 3, 4), ("t2b", 4, 5), ("t2c", 3, 5),
        ]
        g = FrameGraph(nodes, edges)
        basis = fundamental_cycles(g)
        assert len(basis) == 2
        assert membership("bridge", basis) == []


def test_random_graph_bases_are_complete_and_independent():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        g = random_connected_graph(rng)
        basis = fundamental_cycles(g)
        assert len(basis) == g.e - g.v + 1
        for cycle in basis:
            assert is_cycle(cycle.chain, g)
        # each cycle holds exactly its own generator among the non-tree bars,
        # so the generator columns form an identity: full rank over Q
        generators = [c.generator for c in basis]
        for i, ci in enumerate(basis):
            for j, gen in enumerate(generators):
                assert ci.chain.coefficient(gen) == (1 if i == j else 0)
        if basis:
            m = np.array(
                [[c.chain.coefficient(e) for e in g.edge_ids] for c in basis]
            )
            assert np.linalg.matrix_rank(m) == len(basis)

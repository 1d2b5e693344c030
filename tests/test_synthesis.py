import numpy as np
import pytest

from loopstatics import (
    Bivector6,
    DualChain,
    FrameGraph,
    Point4,
    SelfStressState,
    StructureError,
    all_bar_resultants,
    axial_selfstress_basis,
    axial_to_state,
    chain_area,
    force_of,
    fundamental_cycles,
    is_simple,
    k5_frame,
    loop_area,
    moment_of,
    prism_critical_twist,
    prism_frame,
    realize_state,
    zero_bar_loop,
)
from loopstatics.synthesis import _merge_rows, _triangles

from helpers import item_area, loop_of, random_state, rectangle_chain, ref_merge_chain


def triangle(mid, force, moment):
    """The loop of `_triangles` for one axial bar."""
    f = np.asarray(force, dtype=float)
    return loop_of(_triangles(np.array([mid], dtype=float), f[None],
                              np.array([moment], dtype=float),
                              np.array([np.linalg.norm(f)]))[0])


def rectangle_rows(target: Bivector6, anchor=(0.0, 0.0, 0.0, 0.0)) -> list:
    """The loops of `rectangle_chain`, as lists of vertex rows."""
    return [[(v.x, v.y, v.z, v.h) for v in loop.vertices]
            for _, loop in rectangle_chain(target, anchor).terms]


class TestSynthesizeChain:
    def test_single_component_is_one_rectangle(self):
        chain = rectangle_chain(Bivector6(ij=2.0))
        assert len(chain) == 1
        area = chain_area(chain)
        assert area.ij == 2.0 and area.norm() == 2.0
        # a 2 x 1 rectangle: x spans 2, y spans 1
        xs = [v.x for v in chain.terms[0][1].vertices]
        ys = [v.y for v in chain.terms[0][1].vertices]
        assert max(xs) - min(xs) == 2.0
        assert max(ys) - min(ys) == 1.0

    def test_zero_target_is_empty(self):
        assert len(rectangle_chain(Bivector6())) == 0

    def test_k5_tree_bar_resultant_target(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = random_state(np.random.default_rng(21), basis)
        target = all_bar_resultants(state, basis, g)["s1"].bivector
        chain = rectangle_chain(target)
        assert len(chain) <= 6
        err = (chain_area(chain) - target).norm()
        assert err <= 1e-12 * target.norm()

    def test_thousand_random_targets(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            target = Bivector6(*rng.normal(size=6))
            anchor = rng.uniform(-5.0, 5.0, size=4)
            err = (chain_area(rectangle_chain(target, anchor)) - target).norm()
            assert err <= 1e-12 * target.norm()

    def test_anchor_never_changes_the_area(self):
        target = Bivector6(1.0, -2.0, 3.0, -0.5, 0.25, 4.0)
        a = chain_area(rectangle_chain(target, (0, 0, 0, 0)))
        b = chain_area(rectangle_chain(target, (8.5, -3.25, 2.0, 1.5)))
        assert np.allclose(a.components(), b.components(), atol=1e-12)


class TestTriangleForAxial:
    def test_bar_through_origin_gives_flat_triangle(self):
        loop = triangle(np.zeros(3), [0.0, 0.0, 1.0], np.zeros(3))
        assert len(loop.vertices) == 3
        assert all(v.h == 0.0 for v in loop.vertices)
        assert all(v.z == 0.0 for v in loop.vertices)
        b = loop_area(loop)
        assert b.ij == pytest.approx(1.0, abs=1e-12)
        assert abs(b.jk) < 1e-12 and abs(b.ki) < 1e-12

    def test_realizes_force_and_moment(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tail = rng.uniform(-2, 2, size=3)
            head = tail + rng.uniform(-2, 2, size=3)
            if np.linalg.norm(head - tail) < 0.1:
                continue
            u = (head - tail) / np.linalg.norm(head - tail)
            q = rng.uniform(-3.0, 3.0)
            if abs(q) < 0.05:
                continue
            force = q * u
            moment = np.cross(0.5 * (tail + head), force)
            loop = triangle(0.5 * (tail + head), force, moment)
            b = loop_area(loop)
            assert np.allclose(force_of(b), force, atol=1e-10)
            assert np.allclose(moment_of(b), moment, atol=1e-10)
            # spatial area vector parallel to the bar, magnitude |force|
            assert np.linalg.norm(np.cross(force_of(b), u)) < 1e-10
            assert np.linalg.norm(force_of(b)) == pytest.approx(abs(q), rel=1e-12)
            assert is_simple(b)

    def test_k5_cycle_triangles_are_normal_to_their_bars(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
        items = realize_state(g, basis, state, per="cycle").items
        assert len(items) == len(basis)
        for name, chain, loops in items:
            assert not chain and len(loops) == 1
            spatial = force_of(loop_area(loop_of(loops[0])))
            assert np.linalg.norm(np.cross(spatial, g.direction(name.removeprefix("cycle_")))) < 1e-10

    def test_prism_triangle_areas_close_at_every_node(self):
        g = prism_frame(twist=prism_critical_twist())
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
        resultants = all_bar_resultants(state, basis, g)
        triangles = {name: loops for name, _, loops in realize_state(g, basis, state).items}
        scale = max(np.linalg.norm(resultants[e].force) for e in g.edge_ids)
        for node in g.node_ids:
            total = np.zeros(3)
            for e in g.incident_edges(node):
                sign = 1 if g.ends(e)[1] == node else -1  # +1 into the node
                total += sign * force_of(item_area(triangles[f"bar_{e}"]))
            assert np.linalg.norm(total) <= 1e-10 * scale

    def test_zero_force_with_moment_falls_back_to_rectangles(self):
        g = FrameGraph([("x", (0, 0, 0)), ("y", (1, 0, 0))], [("a", "x", "y"), ("b", "x", "y")])
        basis = fundamental_cycles(g)
        state = SelfStressState({"b": Bivector6(kh=2.0)})
        realized = realize_state(g, basis, state)
        assert realized.fallbacks == ("bar_a", "bar_b")
        for name, _, loops in realized.items:
            b = item_area(loops)
            assert np.allclose(moment_of(b), [0, 0, 2.0 if name == "bar_b" else -2.0])
            assert np.allclose(force_of(b), [0, 0, 0])

    def test_zero_force_zero_moment_is_an_empty_chain(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = random_state(np.random.default_rng(25), basis)
        state = SelfStressState({**state.resultants, "o23": Bivector6()})
        names = [name for name, _, _ in realize_state(g, basis, state, per="cycle").items]
        assert names == [f"cycle_{c.generator}" for c in basis if c.generator != "o23"]

    def test_degenerate_bar_rejected(self):
        g = FrameGraph([("x", (0, 0, 0)), ("y", (0, 0, 0))], [("a", "x", "y"), ("b", "x", "y")])
        state = SelfStressState({"b": Bivector6(ij=1.0)})
        with pytest.raises(StructureError, match="coincident"):
            realize_state(g, fundamental_cycles(g), state)


class TestZeroBarLoop:
    def test_all_areas_vanish(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            anchor = Point4(*rng.uniform(-1.0, 1.0, size=4))
            loop = zero_bar_loop(n, anchor)
            assert np.max(np.abs(loop_area(loop).components())) <= 1e-15

    def test_scaling_keeps_zero(self):
        n = np.array([0.0, 0.0, 1.0])
        for size in (0.1, 1.0, 7.0):
            loop = zero_bar_loop(n, size=size)
            assert np.max(np.abs(loop_area(loop).components())) <= 1e-14

    def test_additive_identity_in_a_chain(self):
        target = Bivector6(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        chain = rectangle_chain(target)
        bowtie = zero_bar_loop(np.array([1.0, 0.0, 0.0]))
        extended = chain + DualChain(((1, bowtie),))
        assert np.allclose(
            chain_area(extended).components(), target.components(), atol=1e-14
        )

    def test_non_unit_normal_rejected(self):
        with pytest.raises(StructureError, match="unit"):
            zero_bar_loop(np.array([1.0, 1.0, 0.0]))


class TestMergeChain:
    def test_rectangles_merge_into_one_connected_loop(self):
        target = Bivector6(1.0, -2.0, 0.5, 3.0, -0.25, 1.5)
        merged = _merge_rows(rectangle_rows(target))
        assert len(merged) == 1
        assert np.allclose(item_area(merged).components(), target.components(), atol=1e-12)

    def test_negative_coefficients_fold_into_orientation(self):
        sq = rectangle_chain(Bivector6(ij=1.0)).terms[0][1]
        chain = DualChain(((-2, sq),))
        merged = ref_merge_chain(chain)
        assert sum(c for c, _ in merged.terms) == len(merged.terms)  # all +1
        assert chain_area(merged).ij == pytest.approx(-2.0)

    def test_disjoint_loops_stay_apart(self):
        a = rectangle_rows(Bivector6(ij=1.0), (0, 0, 0, 0))
        b = rectangle_rows(Bivector6(ij=1.0), (10, 10, 10, 0))
        assert len(_merge_rows(a + b)) == 2

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from loopstatics.synthesis import _normal_form_loops, _triangles

from helpers import (
    item_area,
    loop_of,
    normal_form_loop,
    random_state,
    ref_normal_form_loop,
)


def triangle(mid, force, moment):
    """The loop of `_triangles` for one axial bar."""
    f = np.asarray(force, dtype=float)
    rows = _triangles(f[None], np.array([moment], dtype=float), np.array([np.linalg.norm(f)]))[0]
    return loop_of(rows + (*mid, 0.0))


def rel_err(loop, target: Bivector6) -> float:
    return (loop_area(loop) - target).norm() / target.norm()


class TestSynthesizeChain:
    def test_single_component_is_one_triangle(self):
        loop = normal_form_loop(Bivector6(ij=2.0))
        assert len(loop.vertices) == 3
        area = loop_area(loop)
        assert area.ij == pytest.approx(2.0, rel=1e-15)
        assert np.allclose(area.components()[[0, 1, 3, 4, 5]], 0.0, atol=1e-15)
        # a right isosceles triangle of legs 2 in the xy plane
        assert all(v.z == 0.0 and v.h == 0.0 for v in loop.vertices)

    def test_zero_target_is_empty(self):
        """A zero resultant is a Zero Bar and gets no loop."""
        g = FrameGraph([("x", (0, 0, 0)), ("y", (1, 0, 0)), ("z", (0, 1, 0))],
                       [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "z"), ("d", "y", "z")])
        basis = fundamental_cycles(g)
        state = SelfStressState({"b": Bivector6(), "d": Bivector6(ij=1.0, kh=1.0)})
        assert [name for name, _ in realize_state(g, basis, state).items] == ["bar_c", "bar_d"]

    def test_k5_tree_bar_resultant_target(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = random_state(np.random.default_rng(21), basis)
        target = all_bar_resultants(state, basis, g)["s1"].bivector
        loop = normal_form_loop(target)
        assert len(loop.vertices) == 6
        assert rel_err(loop, target) <= 1e-12

    def test_thousand_random_targets(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            target = Bivector6(*rng.normal(size=6))
            anchor = rng.uniform(-5.0, 5.0, size=4)
            assert rel_err(normal_form_loop(target, anchor), target) <= 1e-12

    def test_anchor_never_changes_the_area(self):
        target = Bivector6(1.0, -2.0, 3.0, -0.5, 0.25, 4.0)
        a = loop_area(normal_form_loop(target, (0, 0, 0, 0)))
        b = loop_area(normal_form_loop(target, (8.5, -3.25, 2.0, 1.5)))
        assert np.allclose(a.components(), b.components(), atol=1e-12)


class TestNormalFormLoop:
    # vertices at +-1e3 round at 1e3 machine epsilons, so an area of 1 or
    # more keeps that rounding below 1e-12 of it
    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
           anchor=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
    def test_shoelace_areas_are_the_bivector(self, row, anchor):
        target = Bivector6(*row)
        assume(target.norm() >= 1.0)
        assert rel_err(normal_form_loop(target, anchor), target) <= 1e-12

    def test_simple_bivectors_are_one_triangle(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            force = rng.normal(size=3)
            mid = rng.uniform(-1e3, 1e3, size=3)
            for target in (Bivector6.from_force_moment(force, [0.0, 0.0, 0.0]),
                           Bivector6.from_force_moment(force, np.cross(mid, force))):
                loop = normal_form_loop(target, (*mid, 0.0))
                assert len(loop.vertices) == 3
                assert rel_err(loop, target) <= 1e-12

    def test_general_bivectors_are_two_triangles_through_the_anchor(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            target = Bivector6(*rng.normal(size=6))
            assert not is_simple(target)
            loop = normal_form_loop(target, (1.0, 2.0, 3.0, 0.0))
            assert len(loop.vertices) == 6
            assert loop.vertices[0] == loop.vertices[3] == Point4(1.0, 2.0, 3.0, 0.0)

    def test_equal_weights(self):
        """jk = ih = 1: q = 0, so the two weights are equal and q's unit
        vector is the default one; the planes are still orthogonal."""
        target = Bivector6(jk=1.0, ih=1.0)
        loop = normal_form_loop(target)
        assert len(loop.vertices) == 6
        assert rel_err(loop, target) <= 1e-15
        rows = loop.vertex_array()
        e1, f1, e2, f2 = rows[1], rows[2], rows[4], rows[5]  # each of length sqrt(2)
        gram = np.array([e1, f1, e2, f2]) @ np.array([e1, f1, e2, f2]).T
        assert np.allclose(gram, 2.0 * np.eye(4), atol=1e-15)

    def test_pure_couple(self):
        target = Bivector6(ih=0.5, jh=-1.5, kh=2.0)
        loop = normal_form_loop(target, (1.0, -1.0, 0.5, 0.0))
        assert len(loop.vertices) == 3
        assert rel_err(loop, target) <= 1e-15
        assert np.linalg.norm(force_of(loop_area(loop))) <= 1e-15

    def test_rows_are_the_per_row_reference_bit_for_bit(self):
        rng = np.random.default_rng(28)
        rows = rng.normal(size=(300, 6)) * 10.0 ** rng.uniform(-3, 3, size=(300, 6))
        rows[::3, 3:] = np.cross(rng.uniform(-5, 5, size=(100, 3)), rows[::3, :3])
        rows[1::3, 3:] = rows[1::3, :3] * rng.choice([-1.0, 1.0], size=(100, 1))  # f = +-m
        loops, simple = _normal_form_loops(rows)
        for loop, is_simple_row, row in zip(loops, simple, rows):
            expected = ref_normal_form_loop(row).vertex_array()
            assert (loop[:3] if is_simple_row else loop).tobytes() == expected.tobytes()


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
        for name, rows in items:
            assert len(rows) == 3
            spatial = force_of(item_area(rows))
            assert np.linalg.norm(np.cross(spatial, g.direction(name.removeprefix("cycle_")))) < 1e-10

    def test_prism_triangle_areas_close_at_every_node(self):
        g = prism_frame(twist=prism_critical_twist())
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
        resultants = all_bar_resultants(state, basis, g)
        triangles = dict(realize_state(g, basis, state).items)
        scale = max(np.linalg.norm(resultants[e].force) for e in g.edge_ids)
        for node in g.node_ids:
            total = np.zeros(3)
            for e in g.incident_edges(node):
                sign = 1 if g.ends(e)[1] == node else -1  # +1 into the node
                total += sign * force_of(item_area(triangles[f"bar_{e}"]))
            assert np.linalg.norm(total) <= 1e-10 * scale

    def test_zero_force_with_moment_is_a_pure_couple_triangle(self):
        """Not axial, and simple: one triangle in a plane through h."""
        g = FrameGraph([("x", (0, 0, 0)), ("y", (1, 0, 0))], [("a", "x", "y"), ("b", "x", "y")])
        basis = fundamental_cycles(g)
        state = SelfStressState({"b": Bivector6(kh=2.0)})
        realized = realize_state(g, basis, state)
        assert [name for name, _ in realized.items] == ["bar_a", "bar_b"]
        for name, rows in realized.items:
            assert len(rows) == 3
            b = item_area(rows)
            assert np.allclose(moment_of(b), [0, 0, 2.0 if name == "bar_b" else -2.0])
            assert np.allclose(force_of(b), [0, 0, 0])

    def test_zero_force_zero_moment_is_an_empty_chain(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = random_state(np.random.default_rng(25), basis)
        state = SelfStressState({**state.resultants, "o23": Bivector6()})
        names = [name for name, _ in realize_state(g, basis, state, per="cycle").items]
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
        chain = DualChain(((1, normal_form_loop(target)),))
        bowtie = zero_bar_loop(np.array([1.0, 0.0, 0.0]))
        extended = chain + DualChain(((1, bowtie),))
        assert np.allclose(
            chain_area(extended).components(), target.components(), atol=1e-14
        )

    def test_non_unit_normal_rejected(self):
        with pytest.raises(StructureError, match="unit"):
            zero_bar_loop(np.array([1.0, 1.0, 0.0]))

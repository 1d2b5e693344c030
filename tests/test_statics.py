import numpy as np
import pytest

from loopstatics import (
    AxialForceVector,
    FrameGraph,
    StructureError,
    all_bar_resultants,
    analyze_statics,
    axial_selfstress_basis,
    axial_to_state,
    equilibrium_matrix,
    fundamental_cycles,
    k5_frame,
    maxwell_calladine,
    prism_critical_twist,
    prism_frame,
)
from loopstatics.structures import PRISM_CABLES, PRISM_STRUTS

from helpers import lattice_graph, random_connected_graph


def single_bar():
    return FrameGraph(
        nodes=[("x", (0.0, 0.0, 0.0)), ("y", (1.0, 0.0, 0.0))],
        edges=[("a", "x", "y")],
    )


class TestEquilibriumMatrix:
    def test_single_bar_column(self):
        eq = equilibrium_matrix(single_bar())
        col = eq.matrix[:, 0]
        # node order (x, y): -unit at the tail rows, +unit at the head rows
        assert np.array_equal(col, [-1, 0, 0, 1, 0, 0])

    def test_every_column_has_norm_sqrt2(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_connected_graph(rng)
            a = equilibrium_matrix(g).matrix
            assert np.allclose(np.linalg.norm(a, axis=0), np.sqrt(2.0))

    def test_zero_length_bar_rejected(self):
        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (0, 0, 0))],
            edges=[("a", "x", "y")],
        )
        with pytest.raises(StructureError, match="coincident"):
            equilibrium_matrix(g)


class TestCounts:
    def test_k5_general_position(self):
        summary = analyze_statics(k5_frame())
        assert (summary.rank, summary.s, summary.m) == (9, 1, 0)
        assert maxwell_calladine(k5_frame()) == (1, 0)

    def test_k5_center_outside_tetrahedron(self):
        g = k5_frame(center=(3.0, 2.5, 2.0))
        assert (g.v, g.e) == (5, 10)
        summary = analyze_statics(g)
        assert (summary.rank, summary.s, summary.m) == (9, 1, 0)

    def test_k5_center_in_a_face_gains_zero_bars(self):
        # coplanar variant: the self-stress collapses onto the planar
        # sub-frame and every bar at the coned node loses its force
        outer = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        centroid = np.mean(np.array(outer[:3], dtype=float), axis=0)
        g = k5_frame(outer=outer, center=tuple(centroid))
        assert (g.v, g.e) == (5, 10)
        summary = analyze_statics(g)
        assert summary.s == 1
        q = summary.selfstress_basis[0]
        for bar in ("s3", "o03", "o13", "o23"):
            assert abs(q[bar]) < 1e-12
        for bar in ("s0", "s1", "s2", "o01", "o02", "o12"):
            assert abs(q[bar]) > 0.1

    def test_tetrahedron_is_isostatic(self):
        pos = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        g = FrameGraph(
            nodes=[(i, p) for i, p in enumerate(pos)],
            edges=[((i, j), i, j) for i in range(4) for j in range(i + 1, 4)],
        )
        assert maxwell_calladine(g) == (0, 0)

    def test_count_identity_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_connected_graph(rng, max_nodes=8, max_edges=20)
            if g.v < 3:
                continue
            s, m = maxwell_calladine(g)
            assert s - m == g.e - 3 * g.v + 6

    def test_too_few_nodes_rejected(self):
        with pytest.raises(StructureError, match="at least 3"):
            maxwell_calladine(single_bar())


class TestPrism:
    def test_critical_twist_is_thirty_degrees(self):
        twist = prism_critical_twist()
        assert twist == pytest.approx(np.pi / 6, abs=1e-9)

    def test_selfstressable_only_at_the_critical_twist(self):
        twist = prism_critical_twist()
        assert analyze_statics(prism_frame(twist=twist)).s == 1
        assert analyze_statics(prism_frame(twist=twist)).m == 1
        assert analyze_statics(prism_frame(twist=0.0)).s == 0
        assert analyze_statics(prism_frame(twist=0.2)).s == 0
        assert analyze_statics(prism_frame(twist=1.0)).s == 0

    def test_critical_twist_is_independent_of_aspect_ratio(self):
        for radius, half_height in [(2.0, 0.8), (0.7, 1.5)]:
            twist = prism_critical_twist(radius, half_height)
            assert twist == pytest.approx(np.pi / 6, abs=1e-8)
            assert analyze_statics(prism_frame(radius, half_height, twist)).s == 1

    def test_strut_and_cable_signs_oppose(self):
        g = prism_frame(twist=prism_critical_twist())
        q = axial_selfstress_basis(g)[0]
        strut_signs = {np.sign(q[b]) for b in PRISM_STRUTS}
        cable_signs = {np.sign(q[b]) for b in PRISM_CABLES}
        assert len(strut_signs) == 1 and len(cable_signs) == 1
        assert strut_signs != cable_signs
        assert len(PRISM_STRUTS) == 3 and len(PRISM_CABLES) == 9


class TestAxialToState:
    def test_zero_vector_gives_zero_state(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, AxialForceVector({}))
        assert all(b.norm() == 0.0 for b in state.resultants.values())

    def test_k5_round_trip_recovers_every_bar_force(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        q = axial_selfstress_basis(g)[0]
        state = axial_to_state(g, basis, q)
        resultants = all_bar_resultants(state, basis, g)
        qmax = max(abs(q[e]) for e in g.edge_ids)
        for e in g.edge_ids:
            recovered = resultants[e].force @ g.direction(e)
            assert abs(recovered - q[e]) <= 1e-9 * qmax

    def test_prism_round_trip_and_sign_pattern(self):
        g = prism_frame(twist=prism_critical_twist())
        basis = fundamental_cycles(g)
        q = axial_selfstress_basis(g)[0]
        state = axial_to_state(g, basis, q)
        resultants = all_bar_resultants(state, basis, g)
        recovered = {e: resultants[e].force @ g.direction(e) for e in g.edge_ids}
        strut_signs = {np.sign(recovered[b]) for b in PRISM_STRUTS}
        cable_signs = {np.sign(recovered[b]) for b in PRISM_CABLES}
        assert len(strut_signs) == 1 and strut_signs != cable_signs
        qmax = max(abs(q[e]) for e in g.edge_ids)
        for e in g.edge_ids:
            assert abs(recovered[e] - q[e]) <= 1e-9 * qmax

    def test_non_selfstress_vector_rejected(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        with pytest.raises(StructureError, match="not a self-stress"):
            axial_to_state(g, basis, AxialForceVector({"s0": 1.0}))

    def test_unknown_bar_rejected(self):
        g = k5_frame()
        basis = fundamental_cycles(g)
        with pytest.raises(StructureError, match="unknown bars"):
            axial_to_state(g, basis, AxialForceVector({"nope": 0.0}))


def _sample_frames():
    rng = np.random.default_rng(15)
    return {
        "k5": k5_frame(),
        "critical-prism": prism_frame(twist=prism_critical_twist()),
        "lattice": lattice_graph(rng, 3),
        **{f"random-{i}": random_connected_graph(rng) for i in range(5)},
    }


def _normalized_sign(vec: np.ndarray) -> np.ndarray:
    """The per-vector sign rule: the largest-magnitude entry, the first one
    on ties, is made positive."""
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


class TestNullBasis:
    @pytest.mark.parametrize("name", list(_sample_frames()))
    def test_rows_are_the_sign_normalized_svd_rows_bitwise(self, name):
        g = _sample_frames()[name]
        summary = analyze_statics(g)
        _, _, vt = np.linalg.svd(equilibrium_matrix(g).matrix)
        assert summary.null_basis.shape == (summary.s, g.e)
        assert summary.edge_ids == g.edge_ids
        for row, expected in zip(summary.null_basis, vt[summary.rank:]):
            assert row.tobytes() == _normalized_sign(expected).tobytes()

    def test_selfstress_basis_is_the_rows_as_bar_forces(self):
        g = lattice_graph(np.random.default_rng(16), 3)
        summary = analyze_statics(g)
        vectors = summary.selfstress_basis
        assert len(vectors) == summary.s == 15
        for q, row in zip(vectors, summary.null_basis):
            assert [q[e] for e in g.edge_ids] == row.tolist()
        assert summary.axial_vector(3).forces == vectors[3].forces

    def test_no_bars_gives_an_empty_basis(self):
        summary = analyze_statics(FrameGraph(nodes=[("a", (0, 0, 0))], edges=[]))
        assert summary.null_basis.shape == (0, 0)
        assert summary.selfstress_basis == ()


class TestSelfStressCheck:
    """axial_to_state accepts exactly the vectors with node balance A q = 0."""

    @pytest.mark.parametrize("name", ["k5", "critical-prism", "lattice"])
    def test_null_vectors_accepted_perturbed_rejected(self, name):
        g = _sample_frames()[name]
        basis = fundamental_cycles(g)
        summary = analyze_statics(g)
        rng = np.random.default_rng(17)
        mix = rng.normal(size=summary.s) @ summary.null_basis
        for qv in (*summary.null_basis, mix):
            axial_to_state(g, basis, AxialForceVector(dict(zip(g.edge_ids, qv))))
            bumped = qv.copy()
            bumped[int(rng.integers(g.e))] += 1e-6 * np.abs(qv).max()
            with pytest.raises(StructureError, match="not a self-stress"):
                axial_to_state(g, basis, AxialForceVector(dict(zip(g.edge_ids, bumped))))

    @pytest.mark.parametrize("name", ["k5", "critical-prism", "lattice"])
    def test_state_is_the_per_loop_construction_bitwise(self, name):
        """The one-pass state equals, bit for bit, each loop's generator force
        q u and moment midpoint x force built one loop at a time."""
        g = _sample_frames()[name]
        basis = fundamental_cycles(g)
        summary = analyze_statics(g)
        mix = np.random.default_rng(18).normal(size=summary.s) @ summary.null_basis
        for qv in (summary.null_basis[0], mix):
            q = AxialForceVector(dict(zip(g.edge_ids, qv)))
            state = axial_to_state(g, basis, q)
            assert list(state.resultants) == [c.generator for c in basis]
            for cycle in basis:
                force = q[cycle.generator] * g.direction(cycle.generator)
                moment = np.cross(g.midpoint(cycle.generator), force)
                expected = np.concatenate([force, moment])
                got = state.resultant(cycle.generator).components()
                assert got.tobytes() == expected.tobytes()


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_recovered_forces_rotate_with_the_structure():
    rng = np.random.default_rng(14)
    rot = _random_rotation(rng)
    g = k5_frame()
    g_rot = FrameGraph(
        nodes=[(n, rot @ g.position(n)) for n in g.node_ids],
        edges=[(e, *g.ends(e)) for e in g.edge_ids],
    )
    basis = fundamental_cycles(g)
    basis_rot = fundamental_cycles(g_rot)
    state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
    state_rot = axial_to_state(g_rot, basis_rot, axial_selfstress_basis(g_rot)[0])
    res = all_bar_resultants(state, basis, g)
    res_rot = all_bar_resultants(state_rot, basis_rot, g_rot)
    for e in g.edge_ids:
        assert np.allclose(res_rot[e].force, rot @ res[e].force, atol=1e-9)

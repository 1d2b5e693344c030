import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstatics import (
    Bivector6,
    SelfStressState,
    StateError,
    ZERO_BIVECTOR,
    all_bar_resultants,
    axial_selfstress_basis,
    axial_to_state,
    check_axial,
    fundamental_cycles,
    k5_frame,
    prism_frame,
    selfstress_dimension,
)

from loopstatics.selfstress import _bar_array, _judged_bars, _node_array

from helpers import (
    lattice_graph,
    random_connected_graph,
    random_state,
    ref_bar_frames,
    ref_bar_resultant,
)


@pytest.fixture(scope="module")
def k5():
    g = k5_frame()
    return g, fundamental_cycles(g)


class TestBarResultant:
    def test_non_tree_bar_carries_its_own_cycle(self, k5):
        g, basis = k5
        rng = np.random.default_rng(1)
        state = random_state(rng, basis)
        res = all_bar_resultants(state, basis, g)["o12"]
        assert np.allclose(
            res.bivector.components(),
            state.resultant("o12").components(),
        )

    def test_tree_bar_is_signed_sum_of_adjacent_loops(self, k5):
        g, basis = k5
        rng = np.random.default_rng(2)
        state = random_state(rng, basis)
        expected = ZERO_BIVECTOR
        for cycle in basis:
            expected = expected + cycle.chain.coefficient("s2") * state.resultant(cycle.generator)
        res = all_bar_resultants(state, basis, g)["s2"]
        assert np.allclose(res.bivector.components(), expected.components())

    def test_zero_state_gives_zero_everywhere(self, k5):
        g, basis = k5
        state = SelfStressState.zero(basis)
        for res in all_bar_resultants(state, basis, g).values():
            assert res.bivector.norm() == 0.0

    def test_missing_cycle_entry_is_a_state_error(self, k5):
        g, basis = k5
        state = SelfStressState({basis[0].generator: ZERO_BIVECTOR})
        with pytest.raises(StateError, match="missing resultants"):
            all_bar_resultants(state, basis, g)

    def test_linear_in_the_state(self, k5):
        g, basis = k5
        rng = np.random.default_rng(3)
        s1, s2 = random_state(rng, basis), random_state(rng, basis)
        both = all_bar_resultants(s1 + s2, basis, g)
        r1, r2 = all_bar_resultants(s1, basis, g), all_bar_resultants(s2, basis, g)
        for bar in g.edge_ids:
            lhs = both[bar].bivector.components()
            rhs = (r1[bar].bivector + r2[bar].bivector).components()
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestNodeResidual:
    def test_any_state_is_in_equilibrium(self):
        # arbitrary loop resultants always balance at every node
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_connected_graph(rng)
            basis = fundamental_cycles(g)
            state = random_state(rng, basis)
            b = _bar_array(state, basis, g)
            scale = np.linalg.norm(b, axis=1).max(initial=0.0)
            for row in _node_array(g, b):
                assert np.linalg.norm(row[:3]) <= 1e-12 * max(scale, 1e-300)
                assert np.linalg.norm(row[3:]) <= 1e-12 * max(scale, 1e-300)

    def test_zero_state_is_exactly_zero(self, k5):
        g, basis = k5
        b = _bar_array(SelfStressState.zero(basis), basis, g)
        assert np.all(_node_array(g, b) == 0.0)

    def test_corrupting_one_bar_breaks_equilibrium_at_its_endpoints(self, k5):
        g, basis = k5
        rng = np.random.default_rng(5)
        state = random_state(rng, basis)
        b = _bar_array(state, basis, g)
        bar = "o03"
        b[g.edge_ids.index(bar), :3] += np.array([0.5, 0.0, 0.0])
        n = _node_array(g, b)
        tail, head = g.ends(bar)
        for k, node in enumerate(g.node_ids):
            f_res = n[k, :3]
            if node in (tail, head):
                assert np.linalg.norm(f_res) > 1e-6
            else:
                assert np.linalg.norm(f_res) <= 1e-12


class TestAxialCheck:
    def test_zero_state_is_trivially_axial(self, k5):
        g, basis = k5
        report = check_axial(SelfStressState.zero(basis), g, basis)
        assert all(chk.is_axial for chk in report.values())

    def test_oracle_state_is_axial_on_all_ten_bars(self, k5):
        g, basis = k5
        q = axial_selfstress_basis(g)[0]
        state = axial_to_state(g, basis, q)
        report = check_axial(state, g, basis)
        assert len(report) == 10
        assert all(chk.is_axial for chk in report.values())

    def test_pure_kh_moment_breaks_the_moment_condition(self, k5):
        g, basis = k5
        q = axial_selfstress_basis(g)[0]
        state = axial_to_state(g, basis, q)
        cycle_id = basis[0].generator
        polluted = dict(state.resultants)
        polluted[cycle_id] = polluted[cycle_id] + Bivector6(kh=1.0)
        report = check_axial(SelfStressState(polluted), g, basis)
        assert not report[cycle_id].moment_matches
        assert report[cycle_id].force_parallel  # force untouched
        assert not report[cycle_id].is_axial

    def test_tension_positive_convention_on_parallel_bars(self):
        # two parallel bars self-stress as an equal-and-opposite pair; the
        # loop resultant puts +q on its generator and -q on the other bar
        from loopstatics import FrameGraph

        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (2, 0, 0))],
            edges=[("a", "x", "y"), ("b", "x", "y")],
        )
        basis = fundamental_cycles(g)
        assert [c.generator for c in basis] == ["b"]
        u = g.direction("b")
        force = 3.0 * u
        state = SelfStressState(
            {"b": Bivector6.from_force_moment(force, np.cross(g.midpoint("b"), force))}
        )
        report = check_axial(state, g, basis)
        assert report["b"].axial_force == pytest.approx(3.0)
        assert report["a"].axial_force == pytest.approx(-3.0)
        for row in _node_array(g, _bar_array(state, basis, g)):
            assert np.linalg.norm(row[:3]) < 1e-12 and np.linalg.norm(row[3:]) < 1e-12

    def test_isostatic_triangle_has_no_axial_selfstress(self):
        from loopstatics import FrameGraph

        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (2, 0, 0)), ("z", (1, 1, 0))],
            edges=[("a", "x", "y"), ("b", "y", "z"), ("c", "x", "z")],
        )
        assert axial_selfstress_basis(g) == []


class TestDimension:
    def test_k5(self):
        assert selfstress_dimension(k5_frame()) == 36

    def test_prism(self):
        assert selfstress_dimension(prism_frame()) == 42

    def test_tree_has_none(self):
        from loopstatics import FrameGraph

        g = FrameGraph(
            nodes=[(i, (float(i), 0.0, 0.0)) for i in range(4)],
            edges=[(f"e{i}", i, i + 1) for i in range(3)],
        )
        assert selfstress_dimension(g) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_array_core_matches_the_per_bar_and_per_node_definitions(seed):
    """Chain summation and node balance over all bars at once give the same
    bits as summing bar by bar over the loops containing each bar, and node
    by node over the incident bars in input order."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    basis = fundamental_cycles(g)
    state = random_state(rng, basis)
    b = _bar_array(state, basis, g)
    reference = {bar: ref_bar_resultant(state, bar, basis, g) for bar in g.edge_ids}
    for i, bar in enumerate(g.edge_ids):
        assert np.array_equal(b[i], reference[bar].bivector.components())
    n = _node_array(g, b)
    for k, node in enumerate(g.node_ids):
        f_res, m_res = np.zeros(3), np.zeros(3)
        for bar in g.incident_edges(node):
            sign = 1 if g.ends(bar)[1] == node else -1  # +1 into the node
            f_res += sign * reference[bar].force
            m_res += sign * reference[bar].total_moment
        assert np.array_equal(n[k], np.concatenate([f_res, m_res]))


def test_bar_frames_are_the_per_bar_geometry_bitwise():
    rng = np.random.default_rng(19)
    for g in [k5_frame(), lattice_graph(rng, 3), *(random_connected_graph(rng) for _ in range(10))]:
        for got, expected in zip((g.units, g.midpoints), ref_bar_frames(g)):
            assert got.tobytes() == expected.tobytes()
            assert not got.flags.writeable


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-900, 900))
def test_verdicts_do_not_change_when_the_state_is_scaled_by_a_power_of_two(seed, power):
    """Scaling a state by 2^power, as far as 2^-900 where every square
    underflows, scales each axial force exactly and leaves every verdict,
    the Zero Bars' included, as it was."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng)
    basis = fundamental_cycles(g)
    states = [random_state(rng, basis)]
    q = axial_selfstress_basis(g) if g.v >= 3 and len(basis) else []
    if q:
        states.append(axial_to_state(g, basis, q[0]))
    for state in states:
        for tol in (1e-9, 0.0):
            before = check_axial(state, g, basis, tol)
            after = check_axial(state * 2.0**power, g, basis, tol)
            for bar, check in before.items():
                scaled = after[bar]
                assert (scaled.force_parallel, scaled.moment_matches) == \
                    (check.force_parallel, check.moment_matches)
                assert scaled.axial_force == np.ldexp(check.axial_force, power)
            zero = [_judged_bars(s, basis, g, tol)[5] for s in (state, state * 2.0**power)]
            assert zero[0].tolist() == zero[1].tolist()

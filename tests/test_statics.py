import math
import os
import subprocess
import sys
import tracemalloc
import functools
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loopstatics import (
    AxialForceVector,
    FrameGraph,
    StructureError,
    all_bar_resultants,
    analyze_statics,
    axial_selfstress_basis,
    axial_to_state,
    check_axial,
    equilibrium_matrix,
    fundamental_cycles,
    k5_frame,
    maxwell_calladine,
    prism_critical_twist,
    prism_frame,
    selfstress_dimension,
)
from loopstatics.statics import (
    _ROWS,
    _block,
    _orthonormal,
    _orthonormalize,
    _product,
    _redundant_bars as _blocked_redundant_bars,
)
from loopstatics.structures import PRISM_CABLES, PRISM_STRUTS

from helpers import (
    lattice_graph,
    _ref_redundant_bars,
    random_connected_graph,
    ref_bar_frames,
    ref_equilibrium_matrix,
    ref_force_method_basis,
    ref_loop_space_selfstresses,
    ref_positive_qr,
    ref_prism_critical_twist,
)


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

    def test_matrix_is_the_column_loop_bitwise(self):
        for g in _sample_frames().values():
            assert equilibrium_matrix(g).matrix.tobytes() == ref_equilibrium_matrix(g).tobytes()

    def test_zero_length_bar_rejected(self):
        g = FrameGraph(
            nodes=[("x", (0, 0, 0)), ("y", (0, 0, 0))],
            edges=[("a", "x", "y")],
        )
        with pytest.raises(StructureError, match="coincident"):
            equilibrium_matrix(g)


@lru_cache(maxsize=None)
def _bars_and_matrix(name):
    """A sample frame's (or the side-5 lattice's) bar unit vectors, end
    nodes and dense equilibrium matrix."""
    g = _sample_frames().get(name) or lattice_graph(np.random.default_rng(22), 5)
    return g.units, g.end_rows, equilibrium_matrix(g).matrix


_BLOCK_FRAMES = st.sampled_from(["k5", "critical-prism", "lattice", "random-0",
                                 "random-3", "side-5 lattice"])


class TestMatrixBlocks:
    """`_block` builds the slices of the dense matrix that the basis uses,
    bit for bit and in the slice's memory layout."""

    @staticmethod
    def _assert_is(block, part):
        assert block.tobytes("A") == part.tobytes("A") and block.shape == part.shape
        assert (block.flags.c_contiguous, block.flags.f_contiguous) == \
            (part.flags.c_contiguous, part.flags.f_contiguous)

    @settings(max_examples=60, deadline=None)
    @given(name=_BLOCK_FRAMES, data=st.data())
    def test_column_block_is_the_fancy_indexed_slice(self, name, data):
        units, ends, a = _bars_and_matrix(name)
        e = a.shape[1]
        cols = np.array(data.draw(st.one_of(
            st.builds(lambda i, n: list(range(i, min(i + n, e))),
                      st.integers(0, e - 1), st.integers(1, 64)),
            st.lists(st.integers(0, e - 1), max_size=e, unique=True).map(sorted),
        )), dtype=int)
        self._assert_is(_block(units, ends, 0, a.shape[0], cols, order="F"), a[:, cols])

    @settings(max_examples=60, deadline=None)
    @given(name=_BLOCK_FRAMES, data=st.data())
    def test_row_block_is_the_row_slice(self, name, data):
        units, ends, a = _bars_and_matrix(name)
        r0 = data.draw(st.integers(0, a.shape[0] - 1))
        r1 = data.draw(st.integers(r0 + 1, a.shape[0]))
        every = np.arange(a.shape[1])
        self._assert_is(_block(units, ends, r0, r1, every), a[r0:r1])
        cols = np.array(data.draw(st.lists(st.integers(0, a.shape[1] - 1), min_size=1)))
        assert np.array_equal(_block(units, ends, r0, r1, cols), a[r0:r1, cols])

    @pytest.mark.parametrize("name", ["k5", "lattice", "random-1", "side-5 lattice"])
    @pytest.mark.parametrize("width", [1, 7, 300])
    def test_row_blocked_product_is_the_dense_product(self, name, width):
        units, ends, a = _bars_and_matrix(name)
        v = np.random.default_rng(width).standard_normal((a.shape[1], width))
        dense = a @ v
        assert name != "side-5 lattice" or a.shape[0] > _ROWS  # more than one block
        product = _product(units, ends, a.shape[0], v)
        assert np.abs(product - dense).max() <= 1e-13 * np.abs(dense).max()


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

    @pytest.mark.parametrize("rtol", [0.0, 1e-300, -1.0])
    def test_tolerance_below_rounding_acts_as_the_rounding_floor(self, rtol):
        for g in (k5_frame(), lattice_graph(np.random.default_rng(15), 3)):
            summary, default = analyze_statics(g, rtol=rtol), analyze_statics(g)
            assert (summary.s, summary.rank) == (default.s, default.rank)
            assert np.allclose(summary.null_basis, default.null_basis, rtol=0, atol=1e-12)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(StructureError, match="at least 3"):
            maxwell_calladine(single_bar())

    @pytest.mark.parametrize("name", ["one node", "one bar", "collinear triangle",
                                      "nearly collinear triangle"])
    def test_frames_without_six_rigid_motions_are_rejected(self, name):
        """The counts take 6 rigid-body motions, which need 3 nodes off one
        line: one bar gave m = -1, a lone node m = -3, and three collinear
        nodes m = 1 where 5 rigid motions leave m = 2."""
        line = [("a", (0.0, 0.0, 0.0)), ("b", (1.0, 0.0, 0.0)), ("c", (2.0, 0.0, 0.0))]
        bent = [*line[:2], ("c", (2.0, 1e-17, 0.0))]  # off the line by rounding only
        triangle = [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")]
        g = {
            "one node": FrameGraph(nodes=line[:1], edges=[]),
            "one bar": single_bar(),
            "collinear triangle": FrameGraph(nodes=line, edges=triangle),
            "nearly collinear triangle": FrameGraph(nodes=bent, edges=triangle),
        }[name]
        for count in (analyze_statics, maxwell_calladine):
            with pytest.raises(StructureError, match="at least 3 nodes not on one line"):
                count(g)


class TestPrism:
    def test_critical_twist_is_thirty_degrees(self):
        twist = ref_prism_critical_twist()
        assert twist == pytest.approx(np.pi / 6, abs=1e-9)
        assert prism_critical_twist() == math.pi / 6
        assert abs(prism_critical_twist() - twist) <= 1e-12

    @pytest.mark.parametrize("half_height", [0.5, 1.5])
    def test_search_on_a_slender_prism_is_looser(self, half_height):
        """At radius 1e-9 the twist moves the nodes by ~1e-9 of the frame's
        size, so the dip of the smallest singular value is that much
        shallower and the search stops where rounding (~1e-16 of the largest
        singular value) hides it: ~1e-7 radians, not 1e-12.  The closed
        form has no such floor."""
        twist = prism_critical_twist(1e-9, half_height)
        assert abs(ref_prism_critical_twist(1e-9, half_height) - twist) <= 1e-6
        assert analyze_statics(prism_frame(1e-9, half_height, twist)).s == 1

    @pytest.mark.parametrize("radius, half_height, match", [
        (0.0, 0.5, "radius"), (-1.0, 0.5, "radius"), (1.0, 0.0, "half-height"),
    ])
    def test_degenerate_prism_has_no_critical_twist(self, radius, half_height, match):
        with pytest.raises(StructureError, match=match):
            prism_critical_twist(radius, half_height)

    def test_selfstressable_only_at_the_critical_twist(self):
        twist = prism_critical_twist()
        assert analyze_statics(prism_frame(twist=twist)).s == 1
        assert analyze_statics(prism_frame(twist=twist)).m == 1
        assert analyze_statics(prism_frame(twist=0.0)).s == 0
        assert analyze_statics(prism_frame(twist=0.2)).s == 0
        assert analyze_statics(prism_frame(twist=1.0)).s == 0

    def test_critical_twist_is_independent_of_aspect_ratio(self):
        shapes = [(2.0, 0.8), (0.7, 1.5), (1.4, 0.3), (0.8, 0.8), (1.0, -0.5)]
        for radius, half_height in shapes:
            twist = ref_prism_critical_twist(radius, half_height)
            assert twist == pytest.approx(np.pi / 6, abs=1e-8)
            assert analyze_statics(prism_frame(radius, half_height, twist)).s == 1
            closed = prism_critical_twist(radius, half_height)
            assert closed == math.pi / 6
            assert abs(closed - twist) <= 1e-12
            summary = analyze_statics(prism_frame(radius, half_height, closed))
            assert (summary.s, summary.m) == (1, 1)

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


def _redundant_bars(a: np.ndarray, rtol: float = 1e-9) -> list:
    """The bars whose column depends on the columns before it: the prefix's
    rank, from singular values cut at rtol times a's largest, stays put."""
    cut = rtol * np.linalg.svd(a, compute_uv=False)[0]
    ranks = [int(np.sum(np.linalg.svd(a[:, :j], compute_uv=False) > cut))
             for j in range(a.shape[1] + 1)]
    return [j for j in range(a.shape[1]) if ranks[j + 1] == ranks[j]]


_BASIS_SCRIPT = """
import sys
import numpy as np
from helpers import lattice_graph
from loopstatics import analyze_statics
np.save(sys.argv[1], analyze_statics(lattice_graph(np.random.default_rng(22), 5)).null_basis)
"""


class TestNullBasis:
    @pytest.mark.parametrize("name", list(_sample_frames()))
    def test_rows_are_the_orthonormalized_reduced_form(self, name):
        """The rows are the positive-diagonal QR of the reduced form N, the
        null basis with N[:, F] = I for the redundant bars F, and span the
        SVD null space."""
        g = _sample_frames()[name]
        summary = analyze_statics(g)
        a = equilibrium_matrix(g).matrix
        v = summary.null_basis
        assert v.shape == (summary.s, g.e)
        assert summary.edge_ids == g.edge_ids
        redundant = _redundant_bars(a)
        basic = [j for j in range(g.e) if j not in redundant]
        assert len(redundant) == summary.s
        n = np.zeros((summary.s, g.e))
        n[:, redundant] = np.eye(summary.s)
        n[:, basic] = -np.linalg.lstsq(a[:, basic], a[:, redundant], rcond=None)[0].T
        q, r = np.linalg.qr(n.T)
        q *= np.sign(np.diagonal(r))
        assert np.allclose(v, q.T, rtol=0, atol=1e-9)
        # so v[:, F] is the inverse transpose of R: lower triangular, positive diagonal
        assert np.all(np.diagonal(v[:, redundant]) > 0)
        assert np.abs(np.triu(v[:, redundant], 1)).max(initial=0.0) <= 1e-12
        null = np.linalg.svd(a)[2][summary.rank:]
        assert np.allclose(v.T @ v, null.T @ null, rtol=0, atol=1e-10)
        assert np.allclose(v @ v.T, np.eye(summary.s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(_sample_frames()))
    def test_rows_are_self_stresses_to_rounding(self, name):
        g = _sample_frames()[name]
        v = analyze_statics(g).null_basis
        a = equilibrium_matrix(g).matrix
        assert np.all(np.linalg.norm(a @ v.T, axis=0) <= 1e-12 * np.linalg.norm(v, axis=1))

    def test_basis_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        """On a side-5 lattice (s = 171), large enough for OpenBLAS to split
        its work over two threads, the bases agree to rounding."""
        import loopstatics

        paths = [
            str(Path(loopstatics.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent),
        ]
        bases = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            out = tmp_path / f"basis_{threads}.npy"
            subprocess.run([sys.executable, "-c", _BASIS_SCRIPT, str(out)], env=env, check=True)
            bases.append(np.load(out))
        g = lattice_graph(np.random.default_rng(22), 5)
        s = analyze_statics(g).s
        assert s > 1 and bases[0].shape == bases[1].shape == (s, g.e)
        assert np.abs(bases[0] - bases[1]).max() <= 1e-9

    @pytest.mark.parametrize("name", [*_sample_frames(), "side-5 lattice"])
    def test_basis_is_the_householder_route_to_rounding(self, name):
        """The basis matches the route that keeps qt and rinv apart and forms
        each Householder Q."""
        g = _sample_frames().get(name) or lattice_graph(np.random.default_rng(22), 5)
        summary = analyze_statics(g)
        a = equilibrium_matrix(g).matrix
        cut = max(1e-9, max(a.shape) * np.finfo(float).eps) * summary.singular_values[0]
        ref = ref_force_method_basis(a, cut, summary.s)
        assert summary.s > 0 and np.abs(summary.null_basis - ref).max() <= 1e-10

    def test_statics_peak_memory_is_at_most_two_and_a_half_matrices(self):
        """On the side-5 lattice, analyze_statics holds at most 2.5 times the
        equilibrium matrix's bytes at once (numpy's arrays, as traced): the
        matrix and the SVD's copy of it, with only blocks of it after that."""
        g = lattice_graph(np.random.default_rng(22), 5)
        nbytes = equilibrium_matrix(g).matrix.nbytes
        tracemalloc.start()
        try:
            analyze_statics(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * nbytes, peak / nbytes

    def test_selfstress_basis_is_the_rows_as_bar_forces(self):
        g = lattice_graph(np.random.default_rng(16), 3)
        summary = analyze_statics(g)
        vectors = summary.selfstress_basis
        assert len(vectors) == summary.s == 15
        for q, row in zip(vectors, summary.null_basis):
            assert [q[e] for e in g.edge_ids] == row.tolist()
        assert summary.axial_vector(3).forces == vectors[3].forces

    def test_bar_frames_are_built_once(self, monkeypatch):
        """The graph builds every bar's unit vector once, at first use, for
        the SVD's matrix, the basis steps, axial_to_state and the axial
        check alike, and the statics take the end rows the graph holds."""
        calls = []
        build = FrameGraph.units.func
        units = functools.cached_property(lambda g: calls.append(g) or build(g))
        units.__set_name__(FrameGraph, "units")
        monkeypatch.setattr(FrameGraph, "units", units)
        g = lattice_graph(np.random.default_rng(16), 3)
        summary = analyze_statics(g)
        assert summary.s == 15
        basis = fundamental_cycles(g)
        check_axial(axial_to_state(g, basis, summary.axial_vector(0)), g, basis)
        assert calls == [g]

    def test_no_bars_gives_an_empty_basis(self):
        """A connected frame without bars is one node, which has no rigid-body
        count of 6 (it gave m = -3) and is rejected.  The fewest bars with
        counts, an isostatic triangle, give the empty basis, however thin."""
        with pytest.raises(StructureError, match="at least 3"):
            analyze_statics(FrameGraph(nodes=[("a", (0, 0, 0))], edges=[]))
        nodes = [("a", (0, 0, 0)), ("b", (1, 0, 0)), ("c", (0, 1e-6, 0))]
        edges = [("ab", "a", "b"), ("bc", "b", "c"), ("ac", "a", "c")]
        summary = analyze_statics(FrameGraph(nodes=nodes, edges=edges))
        assert (summary.s, summary.m) == (0, 0)
        assert summary.null_basis.shape == (0, 3)
        assert summary.selfstress_basis == ()


def _graded(rng, rows: int, cols: int, kappa: float) -> np.ndarray:
    """A rows x cols array with condition number kappa: singular values
    spaced evenly in log from 1 to 1/kappa between random orthonormal
    frames."""
    u = np.linalg.qr(rng.normal(size=(rows, cols)))[0]
    w = np.linalg.qr(rng.normal(size=(cols, cols)))[0]
    return (u * np.logspace(0.0, -np.log10(kappa), cols)) @ w


class TestInPlaceBasis:
    """The basis steps after the SVD hold no more than blocks beside their
    factors: N is orthonormalized over itself, and solve is formed in qt."""

    def test_orthonormalize_peak_is_a_fraction_of_its_input(self):
        x = np.random.default_rng(40).normal(size=(1638, 615))  # the side-7 N^T
        tracemalloc.start()
        try:
            _orthonormalize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e10])
    def test_orthonormalize_is_the_positive_householder_q(self, kappa):
        """Run twice per block, block Gram-Schmidt stays orthonormal to
        rounding however ill-conditioned its input (Barlow & Smoktunowicz
        2013), and gives the Q of a positive-diagonal QR to kappa roundings."""
        x = _graded(np.random.default_rng(41), 400, 150, kappa)  # three blocks
        ref = ref_positive_qr(x)
        _orthonormalize(x)
        assert np.abs(x - ref).max() <= 1e-14 * kappa
        assert np.abs(x.T @ x - np.eye(150)).max() <= 1e-14

    def test_redundant_bars_form_solve_over_their_factor(self):
        """On the side-7 lattice, the pseudo-inverse of the basic columns is
        formed inside qt's buffer: the traced peak stays below 2.75 times
        it, where rinv, qt and rinv @ qt together are over 3."""
        g = lattice_graph(np.random.default_rng(1), 7)
        a = equilibrium_matrix(g).matrix
        cut = max(1e-9, max(a.shape) * np.finfo(float).eps) * np.linalg.norm(a, 2)
        units, ends = g.units, g.end_rows
        tracemalloc.start()
        try:
            solve, redundant = _blocked_redundant_bars(units, ends, a.shape[0], cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * solve.nbytes, peak / solve.nbytes
        # the same route's factors, multiplied whole: against the Householder
        # route's, solve moves by 3e-9 of its largest entry, since the basic
        # columns' condition number is 3e9 here
        qt, rinv, ref_redundant = _ref_redundant_bars(a, cut, _orthonormal)
        assert redundant.tolist() == ref_redundant.tolist()
        ref = rinv @ qt
        assert np.abs(solve - ref).max() <= 1e-12 * np.abs(ref).max()


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


_RNGS = st.integers(0, 2**32 - 1).map(np.random.default_rng)


@settings(max_examples=15, deadline=None)
@given(graph=st.one_of(st.builds(random_connected_graph, _RNGS),
                       st.builds(lattice_graph, _RNGS, st.sampled_from([3, 4]))))
def test_loop_space_route_spans_the_null_space(graph):
    """The paper's route to the axial self-stresses, independent of the
    equilibrium matrix: each loop carries (u, mid x u) q_g on its generator
    g, and every tree bar's chain sum must be axial.  Its states number s,
    their chain-summed bar forces span the SVD's null basis (principal
    angles at most 1e-9), and without the axial rows the loop space has
    the welded dimension."""
    try:
        summary = analyze_statics(graph)
    except StructureError:  # fewer than 3 nodes, or all on one line
        assume(False)
    basis = fundamental_cycles(graph)
    welded = ref_loop_space_selfstresses(graph, basis, axial=False)
    assert welded.shape[2] == selfstress_dimension(graph)
    rows = ref_loop_space_selfstresses(graph, basis)
    assert rows.shape[2] == summary.s
    if not summary.s:
        return
    units, _ = ref_bar_frames(graph)
    forces = np.einsum("ejd,ej->ed", rows[:, :3], units)  # e x s bar forces
    q = np.linalg.qr(forces)[0]
    null = summary.null_basis
    assert np.linalg.norm(q - null.T @ (null @ q), 2) <= 1e-9  # sine of the largest angle

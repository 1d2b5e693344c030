import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstatics import (
    Bivector6,
    DualChain,
    LoopPath,
    Point4,
    StructureError,
    ZERO_BIVECTOR,
    chain_area,
    force_of,
    is_simple,
    loop_area,
    moment_of,
)

from helpers import random_loop, random_planar_loop


def shoelace(pairs):
    """Independent reference: plain signed-area sum over 2D vertices."""
    total = 0.0
    n = len(pairs)
    for i in range(n):
        (a0, b0), (a1, b1) = pairs[i], pairs[(i + 1) % n]
        total += a0 * b1 - a1 * b0
    return 0.5 * total


UNIT_SQUARE = LoopPath(
    (Point4(0, 0, 0, 0), Point4(1, 0, 0, 0), Point4(1, 1, 0, 0), Point4(0, 1, 0, 0))
)


class TestLoopArea:
    def test_unit_square_in_ij_plane(self):
        b = loop_area(UNIT_SQUARE)
        assert b.ij == 1.0
        assert (b.jk, b.ki, b.ih, b.jh, b.kh) == (0, 0, 0, 0, 0)

    def test_reversal_negates(self):
        assert loop_area(UNIT_SQUARE.reversed()).ij == -1.0

    def test_lifted_triangle_against_reference_shoelace(self):
        tri = LoopPath((Point4(0, 0, 0, 0), Point4(1, 0, 0, 0), Point4(0, 1, 0, 1)))
        b = loop_area(tri)
        verts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 1)]
        assert b.ij == shoelace([(x, y) for x, y, _, _ in verts]) == 0.5
        assert b.ih == shoelace([(x, h) for x, _, _, h in verts]) == 0.5
        assert b.jh == shoelace([(y, h) for _, y, _, h in verts]) == 0.0
        assert b.jk == b.ki == b.kh == 0.0

    def test_matches_reference_on_random_loops(self):
        rng = np.random.default_rng(7)
        planes = {
            "jk": (1, 2), "ki": (2, 0), "ij": (0, 1),
            "ih": (0, 3), "jh": (1, 3), "kh": (2, 3),
        }
        for _ in range(50):
            loop = random_loop(rng)
            pts = [v.to_array() for v in loop.vertices]
            b = loop_area(loop)
            for name, (a, c) in planes.items():
                ref = shoelace([(p[a], p[c]) for p in pts])
                assert getattr(b, name) == pytest.approx(ref, abs=1e-12)

    def test_start_vertex_irrelevant(self):
        rng = np.random.default_rng(8)
        loop = random_loop(rng)
        base = loop_area(loop).components()
        for k in range(1, len(loop.vertices)):
            rolled = loop_area(loop.rolled(k)).components()
            assert np.allclose(rolled, base, rtol=0, atol=1e-13)

    def test_translation_invariance_in_all_four_axes(self):
        rng = np.random.default_rng(9)
        loop = random_loop(rng)
        base = loop_area(loop).components()
        shift = Point4(3.5, -2.0, 11.0, -7.25)
        moved = loop_area(loop.translated(shift)).components()
        assert np.allclose(moved, base, rtol=0, atol=1e-12)


class TestChainArea:
    def test_empty_chain_is_zero(self):
        assert chain_area(DualChain()).norm() == 0.0

    def test_cancellation(self):
        chain = DualChain(((1, UNIT_SQUARE), (-1, UNIT_SQUARE)))
        assert chain_area(chain).norm() == 0.0

    def test_two_triangles_merge_into_quad(self):
        # split a skew quad along a diagonal; the formal sum of the two
        # triangle loops must carry the same area as the quad boundary
        p = [
            Point4(0, 0, 0, 0),
            Point4(2, 0, 1, 0.5),
            Point4(2, 2, 0, -1),
            Point4(0, 2, 1, 2),
        ]
        quad = LoopPath(tuple(p))
        t1 = LoopPath((p[0], p[1], p[2]))
        t2 = LoopPath((p[0], p[2], p[3]))
        merged = chain_area(DualChain(((1, t1), (1, t2))))
        assert np.allclose(
            merged.components(), loop_area(quad).components(), atol=1e-14
        )

    def test_linearity(self):
        rng = np.random.default_rng(10)
        c1 = DualChain(tuple((int(rng.integers(-2, 3)), random_loop(rng)) for _ in range(3)))
        c2 = DualChain(tuple((int(rng.integers(-2, 3)), random_loop(rng)) for _ in range(2)))
        lhs = chain_area(c1 + c2).components()
        rhs = (chain_area(c1) + chain_area(c2)).components()
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(StructureError):
            DualChain(((0.5, UNIT_SQUARE),))


class TestForceMoment:
    def test_ij_area_means_force_along_k(self):
        assert np.array_equal(force_of(Bivector6(ij=1.0)), [0, 0, 1])

    def test_zero_bivector(self):
        assert np.array_equal(force_of(ZERO_BIVECTOR), [0, 0, 0])
        assert np.array_equal(moment_of(ZERO_BIVECTOR), [0, 0, 0])

    def test_spatial_triangle_force_equals_cross_product_area(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            v = rng.uniform(-2, 2, size=(3, 3))
            loop = LoopPath(tuple(Point4(*p, 0.0) for p in v))
            area_vec = 0.5 * np.cross(v[1] - v[0], v[2] - v[0])
            assert np.allclose(force_of(loop_area(loop)), area_vec, atol=1e-13)

    def test_area_two_triangle_normal_to_unit_direction(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        t1 = np.cross(u, [1.0, 0.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(u, t1)
        radius = np.sqrt(8.0 / (3.0 * np.sqrt(3.0)))  # equilateral, area 2
        verts = [
            radius * (np.cos(a) * t1 + np.sin(a) * t2)
            for a in 2.0 * np.pi * np.arange(3) / 3.0
        ]
        loop = LoopPath(tuple(Point4(*p, 0.0) for p in verts))
        force = force_of(loop_area(loop))
        # parallel to u with magnitude 2, sign set by the traversal direction
        assert np.abs(force @ u) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.norm(np.cross(force, u)) < 1e-12

    def test_planar_spatial_loop_area_matches_fan_decomposition(self):
        # star-shaped polygon around its centre: classical area is the sum
        # of the fan triangle areas, and the loop bivector must agree
        rng = np.random.default_rng(16)
        for _ in range(25):
            # n >= 4 keeps every angular gap below pi, so the polygon is
            # star-shaped around its centre and the unsigned fan sum is valid
            n = int(rng.integers(4, 9))
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            t1 = np.cross(normal, [0.0, 0.0, 1.0] if abs(normal[2]) < 0.9 else [1.0, 0.0, 0.0])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(normal, t1)
            center = rng.uniform(-1, 1, size=3)
            angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(0, 0.9, n)) / n
            radii = rng.uniform(0.5, 1.5, size=n)
            verts = [center + r * (np.cos(a) * t1 + np.sin(a) * t2)
                     for a, r in zip(angles, radii)]
            classical = sum(
                0.5 * np.linalg.norm(np.cross(verts[i] - center,
                                              verts[(i + 1) % n] - center))
                for i in range(n)
            )
            loop = LoopPath(tuple(Point4(*p, 0.0) for p in verts))
            b = loop_area(loop)
            assert np.linalg.norm(force_of(b)) == pytest.approx(classical, rel=1e-12)
            assert is_simple(b)

    def test_linear(self):
        a, b = Bivector6(*range(1, 7)), Bivector6(*range(6, 0, -1))
        assert np.array_equal(force_of(a + b), force_of(a) + force_of(b))
        assert np.array_equal(moment_of(a + b), moment_of(a) + moment_of(b))

    def test_pack_unpack_round_trip(self):
        f, m = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.25, -4.0])
        b = Bivector6.from_force_moment(f, m)
        assert np.array_equal(force_of(b), f)
        assert np.array_equal(moment_of(b), m)


class TestIsSimple:
    def test_purely_spatial_is_simple(self):
        assert is_simple(Bivector6(jk=3.0, ki=-1.0, ij=0.25))

    def test_crossed_planes_are_not(self):
        assert not is_simple(Bivector6(ij=1.0, kh=1.0))

    def test_zero_is_simple(self):
        assert is_simple(ZERO_BIVECTOR)

    def test_answer_does_not_depend_on_scale(self):
        """100 N(0,1) rows and 100 simple ones (moment = r x force) get the
        same answer at 2^600 and 2^-600, where every square overflows or
        underflows, as at scale 1: no N(0,1) row is simple, each simple
        row is."""
        rng = np.random.default_rng(5)
        general = rng.normal(size=(100, 6))
        force = rng.normal(size=(100, 3))
        simple = np.hstack([force, np.cross(rng.uniform(-5, 5, size=(100, 3)), force)])
        for rows, expected in ((general, False), (simple, True)):
            for power in (0, 600, -600):
                answers = {is_simple(Bivector6(*np.ldexp(row, power))) for row in rows}
                assert answers == {expected}, power


class TestNorm:
    @pytest.mark.parametrize("factor", [1e160, 1e-200])
    def test_no_overflow_or_underflow(self, factor):
        """The squares of 1e160 overflow and those of 1e-200 underflow, but
        the norm is the scaled norm of the unscaled areas."""
        rng = np.random.default_rng(6)
        for row in rng.normal(size=(20, 6)):
            expected = Bivector6(*row).norm() * factor
            assert Bivector6(*(row * factor)).norm() == pytest.approx(expected, rel=1e-15, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_planar_loops_are_simple(seed):
    loop = random_planar_loop(np.random.default_rng(seed))
    assert is_simple(loop_area(loop))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orientation_reversal_negates_all_components(seed):
    loop = random_loop(np.random.default_rng(seed))
    fwd = loop_area(loop).components()
    rev = loop_area(loop.reversed()).components()
    assert np.allclose(fwd, -rev, atol=1e-13)


class TestValidation:
    def test_too_few_vertices(self):
        with pytest.raises(StructureError, match="at least 3"):
            LoopPath((Point4(0, 0, 0), Point4(1, 0, 0)))

    def test_consecutive_duplicate(self):
        with pytest.raises(StructureError, match="duplicate"):
            LoopPath((Point4(0, 0, 0), Point4(0, 0, 0), Point4(1, 1, 0)))

    def test_wraparound_duplicate(self):
        with pytest.raises(StructureError, match="duplicate"):
            LoopPath((Point4(0, 0, 0), Point4(1, 0, 0), Point4(0, 0, 0)))

    def test_non_finite_point(self):
        with pytest.raises(StructureError, match="non-finite"):
            Point4(0.0, float("nan"), 0.0, 0.0)

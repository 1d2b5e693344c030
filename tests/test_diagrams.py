import functools
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstatics import (
    AxialForceVector,
    StructureError,
    Bivector6,
    LoopPath,
    Point4,
    SelfStressState,
    analyze_statics,
    all_bar_resultants,
    axial_selfstress_basis,
    axial_to_state,
    export_diagrams,
    fundamental_cycles,
    k5_frame,
    loop_area,
    prism_critical_twist,
    prism_frame,
    realize_state,
    serialize_state,
    serialize_structure,
)
from loopstatics.cli import main
from loopstatics.diagrams import AREA_TOL, force_diagram_text, form_diagram_text
from loopstatics.document import document_from_graph
from loopstatics.selfstress import _judged_bars

from helpers import (
    item_area,
    lattice_graph,
    random_connected_graph,
    random_state,
    ref_force_diagram_text,
    ref_realize_loops,
)


def parse_mesh(text: str) -> dict:
    """Read the OBJ-style mesh back: name -> (vertices, polylines)."""
    objects: dict = {}
    vertices = []
    current = None
    pending_xyz = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "o":
            current = parts[1]
            objects[current] = {"vertices": [], "lines": []}
        elif parts[0] == "v":
            pending_xyz = tuple(float(p) for p in parts[1:4])
        elif parts[0] == "h":
            vert = Point4(*pending_xyz, float(parts[1]))
            vertices.append(vert)
            objects[current]["vertices"].append(vert)
        elif parts[0] == "l":
            idx = [int(p) - 1 for p in parts[1:]]
            objects[current]["lines"].append([vertices[i] for i in idx])
    return objects


@pytest.fixture(scope="module")
def k5_axial():
    g = k5_frame()
    basis = fundamental_cycles(g)
    state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
    return g, basis, state


class TestFormDiagram:
    def test_every_node_and_bar_present(self):
        g = k5_frame()
        mesh = parse_mesh(form_diagram_text(g))
        assert set(mesh) == {"form"}
        assert len(mesh["form"]["vertices"]) == g.v
        assert len(mesh["form"]["lines"]) == g.e

    def test_deterministic_bytes(self):
        g = prism_frame(twist=0.37)
        assert form_diagram_text(g) == form_diagram_text(g)


class TestRealizeState:
    def test_k5_per_cycle_gives_six_shared_vertex_triangles(self, k5_axial):
        g, basis, state = k5_axial
        realized = realize_state(g, basis, state, per="cycle", share_vertex=True)
        assert len(realized) == 6
        for _, rows in realized.items:
            assert len(rows) == 3
            assert rows[0] == (0.0, 0.0, 0.0, 0.0)

    def test_prism_per_bar_gives_twelve_triangles(self):
        g = prism_frame(twist=prism_critical_twist())
        basis = fundamental_cycles(g)
        state = axial_to_state(g, basis, axial_selfstress_basis(g)[0])
        realized = realize_state(g, basis, state, per="bar")
        assert len(realized) == 12
        assert all(len(rows) == 3 for _, rows in realized.items)

    def test_loops_reproduce_the_bar_resultants(self, k5_axial):
        g, basis, state = k5_axial
        resultants = all_bar_resultants(state, basis, g)
        realized = dict(realize_state(g, basis, state).items)
        for e in g.edge_ids:
            b = item_area(realized[f"bar_{e}"])
            assert np.allclose(
                b.components(), resultants[e].bivector.components(), atol=1e-10
            )

    def test_translation_to_shared_vertex_keeps_areas(self, k5_axial):
        g, basis, state = k5_axial
        plain = realize_state(g, basis, state, per="cycle").items
        shared = realize_state(g, basis, state, per="cycle", share_vertex=True).items
        for (name, rows), (shared_name, shared_rows) in zip(plain, shared, strict=True):
            assert name == shared_name
            assert np.allclose(
                item_area(rows).components(),
                item_area(shared_rows).components(),
                atol=1e-12,
            )

    def test_welded_state_is_one_six_vertex_loop_per_cycle(self):
        """A general state's resultants are not simple, so each is two
        triangles in orthogonal planes through the bar's midpoint."""
        g = k5_frame()
        basis = fundamental_cycles(g)
        state = random_state(np.random.default_rng(31), basis)
        realized = realize_state(g, basis, state, per="cycle")
        assert len(realized) == len(basis)
        resultant_of = {c.generator: state.resultant(c.generator) for c in basis}
        for name, rows in realized.items:
            cid = name.removeprefix("cycle_")
            assert len(rows) == 6 and rows[0] == rows[3] == (*g.midpoint(cid), 0.0)
            assert np.allclose(
                item_area(rows).components(),
                resultant_of[cid].components(),
                atol=1e-10,
            )


class TestExport:
    def test_force_file_round_trips_orientation_and_h(self, k5_axial, tmp_path):
        g, basis, state = k5_axial
        realized = realize_state(g, basis, state, per="cycle")
        paths = export_diagrams(g, realized, tmp_path)
        assert [p.name for p in paths] == ["form.obj", "force.obj"]
        mesh = parse_mesh(paths[1].read_text())
        assert len(mesh) == 6
        for cycle in basis:
            name = f"cycle_{cycle.generator}"
            polyline = mesh[name]["lines"][0]
            assert polyline[0] == polyline[-1]  # closed
            loop = LoopPath(tuple(polyline[:-1]))
            assert np.allclose(
                loop_area(loop).components(),
                state.resultant(cycle.generator).components(),
                atol=1e-10,
            )

    def test_empty_state_writes_form_only(self, tmp_path):
        g = k5_frame()
        basis = fundamental_cycles(g)
        realized = realize_state(g, basis, SelfStressState.zero(basis), per="bar")
        assert realized.items == ()
        paths = export_diagrams(g, realized, tmp_path)
        assert [p.name for p in paths] == ["form.obj"]

    def test_identical_input_identical_bytes(self, k5_axial, tmp_path):
        g, basis, state = k5_axial
        realized = realize_state(g, basis, state, per="bar")
        a = export_diagrams(g, realized, tmp_path / "a")
        b = export_diagrams(g, realized, tmp_path / "b")
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()


# -- the array realization against the one-loop-at-a-time reference --


@functools.cache
def _frame(kind: str):
    if kind == "k5":
        return k5_frame()
    if kind == "prism":
        return prism_frame(twist=prism_critical_twist())
    return lattice_graph(np.random.default_rng(7), int(kind[-1]))


def _mixed_state(rng, g, basis, kind: str) -> SelfStressState:
    """A general state, an axial one, an axial one with some loops
    replaced (so triangles and normal-form loops mix), or a general one with
    zero and negative-zero components."""
    if kind in ("general", "zeros"):
        state = random_state(rng, basis)
        if kind == "zeros":
            state = SelfStressState({
                c: Bivector6(*np.where(rng.random(6) < 0.3, rng.choice([0.0, -0.0], 6),
                                       b.components()))
                for c, b in state.resultants.items()
            })
        return state
    null = analyze_statics(g).null_basis
    q = rng.normal(size=len(null)) @ null if len(null) else np.zeros(g.e)
    state = axial_to_state(g, basis, AxialForceVector(dict(zip(g.edge_ids, q))))
    if kind == "mixed":
        picked = set(rng.choice(len(basis), size=len(basis) // 3, replace=False).tolist())
        state = SelfStressState({
            c.generator: Bivector6(*rng.normal(size=6)) if k in picked
            else state.resultant(c.generator)
            for k, c in enumerate(basis)
        })
    return state


def assert_realizations_agree(g, basis, state, **options):
    realized = realize_state(g, basis, state, **options)
    text = force_diagram_text(realized)
    assert text == ref_force_diagram_text(ref_realize_loops(g, basis, state, **options))
    assert "np.float64(" not in text
    return realized


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["k5", "prism", "lattice2", "lattice3"]),
       state_kind=st.sampled_from(["general", "axial", "mixed", "zeros"]),
       per=st.sampled_from(["bar", "cycle"]),
       share_vertex=st.booleans())
def test_array_realization_is_the_reference_bit_for_bit(
        seed, kind, state_kind, per, share_vertex):
    g = _frame(kind)
    basis = fundamental_cycles(g)
    state = _mixed_state(np.random.default_rng(seed), g, basis, state_kind)
    assert_realizations_agree(g, basis, state, per=per, share_vertex=share_vertex)


_MESH_SCRIPT = """
import hashlib
import numpy as np
from loopstatics import Bivector6, SelfStressState, fundamental_cycles, realize_state
from loopstatics.diagrams import force_diagram_text
from helpers import lattice_graph, random_state, ref_force_diagram_text, ref_realize_loops

g = lattice_graph(np.random.default_rng(7), 4)
basis = fundamental_cycles(g)
rng = np.random.default_rng(31)
gens = [g.columns[c.generator] for c in basis]
force = rng.uniform(0.5, 2.0, size=(len(basis), 1)) * g.units[gens]
axial = SelfStressState({c.generator: Bivector6(*f, *np.cross(g.midpoints[i], f))
                         for c, i, f in zip(basis, gens, force)})
digest = hashlib.sha256()
for state, per in ((random_state(rng, basis), "bar"), (axial, "cycle")):
    for share_vertex in (False, True):
        options = {"per": per, "share_vertex": share_vertex}
        text = force_diagram_text(realize_state(g, basis, state, **options))
        assert text == ref_force_diagram_text(ref_realize_loops(g, basis, state, **options))
        digest.update(text.encode())
print(digest.hexdigest())
"""


def test_meshes_are_the_reference_bit_for_bit_under_one_and_two_blas_threads():
    """In fresh processes under 1 and 2 BLAS threads, the batched loops of a
    side-4 lattice (general states per bar, axial ones per cycle, with and
    without a shared vertex) are the per-row reference's, and the same
    bytes under both thread counts: no step of the drawing goes through
    LAPACK or a threaded BLAS routine."""
    import loopstatics

    paths = [str(Path(loopstatics.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        done = subprocess.run([sys.executable, "-c", _MESH_SCRIPT], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def _k5_axial_state():
    g = k5_frame()
    basis = fundamental_cycles(g)
    return g, basis, axial_to_state(g, basis, axial_selfstress_basis(g)[0])


@pytest.mark.parametrize("share_vertex", [False, True])
def test_axial_loops_without_a_force_norm_are_zero_bars(share_vertex):
    """Per cycle on K5's axial state, one loop given no force and a moment
    small enough to pass, another a force whose squared norm underflows:
    both are Zero Bars, so they get no loop and the rest are triangles."""
    g, basis, state = _k5_axial_state()
    resultants = dict(state.resultants)
    first, second = (c.generator for c in basis[:2])
    resultants[first] = Bivector6(0.0, 0.0, 0.0, 1e-13, -2e-13, 0.0)
    resultants[second] = Bivector6(1e-200, 0.0, 0.0, 0.0, 0.0, 0.0)
    realized = assert_realizations_agree(
        g, basis, SelfStressState(resultants), per="cycle", share_vertex=share_vertex)
    assert [name for name, _ in realized.items] == [f"cycle_{c.generator}" for c in basis[2:]]
    assert all(len(rows) == 3 for _, rows in realized.items)


def test_cli_export_builds_no_loop_objects(tmp_path, monkeypatch):
    """`export` goes from vertex arrays to the file: counted, no Point4 or
    LoopPath is made, and each file is the reference text."""
    g = lattice_graph(np.random.default_rng(8), 3)
    basis = fundamental_cycles(g)
    state = _mixed_state(np.random.default_rng(9), g, basis, "mixed")
    (tmp_path / "s.json").write_text(serialize_structure(document_from_graph(g)))
    (tmp_path / "st.json").write_text(serialize_state(state))
    runs = {
        "bars": ([], {}),
        "shared": (["--loops", "cycles", "--share-vertex"],
                   {"per": "cycle", "share_vertex": True}),
    }
    made = []
    for cls in (Point4, LoopPath):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=cls.__post_init__: made.append(self) or init(self))
    for name, (flags, _) in runs.items():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["export", str(tmp_path / "s.json"), "--state", str(tmp_path / "st.json"),
                         *flags, "--out-dir", str(tmp_path / name)])
        assert code == 0
    assert made == []
    monkeypatch.undo()
    for name, (_, options) in runs.items():
        ref_loops = ref_realize_loops(g, basis, state, **options)
        assert (tmp_path / name / "force.obj").read_text() == ref_force_diagram_text(ref_loops)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
       state_kind=st.sampled_from(["general", "axial", "mixed"]),
       per=st.sampled_from(["bar", "cycle"]),
       share_vertex=st.booleans())
def test_every_loop_carries_its_resultant_within_the_area_rule(
        seed, lattice, state_kind, per, share_vertex):
    """realize_state refuses no state on these frames, and each loop's
    areas are what it carries, within AREA_TOL of the state's scales: its
    resultant, less a triangle's moment along the bar's force."""
    rng = np.random.default_rng(seed)
    g = lattice_graph(rng, 3) if lattice else random_connected_graph(rng)
    basis = fundamental_cycles(g)
    try:
        state = _mixed_state(rng, g, basis, state_kind)
    except StructureError:  # no statics with fewer than 3 nodes off one line
        state = _mixed_state(rng, g, basis, "general")
    realized = realize_state(g, basis, state, per=per, share_vertex=share_vertex)
    b, _, parallel, matches, _, zero, (shift, f_scale, m_scale) = \
        _judged_bars(state, basis, g, 1e-9)
    if per == "bar":
        rows = {f"bar_{e}": i for i, e in enumerate(g.edge_ids)}
    else:
        rows = {f"cycle_{c.generator}": g.columns[c.generator] for c in basis}
    assert [name for name, _ in realized.items] == [n for n, i in rows.items() if not zero[i]]
    for name, vertices in realized.items:
        i = rows[name]
        carried = b[i].copy()
        if parallel[i] and matches[i]:
            normal = carried[:3] / np.linalg.norm(carried[:3])
            carried[3:] -= (carried[3:] @ normal) * normal
        off = item_area(vertices).components() - carried
        assert np.linalg.norm(off[:3]) <= AREA_TOL * np.ldexp(f_scale, -shift), name
        assert np.linalg.norm(off[3:]) <= AREA_TOL * np.ldexp(m_scale, -shift), name

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time

import numpy as np

from loopstatics import (
    Bivector6,
    Chain1,
    DualChain,
    all_bar_resultants,
    analyze_statics,
    axial_to_state,
    boundary,
    chain_area,
    check_axial,
    force_of,
    fundamental_cycles,
    is_simple,
    k5_frame,
    loop_area,
    prism_critical_twist,
    prism_frame,
    realize_state,
    selfstress_dimension,
    zero_bar_loop,
)
from loopstatics.chains import Chain0
from loopstatics.selfstress import _bar_array, _node_array
from loopstatics.wedge import Point4

from helpers import (
    item_area,
    normal_form_loop,
    random_connected_graph,
    random_loop,
    random_planar_loop,
    random_state,
)


def _verdict(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_k5_counts():
    failures = []
    start = time.perf_counter()
    g = k5_frame()
    basis = fundamental_cycles(g)
    dim = selfstress_dimension(g)
    summary = analyze_statics(g, rtol=1e-9)
    elapsed = time.perf_counter() - start
    if len(basis) != 6:
        failures.append(f"cycle basis size {len(basis)} != 6")
    if dim != 36:
        failures.append(f"welded dimension {dim} != 36")
    if (summary.s, summary.m) != (1, 0):
        failures.append(f"(s, m) = {(summary.s, summary.m)} != (1, 0)")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("criterion 1 (K5 counts)", failures)


def test_criterion_2_k5_round_trip():
    failures = []
    g = k5_frame()
    basis = fundamental_cycles(g)
    q = analyze_statics(g, rtol=1e-9).selfstress_basis[0]
    state = axial_to_state(g, basis, q)
    resultants = all_bar_resultants(state, basis, g)
    qmax = max(abs(q[e]) for e in g.edge_ids)
    for e in g.edge_ids:
        err = np.linalg.norm(resultants[e].force - q[e] * g.direction(e))
        if err > 1e-9 * qmax:
            failures.append(f"bar {e}: force error {err:.2e} > 1e-9 relative")
    report = check_axial(state, g, basis, tol=1e-9)
    bad = [e for e, chk in report.items() if not chk.is_axial]
    if len(report) != 10:
        failures.append(f"axial report covers {len(report)} bars != 10")
    if bad:
        failures.append(f"bars fail the axial check: {bad}")
    _verdict("criterion 2 (K5 round trip)", failures)


def test_criterion_3_prism_tensegrity():
    failures = []
    twist = prism_critical_twist(radius=1.0, half_height=0.5)
    g = prism_frame(radius=1.0, half_height=0.5, twist=twist)
    basis = fundamental_cycles(g)
    if len(basis) != 7:
        failures.append(f"cycle count {len(basis)} != 7")
    if selfstress_dimension(g) != 42:
        failures.append(f"welded dimension {selfstress_dimension(g)} != 42")
    summary = analyze_statics(g, rtol=1e-9)
    if (summary.s, summary.m) != (1, 1):
        failures.append(f"(s, m) = {(summary.s, summary.m)} != (1, 1)")
        _verdict("criterion 3 (prism tensegrity)", failures)
        return
    q = summary.selfstress_basis[0]
    struts = [e for e in g.edge_ids if e.startswith("strut")]
    cables = [e for e in g.edge_ids if not e.startswith("strut")]
    strut_signs = {np.sign(q[e]) for e in struts}
    cable_signs = {np.sign(q[e]) for e in cables}
    if not (
        len(struts) == 3
        and len(cables) == 9
        and len(strut_signs) == 1
        and len(cable_signs) == 1
        and strut_signs != cable_signs
    ):
        failures.append("null vector is not 3 bars of one sign vs 9 of the other")
    state = axial_to_state(g, basis, q)
    resultants = all_bar_resultants(state, basis, g)
    items = dict(realize_state(g, basis, state).items)
    if any(len(rows) != 3 for rows in items.values()) or len(items) != g.e:
        failures.append("export --axial does not draw one triangle per bar")
    scale = max(np.linalg.norm(resultants[e].force) for e in g.edge_ids)
    for node in g.node_ids:
        closure = np.zeros(3)
        for e in g.incident_edges(node):
            sign = 1 if g.ends(e)[1] == node else -1  # +1 into the node
            closure += sign * force_of(item_area(items[f"bar_{e}"]))
        rel = np.linalg.norm(closure) / scale
        if rel >= 1e-10:
            failures.append(f"node {node}: oriented-area closure {rel:.2e} >= 1e-10")
    _verdict("criterion 3 (prism tensegrity)", failures)


def test_criterion_4_universal_equilibrium():
    failures = []
    rng = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(200):
        g = random_connected_graph(rng, max_nodes=12, max_edges=30)
        basis = fundamental_cycles(g)
        state = random_state(rng, basis)
        b = _bar_array(state, basis, g)
        scale = np.linalg.norm(b, axis=1).max(initial=0.0)
        if scale == 0.0:
            continue
        for node, row in zip(g.node_ids, _node_array(g, b)):
            rel = max(np.linalg.norm(row[:3]), np.linalg.norm(row[3:])) / scale
            worst = max(worst, rel)
            if rel > 1e-12:
                failures.append(
                    f"trial {trial} node {node}: residual {rel:.2e} > 1e-12"
                )
        # negative control: corrupt one bar's force, bypassing chain summation
        k = int(rng.integers(0, g.e))
        b[k, :3] += np.array([0.01 * max(scale, 1.0), 0.0, 0.0])
        tail, _ = g.ends(g.edge_ids[k])
        f_res = _node_array(g, b)[g.node_ids.index(tail), :3]
        if np.linalg.norm(f_res) <= 1e-6:
            failures.append(f"trial {trial}: corrupted bar {g.edge_ids[k]} went undetected")
    print(f"  (worst relative residual over 200 graphs: {worst:.2e})")
    _verdict("criterion 4 (universal equilibrium, 200 graphs)", failures)


def test_criterion_5_homology_properties():
    failures = []
    rng = np.random.default_rng(1865)
    for trial in range(100):
        g = random_connected_graph(rng, max_nodes=12, max_edges=30)
        basis = fundamental_cycles(g)
        if len(basis) != g.e - g.v + 1:
            failures.append(f"trial {trial}: count {len(basis)} != e - v + 1")
        for cycle in basis:
            if boundary(cycle.chain, g) != Chain0():
                failures.append(
                    f"trial {trial}: loop {cycle.generator} has a boundary"
                )
        for _ in range(3):
            edges = list(g.edge_ids)
            ca = Chain1(
                {e: int(rng.integers(-5, 6)) for e in rng.choice(edges, size=min(5, len(edges)), replace=False)}
            )
            cb = Chain1(
                {e: int(rng.integers(-5, 6)) for e in rng.choice(edges, size=min(5, len(edges)), replace=False)}
            )
            if boundary(ca + cb, g) != boundary(ca, g) + boundary(cb, g):
                failures.append(f"trial {trial}: boundary is not additive")
    _verdict("criterion 5 (homology properties, 100 graphs)", failures)


def test_criterion_6_geometry_properties():
    failures = []
    rng = np.random.default_rng(4321)

    def rel_err(a: np.ndarray, b: np.ndarray) -> float:
        scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
        return float(np.linalg.norm(a - b) / scale)

    for trial in range(1000):
        loop = random_loop(rng)
        base = loop_area(loop).components()
        if rel_err(loop_area(loop.reversed()).components(), -base) > 1e-12:
            failures.append(f"trial {trial}: orientation antisymmetry")
        shift = Point4(*rng.uniform(-5.0, 5.0, size=4))
        if rel_err(loop_area(loop.translated(shift)).components(), base) > 1e-12:
            failures.append(f"trial {trial}: translation invariance")
        other = random_loop(rng)
        c1 = DualChain(((1, loop),))
        c2 = DualChain(((int(rng.integers(-2, 3)) or 1, other),))
        lhs = chain_area(c1 + c2).components()
        rhs = (chain_area(c1) + chain_area(c2)).components()
        if rel_err(lhs, rhs) > 1e-12:
            failures.append(f"trial {trial}: chain linearity")

    for trial in range(1000):
        target = Bivector6(*rng.normal(size=6))
        loop = normal_form_loop(target, rng.uniform(-5.0, 5.0, size=4))
        err = (loop_area(loop) - target).norm()
        if err > 1e-12 * target.norm():
            failures.append(f"synthesis trial {trial}: error {err:.2e}")

    for trial in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        loop = zero_bar_loop(n, Point4(*rng.uniform(-1.0, 1.0, size=4)))
        if np.max(np.abs(loop_area(loop).components())) > 1e-15:
            failures.append(f"zero-bar trial {trial}: area above 1e-15")

    for trial in range(500):
        if not is_simple(loop_area(random_planar_loop(rng))):
            failures.append(f"planar trial {trial}: is_simple false")
    if is_simple(Bivector6(ij=1.0, kh=1.0)):
        failures.append("crossed-plane bivector reported simple")
    _verdict("criterion 6 (geometry properties, 1000 loops)", failures)

"""Three-prism tensegrity walkthrough.

Builds the prism at its closed-form critical twist pi/6, checks from the
singular values of the equilibrium matrix that it has one self-stress and
one mechanism there, then verifies the strut/cable sign split, realizes
every bar resultant as a perpendicular triangle, and checks that the
oriented triangle areas close at each node.
"""

import argparse

import numpy as np

from loopstatics import (
    LoopPath,
    Point4,
    analyze_statics,
    axial_to_state,
    export_diagrams,
    force_of,
    fundamental_cycles,
    loop_area,
    prism_critical_twist,
    prism_frame,
    realize_state,
    selfstress_dimension,
)
from loopstatics.structures import PRISM_CABLES, PRISM_STRUTS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--half-height", type=float, default=0.5)
    parser.add_argument("--export-dir", default=None)
    args = parser.parse_args()

    twist = prism_critical_twist(args.radius, args.half_height)
    print(f"critical twist: {twist:.12f} rad = {np.rad2deg(twist):.9f} deg")

    g = prism_frame(args.radius, args.half_height, twist)
    basis = fundamental_cycles(g)
    print(f"frame: {g.v} nodes, {g.e} bars, {len(basis)} basis loops, "
          f"welded dimension {selfstress_dimension(g)}")
    summary = analyze_statics(g)
    print(f"oracle: rank {summary.rank}, s = {summary.s}, m = {summary.m}")

    q = summary.selfstress_basis[0]
    print("\naxial forces (tension-positive):")
    for e in g.edge_ids:
        kind = "strut" if e in PRISM_STRUTS else "cable"
        print(f"  {e:7} [{kind}]  {q[e]:+.6f}")
    assert {np.sign(q[e]) for e in PRISM_STRUTS} != {np.sign(q[e]) for e in PRISM_CABLES}

    state = axial_to_state(g, basis, q)
    realized = realize_state(g, basis, state, per="bar")
    assert all(len(rows) == 3 for _, rows in realized.items), "every bar is one triangle"
    triangles = {name: LoopPath(tuple(Point4(*v) for v in rows))
                 for name, rows in realized.items}
    print("\noriented-area closure of the bar triangles at each node:")
    for n in g.node_ids:
        closure = np.zeros(3)
        for e in g.incident_edges(n):
            sign = 1 if g.ends(e)[1] == n else -1  # +1 for a bar directed into n
            closure += sign * force_of(loop_area(triangles[f"bar_{e}"]))
        print(f"  node {n}: |sum| = {np.linalg.norm(closure):.3e}")

    if args.export_dir:
        paths = export_diagrams(g, realized, args.export_dir)
        print("wrote:", ", ".join(str(p) for p in paths))


if __name__ == "__main__":
    main()

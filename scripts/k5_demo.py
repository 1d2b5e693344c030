"""End-to-end walkthrough on the complete five-node frame.

Builds the frame, picks the radial spanning tree, finds the unique axial
self-stress with the equilibrium-matrix null space, converts it to
per-loop resultants, and shows that chain summation recovers every bar
force, tree bars included.  Optionally writes the form/force diagrams.
"""

import argparse

from loopstatics import (
    all_bar_resultants,
    analyze_statics,
    axial_to_state,
    check_axial,
    export_diagrams,
    fundamental_cycles,
    k5_frame,
    realize_state,
    selfstress_dimension,
    spanning_tree,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--export-dir", default=None,
                        help="also write form.obj / force.obj here")
    args = parser.parse_args()

    g = k5_frame()
    tree = spanning_tree(g)
    basis = fundamental_cycles(g, tree)
    print(f"frame: {g.v} nodes, {g.e} bars")
    print(f"spanning tree (radial spokes): {sorted(tree.edge_ids)}")
    print(f"basis loops: {len(basis)}   welded self-stress dimension: "
          f"{selfstress_dimension(g)}")

    summary = analyze_statics(g)
    print(f"oracle: rank {summary.rank}, s = {summary.s}, m = {summary.m}")
    q = summary.selfstress_basis[0]
    state = axial_to_state(g, basis, q)
    resultants = all_bar_resultants(state, basis, g)

    print("\nbar   loops (signed)              oracle q     loop-sum q")
    for e in g.edge_ids:
        members = " ".join(
            f"{c.chain.coefficient(e):+d}{c.generator}"
            for c in basis if c.chain.coefficient(e)
        )
        recovered = resultants[e].force @ g.direction(e)
        print(f"{e:5} {members:28} {q[e]:+.6f}  {recovered:+.6f}")

    worst = max(
        abs(resultants[e].force @ g.direction(e) - q[e]) for e in g.edge_ids
    )
    print(f"\nworst bar-force mismatch: {worst:.3e}")
    axial = check_axial(state, g, basis)
    print("all bars axial:", all(c.is_axial for c in axial.values()))

    if args.export_dir:
        realized = realize_state(g, basis, state, per="cycle", share_vertex=True)
        paths = export_diagrams(g, realized, args.export_dir)
        print("wrote:", ", ".join(str(p) for p in paths))


if __name__ == "__main__":
    main()

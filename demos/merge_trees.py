"""Build direction-dependent merge trees of a small embedded graph.

A W-shaped path has two different stories depending on where you look
from: scanning upward (direction pi/2) it has three local minima that
merge twice, while scanning sideways it is a single monotone sweep.
"""

import math

from abdkit import EmbeddedGraph, direction_filter, merge_tree_at
from abdkit.merge_tree import trees_equal
from abdkit.oracles import merge_tree_oracle

w_path = EmbeddedGraph(
    {0: (0.0, 0.0), 1: (1.0, 5.0), 2: (2.0, 1.0), 3: (3.0, 6.0), 4: (4.0, 2.0)},
    [(0, 1), (1, 2), (2, 3), (3, 4)],
)


def describe(tree):
    ch = tree.children()
    for node in sorted(tree.values, key=tree.values.get):
        kids = sorted(tree.values[c] for c in ch[node])
        role = "leaf" if not kids else ("root" if node == tree.root else "saddle")
        print(f"  node {node}: value {tree.values[node]:+.3f} ({role})"
              + (f", children at {kids}" if kids else ""))


for omega in (math.pi / 2, 0.0, math.pi / 3):
    print(f"\ndirection omega = {omega:.4f} rad")
    tree = merge_tree_at(w_path, omega, normalize="none")
    print(f"  {tree.n_nodes} nodes, {tree.n_leaves} leaves"
          + (" (trivial)" if tree.is_trivial() else ""))
    describe(tree)

    # the sweep agrees with the literal sublevel-set definition (no ties to collapse here)
    assert trees_equal(tree, merge_tree_oracle(direction_filter(w_path, omega)))

print("\nafter median normalization (the form used by the ABD):")
describe(merge_tree_at(w_path, math.pi / 2))

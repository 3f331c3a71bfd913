"""The branching distance and where its metric axioms break.

The distance matches branches of two merge-tree decompositions (cost: the
larger endpoint difference) or deletes them (cost: half the branch
length), minimizing the worst single cost.  It is symmetric and
nonnegative, and zero only for identical trees -- but dropping the merge
tree's infinite tail makes the triangle inequality fail, and averaging
over rotations can collapse different shapes to distance zero.
"""

from abdkit import average_branching_distance, branching_distance
from abdkit.fixtures import tree_counterexample, indistinguishable_pair, graph_counterexample
from abdkit.oracles import brute_force_distance, is_eps_similar, is_isomorphic

# --- triangle inequality fails for the tree distance --------------------
x, y, z = tree_counterexample()
dxy = branching_distance(x, y)
dyz = branching_distance(y, z)
dxz = branching_distance(x, z)
print("three small merge trees:")
print(f"  d(X,Y) = {dxy}, d(Y,Z) = {dyz}, d(X,Z) = {dxz}")
print(f"  d(X,Y) <= d(X,Z) + d(Z,Y)?  {dxy <= dxz + dyz}  ({dxy} > {dxz + dyz})")

# the exhaustive oracle agrees with the candidate-set search
assert brute_force_distance(x, y) == dxy

# the decision procedure underneath: eps-similarity flips exactly at d
print(f"  eps-similar at 4.999: {is_eps_similar(x, y, 4.999)}; at 5.0: {is_eps_similar(x, y, 5.0)}")

# --- and it propagates to the graph-level ABD ----------------------------
g, h, j = graph_counterexample()
print("\nthree embedded graphs, single frame pi/2:")
print(f"  d_A(G,H) = {average_branching_distance(g, h, n_frames=1)}")
print(f"  d_A(G,J) = {average_branching_distance(g, j, n_frames=1)}")
print(f"  d_A(H,J) = {average_branching_distance(h, j, n_frames=1)}")
print("  6.5 > 2.5 + 3.0, so the ABD is not a metric either")

# --- positiveness also fails: convex shapes are indistinguishable --------
tri, square = indistinguishable_pair()
d = average_branching_distance(tri, square, n_frames=10)
print(f"\ntriangle vs square: d_A = {d}, isomorphic: {is_isomorphic(tri, square)}")
print("every direction sees one sublevel component, so both trees are trivial")

#!/usr/bin/env python3
"""The Bruhat-Tits tree: vertices, lattices, depth, and fixed-point counts.

Run:  python3 demos/demo_tree_and_depth.py
"""

from fractions import Fraction

from germlab import (FieldConfig, Sl2Element, ball, depth, depth_via_tree,
                     make_vertex, neighbors, rep_elliptic, tree_count_oracle)
from germlab.tree import BASE, min_level

cfg = FieldConfig(5)

print(f"The tree for SL2(Q_5) is (q+1) = {cfg.q + 1}-regular.")
print("base vertex:", BASE, " neighbors:", neighbors(cfg, BASE))
for R in range(4):
    print(f"ball of radius {R}: {len(ball(cfg, BASE, R))} vertices")

v = make_vertex(cfg, 1, 0)
X = Sl2Element.from_rationals(cfg, 0, Fraction(1, 5), 5)
print(f"\nlattice g_({v},0) contains [[0,1/5],[5,0]]:",
      min_level(cfg, v, X) >= 0)

# Depth read from the eigenvalue valuation, cross-checked on the tree.
samples = [
    ("diag(1,-1)   ", Sl2Element.from_rationals(cfg, 1, 0, 0)),
    ("diag(5,-5)   ", Sl2Element.from_rationals(cfg, 5, 0, 0)),
    ("[[0,1],[5,0]]", Sl2Element.from_rationals(cfg, 0, 1, 5)),
]
print("\nelement            depth   tree lower bound (R=4)")
for name, Y in samples:
    print(f"{name}      {str(depth(Y)):5s}   {depth_via_tree(cfg, Y, 4)}")

# Fixed-vertex counts behind orbital integrals of lattice indicators.
print("\nfixed-vertex counts (even vertices, split counts use a width-2")
print("window of apartment columns as a fundamental domain):")
for name, Y, n, R in [
    ("split depth 0", Sl2Element.from_rationals(cfg, 1, 0, 0), 0, 4),
    ("split depth 1", Sl2Element.from_rationals(cfg, 5, 0, 0), 0, 4),
    ("unramified d1", rep_elliptic(cfg, 2 * 25, tag=True), 0, 5),
    ("ramified 1/2 ", rep_elliptic(cfg, 5, tag=True), 0, 4),
]:
    print(f"  {name}: count = {tree_count_oracle(cfg, Y, n, R)}")

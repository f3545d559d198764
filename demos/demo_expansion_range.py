#!/usr/bin/env python3
"""Where the expansion holds: depth thresholds, and the sharp boundary.

The validity range of the five-orbit expansion depends on the test function:
finer functions need deeper points.  Vertex-lattice indicators at level n are
valid from depth n - 1/2 on; combinations invariant under an edge-midpoint
lattice are valid from depth n - 1 on.  This script shows both, plus a
contrast row outside the range.

Run:  python3 demos/demo_expansion_range.py
"""

from fractions import Fraction

from germlab import (FieldConfig, Sl2Element, default_basis, expansion_rhs,
                     extract_germs_auto, indicator_lattice, nilpotent_vector,
                     rep_elliptic, ss_orbital)
from germlab.tree import BASE

cfg = FieldConfig(5)
basis = default_basis(cfg)


def residual(X, f):
    t = extract_germs_auto(X, basis)
    return ss_orbital(X, f).value - expansion_rhs(t, nilpotent_vector(f))


def M(a, b, c):
    return Sl2Element.from_rationals(cfg, a, b, c)


f2 = indicator_lattice(cfg, BASE, 2)           # level-2 vertex cell

print("level-2 vertex indicator against points of increasing depth:")
for name, X in [("split depth 1   ", M(5, 0, 0)),
                ("ramified depth 3/2", rep_elliptic(cfg, 125, tag=True)),
                ("split depth 2   ", M(25, 0, 0)),
                ("split depth 3   ", M(125, 0, 0))]:
    print(f"  {name} residual = {residual(X, f2)}")
print("-> nonzero exactly below depth 3/2: the vertex family at level 2")
print("   is a depth-3/2 family, not depth-1.")

# The edge-midpoint-invariant combination inside the same span is depth-1.
f_mid = None
for ap in range(5):
    for bp in range(5):
        g = indicator_lattice(cfg, BASE, 2, center=M(5 * ap, 5 * bp, 0))
        f_mid = g if f_mid is None else f_mid + g

print("\nmidpoint-invariant sum of the same level-2 cells:")
print(f"  split depth 1 residual = {residual(M(5, 0, 0), f_mid)}")
print("-> zero already at depth 1: the missing half-step lives in the")
print("   edge-midpoint lattices.")

f3 = indicator_lattice(cfg, BASE, 3)
print("\ncontrast (fine function, shallow point):")
print(f"  level-3 cell at split depth 1: residual = {residual(M(5, 0, 0), f3)}")

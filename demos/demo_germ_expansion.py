#!/usr/bin/env python3
"""Germ extraction, homogeneity extension, and the expansion identity.

Run:  python3 demos/demo_germ_expansion.py
"""

from fractions import Fraction

from germlab import (FieldConfig, Sl2Element, default_basis, expansion_rhs,
                     extract_germs, extract_germs_auto, homogeneity_extend,
                     indicator_lattice, nilpotent_vector, rep_elliptic,
                     ss_orbital, unit_ball)
from germlab.tree import BASE

cfg = FieldConfig(5)
basis = default_basis(cfg)
print("Extraction basis:", [name for name, _ in basis.members])

X = Sl2Element.from_rationals(cfg, 25, 0, 0)   # split, depth 2
t = extract_germs(X, basis)
print("\nGerm table at diag(25,-25):")
for om, v in t.items():
    print(f"  {om!r}: {v}")

# The expansion predicts every integral from the five germ values.
f = indicator_lattice(cfg, BASE, 1)
lhs = ss_orbital(X, f).value
rhs = expansion_rhs(t, nilpotent_vector(f))
print(f"\nheld-out check: I_X(level-1 ball) = {lhs}, expansion gives {rhs}")

# Deepening scales regular entries by q^2 per step and fixes the zero entry.
t_up = extract_germs(X.scale(25), basis)
print("\ndirect table at zeta^2 X matches the extended table:",
      t_up == homogeneity_extend(t, 1, cfg))

# Elliptic tori carry a nonzero coefficient on the zero orbit.
Xe = rep_elliptic(cfg, 2 * 5**4, tag=True)
te = extract_germs(Xe, basis)
print("\nGerm table at an unramified point of depth 2:")
for om, v in te.items():
    print(f"  {om!r}: {v}")

# Shallow points get their table by extending back from a deep multiple.
Xs = Sl2Element.from_rationals(cfg, 5, 0, 0)
ts = extract_germs_auto(Xs, basis)
print("\nauto-extended table at depth 1:",
      {repr(om): str(v) for om, v in ts.items()})

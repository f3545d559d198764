#!/usr/bin/env python3
"""Exact orbital integrals: anchors, covariance, scaling, and the oracle.

Run:  python3 demos/demo_orbital_integrals.py
"""

from fractions import Fraction

from germlab import (ALL_ORBITS, FieldConfig, Sl2Element,
                     brute_force_cell_oracle, indicator_lattice,
                     nilpotent_orbital, nilpotent_vector, rep_elliptic,
                     ss_orbital, unit_ball)
from germlab.tree import BASE

cfg = FieldConfig(5)
ball = unit_ball(cfg)

print("Semisimple orbital integrals of the unit-ball indicator:")
for name, X in [
    ("diag(1,-1)  split depth 0", Sl2Element.from_rationals(cfg, 1, 0, 0)),
    ("diag(5,-5)  split depth 1", Sl2Element.from_rationals(cfg, 5, 0, 0)),
    ("unramified  depth 0      ", rep_elliptic(cfg, 2, tag=True)),
    ("ramified    depth 1/2    ", rep_elliptic(cfg, 5, tag=True)),
]:
    res = ss_orbital(X, ball)
    print(f"  {name}: {res.value}   (tail: {res.tail}, v0: {res.v0})")

print("\nNilpotent orbital integrals (the five-orbit vector):")
for om, v in nilpotent_vector(ball).items():
    print(f"  {om!r}: {v}")

print("\nDilation law I(f_zeta) = q^dim I(f):")
fz = ball.dilate(cfg.zeta**2)
for om in ALL_ORBITS:
    print(f"  {om!r}: {nilpotent_orbital(om, fz).value} "
          f"= q^{om.dim} * {nilpotent_orbital(om, ball).value}")

print("\nSubstitution covariance I_(zeta^2 X)(f) = I_X(f_zeta):")
X = rep_elliptic(cfg, 5, tag=True)
print("  lhs:", ss_orbital(X.scale(25), ball).value,
      " rhs:", ss_orbital(X, fz).value)

print("\nIndependent brute-force oracle (raw stratum grids, interval")
print("subdivision; no Hensel branch logic shared with the engine; an")
print("exact value or GridTooLarge):")
for target, f, label in [
    (Sl2Element.from_rationals(cfg, 1, 0, 0), ball, "split anchor"),
    (ALL_ORBITS[1], ball, "nilpotent One"),
    (rep_elliptic(cfg, 2, tag=True), indicator_lattice(cfg, BASE, 1), "elliptic, level 1"),
]:
    print(f"  {label}: oracle = {brute_force_cell_oracle(target, f)}")

#!/usr/bin/env python3
"""Tour of the p-adic facts read off exact rationals: valuations, digits,
square classes, Hensel roots and norms read off the Hilbert pairing.

Run:  python3 demos/demo_padic_arithmetic.py
"""

from fractions import Fraction

from germlab import FieldConfig, SquareClass, val_p
from germlab.padic import hensel_sqrt, mod_pk, square_class_of_rational, unit_mod_pk

cfg = FieldConfig(5)
p = cfg.p
print(f"Field: Q_{p}, uniformizer zeta = {cfg.zeta}, nonsquare unit eps = {cfg.eps}")

# Every number is an exact Fraction; its p-adic data is read off on demand.
x = Fraction(7, 10)
u = unit_mod_pk(x, p, 6)
digits = [u // p**i % p for i in range(6)]
print(f"\n7/10 in Q_5:  valuation {val_p(x, p)},  unit digits {tuple(digits)}")
for k in (0, 1, 3):
    print(f"7/10 mod 5^{k}: {mod_pk(x, p, k)}")
print("valuation of 0:", val_p(0, p))

# Square classes: the four-element group F*/(F*)^2.
for v in (4, 2, 5, 10, -1):
    print(f"square class of {v}:", square_class_of_rational(v, p).value)

# Hensel square roots of units with a canonical branch (leading digit <= 2).
k = 12
r = hensel_sqrt(6, p, k)
print(f"\nsqrt(6) mod 5^{k} = {r}, leading digit {r % p}")
print(f"check r^2 = 6 mod 5^{k}:", (r * r - 6) % p**k == 0)

# Norm groups of the three quadratic extensions Q_5(sqrt c): v is a norm
# exactly when the Hilbert pairing (c, [v])_5 is 1.
for cls in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI):
    tag = "unramified" if cls == SquareClass.EPS else "ramified"
    verdicts = {v: cls.hilbert(square_class_of_rational(v, p), p) == 1 for v in (2, 4, 5, 10)}
    print(f"norms from the {tag} extension (disc {cls.value}):", verdicts)

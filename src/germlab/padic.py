"""p-adic facts about rationals viewed inside Q_p (p odd).

Every number is an exact `Fraction`; this module reads its p-adic data:
valuation, canonical reduction mod p^k, leading digit, Legendre symbol,
Hensel square roots of units, the Hilbert symbol, the four square classes
of Q_p* and the norm groups of the three quadratic extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

INF = math.inf

Rat = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def smallest_nonsquare_unit(p: int) -> int:
    for d in range(2, p):
        if legendre(d, p) == -1:
            return d
    raise ValueError(f"no nonsquare unit mod {p}")


def val_p(x: Rat, p: int):
    """p-adic valuation of a rational; INF for 0."""
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_mod_pk(x: Rat, p: int, k: int) -> int:
    """Integer u with x = p^val(x) * u mod p^(val+k); requires x != 0, k >= 1."""
    x = Fraction(x)
    v = val_p(x, p)
    u = x / Fraction(p) ** v
    m = p**k
    return (u.numerator % m) * pow(u.denominator, -1, m) % m


def mod_pk(x: Rat, p: int, k: int) -> Fraction:
    """Canonical representative of x modulo p^k O (digits below position k)."""
    x = Fraction(x)
    v = val_p(x, p)
    if v >= k:
        return Fraction(0)
    j = max(0, -v)
    y = x * p**j  # valuation >= 0, denominator now coprime to p
    m = p ** (k + j)
    c = (y.numerator % m) * pow(y.denominator, -1, m) % m
    return Fraction(c, p**j)


def leading_digit(x: Rat, p: int) -> int:
    """First nonzero base-p digit of x (x != 0)."""
    return unit_mod_pk(x, p, 1)


def hensel_sqrt(u: int, p: int, k: int) -> int:
    """Square root of the unit u modulo p^k, canonical residue in 1..(p-1)/2.

    Requires legendre(u, p) == 1 and k >= 1.
    """
    r = None
    for d in range(1, (p - 1) // 2 + 1):
        if (d * d - u) % p == 0:
            r = d
            break
    if r is None:
        raise ValueError("not a square mod p")
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        r = (r + u % m * pow(r, -1, m)) * pow(2, -1, m) % m
    if r % p > (p - 1) // 2:
        r = p**k - r
    return r


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root in Q if one exists."""
    if x < 0:
        return None
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def hilbert_symbol(a: Rat, b: Rat, p: int) -> int:
    """Hilbert symbol (a, b)_p for odd p."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    al, be = val_p(a, p), val_p(b, p)
    u, w = unit_mod_pk(a, p, 1), unit_mod_pk(b, p, 1)
    eps = ((p - 1) // 2) % 2
    s = (-1) ** (al * be * eps) * legendre(u, p) ** be * legendre(w, p) ** al
    return s


class SquareClass(Enum):
    """The four classes of F*/(F*)^2 for F = Q_p, p odd."""

    ONE = "One"
    EPS = "Eps"
    PI = "Pi"
    EPSPI = "EpsPi"

    @property
    def parity(self) -> int:
        return 0 if self in (SquareClass.ONE, SquareClass.EPS) else 1

    @property
    def unit_legendre(self) -> int:
        return 1 if self in (SquareClass.ONE, SquareClass.PI) else -1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        par = (self.parity + other.parity) % 2
        leg = self.unit_legendre * other.unit_legendre
        return _CLASS_BY_DATA[(par, leg)]

    def representative(self, cfg: "FieldConfig") -> Fraction:
        base = {SquareClass.ONE: 1, SquareClass.EPS: cfg.eps,
                SquareClass.PI: cfg.p, SquareClass.EPSPI: cfg.eps * cfg.p}
        return Fraction(base[self])


_CLASS_BY_DATA = {
    (0, 1): SquareClass.ONE,
    (0, -1): SquareClass.EPS,
    (1, 1): SquareClass.PI,
    (1, -1): SquareClass.EPSPI,
}


def square_class_of_rational(x: Rat, p: int) -> SquareClass:
    x = Fraction(x)
    if x == 0:
        raise ValueError("square class of zero is undefined")
    v = val_p(x, p)
    return _CLASS_BY_DATA[(v % 2, legendre(unit_mod_pk(x, p, 1), p))]


@dataclass(frozen=True)
class FieldConfig:
    """The field Q_p.

    zeta (the uniformizer) is p itself; eps is the smallest positive
    nonsquare unit mod p, so labels are deterministic across runs.
    `precision` is read by nothing in germlab: every computation is exact.
    It stays, with its check, only because the benchmark builds
    `FieldConfig(p, 12)`; the benchmark change of ROADMAP E removes it.
    """

    p: int
    precision: int = 12

    def __post_init__(self):
        if not _is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.precision < 4:
            raise ValueError("precision must be at least 4 digits")

    @property
    def q(self) -> int:
        return self.p

    @property
    def zeta(self) -> Fraction:
        return Fraction(self.p)

    @cached_property
    def eps(self) -> int:
        return smallest_nonsquare_unit(self.p)

    def qpow(self, k) -> Fraction:
        """q^k as an exact rational (k any integer)."""
        k = int(k)
        return Fraction(self.p**k) if k >= 0 else Fraction(1, self.p ** (-k))


@dataclass(frozen=True)
class QuadExtDescriptor:
    """A quadratic extension of Q_p, tagged by the class of its discriminant."""

    disc_class: SquareClass

    def __post_init__(self):
        if self.disc_class == SquareClass.ONE:
            raise ValueError("trivial discriminant does not define an extension")

    @property
    def ramified(self) -> bool:
        return self.disc_class != SquareClass.EPS

    def disc_rep(self, cfg: FieldConfig) -> Fraction:
        return self.disc_class.representative(cfg)

    def is_norm_rational(self, x: Rat, cfg: FieldConfig) -> bool:
        x = Fraction(x)
        if x == 0:
            raise ValueError("norm test needs nonzero argument")
        if not self.ramified:
            return val_p(x, cfg.p) % 2 == 0
        return hilbert_symbol(self.disc_rep(cfg), x, cfg.p) == 1

    def norm_unit_legendre(self, v: int, cfg: FieldConfig) -> int:
        """Legendre value required of unit(b) for b with val(b)=v to be a norm.

        Only meaningful for ramified extensions; unramified norms are exactly
        the even-valuation elements.
        """
        eps_exp = ((cfg.p - 1) // 2) % 2
        sign = (-1) ** (v * eps_exp)
        if self.disc_class == SquareClass.EPSPI:
            sign *= (-1) ** v
        return sign

"""p-adic facts about rationals viewed inside Q_p (p odd).

Every number is exact, by one rule: an int when it is an integer, and a
`Fraction` with denominator > 1 otherwise, so that integer work runs at C
speed.  Values are put in that form where they are built, by `exact` (any
exact input; a float is refused) and `ratio` (a quotient, an int when it
divides), and nothing branches on the type afterwards.  Python keeps
Fraction(n) == n, hash(Fraction(n)) == hash(n) and str(Fraction(n)) ==
str(n), so the rule changes no memo key, order or printed byte.

This module reads the p-adic data of such a number:
valuation, canonical reduction mod p^k, leading digit, Legendre symbol,
Hensel square roots of units, and the four square classes of Q_p*, each the
pair (val mod 2, unit Legendre symbol), with their Hilbert pairing.  The
pairing depends on the two classes alone and answers every norm question: a
quadratic extension is Q_p(sqrt c) for one class c != ONE, and x is a norm
from it exactly when (c, [x])_p = 1.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Union

from .value import Value

INF = math.inf

Rat = Union[int, Fraction]  # val_p and mod_pk read only .numerator, .denominator


def exact(x) -> Rat:
    """x as an exact value: an int when it is an integer, else a Fraction.

    Takes an int, a Fraction or anything Fraction reads (a string "n/d").  A
    float is refused: its binary value is not the rational it was written
    as (0.1 would become 3602879701896397/2^55).
    """
    if isinstance(x, float):
        raise TypeError(f"exact rational required, got float {x!r}")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x if x.denominator > 1 else x.numerator


def ratio(n: Rat, d: Rat) -> Rat:
    """n / d for exact n and d != 0, as an exact value.

    The quotient is tested with an int divmod first, so an integral one
    builds no Fraction.
    """
    num, den = n.numerator * d.denominator, n.denominator * d.numerator
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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
    n = x.numerator
    if not n:
        return INF
    v = 0
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
    v = val_p(x, p)
    n, d = x.numerator // p ** max(v, 0), x.denominator // p ** max(-v, 0)
    m = p**k
    return n % m * pow(d, -1, m) % m


def mod_pk(x: Rat, p: int, k: int) -> Rat:
    """Canonical representative of x modulo p^k O (digits below position k)."""
    v = val_p(x, p)
    if v >= k:
        return 0
    j = max(0, -v)  # the denominator's p-part is p^j
    m, pj = p ** (k + j), p**j
    c = (x.numerator % m) * pow(x.denominator // pj, -1, m) % m
    return Fraction(c, pj) if j else c  # for j > 0, c = x p^j mod p^(k+j) is a unit


def leading_digit(x: Rat, p: int) -> int:
    """First nonzero base-p digit of x (x != 0)."""
    return unit_mod_pk(x, p, 1)


def _sqrt_mod_p(u: int, p: int) -> int:
    """A root of u mod p in O(log p) multiplications by Tonelli-Shanks (Cohen,
    GTM 138, Algorithm 1.5.1): with p - 1 = q 2^e (q odd), the power of a
    non-square and at most e further pows.  When p = 3 mod 4 (e = 1) that is
    the one pow u^((p+1)/4).
    """
    u %= p
    if p % 4 == 3:
        r = pow(u, (p + 1) // 4, p)
    elif pow(u, (p - 1) // 2, p) != 1:  # Tonelli-Shanks runs only on a square
        raise ValueError("not a square mod p")
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        c = pow(smallest_nonsquare_unit(p), q, p)  # of order 2^e
        r, t = pow(u, (q + 1) // 2, p), pow(u, q, p)  # r^2 = u t, t of order 2^i < 2^e
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (e - i - 1), p)
            c, e = b * b % p, i
            r, t = r * b % p, t * c % p
    if not u or r * r % p != u:
        raise ValueError("not a square mod p")
    return r


def hensel_sqrt(u: int, p: int, k: int) -> int:
    """Square root of the unit u modulo p^k, canonical residue in 1..(p-1)/2.

    Requires legendre(u, p) == 1 and k >= 1.  The start root is the root mod
    p in 1..(p-1)/2, and each Newton step changes r by a multiple of the
    modulus already reached, so r mod p, and with it the canonical choice,
    never changes.
    """
    r = _sqrt_mod_p(u, p)
    r = min(r, p - r)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        r = (r + u % m * pow(r, -1, m)) * pow(2, -1, m) % m
    return r


class SquareClass(Enum):
    """The four classes of F*/(F*)^2 for F = Q_p, p odd, as coordinates.

    The class of x is (val x mod 2, Legendre symbol of x's unit part), set once
    per member as `parity` and `unit_legendre`; `.value` is the printed name.
    """

    ONE = "One", 0, 1
    EPS = "Eps", 0, -1
    PI = "Pi", 1, 1
    EPSPI = "EpsPi", 1, -1

    def __new__(cls, name: str, parity: int, unit_legendre: int):
        member = object.__new__(cls)
        member._value_ = name
        member.parity = parity
        member.unit_legendre = unit_legendre
        return member

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return _CLASS_BY_DATA[(self.parity ^ other.parity,
                               self.unit_legendre * other.unit_legendre)]

    def hilbert(self, other: "SquareClass", p: int) -> int:
        """The Hilbert symbol (c, d)_p of two classes (Serre, Ch. III).

        With c = p^a u and d = p^b w (u, w units) it is
        (-1)^(a b (p-1)/2) (u|p)^b (w|p)^a.  d is a norm from Q_p(sqrt c)
        exactly when it is 1; for c = EPS that says val d is even.
        """
        a, b = self.parity, other.parity
        sign = -1 if a and b and p % 4 == 3 else 1
        return sign * (self.unit_legendre if b else 1) * (other.unit_legendre if a else 1)

    def representative(self, cfg: "FieldConfig") -> int:
        return (cfg.eps if self.unit_legendre < 0 else 1) * cfg.p**self.parity


_CLASS_BY_DATA = {(c.parity, c.unit_legendre): c for c in SquareClass}


def square_class_of_rational(x: Rat, p: int) -> SquareClass:
    """The class of x != 0: its valuation's parity and the Legendre symbol of
    its p-free numerator times its p-free denominator."""
    if x == 0:
        raise ValueError("square class of zero is undefined")
    v = val_p(x, p)
    n, d = x.numerator // p ** max(v, 0), x.denominator // p ** max(-v, 0)
    return _CLASS_BY_DATA[(v & 1, legendre(n * d, p))]


def hilbert_symbol(a: Rat, b: Rat, p: int) -> int:
    """Hilbert symbol (a, b)_p for odd p: the pairing of the classes of a and
    b (ValueError when either is 0, which has no class)."""
    return square_class_of_rational(a, p).hilbert(square_class_of_rational(b, p), p)


class FieldConfig(Value):
    """The field Q_p.

    zeta (the uniformizer) is p itself; eps is the smallest positive
    nonsquare unit mod p, so labels are deterministic across runs.
    `precision` is read by nothing in germlab: every computation is exact.
    It stays, with its check, only because the benchmark builds
    `FieldConfig(p, 12)`; ROADMAP E1 drops that and E2 deletes it.
    """

    def __init__(self, p: int, precision: int = 12):
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if precision < 4:
            raise ValueError("precision must be at least 4 digits")
        self._freeze(p=p, precision=precision)

    @property
    def q(self) -> int:
        return self.p

    @property
    def zeta(self) -> int:
        return self.p

    @cached_property
    def eps(self) -> int:
        return smallest_nonsquare_unit(self.p)

    def qpow(self, k) -> Rat:
        """q^k as an exact value (k any integer): an int for k >= 0.

        Use it for a power of p that can be negative: p ** k with int p and
        k < 0 is a float.
        """
        k = int(k)
        return self.p**k if k >= 0 else Fraction(1, self.p**-k)

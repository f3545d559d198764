"""Exact arithmetic in Q_p (p odd) with tracked precision.

Scalars are either exact rationals (viewed inside Q_p), exact zero, or
finite-precision cosets p^v*(u + p^n O).  Arithmetic on exact scalars stays
exact, so integer cancellation produces exact zero; arithmetic touching an
approximate scalar propagates precision pessimistically and raises
InsufficientPrecision when all known digits cancel.

The module also provides the rational-number helpers (valuation, canonical
reduction mod p^k, Legendre symbol, Hensel square roots, Hilbert symbol)
that the rest of the library uses directly on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import DivisionByZero, InsufficientPrecision

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
    """The field Q_p with a working precision (count of base-p digits).

    zeta (the uniformizer) is p itself; eps is the smallest positive
    nonsquare unit mod p, so labels are deterministic across runs.
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


class PadicScalar:
    """An element of Q_p known either exactly or to finitely many digits.

    A 'known' scalar with valuation v, unit u and n digits represents the
    coset p^v*u + p^(v+n)*O.  Exact scalars carry their rational value and can
    produce digits to any precision, so exact cancellation is detected.
    """

    __slots__ = ("cfg", "kind", "fr", "v", "u", "n")

    def __init__(self, cfg: FieldConfig, kind: str, fr=None, v=None, u=None, n=None):
        self.cfg = cfg
        self.kind = kind  # 'zero' | 'exact' | 'approx'
        self.fr = fr
        self.v = v
        self.u = u
        self.n = n
        if kind == "approx":
            if n < 1 or u % cfg.p == 0:
                raise ValueError("an approximate scalar needs n >= 1 digits "
                                 "and a unit u")
            self.u = u % cfg.p**n

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cfg: FieldConfig) -> "PadicScalar":
        return cls(cfg, "zero")

    @classmethod
    def exact(cls, cfg: FieldConfig, x: Rat) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            return cls.zero(cfg)
        return cls(cfg, "exact", fr=x)

    @classmethod
    def approx(cls, cfg: FieldConfig, v: int, u: int, n: Optional[int] = None) -> "PadicScalar":
        n = cfg.precision if n is None else n
        return cls(cfg, "approx", v=v, u=u, n=n)

    # -- basic views --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_exact(self) -> bool:
        return self.kind in ("zero", "exact")

    def exact_value(self) -> Fraction:
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "exact":
            return self.fr
        raise InsufficientPrecision("scalar is not known exactly")

    def valuation(self):
        """Exact valuation; +inf for exact zero."""
        if self.kind == "zero":
            return INF
        if self.kind == "exact":
            return val_p(self.fr, self.cfg.p)
        return self.v

    @property
    def digits_known(self) -> int:
        return self.cfg.precision if self.is_exact else self.n

    def _window_end(self):
        """Position e such that the value is known modulo p^e O."""
        if self.is_exact:
            return INF
        return self.v + self.n

    def _rep(self) -> Fraction:
        """A rational representative of the coset."""
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "exact":
            return self.fr
        p = self.cfg.p
        return Fraction(self.u) * (Fraction(p) ** self.v)

    def digits(self, n: Optional[int] = None) -> tuple:
        """Base-p digits of the unit part (u0 != 0)."""
        if self.kind == "zero":
            return ()
        n = self.digits_known if n is None else min(n, self.digits_known)
        p = self.cfg.p
        if self.kind == "exact":
            u = unit_mod_pk(self.fr, p, n)
        else:
            u = self.u % p**n
        out = []
        for _ in range(n):
            u, r = divmod(u, p)
            out.append(r)
        return tuple(out)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            return other
        return PadicScalar.exact(self.cfg, other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_exact and other.is_exact:
            return PadicScalar.exact(self.cfg, self.exact_value() + other.exact_value())
        if self.kind == "zero":
            return other
        if other.kind == "zero":
            return self
        e = min(self._window_end(), other._window_end())
        r = self._rep() + other._rep()
        v = val_p(r, self.cfg.p)
        if v >= e:
            raise InsufficientPrecision("addition cancelled all known digits")
        n = int(e - v)
        return PadicScalar.approx(self.cfg, v, unit_mod_pk(r, self.cfg.p, n), n)

    __radd__ = __add__

    def __neg__(self):
        if self.kind == "zero":
            return self
        if self.kind == "exact":
            return PadicScalar.exact(self.cfg, -self.fr)
        return PadicScalar.approx(self.cfg, self.v, self.cfg.p**self.n - self.u, self.n)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.kind == "zero" or other.kind == "zero":
            return PadicScalar.zero(self.cfg)
        if self.is_exact and other.is_exact:
            return PadicScalar.exact(self.cfg, self.fr * other.fr)
        n = min(self.digits_known if self.kind == "approx" else INF,
                other.digits_known if other.kind == "approx" else INF)
        n = int(n)
        p = self.cfg.p
        u = unit_mod_pk(self._rep(), p, n) * unit_mod_pk(other._rep(), p, n)
        return PadicScalar.approx(self.cfg, int(self.valuation() + other.valuation()),
                                  u % p**n, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.kind == "zero":
            raise DivisionByZero("division by exact zero")
        if self.kind == "zero":
            return self
        if self.is_exact and other.is_exact:
            return PadicScalar.exact(self.cfg, self.fr / other.fr)
        n = min(self.digits_known if self.kind == "approx" else INF,
                other.digits_known if other.kind == "approx" else INF)
        n = int(n)
        p = self.cfg.p
        m = p**n
        u = unit_mod_pk(self._rep(), p, n) * pow(unit_mod_pk(other._rep(), p, n), -1, m)
        return PadicScalar.approx(self.cfg, int(self.valuation() - other.valuation()),
                                  u % m, n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            try:
                other = self._coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self.is_exact and other.is_exact:
            return self.exact_value() == other.exact_value()
        if self.kind == "approx" and other.kind == "approx":
            return (self.v, self.u, self.n) == (other.v, other.u, other.n)
        return False

    def __hash__(self):
        if self.is_exact:
            return hash(self.exact_value())
        return hash((self.v, self.u, self.n))

    def agrees_with(self, other: "PadicScalar") -> bool:
        """True iff the two cosets intersect (values could be equal)."""
        e = min(self._window_end(), other._window_end())
        if e is INF:
            return self.exact_value() == other.exact_value()
        d = self._rep() - other._rep()
        return d == 0 or val_p(d, self.cfg.p) >= e

    # -- predicates ----------------------------------------------------

    def square_class(self) -> SquareClass:
        if self.kind == "zero":
            raise ValueError("square class of zero is undefined")
        if self.kind == "approx" and self.n < 2:
            raise InsufficientPrecision("need at least 2 digits for a square class")
        p = self.cfg.p
        v = self.valuation()
        u0 = leading_digit(self._rep(), p)
        return _CLASS_BY_DATA[(int(v) % 2, legendre(u0, p))]

    def sqrt(self) -> Optional["PadicScalar"]:
        """A square root when the class is One, Hensel-lifted; None otherwise.

        Canonical branch: the root whose leading digit lies in 1..(p-1)/2.
        """
        if self.kind == "zero":
            raise ValueError("sqrt of exact zero is trivial; handle separately")
        if self.square_class() != SquareClass.ONE:
            return None
        p = self.cfg.p
        v = int(self.valuation())
        if self.kind == "exact":
            r = rational_sqrt(self.fr)
            if r is not None:
                if leading_digit(r, p) > (p - 1) // 2:
                    r = -r
                return PadicScalar.exact(self.cfg, r)
            n = self.cfg.precision
        else:
            n = self.n
        u = unit_mod_pk(self._rep(), p, n)
        root = hensel_sqrt(u, p, n)
        return PadicScalar.approx(self.cfg, v // 2, root, n)

    def is_norm(self, ext: QuadExtDescriptor) -> bool:
        if self.kind == "zero":
            raise ValueError("norm test needs a nonzero element")
        if not ext.ramified:
            return int(self.valuation()) % 2 == 0
        if self.kind == "approx" and self.n < 1:
            raise InsufficientPrecision("need a leading digit for the norm test")
        p = self.cfg.p
        v = int(self.valuation())
        u0 = leading_digit(self._rep(), p)
        return legendre(u0, p) == ext.norm_unit_legendre(v, self.cfg)

    # -- presentation ----------------------------------------------------

    def serialize(self) -> str:
        """String form "p^v * (u0 + u1 p + ...) mod p^(v+n)"."""
        if self.kind == "zero":
            return "0"
        p = self.cfg.p
        v = int(self.valuation())
        ds = self.digits()
        terms = []
        for i, d in enumerate(ds):
            if i == 0:
                terms.append(str(d))
            elif d:
                terms.append(f"{d}*{p}^{i}" if i > 1 else f"{d}*{p}")
        return f"{p}^{v} * ({' + '.join(terms)}) mod {p}^{v + len(ds)}"

    def __repr__(self):
        if self.kind == "zero":
            return f"PadicScalar(0; p={self.cfg.p})"
        if self.kind == "exact":
            return f"PadicScalar({self.fr}; p={self.cfg.p})"
        return f"PadicScalar({self.serialize()})"


# -- spec-surface functions ------------------------------------------------

def scalar_from_rational(num: int, den: int, cfg: FieldConfig) -> PadicScalar:
    if den == 0:
        raise DivisionByZero("denominator must be nonzero")
    return PadicScalar.exact(cfg, Fraction(num, den))


def arith(x: PadicScalar, y: PadicScalar, op: str) -> PadicScalar:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError(f"unknown op {op!r}")


def valuation(x: PadicScalar):
    return x.valuation()


def square_class(x: PadicScalar) -> SquareClass:
    return x.square_class()


def padic_sqrt(x: PadicScalar) -> Optional[PadicScalar]:
    return x.sqrt()


def is_norm(ext: QuadExtDescriptor, x: PadicScalar) -> bool:
    return x.is_norm(ext)

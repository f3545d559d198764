"""Elements of sl2(F) and SL2(F): classification and depth.

A trace-zero matrix ((a, b), (c, -a)) is regular semisimple iff its
determinant -a^2 - bc is nonzero; the torus type is read off the square class
of -det, and an elliptic orbit is fixed by -det and the norm tag of the
b-entry, the Hilbert pairing of their two square classes (b != 0 off the
split torus).  Nonzero nilpotents split into four orbits labelled by the
square class of b, or of -c when b = 0.  classify returns one
OrbitLabel for every kind of orbit, and the orbital engine integrates with
that label: it says which b the orbit admits in the (a, b) chart.  The
Moy-Prasad depth is one number, depth(X) = val(-det X)/2: in (1/2)Z on
regular X, and padic.INF on the nilpotent cone, zero included, so g_r is
{depth >= r} and the topologically nilpotent part of it is {0 < depth}.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .errors import SpecMismatch
from .padic import (INF, FieldConfig, Rat, SquareClass, exact, legendre, ratio,
                    square_class_of_rational, val_p)
from .value import Value


class OrbitLabel(Value):
    """An adjoint orbit as the engine integrates it, and what classify returns.

    kind is 'zero' (the point 0), 'nil' (the regular nilpotent orbit of b in
    nil_class), 'split' (a regular element with -det a square) or 'elliptic'
    (ext is the class of -det, not ONE, and the torus splits over
    Q_p(sqrt ext); tag says whether b is a norm from there, which is the
    Hilbert pairing (ext, [b])_p = 1).  The engine reads only which b the
    orbit admits: admits is the class test classify applies, and digits the
    leading digits it leaves on one b-stratum.  Labels built separately for
    one orbit are equal and hash equal, so they key the cell memo of
    orbital._cell_integral and of digits.
    """

    def __init__(self, kind: str, nil_class: Optional[SquareClass] = None,
                 ext: Optional[SquareClass] = None, tag: Optional[bool] = None):
        if kind == "elliptic" and ext in (None, SquareClass.ONE):
            raise ValueError("an elliptic orbit needs a discriminant class other than ONE")
        self._freeze(kind=kind, nil_class=nil_class, ext=ext, tag=tag)

    @property
    def dim(self) -> int:
        return 0 if self.kind == "zero" else 2

    @property
    def is_regular(self) -> bool:
        return self.kind in ("split", "elliptic")

    @property
    def is_split(self) -> bool:
        return self.kind == "split"

    def torus_kind(self) -> str:
        if self.is_split:
            return "split"
        return "unramified" if self.ext == SquareClass.EPS else f"ramified-{self.ext.value}"

    def moved(self, cfg: FieldConfig) -> "OrbitLabel":
        """The label of the orbit after b -> p b (an odd move to the base vertex).

        The nilpotent class gains a factor pi; the norm tag of p b is the tag
        of b when p is a norm, (ext, PI)_p = 1, and the other tag otherwise;
        split orbits and the zero orbit are unchanged.  Squares p^2 change
        nothing, so even moves keep the label.
        """
        if self.kind == "nil":
            return OrbitLabel("nil", self.nil_class * SquareClass.PI)
        if self.kind == "elliptic":
            keep = self.ext.hilbert(SquareClass.PI, cfg.p) == 1
            return OrbitLabel("elliptic", ext=self.ext, tag=self.tag == keep)
        return self

    def admits(self, c: SquareClass, p: int) -> bool:
        """Whether the orbit meets the chart at the b != 0 of class c: the
        class test of classify.

        Every c for split orbits; c = nil_class for nilpotent ones; for
        elliptic ones, (ext, c)_p = 1 exactly when tag is True.
        """
        if self.kind == "split":
            return True
        if self.kind == "nil":
            return c == self.nil_class
        if self.kind != "elliptic":
            raise ValueError("the zero orbit has no (a, b) chart")
        return (self.ext.hilbert(c, p) == 1) == self.tag

    def digits(self, v: int, cfg: FieldConfig) -> frozenset:
        """The leading digits of the b of valuation v that the orbit admits."""
        return _digit_set(self, v % 2, cfg)

    def __repr__(self):
        if self.kind == "zero":
            return "Zero"
        if self.kind == "nil":
            return f"Regular({self.nil_class.value})"
        return self.torus_kind() if self.is_split else f"{self.torus_kind()}(tag={self.tag})"


ZERO_ORBIT = OrbitLabel("zero")
REG_ONE = OrbitLabel("nil", SquareClass.ONE)
REG_EPS = OrbitLabel("nil", SquareClass.EPS)
REG_PI = OrbitLabel("nil", SquareClass.PI)
REG_EPSPI = OrbitLabel("nil", SquareClass.EPSPI)
ALL_ORBITS = (ZERO_ORBIT, REG_ONE, REG_EPS, REG_PI, REG_EPSPI)


@lru_cache(maxsize=256)
def _digit_set(label: OrbitLabel, parity: int, cfg: FieldConfig) -> frozenset:
    """OrbitLabel.digits on the strata v = parity mod 2.

    admits reads only the square class of b, and the class of d p^v depends
    only on v mod 2 and legendre(d, p), so two admits calls, on the classes
    of p^parity and eps p^parity, decide every digit.
    """
    p = cfg.p
    square = SquareClass.PI if parity else SquareClass.ONE
    admitted = {1: label.admits(square, p), -1: label.admits(square * SquareClass.EPS, p)}
    return frozenset(d for d in range(1, p) if admitted[legendre(d, p)])


class Sl2Element:
    """Trace-zero 2x2 matrix ((a, b), (c, -a)) with exact entries (padic.exact)."""

    __slots__ = ("cfg", "a", "b", "c")

    def __init__(self, cfg: FieldConfig, a, b, c):
        self.cfg = cfg
        self.a, self.b, self.c = exact(a), exact(b), exact(c)

    @classmethod
    def from_rationals(cls, cfg: FieldConfig, a, b, c) -> "Sl2Element":
        return cls(cfg, a, b, c)

    @classmethod
    def zero(cls, cfg: FieldConfig) -> "Sl2Element":
        return cls(cfg, 0, 0, 0)

    def exact_entries(self) -> tuple:
        return (self.a, self.b, self.c)

    def det(self) -> Rat:
        return -(self.a * self.a) - self.b * self.c

    def is_zero_elt(self) -> bool:
        return not (self.a or self.b or self.c)

    def scale(self, t) -> "Sl2Element":
        """t X; each entry times t's numerator, over t's denominator (padic.ratio)."""
        s = exact(t)
        n, d = s.numerator, s.denominator
        return Sl2Element(self.cfg, ratio(self.a * n, d), ratio(self.b * n, d),
                          ratio(self.c * n, d))

    def __add__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(self.cfg, self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(self.cfg, self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "Sl2Element":
        return Sl2Element(self.cfg, -self.a, -self.b, -self.c)

    def __eq__(self, other):
        if not isinstance(other, Sl2Element):
            return NotImplemented
        return (self.cfg, self.a, self.b, self.c) == (other.cfg, other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.cfg, self.a, self.b, self.c))

    def __repr__(self):
        return f"Sl2Element({self.matrix_str()})"

    def matrix_str(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{-self.a}]]"


def _rational(text: str) -> Fraction:
    """An integer or integer/integer; a decimal such as 1.5 is refused."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ValueError:
        raise ValueError(f"entry {text!r} is not an integer or n/d") from None


def parse_matrix(cfg: FieldConfig, text: str) -> Sl2Element:
    """Read "[[a,b],[c,-a]]", the form matrix_str writes; spaces are ignored."""
    s = text.replace(" ", "")
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError(f"expected [[a,b],[c,-a]], got {text!r}")
    row1, row2 = s[2:-2].split("],[")
    a, b = (_rational(t) for t in row1.split(","))
    c, d = (_rational(t) for t in row2.split(","))
    if d != -a:
        raise ValueError("matrix must be trace-zero: [[a,b],[c,-a]]")
    return Sl2Element(cfg, a, b, c)


class GroupElement:
    """2x2 matrix with exact entries (padic.exact) and determinant 1 (checked on build)."""

    __slots__ = ("cfg", "m")

    def __init__(self, cfg: FieldConfig, entries):
        self.cfg = cfg
        self.m = tuple(tuple(exact(x) for x in row) for row in entries)
        d = self.det()
        if d != 1:
            raise ValueError(f"determinant {d} != 1")

    @classmethod
    def identity(cls, cfg: FieldConfig) -> "GroupElement":
        return cls(cfg, [[1, 0], [0, 1]])

    def det(self) -> Rat:
        (a, b), (c, d) = self.m
        return a * d - b * c

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        A, B = self.m, other.m
        rows = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]
        return GroupElement(self.cfg, rows)

    def inverse(self) -> "GroupElement":
        (a, b), (c, d) = self.m
        return GroupElement(self.cfg, [[d, -b], [-c, a]])

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.cfg, self.m) == (other.cfg, other.m)

    def matrix_str(self) -> str:
        (a, b), (c, d) = self.m
        return f"[[{a},{b}],[{c},{d}]]"

    def __repr__(self):
        return f"GroupElement({self.matrix_str()})"


def classify(X: Sl2Element) -> OrbitLabel:
    """The label of X's orbit: zero, nilpotent, split, or elliptic with its tag."""
    return _classify(X)[0]


def _classify(X: Sl2Element) -> Tuple[OrbitLabel, Rat]:
    """classify(X) together with the s = -det X = a^2 + bc it reads."""
    s = exact(X.a * X.a + X.b * X.c)
    if X.is_zero_elt():
        return ZERO_ORBIT, s
    p = X.cfg.p
    if s == 0:  # b = 0 leaves a = 0, and the orbit is read off -c
        return OrbitLabel("nil", square_class_of_rational(X.b or -X.c, p)), s
    cls = square_class_of_rational(s, p)
    if cls == SquareClass.ONE:
        return OrbitLabel("split"), s
    # b != 0 here: b = 0 would make s = a^2 a square
    tag = cls.hilbert(square_class_of_rational(X.b, p), p) == 1
    return OrbitLabel("elliptic", ext=cls, tag=tag), s


def depth(X: Sl2Element):
    """Moy-Prasad depth val(-det)/2; INF on the nilpotent cone (zero included)."""
    t = val_p(X.det(), X.cfg.p)
    return INF if t == INF else ratio(t, 2)


def in_g_nil_r(X: Sl2Element, r, strict: bool = False) -> bool:
    """Membership in g_r intersected with the topologically nilpotent set."""
    d = depth(X)
    return 0 < d and (d > r if strict else d >= r)


def ad(g: GroupElement, X: Sl2Element) -> Sl2Element:
    """g X g^{-1}; the result's a-entry is rebuilt so the trace stays zero."""
    (g11, g12), (g21, g22) = g.m
    # M = g * X, then M * adj(g) with adj(g) = ((g22, -g12), (-g21, g11))
    m11 = g11 * X.a + g12 * X.c
    m12 = g11 * X.b - g12 * X.a
    m21 = g21 * X.a + g22 * X.c
    m22 = g21 * X.b - g22 * X.a
    a = m11 * g22 - m12 * g21
    b = -(m11 * g12) + m12 * g11
    c = m21 * g22 - m22 * g21
    return Sl2Element(g.cfg, a, b, c)


def random_sl2(cfg: FieldConfig, rng: random.Random, size_bound: int = 1) -> GroupElement:
    """Seeded random element of SL2(Q) as a product of elementary matrices."""
    g = GroupElement.identity(cfg)
    for _ in range(rng.randint(2, 4)):
        num = rng.randint(-cfg.p**size_bound, cfg.p**size_bound)
        den = cfg.p ** rng.randint(0, size_bound)
        r = ratio(num, den)
        if rng.random() < 0.5:
            e = GroupElement(cfg, [[1, r], [0, 1]])
        else:
            e = GroupElement(cfg, [[1, 0], [r, 1]])
        g = g @ e
    return g


def random_conjugate(X: Sl2Element, seed: int, size_bound: int = 1) -> Sl2Element:
    rng = random.Random(seed)
    return ad(random_sl2(X.cfg, rng, size_bound), X)


def rep_nilpotent(cfg: FieldConfig, label: OrbitLabel) -> Sl2Element:
    """Zero -> 0; Regular(lambda) -> ((0, lambda), (0, 0))."""
    if label.kind == "zero":
        return Sl2Element.zero(cfg)
    lam = label.nil_class.representative(cfg)
    return Sl2Element.from_rationals(cfg, 0, lam, 0)


def rep_elliptic(cfg: FieldConfig, s, tag: bool = True) -> Sl2Element:
    """((0, b0), (s/b0, 0)) with -det = s; b0 picked to realize the norm tag."""
    s = exact(s)
    cls = square_class_of_rational(s, cfg.p)
    if cls == SquareClass.ONE:
        raise SpecMismatch("-det is a square; this torus is split")
    if tag:
        b0 = 1
    else:  # a non-norm: p for the unramified extension, eps for the ramified ones
        b0 = cfg.p if cls == SquareClass.EPS else cfg.eps
    X = Sl2Element.from_rationals(cfg, 0, b0, ratio(s, b0))
    if classify(X) != OrbitLabel("elliptic", ext=cls, tag=tag):
        raise SpecMismatch("representative failed its classification round-trip")
    return X


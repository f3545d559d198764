"""Elements of sl2(F) and SL2(F): classification, depth, and the Cayley map.

A trace-zero matrix ((a, b), (c, -a)) is regular semisimple iff its
determinant -a^2 - bc is nonzero; the torus type is read off the square class
of -det.  Nonzero nilpotents split into four orbits labelled by the square
class of the b-entry (or -c when b = 0).  The Cayley map

    phi(X) = (1 + X/2)(1 - X/2)^{-1} = ((1 - det/4) I + X) / (1 + det/4)

identifies topologically nilpotent elements with topologically unipotent
group elements; it is Ad-equivariant and sends 0 to the identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import OutsideDomain, SpecMismatch
from .padic import (FieldConfig, QuadExtDescriptor, SquareClass,
                    square_class_of_rational, val_p)


class Deep:
    """Depth value of nilpotent and zero elements: above every rational."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, Deep)

    def __le__(self, other):
        return isinstance(other, Deep)

    def __lt__(self, other):
        return False

    def __repr__(self):
        return "deep"


DEEP = Deep()


@dataclass(frozen=True)
class OrbitLabel:
    """One of the five nilpotent orbits: the zero orbit or Regular(class)."""

    kind: str                       # 'zero' | 'regular'
    cls: Optional[SquareClass] = None

    def __post_init__(self):
        if self.kind == "regular" and self.cls is None:
            raise ValueError("regular label needs a square class")

    @property
    def dim(self) -> int:
        return 0 if self.kind == "zero" else 2

    def __repr__(self):
        return "Zero" if self.kind == "zero" else f"Regular({self.cls.value})"


ZERO_ORBIT = OrbitLabel("zero")
REG_ONE = OrbitLabel("regular", SquareClass.ONE)
REG_EPS = OrbitLabel("regular", SquareClass.EPS)
REG_PI = OrbitLabel("regular", SquareClass.PI)
REG_EPSPI = OrbitLabel("regular", SquareClass.EPSPI)
ALL_ORBITS = (ZERO_ORBIT, REG_ONE, REG_EPS, REG_PI, REG_EPSPI)
DIM_NILPOTENT_CONE = 2


def _exact(x) -> Fraction:
    """x as a Fraction.  A float is refused: its binary value is not the
    rational it was written as (0.1 would become 3602879701896397/2^55)."""
    if isinstance(x, float):
        raise TypeError(f"exact rational required, got float {x!r}")
    return Fraction(x)


class Sl2Element:
    """Trace-zero 2x2 matrix ((a, b), (c, -a)) with exact rational entries."""

    __slots__ = ("cfg", "a", "b", "c")

    def __init__(self, cfg: FieldConfig, a, b, c):
        self.cfg = cfg
        self.a, self.b, self.c = _exact(a), _exact(b), _exact(c)

    @classmethod
    def from_rationals(cls, cfg: FieldConfig, a, b, c) -> "Sl2Element":
        return cls(cfg, a, b, c)

    @classmethod
    def zero(cls, cfg: FieldConfig) -> "Sl2Element":
        return cls(cfg, 0, 0, 0)

    def exact_entries(self) -> tuple:
        return (self.a, self.b, self.c)

    def det(self) -> Fraction:
        return -(self.a * self.a) - self.b * self.c

    def is_zero_elt(self) -> bool:
        return not (self.a or self.b or self.c)

    def scale(self, t) -> "Sl2Element":
        s = _exact(t)
        return Sl2Element(self.cfg, self.a * s, self.b * s, self.c * s)

    def __add__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(self.cfg, self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Sl2Element") -> "Sl2Element":
        return Sl2Element(self.cfg, self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "Sl2Element":
        return Sl2Element(self.cfg, -self.a, -self.b, -self.c)

    def __eq__(self, other):
        if not isinstance(other, Sl2Element):
            return NotImplemented
        return self.exact_entries() == other.exact_entries()

    def __hash__(self):
        return hash(self.exact_entries())

    def __repr__(self):
        return f"Sl2Element({self.matrix_str()})"

    def matrix_str(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{-self.a}]]"


class GroupElement:
    """2x2 matrix with exact rational entries and determinant 1 (checked on build)."""

    __slots__ = ("cfg", "m")

    def __init__(self, cfg: FieldConfig, entries):
        self.cfg = cfg
        self.m = tuple(tuple(_exact(x) for x in row) for row in entries)
        d = self.det()
        if d != 1:
            raise ValueError(f"determinant {d} != 1")

    @classmethod
    def from_rationals(cls, cfg: FieldConfig, rows) -> "GroupElement":
        return cls(cfg, rows)

    @classmethod
    def identity(cls, cfg: FieldConfig) -> "GroupElement":
        return cls(cfg, [[1, 0], [0, 1]])

    def det(self) -> Fraction:
        (a, b), (c, d) = self.m
        return a * d - b * c

    def trace(self) -> Fraction:
        return self.m[0][0] + self.m[1][1]

    def entry(self, i: int, j: int) -> Fraction:
        return self.m[i][j]

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
        return self.m == other.m

    def matrix_str(self) -> str:
        (a, b), (c, d) = self.m
        return f"[[{a},{b}],[{c},{d}]]"

    def __repr__(self):
        return f"GroupElement({self.matrix_str()})"


@dataclass
class ElementClass:
    """Classification of an sl2 element."""

    kind: str                                  # 'zero' | 'nilpotent' | 'regular'
    label: Optional[OrbitLabel] = None         # nilpotent orbit
    torus: Optional[Union[str, QuadExtDescriptor]] = None  # 'split' or extension
    ss_tag: Optional[bool] = None              # norm-coset flag (elliptic only)

    @property
    def is_regular(self) -> bool:
        return self.kind == "regular"

    @property
    def is_split(self) -> bool:
        return self.kind == "regular" and self.torus == "split"

    def torus_kind(self) -> str:
        if self.torus == "split":
            return "split"
        return "unramified" if not self.torus.ramified else f"ramified-{self.torus.disc_class.value}"


def classify(X: Sl2Element) -> ElementClass:
    """Regular semisimple / nilpotent / zero, with torus type and orbit tags."""
    if X.is_zero_elt():
        return ElementClass("zero", label=ZERO_ORBIT)
    p = X.cfg.p
    tag_src = X.b if X.b else -X.c
    mdet = -X.det()
    if mdet == 0:
        return ElementClass("nilpotent",
                            label=OrbitLabel("regular", square_class_of_rational(tag_src, p)))
    cls = square_class_of_rational(mdet, p)
    if cls == SquareClass.ONE:
        return ElementClass("regular", torus="split")
    ext = QuadExtDescriptor(cls)
    return ElementClass("regular", torus=ext, ss_tag=ext.is_norm_rational(tag_src, X.cfg))


def depth(X: Sl2Element):
    """Moy-Prasad depth: val(u) = val(-det)/2 for regular elements, deep else."""
    k = classify(X)
    if k.kind in ("zero", "nilpotent"):
        return DEEP
    return Fraction(val_p(X.det(), X.cfg.p), 2)


def in_g_r(X: Sl2Element, r, strict: bool = False) -> bool:
    d = depth(X)
    if isinstance(d, Deep):
        return True
    return d > Fraction(r) if strict else d >= Fraction(r)


def is_top_nilpotent(X: Sl2Element) -> bool:
    """True iff both eigenvalues have positive valuation (val(det) > 0)."""
    return val_p(X.det(), X.cfg.p) > 0


def in_g_nil_r(X: Sl2Element, r, strict: bool = False) -> bool:
    """Membership in g_r intersected with the topologically nilpotent set."""
    return in_g_r(X, r, strict) and is_top_nilpotent(X)


def cayley(X: Sl2Element) -> GroupElement:
    """phi(X) = ((1 - det/4) I + X) / (1 + det/4); requires X in g_nil."""
    if not is_top_nilpotent(X):
        raise OutsideDomain("Cayley map needs a topologically nilpotent argument")
    d4 = X.det() / 4
    F = 1 - d4
    G = 1 + d4
    return GroupElement(X.cfg, [[(F + X.a) / G, X.b / G],
                                [X.c / G, (F - X.a) / G]])


def cayley_inv(g: GroupElement) -> Sl2Element:
    """Inverse Cayley map: X = (4g - 2 tr(g) I) / det(g + 1)."""
    t = g.trace()
    if val_p(t - 2, g.cfg.p) <= 0:
        raise OutsideDomain("inverse Cayley needs a topologically unipotent argument")
    (g11, g12), (g21, g22) = g.m
    delta = (g11 + 1) * (g22 + 1) - g12 * g21
    return Sl2Element(g.cfg, (4 * g11 - 2 * t) / delta, 4 * g12 / delta, 4 * g21 / delta)


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
        r = Fraction(num, den)
        if rng.random() < 0.5:
            e = GroupElement.from_rationals(cfg, [[1, r], [0, 1]])
        else:
            e = GroupElement.from_rationals(cfg, [[1, 0], [r, 1]])
        g = g @ e
    return g


def random_conjugate(X: Sl2Element, seed: int, size_bound: int = 1) -> Sl2Element:
    rng = random.Random(seed)
    return ad(random_sl2(X.cfg, rng, size_bound), X)


def rep_nilpotent(cfg: FieldConfig, label: OrbitLabel) -> Sl2Element:
    """Zero -> 0; Regular(lambda) -> ((0, lambda), (0, 0))."""
    if label.kind == "zero":
        return Sl2Element.zero(cfg)
    lam = label.cls.representative(cfg)
    return Sl2Element.from_rationals(cfg, 0, lam, 0)


def rep_split(cfg: FieldConfig, u) -> Sl2Element:
    u = Fraction(u)
    if u == 0:
        raise SpecMismatch("split representative needs u != 0")
    return Sl2Element.from_rationals(cfg, u, 0, 0)


def rep_elliptic(cfg: FieldConfig, s, tag: bool = True) -> Sl2Element:
    """((0, b0), (s/b0, 0)) with -det = s; b0 picked to realize the norm tag."""
    s = Fraction(s)
    cls = square_class_of_rational(s, cfg.p)
    if cls == SquareClass.ONE:
        raise SpecMismatch("-det is a square; this torus is split")
    ext = QuadExtDescriptor(cls)
    if tag:
        b0 = Fraction(1)
    else:
        b0 = Fraction(cfg.eps) if ext.ramified else Fraction(cfg.p)
    X = Sl2Element.from_rationals(cfg, 0, b0, s / b0)
    got = classify(X)
    if got.ss_tag != tag or got.torus != ext:
        raise SpecMismatch("representative failed its classification round-trip")
    return X


def standard_representative(cfg: FieldConfig, spec) -> Sl2Element:
    """Dispatch: OrbitLabel | ('split', u) | ('elliptic', s, tag)."""
    if isinstance(spec, OrbitLabel):
        return rep_nilpotent(cfg, spec)
    if isinstance(spec, tuple) and spec and spec[0] == "split":
        return rep_split(cfg, spec[1])
    if isinstance(spec, tuple) and spec and spec[0] == "elliptic":
        return rep_elliptic(cfg, spec[1], spec[2] if len(spec) > 2 else True)
    raise SpecMismatch(f"unrecognized representative spec {spec!r}")

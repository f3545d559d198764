"""Locally constant compactly supported functions on sl2(F).

An LCFunction is a finite rational combination of indicators of cosets
Y + g_{v,n}, each one CosetCell(Y, v, n); X lies in it when
tree.min_level(cfg, v, X - Y) >= n.  Canonicalization refines every cell to
the standard lattice p^N sl2(O) at a common level N, producing disjoint
product cells in the (a, b, c) coordinates; that form drives equality tests,
invariance certificates (three translations, one per basis vector of
g_{v,n}) and the brute-force oracle.  It is rebuilt on each call: an
LCFunction holds its terms and nothing else.  The integration engine needs
no refinement: it moves each cell to the base vertex by Ad(g_v^{-1}) (see
integration_cells).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .padic import FieldConfig, Rat, exact, mod_pk, ratio, val_p
from .sl2 import GroupElement, Sl2Element, ad, parse_matrix
from .tree import (BASE, TreeVertex, act, ad_to_base, cartan, distance, make_vertex,
                   min_level)
from .value import Value


class CosetCell(Value):
    """The coset center + g_{vertex, level}; membership is exactly decidable."""

    def __init__(self, center: Sl2Element, vertex: TreeVertex, level: int):
        self._freeze(center=center, vertex=vertex, level=level)

    def contains(self, X: Sl2Element) -> bool:
        return min_level(X.cfg, self.vertex, X - self.center) >= self.level


@lru_cache(maxsize=1 << 12)
def _base_centre(cell: CosetCell) -> Tuple[Rat, Rat, Rat]:
    """Centre of Ad(g_v^{-1}) cell at the base vertex, reduced mod p^n.

    The cell Y + g_{v,n} becomes Ad(g_v^{-1})Y + p^n sl2(O).  A pure function
    of the (value-hashed) cell, memoised because the suites integrate the
    same few cells inside many combinations.  The cell names its field: its
    centre compares and hashes with its FieldConfig.
    """
    cfg = cell.center.cfg
    moved = ad_to_base(cfg, cell.vertex, *cell.center.exact_entries())
    return tuple(mod_pk(e, cfg.p, cell.level) for e in moved)


def _basis(cfg: FieldConfig, v: TreeVertex, n: int) -> List[Tuple[int, List[Rat]]]:
    """An O-basis of g_{v,n} as (level k, p^k t): p^n t1, p^(n-d) t2, p^(n+d) t3.

    The integral triples t_i and d = d(BASE, v) come from tree.cartan.
    """
    triples, e, f = cartan(cfg, v)
    levels = (n, n - (f - e), n + (f - e))  # adapted levels for Ad(K1)(H, E, F)
    return [(k, [exact(cfg.qpow(k) * t) for t in triple])
            for k, triple in zip(levels, triples)]


def _refine_cell(cfg: FieldConfig, coeff: Rat, cell: CosetCell, N: int):
    """Split one coset of g_{v,n} into cosets of the standard p^N sl2(O).

    Requires N >= n + d(v, base).  Yields (coeff, (alpha, beta, chi)) product
    cells; centers are reduced mod p^N entrywise.  The centre steps through
    the O-basis of g_{v,n}, c1 s1 + c2 s2 + c3 s3 with c_i < p^(N - k_i).
    """
    p = cfg.p
    (k1, s1), (k2, s2), (k3, s3) = _basis(cfg, cell.vertex, cell.level)
    if N < k3:
        raise ValueError("refinement level too coarse for this cell")
    y0 = cell.center.exact_entries()
    for c1 in range(p ** (N - k1)):
        y1 = [y + c1 * s for y, s in zip(y0, s1)]
        for c2 in range(p ** (N - k2)):
            a, b, c = (y + c2 * s for y, s in zip(y1, s2))
            for _ in range(p ** (N - k3)):
                yield coeff, (mod_pk(a, p, N), mod_pk(b, p, N), mod_pk(c, p, N))
                a, b, c = a + s3[0], b + s3[1], c + s3[2]


class LCFunction:
    """Finite rational combination of lattice-coset indicators on sl2(F)."""

    def __init__(self, cfg: FieldConfig, terms: Iterable[Tuple[Rat, CosetCell]]):
        self.cfg = cfg
        self.terms: Tuple[Tuple[Rat, CosetCell], ...] = tuple(
            (exact(c), cell) for c, cell in terms if c != 0)

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def level(self) -> int:
        """Finest standard-lattice level: f is constant on cosets of p^N sl2(O)."""
        if self.is_zero:
            return 0
        return max(cell.level + distance(self.cfg, BASE, cell.vertex)
                   for _, cell in self.terms)

    def __add__(self, other: "LCFunction") -> "LCFunction":
        return LCFunction(self.cfg, list(self.terms) + list(other.terms))

    def __sub__(self, other: "LCFunction") -> "LCFunction":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "LCFunction":
        s = exact(scalar)
        return LCFunction(self.cfg, [(s * c, cell) for c, cell in self.terms])

    def __neg__(self) -> "LCFunction":
        return (-1) * self

    # -- evaluation -------------------------------------------------------

    def evaluate(self, X: Sl2Element) -> Rat:
        return exact(sum(c for c, cell in self.terms if cell.contains(X)))

    def at_zero(self) -> Rat:
        return self.evaluate(Sl2Element.zero(self.cfg))

    # -- canonical form ----------------------------------------------------

    def canonical_cells(self, level: Optional[int] = None) -> Dict[tuple, Rat]:
        """Disjoint refinement: map (alpha, beta, chi) -> coefficient.

        Cells are cosets of p^level sl2(O) with centers reduced mod p^level;
        the value on a cell agrees with the original term list everywhere.
        """
        N = self.level() if level is None else level
        if N < self.level():
            raise ValueError("refinement level coarser than the function's level")
        acc: Dict[tuple, Rat] = {}
        for coeff, cell in self.terms:
            for cf, key in _refine_cell(self.cfg, coeff, cell, N):
                acc[key] = acc.get(key, 0) + cf
        return {k: exact(v) for k, v in acc.items() if v != 0}

    def canonicalize(self) -> "LCFunction":
        """Equivalent function written in disjoint standard cells."""
        N = self.level()
        cells = self.canonical_cells(N)
        terms = []
        for (al, be, ch), coeff in sorted(cells.items()):
            center = Sl2Element.from_rationals(self.cfg, al, be, ch)
            terms.append((coeff, CosetCell(center, BASE, N)))
        return LCFunction(self.cfg, terms)

    def integration_cells(self) -> List[Tuple[Rat, Tuple[Rat, Rat, Rat], int, TreeVertex]]:
        """One base-vertex cell (coeff, (alpha, beta, chi), n, v) per term.

        The term coeff * 1_{Y + g_{v,n}} is moved to the base vertex by
        Ad(g_v^{-1}): its cell is Ad(g_v^{-1})Y + p^n sl2(O), with the centre
        reduced mod p^n.  The engine integrates it against the orbit moved by
        the same Ad(g_v^{-1}), so no cell is refined, however far v lies.
        """
        return [(coeff, _base_centre(cell), cell.level, cell.vertex)
                for coeff, cell in self.terms]

    def equals(self, other: "LCFunction") -> bool:
        N = max(self.level(), other.level())
        return self.canonical_cells(N) == other.canonical_cells(N)

    # -- operations ---------------------------------------------------------

    def dilate(self, c) -> "LCFunction":
        """f_c with f_c(X) = f(cX): cells scale by c^{-1}, levels drop by val(c)."""
        c = exact(c)
        if c == 0:
            raise ValueError("dilation scalar must be invertible")
        vc = int(val_p(c, self.cfg.p))
        inv = ratio(1, c)
        terms = []
        for coeff, cell in self.terms:
            center = cell.center.scale(inv)
            terms.append((coeff, CosetCell(center, cell.vertex, cell.level - vc)))
        return LCFunction(self.cfg, terms)

    def ad_pullback(self, g: GroupElement) -> "LCFunction":
        """f o Ad(g): cells move by Ad(g^{-1}) and vertices by the tree action."""
        ginv = g.inverse()
        terms = []
        for coeff, cell in self.terms:
            center = ad(ginv, cell.center)
            vert = act(self.cfg, ginv, cell.vertex)
            terms.append((coeff, CosetCell(center, vert, cell.level)))
        return LCFunction(self.cfg, terms)

    def proxy_depth(self) -> int:
        """Depth index r such that f lies in the level-(r+1) proxy family D_r.

        Each term 1_{Y + g_{x,n}} generates D_{n-1} at its own vertex, so a
        combination sits in D_r for r = max over terms of (level - 1).
        """
        if self.is_zero:
            return 0
        return max(0, max(cell.level for _, cell in self.terms) - 1)


def indicator(cfg: FieldConfig, cell: CosetCell) -> LCFunction:
    return LCFunction(cfg, [(1, cell)])


def indicator_lattice(cfg: FieldConfig, v: TreeVertex, n: int,
                      center: Optional[Sl2Element] = None) -> LCFunction:
    center = Sl2Element.zero(cfg) if center is None else center
    return indicator(cfg, CosetCell(center, v, n))


def unit_ball(cfg: FieldConfig) -> LCFunction:
    """Indicator of sl2(O)."""
    return indicator_lattice(cfg, BASE, 0)


def is_invariant_under(f: LCFunction, v: TreeVertex, n: int) -> bool:
    """Exact decision of invariance of f under translation by g_{v,n}.

    The translations fixing f form a group, which contains p^N sl2(O) for
    N >= f.level().  Take N >= n + d(BASE, v) too: an O-multiple of a basis
    vector p^k t of g_{v,n} (see _basis; t integral) is an integer multiple
    of it modulo p^N sl2(O).  So f is invariant under g_{v,n} exactly when
    it is invariant under the three basis vectors.
    """
    p = f.cfg.p
    basis = _basis(f.cfg, v, n)
    N = max(f.level(), basis[2][0])
    cells = f.canonical_cells(N)
    for _, step in basis:
        # a translation permutes the cosets of p^N sl2(O): no two cells merge
        shifted = {tuple(mod_pk(y + s, p, N) for y, s in zip(key, step)): coeff
                   for key, coeff in cells.items()}
        if shifted != cells:
            return False
    return True


def h_combination(f: LCFunction, d: int) -> LCFunction:
    """q^d f - f_zeta with f_zeta = dilate(f, zeta^2); d in {0, 2}."""
    if d not in (0, 2):
        raise ValueError("d must be a nilpotent orbit dimension (0 or 2)")
    return f.cfg.q**d * f - f.dilate(f.cfg.zeta ** 2)


# -- JSON serialization -------------------------------------------------

def lcfunction_to_json(f: LCFunction) -> list:
    out = []
    for coeff, cell in f.terms:
        out.append({
            "coeff": str(coeff),
            "center": cell.center.matrix_str(),
            "vertex": f"({cell.vertex.m},{cell.vertex.x})",
            "level": cell.level,
        })
    return out


def lcfunction_from_json(cfg: FieldConfig, data: list) -> LCFunction:
    """Inverse of lcfunction_to_json; a float coefficient or level is refused."""
    terms = []
    for item in data:
        m_str, x_str = item["vertex"].strip("()").split(",", 1)
        v = make_vertex(cfg, int(m_str), x_str)
        center = parse_matrix(cfg, item["center"])
        cell = CosetCell(center, v, operator.index(item["level"]))
        terms.append((exact(item["coeff"]), cell))
    return LCFunction(cfg, terms)

"""The Bruhat-Tits tree of SL2(Q_p) and its Moy-Prasad lattices.

A vertex is a homothety class of O-lattices in F^2.  Canonical coordinates:
(m, x) with x in F/p^m O labels the class of  O(e1 + x e2) + O(p^m e2),
with basis matrix  g_v = ((1, 0), (x, p^m)).  The base vertex is (0, 0).
The level-n lattice at v is  g_{v,n} = Ad(g_v)(p^n sl2(O)), realized by the
contains test  Ad(g_v^{-1}) X  in  p^n sl2(O).

These lattices drive three oracles: depth via fixed lattices, membership
tests for coset functions, and fixed-point counts that cross-check the
orbital-integral engine for lattice indicators.

The fixed set F_n = {v : X in g_{v,n}} is the set of lattices L with
p^{-n} X L in L, so it is convex (DeBacker, Ann. Sci. ENS 2002): min_level
has convex superlevel sets.  For X != 0, a vertex of F_n outside F_{n+1} is
adjacent to F_{n+1} whenever F_{n+1} is nonempty.  So min_level rises by one
at each step toward a nonempty F_n, and every local maximum is a global one.
The count oracle uses this: greedy ascent of min_level from BASE walks the
geodesic to the projection of BASE onto F_n, and a flood fill from there
finds F_n within any ball about BASE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import BallTooSmall, NotRegular
from .padic import INF, FieldConfig, mod_pk, val_p
from .sl2 import GroupElement, Sl2Element, classify


@dataclass(frozen=True)
class TreeVertex:
    m: int
    x: Fraction

    def __repr__(self):
        return f"({self.m},{self.x})"


def make_vertex(cfg: FieldConfig, m: int, x) -> TreeVertex:
    """Canonicalize the coordinate x modulo p^m O."""
    return TreeVertex(m, mod_pk(Fraction(x), cfg.p, m))


BASE = TreeVertex(0, Fraction(0))


def basis_matrix(cfg: FieldConfig, v: TreeVertex) -> Tuple[Tuple[Fraction, ...], ...]:
    p = Fraction(cfg.p)
    return ((Fraction(1), Fraction(0)), (v.x, p**v.m))


def neighbors(cfg: FieldConfig, v: TreeVertex) -> List[TreeVertex]:
    """The q+1 adjacent vertices."""
    out = [make_vertex(cfg, v.m - 1, v.x)]
    step = Fraction(cfg.p) ** v.m
    for c in range(cfg.p):
        out.append(make_vertex(cfg, v.m + 1, v.x + c * step))
    return out


def ball(cfg: FieldConfig, v0: TreeVertex, R: int) -> List[TreeVertex]:
    """All vertices at distance <= R from v0, in a deterministic order."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    seen = {v0}
    frontier = [v0]
    for _ in range(R):
        nxt = []
        for v in frontier:
            for w in neighbors(cfg, v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda v: (v.m, v.x))


def distance(cfg: FieldConfig, v: TreeVertex, w: TreeVertex) -> int:
    """Tree distance via elementary divisors of g_v^{-1} g_w."""
    p = cfg.p
    # g_v^{-1} g_w = ((1, 0), ((x_w - x_v)/p^{m_v}, p^{m_w - m_v}))
    dm = w.m - v.m
    dx = w.x - v.x
    mins = min(0, dm, (val_p(dx, p) - v.m) if dx != 0 else INF)
    return int(dm - 2 * mins)


def ad_to_base(cfg: FieldConfig, v: TreeVertex, a, b, c):
    """Entries (a', b', c') of Ad(g_v^{-1}) ((a, b), (c, -a)) = g_v^{-1} X g_v.

    Takes exact rational entries.  It moves g_{v,n} onto p^n sl2(O); on the
    chart of an orbit it reads (a, b) -> (a + b x, p^m b), which keeps det and
    the invariant measure da db/|b|.
    """
    x, pm = v.x, Fraction(cfg.p) ** v.m
    a2 = a + b * x
    return a2, b * pm, (c - x * a - x * a2) / pm


@dataclass(frozen=True)
class LatticeDescriptor:
    """g_{v,n} = Ad(g_v)(p^n sl2(O)) for a vertex v and level n."""

    cfg: FieldConfig
    vertex: TreeVertex
    level: int

    def min_level(self, X: Sl2Element):
        """Largest n with X in g_{v,n}; INF for X = 0."""
        # ad_to_base's valuations, without forming p^m b or dividing by p^m
        p, x, m = self.cfg.p, self.vertex.x, self.vertex.m
        a, b, c = X.exact_entries()
        a2 = a + b * x
        return min(val_p(a2, p), val_p(b, p) + m, val_p(c - x * (a + a2), p) - m)

    def contains(self, X: Sl2Element) -> bool:
        return self.min_level(X) >= self.level

    def scaled(self, dlevel: int) -> "LatticeDescriptor":
        return LatticeDescriptor(self.cfg, self.vertex, self.level + dlevel)

    def __repr__(self):
        return f"g_[{self.vertex!r},{self.level}]"


def mp_lattice(cfg: FieldConfig, v: TreeVertex, n: int) -> LatticeDescriptor:
    return LatticeDescriptor(cfg, v, n)


def act(cfg: FieldConfig, g: GroupElement, v: TreeVertex) -> TreeVertex:
    """Canonical coordinates of g . v (class of g applied to the lattice)."""
    (g11, g12), (g21, g22) = g.m
    (b11, b12), (b21, b22) = basis_matrix(cfg, v)
    # columns of M = g * g_v generate the image lattice
    c1 = (g11 * b11 + g12 * b21, g21 * b11 + g22 * b21)
    c2 = (g11 * b12 + g12 * b22, g21 * b12 + g22 * b22)
    return _lattice_class(cfg, (c1, c2))


def depth_via_tree(cfg: FieldConfig, X: Sl2Element, R: int):
    """max over the R-ball of the largest n with X in g_{v,n}.

    A lower bound for the depth that stabilizes at floor(depth) for regular X
    once R is large enough; grows without bound along rays for nilpotent X.
    Every local maximum of min_level is global, so the greedy ascent from
    BASE, stopped at distance R, reaches the maximum over the ball in at most
    R steps of q + 1 lattice tests each.
    """
    if X.is_zero_elt():
        raise ValueError("depth_via_tree needs X != 0")
    return _ascend(cfg, X, INF, R)[0]


def _lattice_class(cfg: FieldConfig, cols) -> TreeVertex:
    """Canonical vertex of the lattice spanned by two column vectors."""
    c1, c2 = cols
    p = cfg.p
    v1 = val_p(c1[0], p)
    v2 = val_p(c2[0], p)
    if v2 < v1:
        c1, c2 = c2, c1
    if c2[0] != 0:
        t = c2[0] / c1[0]
        c2 = (Fraction(0), c2[1] - t * c1[1])
    xq = c1[1] / c1[0]
    delta = c2[1] / c1[0]
    return make_vertex(cfg, int(val_p(delta, p)), xq)


def _ascend(cfg: FieldConfig, X: Sl2Element, n, R: int) -> Tuple[int, TreeVertex]:
    """Greedy ascent of min_level from BASE: the (level, vertex) it stops at.

    Each step moves to a neighbour of strictly larger min_level.  The ascent
    stops on reaching level n, at a local maximum, or after R steps.  Its
    path is the geodesic from BASE to the projection of BASE onto the fixed
    set of the level reached, so R steps reach exactly the R-sphere.
    """
    v = BASE
    lev = LatticeDescriptor(cfg, v, 0).min_level(X)
    for _ in range(R):
        if lev >= n:
            break
        up = max(((LatticeDescriptor(cfg, w, 0).min_level(X), w)
                  for w in neighbors(cfg, v)), key=lambda t: t[0])
        if up[0] <= lev:
            break
        lev, v = up
    return lev, v


def _fixed_vertices(cfg: FieldConfig, X: Sl2Element, n: int, R: int) -> List[TreeVertex]:
    """F_n within distance R of BASE, by greedy ascent then flood fill.

    The ascent stops at the projection of BASE onto F_n, the point of F_n
    closest to BASE.  A local maximum below n means F_n is empty, and a
    projection farther than R means F_n misses the ball.  F_n within the ball
    is convex, hence connected and reached from that projection.
    """
    lev, v = _ascend(cfg, X, n, R)
    if lev < n:
        return []
    fixed, todo, seen = [v], [v], {v}
    while todo:
        for w in neighbors(cfg, todo.pop()):
            if w in seen:
                continue
            seen.add(w)
            if distance(cfg, BASE, w) <= R and LatticeDescriptor(cfg, w, n).contains(X):
                fixed.append(w)
                todo.append(w)
    return fixed


def _apartment_window(cfg: FieldConfig, X: Sl2Element, R: int) -> List[TreeVertex]:
    """Columns -1..2 of the apartment of the split torus through X.

    On that apartment min_level is val(-det X)/2, its maximum, and it drops
    by one per step away from it; so the ascent to that level stops at a0,
    the apartment vertex nearest BASE.  a1 is a0's first apartment
    neighbour in `neighbors` order, a_-1 its other one and a2 the one of a1
    past a0.  Raises BallTooSmall when a0 or a1 is not inside the R-ball.
    """
    top = val_p(X.det(), cfg.p) // 2

    def on_apartment(v):
        return [w for w in neighbors(cfg, v) if LatticeDescriptor(cfg, w, top).contains(X)]

    lev, a0 = _ascend(cfg, X, top, R)
    if lev < top:  # R steps did not reach the apartment
        raise BallTooSmall("fundamental-domain columns not inside the ball")
    a1, a_1 = on_apartment(a0)
    if distance(cfg, BASE, a1) >= R:  # a1 is one step farther than a0
        raise BallTooSmall("fundamental-domain columns not inside the ball")
    a2 = next(w for w in on_apartment(a1) if w != a0)
    return [a_1, a0, a1, a2]


def tree_count_oracle(cfg: FieldConfig, X: Sl2Element, n: int, R: int) -> Fraction:
    """Fixed-vertex count backing the orbital integral of 1_{g_{BASE,n}}.

    Counts vertices v within distance R of BASE, at even distance from it,
    with X in g_{v,n}; for split X only those projecting to apartment
    columns 0 and 1 (a fundamental domain for the torus translations, which
    move the apartment by two steps), column 0 being the apartment vertex
    nearest BASE (_apartment_window).
    Equals ss_orbital(X, indicator) up to one calibration constant per torus
    type.  Since d(v, apt[j]) = d(v, A) + |j - j_v|, with j_v the column v
    projects to, the argmin of d(v, apt[j]) over columns -1..2 lies in
    {0, 1} exactly when j_v does: four columns decide the projection.

    The fixed set is the set of lattices stable under p^{-n} X, which is
    convex, and min_level has convex superlevel sets; so greedy ascent of
    min_level from BASE stops at the projection of BASE onto the fixed set,
    and a flood fill from there finds exactly the fixed vertices of the
    R-ball, testing only the ascent path, those vertices and their
    neighbours.  Only contains, min_level, neighbors and distance are used,
    so the count stays independent of the engine.
    """
    k = classify(X)
    if not k.is_regular:
        raise NotRegular("tree count oracle needs a regular semisimple element")
    fixed = _fixed_vertices(cfg, X, n, R)
    if k.is_split:  # keep the vertices projecting to columns 0 and 1
        apt = _apartment_window(cfg, X, R)
        fixed = [v for v in fixed
                 if min(range(4), key=lambda j: distance(cfg, v, apt[j])) in (1, 2)]
    dists = [distance(cfg, BASE, v) for v in fixed]
    if R in dists:
        raise BallTooSmall(f"fixed set reaches the R={R} boundary")
    return Fraction(sum(1 for d in dists if d % 2 == 0))


def cartan(cfg: FieldConfig, M) -> Tuple[tuple, int, int]:
    """Cartan decomposition M = K1 diag(p^e, p^f) K2 over Q with K1, K2 in GL2(O).

    Returns (K1, e, f) with e <= f; only the left factor is needed to build
    adapted bases for lattice refinement.
    """
    p = cfg.p
    A = [[Fraction(M[0][0]), Fraction(M[0][1])], [Fraction(M[1][0]), Fraction(M[1][1])]]
    L = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    def lmul(L, B):  # L <- L @ B
        return [[L[0][0] * B[0][0] + L[0][1] * B[1][0], L[0][0] * B[0][1] + L[0][1] * B[1][1]],
                [L[1][0] * B[0][0] + L[1][1] * B[1][0], L[1][0] * B[0][1] + L[1][1] * B[1][1]]]

    vals = {(i, j): (val_p(A[i][j], p) if A[i][j] != 0 else INF)
            for i in range(2) for j in range(2)}
    (i0, j0) = min(vals, key=lambda ij: vals[ij])
    if i0 == 1:  # swap rows; A <- S A, L <- L S
        A = [A[1], A[0]]
        L = [[L[0][1], L[0][0]], [L[1][1], L[1][0]]]
    if j0 == 1:  # swap columns (right factor, not tracked)
        A = [[A[0][1], A[0][0]], [A[1][1], A[1][0]]]
    # clear below the pivot: A <- E(-t) A with E(t) = ((1,0),(t,1)); L <- L E(t)
    t = A[1][0] / A[0][0]
    A = [A[0], [A[1][0] - t * A[0][0], A[1][1] - t * A[0][1]]]
    L = lmul(L, [[Fraction(1), Fraction(0)], [t, Fraction(1)]])
    # clear right of the pivot (right factor, not tracked)
    s = A[0][1] / A[0][0]
    A = [[A[0][0], A[0][1] - s * A[0][0]], A[1]]
    d1, d2 = A[0][0], A[1][1]
    e, f = int(val_p(d1, p)), int(val_p(d2, p))
    # absorb units of the diagonal into L
    u1 = d1 / Fraction(p) ** e
    u2 = d2 / Fraction(p) ** f
    L = lmul(L, [[u1, Fraction(0)], [Fraction(0), u2]])
    if e > f:
        # swap both sides: L <- L S (and the untracked right factor)
        L = [[L[0][1], L[0][0]], [L[1][1], L[1][0]]]
        e, f = f, e
    return (tuple(tuple(r) for r in L), e, f)

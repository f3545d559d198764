"""The Bruhat-Tits tree of SL2(Q_p) and its Moy-Prasad lattices.

A vertex is a homothety class of O-lattices in F^2.  Canonical coordinates:
(m, x) with x in F/p^m O labels the class of  O(e1 + x e2) + O(p^m e2),
with basis matrix  g_v = ((1, 0), (x, p^m)).  The base vertex is (0, 0).
The level-n lattice at v is  g_{v,n} = Ad(g_v)(p^n sl2(O)): X lies in it
exactly when min_level(cfg, v, X) >= n, that is Ad(g_v^{-1}) X in p^n sl2(O).
A lattice is the pair (v, n); the coset type lcfunc.CosetCell carries both.

These lattices drive three oracles: depth via fixed lattices, membership
tests for coset functions, and fixed-point counts that cross-check the
orbital-integral engine for lattice indicators.

The fixed set F_n = {v : X in g_{v,n}} is the set of lattices L with
p^{-n} X L in L, so it is convex (DeBacker, Ann. Sci. ENS 2002): min_level
has convex superlevel sets.  For X != 0, a vertex of F_n outside F_{n+1} is
adjacent to F_{n+1} whenever F_{n+1} is nonempty.  So min_level rises by one
at each step toward a nonempty F_n, and every local maximum is a global one.
The count oracle uses this: greedy ascent of min_level from BASE walks the
geodesic to the projection of BASE onto F_n, and _Chart.fill walks from
there over the part of F_n within any ball about BASE that it counts.  Both
walk the int chart of _Chart, which reads min_level exactly at BASE only.
Everywhere else a walk asks whether X lies in one lattice g_{v,n}, two int
divisibility tests: adjacent levels differ by at most one, so the ascent's
next vertex is the first neighbour at the next level.  The exact
primitives below are the public interface and the chart's test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .errors import BallTooSmall, NotRegular
from .padic import INF, FieldConfig, Rat, exact, mod_pk, ratio, val_p
from .sl2 import GroupElement, Sl2Element, classify
from .value import Value


class TreeVertex(Value):
    def __init__(self, m: int, x: Rat):
        self._freeze(m=m, x=x)

    def __repr__(self):
        return f"({self.m},{self.x})"


def make_vertex(cfg: FieldConfig, m: int, x) -> TreeVertex:
    """Canonicalize the coordinate x (padic.exact reads it) modulo p^m O."""
    return TreeVertex(m, mod_pk(exact(x), cfg.p, m))


BASE = TreeVertex(0, 0)


def basis_matrix(cfg: FieldConfig, v: TreeVertex) -> Tuple[Tuple[Rat, ...], ...]:
    """g_v with exact entries on the int rule; divide them with padic.ratio."""
    return ((1, 0), (v.x, cfg.qpow(v.m)))


def neighbors(cfg: FieldConfig, v: TreeVertex) -> List[TreeVertex]:
    """The q+1 adjacent vertices."""
    out = [make_vertex(cfg, v.m - 1, v.x)]
    step = cfg.qpow(v.m)
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

    Takes exact entries and divides by p^|m| with padic.ratio, so a quotient
    is an int where it divides.  It moves g_{v,n} onto p^n sl2(O); on the
    chart of an orbit it reads (a, b) -> (a + b x, p^m b), which keeps det and
    the invariant measure da db/|b|.
    """
    x, pm = v.x, cfg.p ** abs(v.m)
    a2 = a + b * x
    c2 = c - x * (a + a2)
    if v.m >= 0:
        return a2, b * pm, ratio(c2, pm)
    return a2, ratio(b, pm), c2 * pm


def min_level(cfg: FieldConfig, v: TreeVertex, X: Sl2Element):
    """Largest n with X in g_{v,n}: the least valuation of Ad(g_v^{-1}) X; INF for X = 0."""
    return min(val_p(t, cfg.p) for t in ad_to_base(cfg, v, *X.exact_entries()))


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
    return _Chart(cfg, X, R).ascend(INF)[0]


def _lattice_class(cfg: FieldConfig, cols) -> TreeVertex:
    """Canonical vertex of the lattice spanned by two column vectors."""
    c1, c2 = cols
    p = cfg.p
    v1 = val_p(c1[0], p)
    v2 = val_p(c2[0], p)
    if v2 < v1:
        c1, c2 = c2, c1
    if c2[0] != 0:
        t = ratio(c2[0], c1[0])
        c2 = (0, c2[1] - t * c1[1])
    xq = ratio(c1[1], c1[0])
    delta = ratio(c2[1], c1[0])
    return make_vertex(cfg, int(val_p(delta, p)), xq)


class _Chart:
    """The tree within distance R + 1 of BASE on int coordinates, for one X.

    A vertex (m, x) is the pair (m, xi) of ints with x = xi / p^S, S = R + 1,
    and xi canonical modulo p^(m+S), so 0 <= x < p^m as `make_vertex` has it.
    Every vertex within distance d <= R + 1 of BASE fits: d = m - 2 min(0, m,
    val x) is at least |m|, so m + S >= 0; and when val x < 0, then val x < m
    and d > -val x, so val x >= -R and p^S x is an int.  The walk takes the
    neighbours of vertices within distance R only, whose neighbours are
    within R + 1.

    X = ((a, b), (c, -a)) is cleared once to ints A, B, C over a denominator
    D.  The entries of ad_to_base have valuations val(a + b x), val b + m and
    val(c - x(2a + b x)) - m; multiplying those three through by D p^S, D and
    D p^2S gives the level on ints:
        min(val(A p^S + B xi) - S, val B + m,
            val(C p^2S - xi (2A p^S + B xi)) - 2S - m) - val D.
    The walk reads it exactly once, at BASE (min_level).  Every other vertex
    it only tests against a threshold n, X in g_{v,n} (meets): val B + m >= n
    and two int divisibility tests, of A p^S + B xi by p^(n + S + val D) and
    of C p^2S - xi (2A p^S + B xi) by p^(n + 2S + val D + m).

    Thresholds suffice because the levels of adjacent vertices differ by at
    most 1: for w adjacent to v, g_v^{-1} g_w lies in GL2(O) diag(1, p)
    GL2(O), Ad(GL2(O)) keeps each p^n sl2(O), and Ad(diag(1, p)^{-1}) maps
    (a, b, c) to (a, p b, c / p).  So a vertex of level lev has no neighbour
    above lev + 1, and the neighbour that a greedy ascent moves to is the
    first one in `neighbors` order that meets lev + 1.

    The neighbours of (m, xi) are its parent (m - 1, xi mod p^(m-1+S)) and
    its children (m + 1, xi + c p^(m+S)) for c = 0..p-1, in `neighbors`
    order.  The fill carries each vertex's distance d from BASE to the next:
    a step changes it by one, and only the parent (when x != 0 or m > 0) or
    else the child c = 0 (when m < 0) is nearer BASE.
    """

    def __init__(self, cfg: FieldConfig, X: Sl2Element, R: int):
        p, S = cfg.p, R + 1
        a, b, c = X.exact_entries()
        D = math.lcm(a.denominator, b.denominator, c.denominator)
        A, B, C = (t.numerator * (D // t.denominator) for t in (a, b, c))
        vD, pS = val_p(D, p), p**S
        self.p, self.S, self.R, self.B, self.vB = p, S, R, B, val_p(B, p)
        self.pw = [p**k for k in range(2 * S + 1)]  # p^(m+S) at index m + S
        self.A1, self.A2, self.C2 = A * pS, 2 * A * pS, C * pS * pS
        self.off1, self.off2, self.off3 = S + vD, self.vB - vD, 2 * S + vD

    def min_level(self, v) -> int:
        """min_level(cfg, v, X) on the chart: the exact level, read at BASE."""
        m, xi = v
        p, B = self.p, self.B
        return min(val_p(self.A1 + B * xi, p) - self.off1, self.off2 + m,
                   val_p(self.C2 - xi * (self.A2 + B * xi), p) - self.off3 - m)

    def meets(self, v, n: int) -> bool:
        """X in g_{v,n}, that is min_level(v) >= n: the walk's one lattice test."""
        m, xi = v
        if self.off2 + m < n:
            return False
        p, B = self.p, self.B
        k1, k3 = n + self.off1, n + self.off3 + m
        return ((k1 <= 0 or (self.A1 + B * xi) % p**k1 == 0)
                and (k3 <= 0 or (self.C2 - xi * (self.A2 + B * xi)) % p**k3 == 0))

    def neighbors(self, v) -> list:
        m, xi = v
        k = m + self.S
        step = self.pw[k]
        return [(m - 1, xi % self.pw[k - 1])] + [(m + 1, xi + c * step) for c in range(self.p)]

    def from_base(self, v) -> int:
        """distance(BASE, v)."""
        m, xi = v
        return m - 2 * min(0, m, val_p(xi, self.p) - self.S)

    def ascend(self, goal, n=INF):
        """Greedy ascent of the level from BASE, at most R steps.

        Each step moves to a neighbour of strictly larger level; the ascent
        stops on reaching level goal, at a local maximum, or after R steps.
        The level is read exactly at BASE only: adjacent levels differ by at
        most 1, so a step goes to the first neighbour that meets lev + 1, the
        one a max over the neighbours' levels picks, and there is none at a
        local maximum.  Its path is the geodesic from BASE to the projection
        of BASE onto the fixed set of the level reached, so R steps reach
        exactly the R-sphere, and for n <= goal it passes through the
        projection onto F_n first.  Returns the level and vertex it stops
        at, and the first vertex of level >= n on the way (None if there is
        none).
        """
        v = (0, 0)
        lev = self.min_level(v)
        proj = v if lev >= n else None
        for _ in range(self.R):
            if lev >= goal:
                break
            w = next((w for w in self.neighbors(v) if self.meets(w, lev + 1)), None)
            if w is None:
                break
            lev, v = lev + 1, w
            if proj is None and lev >= n:
                proj = v
        return lev, v, proj

    def digits(self, v, n: int):
        """Candidate digits c of the children (m + 1, xi + c P), P = p^(m+S),
        of a vertex v that meets n.

        A child keeps v's pass of val B + m >= n and of the first test, so it
        meets n when p^K | h(xi + c P) = h(xi) - c t1 - c^2 t2, where
        K = n + off3 + m + 1, h(x) = C2 - x(A2 + B x), t1 = (A2 + 2 B xi) P,
        t2 = B P^2, and p^(K-1) | h(xi).  If p^K | t2 that is c t1 = h(xi)
        mod p^K: all digits or none if p^K | t1, else c = (h(xi)/p^g)
        (t1/p^g)^-1 mod p with p^g || t1 (g < K, so p^g | h(xi)).  Otherwise
        all digits.
        """
        m, xi = v
        p, B, k = self.p, self.B, m + self.S
        K = n + self.off3 + m + 1
        if K <= 0 or self.vB + 2 * k < K:
            return range(p)
        pK = p**K
        h = self.C2 - xi * (self.A2 + B * xi)
        t1 = (self.A2 + 2 * B * xi) * self.pw[k]
        if t1 % pK == 0:
            return range(p) if h % pK == 0 else ()
        pg = p ** val_p(t1, p)
        return (h // pg * pow(t1 // pg, -1, p) % p,)

    def fill(self, v, n: int, avoid) -> list:
        """Distances from BASE of the vertices of K, the part of F_n within
        distance R of BASE that holds v and enters no vertex of avoid.

        K is convex, so it has one vertex of least m, its top, and the path
        from any vertex of K to the top goes up only.  The walk climbs from
        v to the top, then goes down through K, each vertex once, testing
        only the children that `digits` leaves.
        """
        R, S, pw = self.R, self.S, self.pw
        (m, xi), d = v, self.from_base(v)
        while True:
            up, du = (m - 1, xi % pw[m - 1 + S]), d - 1 if xi or m > 0 else d + 1
            if du > R or up in avoid or not self.meets(up, n):
                break
            (m, xi), d = up, du
        dists, todo = [d], [(m, xi, d)]
        while todo:
            m, xi, d = todo.pop()
            step, near = pw[m + S], m < 0 and not xi
            for c in self.digits((m, xi), n):
                w, dw = (m + 1, xi + c * step), d - 1 if near and not c else d + 1
                if dw <= R and w not in avoid and self.meets(w, n):
                    dists.append(dw)
                    todo.append((*w, dw))
        return dists

    def window(self, lev, a0, top: int) -> tuple:
        """(a_-1, a2), columns -1 and 2 of the apartment of the split torus
        through X.

        On that apartment the level is top = val(-det X)/2, its maximum, and
        it drops by one per step away from it; so an ascent to level top
        stops at a0, the apartment vertex nearest BASE, having reached level
        lev.  a1 is a0's first apartment neighbour in `neighbors` order, a_-1
        its other one and a2 the one of a1 past a0.  Raises BallTooSmall when
        a0 or a1 is not inside the R-ball.
        """
        def on_apartment(v):
            return [w for w in self.neighbors(v) if self.meets(w, top)]

        if lev < top:  # R steps did not reach the apartment
            raise BallTooSmall("fundamental-domain columns not inside the ball")
        a1, a_1 = on_apartment(a0)
        if self.from_base(a1) >= self.R:  # a1 is one step farther than a0
            raise BallTooSmall("fundamental-domain columns not inside the ball")
        a2 = next(w for w in on_apartment(a1) if w != a0)
        return a_1, a2


def tree_count_oracle(cfg: FieldConfig, X: Sl2Element, n: int, R: int) -> Fraction:
    """Fixed-vertex count backing the orbital integral of 1_{g_{BASE,n}}.

    Counts vertices v within distance R of BASE, at even distance from it,
    with X in g_{v,n}; for split X only those projecting to apartment
    columns 0 and 1 (a fundamental domain for the torus translations, which
    move the apartment by two steps), column 0 being a0, the apartment
    vertex nearest BASE.  Equals ss_orbital(X, indicator) up to one
    calibration constant per torus type.

    The fixed set F_n is the set of lattices stable under p^{-n} X, so it is
    convex, and min_level has convex superlevel sets: greedy ascent of
    min_level from BASE reaches proj, the projection of BASE onto F_n, and
    _Chart.fill from proj finds F_n within the R-ball.  For split X the
    ascent goes on to a0, so proj lies on the geodesic from BASE to a0: it
    is neither a_-1 nor a2 (_Chart.window) and projects to a0.  Removing
    those two leaves one component holding a0, a1 and every vertex
    projecting to them; F_n meets it in a convex, hence connected, set that
    holds proj, so the fill that never enters a_-1 or a2 reaches exactly
    the vertices counted.  window can raise BallTooSmall and fill cannot,
    so their order changes no outcome.  The walk uses only the chart's
    lattice tests, neighbours and distances from BASE, so the count stays
    independent of the engine.
    """
    k = classify(X)
    if not k.is_regular:
        raise NotRegular("tree count oracle needs a regular semisimple element")
    chart = _Chart(cfg, X, R)
    goal = val_p(X.det(), cfg.p) // 2 if k.is_split else n  # split: the apartment's level
    lev, end, proj = chart.ascend(goal, n)
    avoid = chart.window(lev, end, goal) if k.is_split else ()
    dists = [] if proj is None else chart.fill(proj, n, avoid)
    if R in dists:
        raise BallTooSmall(f"fixed set reaches the R={R} boundary")
    return Fraction(sum(1 for d in dists if d % 2 == 0))


def cartan(cfg: FieldConfig, v: TreeVertex) -> Tuple[tuple, int, int]:
    """Adapted basis of g_{v,n}: ((Ad(K1)H, Ad(K1)E, Ad(K1)F), e, f).

    g_v = K1 diag(p^e, p^f) K2 with K1, K2 in GL2(O) and e <= f, so
    g_{v,n} = Ad(K1)(p^n O H + p^(n-d) O E + p^(n+d) O F) with d = f - e =
    d(BASE, v); the triples are in (a, b, c) form.  The canonical x is 0 or
    has val x < m, so e = min(0, m, val x) and f = m - e, in two cases:

    * e = 0: g_v = u_x diag(1, p^m) with u_x = ((1, 0), (x, 1)) integral;
    * e < 0: g_v = S u_y diag(p^e, p^(m-e)) K2 with S = ((0, 1), (1, 0)),
      y = 1/x (y = 0 when x = 0, then e = m) and
      K2 = ((x/p^e, p^(m-e)), (0, -p^e/x)) (K2 = S when x = 0).
    """
    x, m = v.x, v.m
    e = min(0, m, val_p(x, cfg.p))
    if e == 0:
        triples = ((1, 0, 2 * x), (-x, 1, -x * x), (0, 0, 1))
    else:
        y = ratio(1, x) if x else 0
        # 2 y is an integer when y's denominator is 2
        triples = ((-1, exact(2 * y), 0), (y, -y * y, 1), (0, 1, 0))
    return triples, e, m - e

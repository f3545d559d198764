"""Off-base cosets: the engine moves each cell to the base vertex.

A term 1_{Y + g_{v,n}} is integrated as 1_{Y' + p^n sl2(O)} against the orbit
of X' = Ad(g_v^{-1})X, with Y' = Ad(g_v^{-1})Y.  Each check compares that
path with a route that moves no cell: refinement into standard cells
(`canonicalize`), Ad-invariance, or the pullback identity
I_X(f o Ad(g)) = I_{Ad(g)X}(f) for a base-vertex f.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from germlab import (FieldConfig, GroupElement, Sl2Element, ad,
                     indicator_lattice, nilpotent_vector, random_sl2,
                     rep_elliptic, ss_orbital)
from germlab.padic import mod_pk
from germlab.tree import BASE, act, ball, distance, make_vertex

CFGS = {p: FieldConfig(p) for p in (3, 5, 7)}

# Refinement splits a coset at distance d into q^(3d) standard cells: keep the
# refined side small (p=5 at d=2 would be 15,625 cells per example).
REFINED_VERTICES = {3: [v for v in ball(CFGS[3], BASE, 2) if v != BASE],
                    5: [v for v in ball(CFGS[5], BASE, 1) if v != BASE]}
REFINED_LEVELS = {3: (-1, 0, 1, 2), 5: (0, 1)}
FAR_VERTICES = {p: [v for v in ball(CFGS[p], BASE, 3) if v != BASE] for p in (3, 5)}

FAST = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SLOW = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def representatives(cfg):
    """Regular semisimple X of every torus type, both norm tags, depths 0-3/2."""
    p, e = cfg.p, cfg.eps
    return [Sl2Element.from_rationals(cfg, p, 0, 0),
            Sl2Element.from_rationals(cfg, 1, 0, 0),
            rep_elliptic(cfg, e * p**2, tag=True),
            rep_elliptic(cfg, e * p**2, tag=False),
            rep_elliptic(cfg, p, tag=True),
            rep_elliptic(cfg, p, tag=False),
            rep_elliptic(cfg, e * p, tag=True),
            rep_elliptic(cfg, e * p**3, tag=False)]


def centers(cfg):
    """Centres with entries k / p^j, |k| <= p^2, j in {0, 1}."""
    p = cfg.p
    entry = st.builds(Fraction, st.integers(-p * p, p * p), st.sampled_from((1, p)))
    return st.builds(lambda a, b, c: Sl2Element.from_rationals(cfg, a, b, c),
                     entry, entry, entry)


@st.composite
def refinable_cosets(draw):
    p = draw(st.sampled_from((3, 5)))
    cfg = CFGS[p]
    v = draw(st.sampled_from(REFINED_VERTICES[p]))
    n = draw(st.sampled_from(REFINED_LEVELS[p]))
    return indicator_lattice(cfg, v, n, center=draw(centers(cfg)))


@st.composite
def far_cosets(draw):
    p = draw(st.sampled_from((3, 5)))
    cfg = CFGS[p]
    v = draw(st.sampled_from(FAR_VERTICES[p]))
    n = draw(st.integers(-1, 2))
    return indicator_lattice(cfg, v, n, center=draw(centers(cfg)))


def conjugated(cfg, index, seed):
    rep = representatives(cfg)[index]
    return ad(random_sl2(cfg, random.Random(seed)), rep)


@FAST
@given(f=refinable_cosets(), index=st.integers(0, 7), seed=st.integers(0, 10**6))
def test_ss_moved_equals_refined(f, index, seed):
    X = conjugated(f.cfg, index, seed)
    assert ss_orbital(X, f).value == ss_orbital(X, f.canonicalize()).value


@SLOW
@given(f=refinable_cosets())
def test_nilpotent_moved_equals_refined(f):
    assert nilpotent_vector(f) == nilpotent_vector(f.canonicalize())


@FAST
@given(f=far_cosets(), index=st.integers(0, 7), seed=st.integers(0, 10**6),
       gseed=st.integers(0, 10**6))
def test_ad_invariance(f, index, seed, gseed):
    cfg = f.cfg
    X = conjugated(cfg, index, seed)
    g = random_sl2(cfg, random.Random(gseed), size_bound=2)
    assert ss_orbital(ad(g, X), f).value == ss_orbital(X, f).value


@FAST
@given(p=st.sampled_from((3, 5, 7)), data=st.data(), n=st.integers(0, 1),
       index=st.integers(0, 7), gseed=st.integers(0, 10**6))
def test_pullback_of_base_cell(p, data, n, index, gseed):
    # f o Ad(g) sits at g^{-1} . base, at any distance; f itself is not moved
    cfg = CFGS[p]
    f = indicator_lattice(cfg, BASE, n, center=data.draw(centers(cfg)))
    X = representatives(cfg)[index]
    g = random_sl2(cfg, random.Random(gseed), size_bound=2)
    pulled = f.ad_pullback(g)
    assert ss_orbital(X, pulled).value == ss_orbital(ad(g, X), f).value
    assert nilpotent_vector(pulled) == nilpotent_vector(f)


def _to_distance_three(cfg):
    """g in SL2 with g^{-1} . (1, 0) at distance 3 from the base vertex."""
    p = cfg.p
    ginv = (GroupElement(cfg, [[Fraction(1, p), 0], [0, p]])
            @ GroupElement(cfg, [[1, 0], [1, 1]]))
    return ginv.inverse()


def test_distance_three_cosets_integrate_exactly():
    # refining these would take q^9 cells (1,953,125 at p=5); the pullback
    # identity compares them with a distance-1 coset refined to q^3 cells
    for p in (5, 7):
        cfg = CFGS[p]
        g = _to_distance_three(cfg)
        w = make_vertex(cfg, 1, 0)
        Y = Sl2Element.from_rationals(cfg, 1, Fraction(1, p), p)
        f = indicator_lattice(cfg, w, 0, center=Y)
        far = f.ad_pullback(g)
        assert distance(cfg, BASE, far.terms[0][1].vertex) == 3
        refined = f.canonicalize()
        for X in representatives(cfg)[:6]:
            assert ss_orbital(X, far).value == ss_orbital(ad(g, X), refined).value
        assert nilpotent_vector(far) == nilpotent_vector(refined)


def test_distance_three_equals_refinement_p3():
    cfg = CFGS[3]
    v = make_vertex(cfg, 3, 1)
    assert distance(cfg, BASE, v) == 3
    f = indicator_lattice(cfg, v, 0, center=Sl2Element.from_rationals(cfg, 1, Fraction(1, 3), 3))
    X = rep_elliptic(cfg, 3, tag=True)
    assert ss_orbital(X, f).value == ss_orbital(X, f.canonicalize()).value


def test_integration_cells_one_per_term():
    cfg = CFGS[5]
    v = act(cfg, _to_distance_three(cfg).inverse(), make_vertex(cfg, 1, 0))
    f = (indicator_lattice(cfg, v, 1, center=Sl2Element.from_rationals(cfg, 0, 1, 0))
         + 2 * indicator_lattice(cfg, BASE, 0))
    cells = f.integration_cells()
    assert [(c, n, w) for c, _, n, w in cells] == [(1, 1, v), (2, 0, BASE)]
    # E = [[0, 1], [0, 0]] moves to Ad(g_v^{-1})E = [[x, p^m], [-x^2/p^m, -x]]
    pm = Fraction(5) ** v.m
    assert cells[0][1] == tuple(mod_pk(e, 5, 1) for e in (v.x, pm, -v.x**2 / pm))

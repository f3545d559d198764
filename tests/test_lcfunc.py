import random
from fractions import Fraction

import pytest

from germlab import (CosetCell, FieldConfig, LCFunction, Sl2Element,
                     h_combination, indicator, indicator_lattice,
                     is_invariant_under,
                     lcfunction_from_json, lcfunction_to_json, make_vertex,
                     random_sl2, unit_ball)
from germlab.lcfunc import _base_centre
from germlab.padic import mod_pk
from germlab.tree import BASE, ad_to_base

CFG = FieldConfig(5)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


def rand_point(rng, span=2):
    def r():
        return Fraction(rng.randint(-100, 100), 5 ** rng.randint(0, span))
    return M(r(), r(), r())


class TestIndicatorEvaluate:
    def test_unit_ball_at_unit(self):
        f = unit_ball(CFG)
        assert f.evaluate(M(1, 0, 0)) == 1

    def test_level_one_excludes_unit(self):
        f = indicator_lattice(CFG, BASE, 1)
        assert f.evaluate(M(1, 0, 0)) == 0
        assert f.evaluate(M(5, 0, 0)) == 1

    def test_center_always_inside(self):
        rng = random.Random(41)
        vs = [BASE, make_vertex(CFG, 1, 0), make_vertex(CFG, -1, 0)]
        for _ in range(100):
            Y = rand_point(rng)
            cell = CosetCell(Y, rng.choice(vs), rng.randint(-1, 2))
            assert indicator(CFG, cell).evaluate(Y) == 1

    def test_linearity(self):
        rng = random.Random(42)
        f = unit_ball(CFG)
        g = indicator_lattice(CFG, BASE, 1)
        for _ in range(100):
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            X = rand_point(rng)
            h = a * f + b * g
            assert h.evaluate(X) == a * f.evaluate(X) + b * g.evaluate(X)


class TestDilate:
    def test_unit_ball_scaling(self):
        f = unit_ball(CFG).dilate(CFG.zeta**2)
        # f(X) = 1 iff p^2 X integral iff X in p^-2 sl2(O)
        assert f.evaluate(M(Fraction(1, 25), 0, 0)) == 1
        assert f.evaluate(M(Fraction(1, 125), 0, 0)) == 0

    def test_involution(self):
        f = indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)
        g = f.dilate(Fraction(5)).dilate(Fraction(1, 5))
        assert f.equals(g)

    def test_double_dilate(self):
        f = unit_ball(CFG)
        assert f.dilate(CFG.zeta**2).dilate(CFG.zeta**2).equals(f.dilate(CFG.zeta**4))

    def test_evaluate_identity(self):
        rng = random.Random(43)
        f = indicator_lattice(CFG, BASE, 1) + 2 * unit_ball(CFG)
        for _ in range(100):
            c = Fraction(5) ** rng.randint(-2, 2) * rng.choice([1, 2, 3, 4])
            X = rand_point(rng)
            assert f.dilate(c).evaluate(X) == f.evaluate(X.scale(c))


class TestCanonicalize:
    def test_preserves_evaluation(self):
        # the last term sits at distance 2, where cartan reads x = 1/5 != 0
        rng = random.Random(44)
        far = make_vertex(CFG, 0, Fraction(1, 5))
        f = (unit_ball(CFG) + 3 * indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)
             - indicator_lattice(CFG, BASE, 1)
             + 2 * indicator_lattice(CFG, far, 0, center=M(0, Fraction(1, 5), 1)))
        N = f.level()
        cells = f.canonical_cells()
        points = [rand_point(rng) for _ in range(1000)]  # 2 of them in the far cell
        Y = f.terms[-1][1].center
        points += [Y + rand_point(rng, 0) for _ in range(1000)]  # 38 in the far cell
        for X in points:
            key = tuple(mod_pk(x, CFG.p, N) for x in X.exact_entries())
            assert f.evaluate(X) == cells.get(key, Fraction(0))

    def test_disjoint_cells(self):
        f = unit_ball(CFG) + indicator_lattice(CFG, BASE, 1)
        cells = f.canonical_cells()
        # disjoint standard cells: keys unique by construction of the dict
        assert all(v != 0 for v in cells.values())
        g = f.canonicalize()
        assert len(g.terms) == len(cells)


class TestDepthFamilyInvariance:
    def test_family_members_certified(self):
        pts = [BASE, make_vertex(CFG, 1, 0)]
        fam = [indicator_lattice(CFG, x, 1, center=Y)
               for Y in (Sl2Element.zero(CFG), M(0, 1, 0)) for x in pts]
        assert len(fam) == 4
        for f in fam:
            cell = f.terms[0][1]
            assert is_invariant_under(f, cell.vertex, cell.level)
            assert f.proxy_depth() == 0

    def test_indicator_invariance_levels(self):
        f1 = indicator_lattice(CFG, BASE, 1)
        assert is_invariant_under(f1, BASE, 1)
        assert not is_invariant_under(f1, BASE, 0)

    def test_invariance_survives_combinations(self):
        rng = random.Random(45)
        fam = [indicator_lattice(CFG, BASE, 1, center=Y)
               for Y in (Sl2Element.zero(CFG), M(0, 1, 0), M(0, 2, 0))]
        for _ in range(50):
            f = None
            for g in fam:
                c = Fraction(rng.randint(-3, 3))
                f = c * g if f is None else f + c * g
            assert is_invariant_under(f, BASE, 1)

    @pytest.mark.parametrize("i", [0, 1, 2], ids=["H", "E", "F"])
    def test_each_generator_is_checked(self, i):
        # {X : entry i in p^2 O, the other two in pO}, as p^2 cells of
        # p^2 sl2(O): invariant under p times the other two generators of
        # g_{BASE,1}, not under p times generator i
        p = CFG.p
        centres = [[p * s, p * t] for s in range(p) for t in range(p)]
        f = LCFunction(CFG, [(1, CosetCell(M(*c[:i], 0, *c[i:]), BASE, 2)) for c in centres])
        assert not is_invariant_under(f, BASE, 1)
        assert is_invariant_under(f, BASE, 2)

    def test_dilate_shifts_level_down(self):
        f = indicator_lattice(CFG, BASE, 3)
        g = f.dilate(CFG.zeta**2)
        assert g.terms[0][1].level == 1
        assert is_invariant_under(g, BASE, 1)

    def test_unit_dilation_preserves_level(self):
        f = indicator_lattice(CFG, BASE, 2)
        g = f.dilate(Fraction(2))
        assert g.terms[0][1].level == 2
        assert g.proxy_depth() == f.proxy_depth()


class TestHCombination:
    def test_at_zero(self):
        f = unit_ball(CFG)
        h = h_combination(f, 2)
        assert h.evaluate(M(0, 0, 0)) == (25 - 1) * f.evaluate(M(0, 0, 0))

    def test_structure(self):
        f = unit_ball(CFG)
        h = h_combination(f, 2)
        X = M(Fraction(1, 25), 0, 0)
        assert h.evaluate(X) == 25 * f.evaluate(X) - f.evaluate(X.scale(25))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            h_combination(unit_ball(CFG), 1)


class TestAdPullback:
    def test_transforms_evaluation(self):
        from germlab import ad
        rng = random.Random(47)
        f = unit_ball(CFG) - 2 * indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)
        for _ in range(30):
            g = random_sl2(CFG, rng)
            fg = f.ad_pullback(g)
            for _ in range(10):
                X = rand_point(rng)
                assert fg.evaluate(X) == f.evaluate(ad(g, X))


class TestJson:
    def test_roundtrip(self):
        f = (indicator_lattice(CFG, BASE, 1)
             + Fraction(1, 2) * indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1,
                                                  center=M(0, 1, 0)))
        data = lcfunction_to_json(f)
        g = lcfunction_from_json(CFG, data)
        assert f.equals(g)
        assert all(set(d) == {"coeff", "center", "vertex", "level"} for d in data)


class TestIntegrationCells:
    def test_centres_match_a_direct_move_to_the_base_vertex(self):
        rng = random.Random(5)
        terms = []
        for v in (BASE, make_vertex(CFG, 1, 3), make_vertex(CFG, -1, 0),
                  make_vertex(CFG, 2, 7)):
            for n in (0, 1, 2):
                terms.append((Fraction(rng.randint(1, 9)),
                              CosetCell(rand_point(rng), v, n)))
        f = LCFunction(CFG, terms)
        out = f.integration_cells()
        assert len(out) == len(terms)
        for (coeff, cell), (c2, key, n, v) in zip(f.terms, out):
            moved = ad_to_base(CFG, cell.vertex, *cell.center.exact_entries())
            assert (c2, n, v) == (coeff, cell.level, cell.vertex)
            assert key == tuple(mod_pk(e, CFG.p, cell.level) for e in moved)

    def test_memo_is_bounded(self):
        assert _base_centre.cache_info().maxsize is not None

    def test_cells_at_two_primes_keep_their_own_centres(self):
        # one centre and vertex coordinates read at p = 3 and at p = 5
        cells = {}
        for p in (3, 5):
            cfg = FieldConfig(p)
            cells[p] = CosetCell(M(Fraction(1, 3), 0, 0, cfg), make_vertex(cfg, 1, 0), 1)
        assert cells[3] != cells[5] and hash(cells[3]) != hash(cells[5])
        _base_centre.cache_clear()
        for p in (3, 5):
            cell = cells[p]
            moved = ad_to_base(FieldConfig(p), cell.vertex, *cell.center.exact_entries())
            assert _base_centre(cell) == tuple(mod_pk(e, p, 1) for e in moved)
        assert _base_centre(cells[3]) != _base_centre(cells[5])

"""The exact-value rule: an int when the value is an integer, a Fraction with
denominator > 1 otherwise, and never a float.

A walk over the claim, theorem and germs inputs checks every value the
engine builds for them, and each site that divides checks, given int
inputs, that it returns what the Fraction computation gives.
"""

import random
from fractions import Fraction

import pytest

from germlab import (ALL_ORBITS, BASE, CellTable, FieldConfig, GermBasis, Orbit,
                     Sl2Element, ball, closed_form_germs, construct_Hr_Omega,
                     default_basis, default_pool, depth, h_combination,
                     kernel_combinations, make_vertex, rep_elliptic, verify_claim,
                     verify_theorem)
from germlab.cli import _germ_grid, _standard_grid, _theorem_family
from germlab.padic import exact, ratio, val_p
from germlab.tree import _lattice_class, ad_to_base, cartan


def assert_exact(x, where):
    assert type(x) is int or (type(x) is Fraction and x.denominator > 1), (where, x)


def _claim_functions(cfg, r):
    """The h-functions verify_claim builds from the depth-r pool."""
    pool = GermBasis(default_pool(cfg, r))
    hs = kernel_combinations(pool)
    for om in ALL_ORBITS:
        hs += [(f"h[{name}]", h_combination(f, om.dim))
               for name, f in construct_Hr_Omega(r, om, pool)]
    return hs


def _walk_table(functions, grid, where):
    """Coefficients, cell keys, orbits, cell values and integrals."""
    for name, f in functions:
        for coeff, cell in f.terms:
            assert_exact(coeff, (where, name, "coeff"))
            for e in cell.center.exact_entries():
                assert_exact(e, (where, name, "centre"))
    table = CellTable(f for _, f in functions)
    for key, _n, _odd in table.cells:
        for e in key:
            assert_exact(e, (where, "cell key"))
    orbits = [Orbit.nilpotent(table.cfg, om) for om in ALL_ORBITS]
    orbits += [Orbit.of(X) for _, X in grid]
    for orbit in orbits:
        assert_exact(orbit.s, (where, "s"))
        assert_exact(orbit.prefactor, (where, "prefactor"))
        for cell in table.cells:
            assert_exact(orbit.cell_value(*cell)[0], (where, "cell value", cell))
        for v in table.integrals(orbit):
            assert_exact(v, (where, "integral"))


def _walk_rows(reports, where):
    for rep in reports:
        for field in ("lhs", "rhs", "residual"):
            assert_exact(getattr(rep, field), (where, rep.f_id, rep.x_id, field))


def _walk_grid(grid, where):
    for name, X in grid:
        for e in X.exact_entries():
            assert_exact(e, (where, name, "entry"))
        for om, g in closed_form_germs(X).items():
            assert_exact(g, (where, name, repr(om)))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("r", [0, 1])
def test_claim_and_theorem_values_follow_the_rule(p, r):
    cfg = FieldConfig(p)
    grid = _standard_grid(cfg, r, 0, False)
    _walk_grid(grid, "grid")
    claim = _claim_functions(cfg, r)
    _walk_table(claim, grid, "claim")
    _walk_rows(verify_claim(r, GermBasis(default_pool(cfg, r)), grid), "claim")
    family = _theorem_family(cfg, r)
    _walk_table(family, grid, "theorem")
    _walk_rows(verify_theorem(r, family, grid), "theorem")


@pytest.mark.parametrize("p", [3, 5])
def test_germs_values_follow_the_rule(p):
    cfg = FieldConfig(p)
    grid = _germ_grid(cfg, 0)
    _walk_grid(grid, "germs grid")
    _walk_table(default_basis(cfg).members, grid, "germs basis")


class TestEntryPoints:
    def test_exact_gives_ints_for_integers(self):
        for x, want in ((3, 3), (Fraction(6, 2), 3), (True, 1), ("-4/2", -2),
                        (Fraction(1, 3), Fraction(1, 3)), ("5/10", Fraction(1, 2))):
            got = exact(x)
            assert got == want
            assert_exact(got, x)

    def test_exact_refuses_floats(self):
        with pytest.raises(TypeError):
            exact(0.5)
        with pytest.raises(TypeError):
            Sl2Element(FieldConfig(5), 2.0, 0, 0)

    def test_ratio_is_the_exact_quotient(self):
        rng = random.Random(7)
        vals = [0, 1, -1, 5, -25, 12, Fraction(1, 5), Fraction(-7, 3), Fraction(10, 9)]
        for _ in range(200):
            vals.append(Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        for n in vals:
            for d in vals:
                if d:
                    got = ratio(exact(n), exact(d))
                    assert got == Fraction(n) / Fraction(d), (n, d)
                    assert_exact(got, (n, d))
        with pytest.raises(ZeroDivisionError):
            ratio(1, 0)

    @pytest.mark.parametrize("p", [3, 5])
    def test_qpow(self, p):
        cfg = FieldConfig(p)
        assert type(cfg.zeta) is int
        for k in range(-3, 4):
            assert cfg.qpow(k) == Fraction(p) ** k
            assert_exact(cfg.qpow(k), k)


def _fraction_ad_to_base(cfg, v, a, b, c):
    """The Fraction computation of ad_to_base."""
    x, pm = Fraction(v.x), Fraction(cfg.p) ** v.m
    a2 = a + b * x
    return a2, b * pm, (c - x * (a + a2)) / pm


def _fraction_lattice_class(cfg, cols):
    """The Fraction computation of _lattice_class."""
    (c10, c11), (c20, c21) = [[Fraction(t) for t in col] for col in cols]
    if val_p(c20, cfg.p) < val_p(c10, cfg.p):
        (c10, c11), (c20, c21) = (c20, c21), (c10, c11)
    if c20 != 0:
        c20, c21 = Fraction(0), c21 - c20 / c10 * c11
    return make_vertex(cfg, int(val_p(c21 / c10, cfg.p)), c11 / c10)


class TestDivisionSites:
    """Each division, given ints, returns the value the Fraction computation gives."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2, 3])
    def test_ad_to_base(self, p, m):
        cfg = FieldConfig(p)
        rng = random.Random(10 * p + m)
        for _ in range(40):
            v = make_vertex(cfg, m, rng.randrange(p ** max(m, 0) + 1))
            a, b, c = (rng.randint(-p**3, p**3) for _ in range(3))
            got = ad_to_base(cfg, v, a, b, c)
            assert got == _fraction_ad_to_base(cfg, v, a, b, c), (v, a, b, c)
            for e in got:
                assert_exact(e, (v, a, b, c))

    @pytest.mark.parametrize("p", [3, 5])
    def test_lattice_class(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(p)
        for _ in range(200):
            cols = [[rng.randint(-p**3, p**3) for _ in range(2)] for _ in range(2)]
            if cols[0][0] * cols[1][1] == cols[0][1] * cols[1][0]:
                continue  # the columns span no lattice
            if cols[0][0] == 0 and cols[1][0] == 0:
                continue
            got = _lattice_class(cfg, cols)
            assert got == _fraction_lattice_class(cfg, cols), cols
            assert_exact(got.x, cols)

    @pytest.mark.parametrize("p", [3, 5])
    def test_cartan(self, p):
        cfg = FieldConfig(p)
        for v in ball(cfg, BASE, 3):
            triples, e, f = cartan(cfg, v)
            x = Fraction(v.x)
            if e == 0:
                want = ((1, 0, 2 * x), (-x, 1, -x * x), (0, 0, 1))
            else:
                y = 1 / x if x else Fraction(0)
                want = ((-1, 2 * y, 0), (y, -y * y, 1), (0, 1, 0))
            assert triples == want, v
            for t in triples:
                for entry in t:
                    assert_exact(entry, v)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("tag", [True, False])
    def test_rep_elliptic(self, p, tag):
        cfg = FieldConfig(p)
        for s in (cfg.eps, p, cfg.eps * p, cfg.eps * p**2, p**3):
            X = rep_elliptic(cfg, s, tag=tag)
            b0 = X.b
            assert X.exact_entries() == (0, b0, Fraction(s) / Fraction(b0))
            for e in X.exact_entries():
                assert_exact(e, (s, tag))

    @pytest.mark.parametrize("p", [3, 5])
    def test_depth(self, p):
        cfg = FieldConfig(p)
        for t in range(-4, 5):
            X = Sl2Element(cfg, 0, 1, cfg.qpow(t) * cfg.eps)
            d = depth(X)
            assert d == Fraction(t, 2)
            assert_exact(d, t)

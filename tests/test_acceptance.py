"""Acceptance suite: one test per criterion, exact rational assertions.

Criteria 6 and 7 are split.  Above the boundary (depth > r) they run on
default_pool(cfg, r).  At depth exactly r = 1 they run on unions of g_{x,1}
cosets, x a vertex or an edge midpoint (depth1_family): the level-2 vertex
cells of default_pool(cfg, 1) are unions of g_{x,1+} cosets, and no expansion
holds for those at depth exactly 1 (README.md, "Known findings", which also
explains why no grid reaches depth exactly 0).
"""

import random
from fractions import Fraction

import pytest

from germlab import (ALL_ORBITS, CellTable, CosetCell, FieldConfig, GermBasis,
                     LCFunction, REG_EPS, REG_EPSPI, REG_ONE, REG_PI, Sl2Element,
                     ZERO_ORBIT, ad, brute_force_cell_oracle, construct_Hr_Omega,
                     default_basis, default_pool, depth, expansion_rhs, extract_germs,
                     extract_germs_auto, h_combination, homogeneity_extend,
                     in_g_nil_r, indicator_lattice, kernel_combinations,
                     make_vertex, nilpotent_orbital,
                     nilpotent_vector, random_sl2, rep_elliptic,
                     rep_nilpotent, ss_orbital, unit_ball,
                     verify_claim, verify_theorem)
from germlab.germs import ORBIT_ORDER
from germlab.orbital import Orbit, tree_oracle_compare
from germlab.tree import BASE


def report(num, ok, desc):
    print(f"ACCEPT {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def M(cfg, a, b, c):
    return Sl2Element.from_rationals(cfg, a, b, c)


def function_zoo(cfg, with_offbase=True):
    fs = [("ball", unit_ball(cfg)),
          ("lvl1", indicator_lattice(cfg, BASE, 1)),
          ("lvl2", indicator_lattice(cfg, BASE, 2)),
          ("dil", unit_ball(cfg).dilate(cfg.zeta**2)),
          ("nOne", indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_ONE))),
          ("nEps", indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_EPS))),
          ("nPi", indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_PI))),
          ("shiftb", indicator_lattice(cfg, BASE, 1,
                                       center=M(cfg, 0, Fraction(1, cfg.p), 0))),
          ("comb", 2 * unit_ball(cfg) - 3 * indicator_lattice(cfg, BASE, 1)),
          ("hcomb", h_combination(indicator_lattice(cfg, BASE, 1), 2))]
    if with_offbase:
        fs.append(("x1", indicator_lattice(cfg, make_vertex(cfg, 1, 0), 1)))
    else:
        fs.append(("shifta", indicator_lattice(cfg, BASE, 1,
                                               center=M(cfg, 1, 0, 0))))
    return fs


def x_grid(cfg, r, conj=True):
    p, e = cfg.p, cfg.eps
    out = []
    for k in (1, 2, 3):
        out.append((f"split-d{k}", M(cfg, p**k, 0, 0)))
    for k in (1, 2):
        out.append((f"unram-d{k}-T", rep_elliptic(cfg, e * p ** (2 * k), tag=True)))
        out.append((f"unram-d{k}-F", rep_elliptic(cfg, e * p ** (2 * k), tag=False)))
    for j in (1, 3, 5):
        out.append((f"ramPi-{j}/2", rep_elliptic(cfg, Fraction(p) ** j, tag=True)))
        out.append((f"ramEpsPi-{j}/2", rep_elliptic(cfg, e * Fraction(p) ** j, tag=True)))
    out.append((f"ramPi-1/2-F", rep_elliptic(cfg, p, tag=False)))
    if conj:
        out.append(("split-d1-c", ad(random_sl2(cfg, random.Random(7)), out[0][1])))
        out.append(("split-d2-c", ad(random_sl2(cfg, random.Random(8)), out[1][1])))
    # deeper points, appended so that the leading points keep their order
    out.append(("split-d4", M(cfg, p**4, 0, 0)))
    out.append(("unram-d3-T", rep_elliptic(cfg, e * p**6, tag=True)))
    out.append(("unram-d3-F", rep_elliptic(cfg, e * p**6, tag=False)))
    out.append(("ramPi-3/2-F", rep_elliptic(cfg, Fraction(p) ** 3, tag=False)))
    return [(n, X) for n, X in out if in_g_nil_r(X, r)]


def midpoint_coset(cfg, center, to_plus):
    """1 on Y + g_{m,1}, m the midpoint of the edge from the base vertex to
    (1, 0) (to_plus: {a, b in pO, c in p^2 O}) or to (-1, 0) ({a, c in pO,
    b in p^2 O}), written as a union of p^2 sl2(O) cosets."""
    p = cfg.p
    a, b, c = center
    cells = []
    for s in range(p):
        for t in range(p):
            Y = (M(cfg, a + p * s, b + p * t, c) if to_plus
                 else M(cfg, a + p * s, b, c + p * t))
            cells.append((1, CosetCell(Y, BASE, 2)))
    return LCFunction(cfg, cells)


def depth1_family(cfg):
    """True depth-1 functions: the level-1 vertex cells of default_pool(cfg, 0)
    and g_{m,1} cosets at the midpoints of the two edges through the base
    vertex.  Midpoint members are the ones named g(m+,1) or g(m-,1)."""
    e = cfg.eps
    fam = list(default_pool(cfg, 0))
    for name, center in (("0", (0, 0, 0)), ("E", (0, 1, 0)), ("epsE", (0, e, 0))):
        fam.append((f"1[{name}+g(m+,1)]", midpoint_coset(cfg, center, True)))
    for name, center in (("0", (0, 0, 0)), ("F", (0, 0, 1))):
        fam.append((f"1[{name}+g(m-,1)]", midpoint_coset(cfg, center, False)))
    return fam


class TestCriterion1:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_nilpotent_scaling(self, p):
        cfg = FieldConfig(p)
        fs = function_zoo(cfg, with_offbase=(p < 7))
        assert len(fs) >= 10
        z2 = cfg.zeta**2
        ok = True
        for _, f in fs:
            fz = f.dilate(z2)
            for om in ALL_ORBITS:
                ok = ok and (nilpotent_orbital(om, fz).value
                             == cfg.qpow(om.dim) * nilpotent_orbital(om, f).value)
        report("1", ok, f"nilpotent scaling I(f_zeta) = q^dim I(f): p={p}, "
                        f"5 orbits x {len(fs)} functions")


class TestCriterion2:
    def test_substitution_covariance(self):
        cfg = FieldConfig(5)
        z2 = cfg.zeta**2
        Xs = [M(cfg, 1, 0, 0), M(cfg, 5, 0, 0), M(cfg, 25, 0, 0),
              rep_elliptic(cfg, 2, tag=True), rep_elliptic(cfg, 2 * 25, tag=False),
              rep_elliptic(cfg, 5, tag=True), rep_elliptic(cfg, 5, tag=False),
              rep_elliptic(cfg, 2 * 5, tag=True)]
        fs = [f for _, f in function_zoo(cfg)][:5]
        pairs = 0
        ok = True
        kinds = set()
        for X in Xs:
            from germlab import classify
            kinds.add(classify(X).torus_kind().split("-")[0])
            for f in fs:
                ok = ok and (ss_orbital(X.scale(z2), f).value
                             == ss_orbital(X, f.dilate(z2)).value)
                pairs += 1
        report("2", ok and pairs >= 20 and len(kinds) == 3,
               f"substitution covariance on {pairs} (X, f) pairs, torus kinds {sorted(kinds)}")


class TestCriterion3:
    def test_oracle_triangle(self):
        ok = True
        cases = 0
        for p in (3, 5):
            cfg = FieldConfig(p)
            ball = unit_ball(cfg)
            f1 = indicator_lattice(cfg, BASE, 1)
            fn = indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_ONE))
            targets = [
                (M(cfg, 1, 0, 0), ball), (M(cfg, p, 0, 0), ball),
                (M(cfg, 1, 0, 0), f1), (M(cfg, p, 0, 0), fn),
                (rep_elliptic(cfg, cfg.eps, tag=True), ball),
                (rep_elliptic(cfg, p, tag=True), ball),
                (rep_elliptic(cfg, cfg.eps * p, tag=True), f1),
                (rep_elliptic(cfg, cfg.eps * p * p, tag=False), ball),
                (REG_ONE, ball), (REG_PI, ball), (REG_EPS, f1), (ZERO_ORBIT, fn),
            ]
            for target, f in targets:
                if isinstance(target, Sl2Element):
                    eng = ss_orbital(target, f).value
                else:
                    eng = nilpotent_orbital(target, f).value
                ok = ok and brute_force_cell_oracle(target, f) == eng
                cases += 1
        cfg5 = FieldConfig(5)
        anchors = (
            ss_orbital(M(cfg5, 1, 0, 0), unit_ball(cfg5)).value == Fraction(6, 5)
            and ss_orbital(M(cfg5, 5, 0, 0), unit_ball(cfg5)).value == 6
            and nilpotent_orbital(REG_ONE, unit_ball(cfg5)).value == Fraction(1, 2))
        rows, tree_ok = tree_oracle_compare(cfg5)
        report("3", ok and anchors and tree_ok and cases >= 20 and len(rows) - 1 >= 20,
               f"oracle triangle: {cases} brute-force cases, anchors 6/5, 6, 1/2, "
               f"{len(rows) - 1} tree-count cases")


class TestCriterion4:
    def test_extraction_rank_and_heldout(self):
        cfg = FieldConfig(5)
        held = [(n, f) for n, f in function_zoo(cfg)
                if f.proxy_depth() <= 1 and not f.is_zero][:10]
        while len(held) < 10:
            held.append((f"extra{len(held)}",
                         indicator_lattice(cfg, make_vertex(cfg, -1, 0), 1)))
        assert len(held) >= 10
        deep = [("split", M(cfg, 25, 0, 0)),
                ("unram", rep_elliptic(cfg, 2 * 5**4, tag=True)),
                ("ramPi", rep_elliptic(cfg, Fraction(5) ** 5, tag=True)),
                ("ramEpsPi", rep_elliptic(cfg, 2 * Fraction(5) ** 5, tag=True))]
        held_table = CellTable(f for _, f in held)
        held_nil = [dict(zip(ORBIT_ORDER, nv)) for nv in held_table.nilpotent_rows()]
        ok = True
        for name, X in deep:
            assert depth(X) >= 2
            t = extract_germs(X, default_basis(cfg))
            lhs = held_table.integrals(Orbit.of(X))
            ok = ok and len(t) == 5 and all(
                v == expansion_rhs(t, nv) for v, nv in zip(lhs, held_nil))
        report("4", ok, "rank-5 germ systems at depth >= 2 in every torus type, "
                        f"{len(held)} held-out residuals all zero")


class TestCriterion5:
    def test_homogeneity_matching(self):
        cfg = FieldConfig(5)
        basis = default_basis(cfg)
        bases = [("split", M(cfg, 25, 0, 0)),
                 ("unram", rep_elliptic(cfg, 2 * 5**4, tag=True)),
                 ("ramPi", rep_elliptic(cfg, Fraction(5) ** 5, tag=True)),
                 ("ramEpsPi", rep_elliptic(cfg, 2 * Fraction(5) ** 3, tag=True))]
        ok = True
        for name, X in bases:
            t = extract_germs(X, basis)
            t_up = extract_germs(X.scale(cfg.zeta**2), basis)
            ok = ok and t_up == homogeneity_extend(t, 1, cfg)
        report("5", ok, f"independently extracted tables at X and zeta^2 X match "
                        f"under the scaling law at {len(bases)} base points")


class TestCriterion6:
    @pytest.mark.parametrize("r", [0, 1])
    def test_claim_above_boundary(self, r):
        cfg = FieldConfig(5)
        pool = GermBasis(default_pool(cfg, r))
        grid = [(n, X) for n, X in x_grid(cfg, r) if depth(X) > r]
        assert len(grid) >= 12
        reports = verify_claim(r, pool, grid)
        bad = [x for x in reports if not x.passed]
        report(f"6(r={r}, depth>r)", not bad,
               f"I_X(h) = 0 for {len(reports)} (h, X) rows, grid of {len(grid)}")

    def test_claim_r1_boundary_depth_exactly_r(self):
        # criterion 6 at depth exactly 1 on unions of g_{x,1} cosets; the
        # level-2 vertex pool provably fails there (README, "Known findings")
        cfg = FieldConfig(5)
        fam = GermBasis(depth1_family(cfg))
        reports = verify_claim(1, fam, x_grid(cfg, 1))
        # the combinations verify_claim checks, by row name, to see which of
        # them use a midpoint member (the only members made of level-2 cells)
        hs = dict(kernel_combinations(fam))
        for om in ALL_ORBITS:
            hs.update((f"h[{n}]", f) for n, f in construct_Hr_Omega(1, om, fam))
        boundary = [x for x in reports if x.depth == 1]
        from_mid = [x for x in boundary if hs[x.f_id].proxy_depth() == 1]
        assert from_mid, "no depth-1 row from a midpoint member"
        bad = [x for x in reports if not x.passed]
        report("6(r=1, incl. boundary)", not bad,
               f"I_X(h) = 0 on {len(reports)} (h, X) rows, {len(boundary)} at "
               f"depth exactly 1 ({len(from_mid)} using midpoint cosets)")


class TestCriterion7:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("r", [0, 1])
    def test_theorem_above_boundary(self, r, p):
        cfg = FieldConfig(p)
        pool = default_pool(cfg, r)
        fam = list(pool) + [("c1", 2 * pool[0][1] - 3 * pool[1][1]),
                            ("c2", pool[2][1] + pool[5][1]),
                            ("hc", h_combination(pool[1][1], 2))]
        assert len(fam) >= 10
        grid = [(n, X) for n, X in x_grid(cfg, r, conj=(p == 5))
                if depth(X) > r]
        assert len(grid) >= 12 - (2 if p == 3 else 0)
        reports = verify_theorem(r, fam, grid)
        gated = [x for x in reports if x.expected]
        bad = [x for x in gated if not x.passed]
        report(f"7(p={p}, r={r}, depth>r)", not bad,
               f"expansion residual 0 on {len(gated)} gated rows")

    @pytest.mark.parametrize("p", [3, 5])
    def test_theorem_r1_boundary_depth_exactly_r(self, p):
        # criterion 7 at depth exactly 1 on unions of g_{x,1} cosets; the
        # level-2 vertex pool provably fails there (README, "Known findings")
        cfg = FieldConfig(p)
        fam = depth1_family(cfg)
        grid = [(n, X) for n, X in x_grid(cfg, 1, conj=(p == 5)) if depth(X) == 1]
        assert grid, "boundary points exist"
        reports = verify_theorem(1, fam, grid)
        gated = [x for x in reports if x.expected]
        assert any("+g(m" in x.f_id for x in gated), \
            "no gated depth-1 row from a midpoint member"
        bad = [x for x in gated if not x.passed]
        report(f"7(p={p}, r=1 boundary)", not bad,
               f"expansion residual 0 on {len(gated)} gated rows at depth "
               "exactly 1 (vertex and edge-midpoint g_{x,1} cosets)")

    def test_proof_route_scaling_identity(self):
        cfg = FieldConfig(5)
        ok = True
        for r in (0, 1):
            pool = GermBasis(default_pool(cfg, r))
            grid = [X for n, X in x_grid(cfg, r, conj=False) if depth(X) > r][:4]
            members = [(om, f) for om in ALL_ORBITS
                       for _, f in construct_Hr_Omega(r, om, pool)]
            table = CellTable(f for _, f in members)
            for X in grid:
                at_x = table.integrals(Orbit.of(X))
                at_zx = table.integrals(Orbit.of(X.scale(cfg.zeta**2)))
                ok = ok and all(cfg.qpow(om.dim) * a == b
                                for (om, _), a, b in zip(members, at_x, at_zx))
        report("7(scaling)", ok,
               "q^dim I_X(f) = I_{zeta^2 X}(f) on all single-orbit members")


class TestCriterion8:
    def test_contrast_rows_exist(self):
        cfg = FieldConfig(5)
        f3 = indicator_lattice(cfg, BASE, 3)       # certified level 3
        found = []
        for name, X in (("split-d1", M(cfg, 5, 0, 0)),
                        ("ram-1/2", rep_elliptic(cfg, 5, tag=True))):
            assert depth(X) < f3.proxy_depth()
            t = extract_germs_auto(X, default_basis(cfg))
            res = ss_orbital(X, f3).value - expansion_rhs(t, nilpotent_vector(f3))
            if res != 0:
                found.append((name, str(res)))
        report("8", bool(found),
               f"fine-level f at shallow X exhibits nonzero residuals: {found}")

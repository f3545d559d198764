import csv
import functools
import io
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab import (ALL_ORBITS, FieldConfig, InconsistentSystem,
                     InvariantViolated, LCFunction, NotRegular, PoolDeficient,
                     RankDeficient, REG_EPS, REG_ONE, REG_PI, Sl2Element,
                     ZERO_ORBIT, ad, closed_form_germs, construct_Hr_Omega,
                     default_basis, default_pool, expansion_rhs, extract_germs,
                     extract_germs_auto, h_combination, homogeneity_extend,
                     indicator_lattice, kernel_combinations, make_vertex,
                     nilpotent_vector, random_conjugate, random_sl2, rep_elliptic,
                     reports_to_csv, ss_orbital, unit_ball,
                     depth, verify_claim, verify_theorem)
from germlab.cli import _standard_grid, _theorem_family
from germlab.germs import ORBIT_ORDER, CellTable, GermBasis, _deepening, nilpotent_center
from germlab.linalg import RowReduction, nullspace, rank, solve_consistent
from germlab.orbital import Orbit, _cell_integral
from germlab.padic import ratio
from germlab.tree import BASE

CFG = FieldConfig(5)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


def standard_grid(cfg, r, extra_conj=True):
    p, e = cfg.p, cfg.eps
    out = []
    for k in (1, 2, 3):
        out.append((f"split-d{k}", Sl2Element.from_rationals(cfg, p**k, 0, 0)))
    for k in (1, 2):
        out.append((f"unram-d{k}-T", rep_elliptic(cfg, e * p ** (2 * k), tag=True)))
        out.append((f"unram-d{k}-F", rep_elliptic(cfg, e * p ** (2 * k), tag=False)))
    for j in (1, 3):
        out.append((f"ramPi-{j}/2", rep_elliptic(cfg, Fraction(p) ** j, tag=True)))
        out.append((f"ramEpsPi-{j}/2", rep_elliptic(cfg, e * Fraction(p) ** j, tag=True)))
    if extra_conj:
        out.append(("split-d1-c", ad(random_sl2(cfg, random.Random(7)), out[0][1])))
        out.append(("split-d2-c", ad(random_sl2(cfg, random.Random(8)), out[1][1])))
    from germlab import in_g_nil_r
    return [(n, X) for n, X in out if in_g_nil_r(X, r)]


class TestLinalg:
    def test_rank_and_solve(self):
        Mx = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert rank(Mx) == 1
        assert solve_consistent(Mx, [Fraction(1), Fraction(2)]) is not None
        assert solve_consistent(Mx, [Fraction(1), Fraction(3)]) is None

    def test_nullspace(self):
        Mx = [[Fraction(1), Fraction(2), Fraction(3)]]
        ns = nullspace(Mx)
        assert len(ns) == 2
        for v in ns:
            assert sum(a * b for a, b in zip(Mx[0], v)) == 0


class TestExtraction:
    def test_default_basis_rank_five(self):
        b = default_basis(CFG)
        rows = [[nilpotent_vector(f)[om] for om in ORBIT_ORDER] for _, f in b.members]
        assert rank(rows) == b.rank == 5
        assert [list(row) for row in b.matrix] == rows and len(rows) == 6

    def test_split_values_at_depth_two(self):
        t = extract_germs(M(25, 0, 0), default_basis(CFG))
        assert t[ZERO_ORBIT] == 0
        for om in ALL_ORBITS:
            if om.dim == 2:
                assert t[om] == 25

    def test_held_out_residuals_vanish(self):
        held = [("f1", indicator_lattice(CFG, BASE, 1)),
                ("f1x", indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)),
                ("comb", 3 * unit_ball(CFG) - indicator_lattice(CFG, BASE, 1))]
        X = M(25, 0, 0)
        t = extract_germs(X, default_basis(CFG))
        table = CellTable(f for _, f in held)
        for nv, lhs in zip(table.nilpotent_rows(), table.integrals(Orbit.of(X))):
            assert lhs == expansion_rhs(t, dict(zip(ORBIT_ORDER, nv)))

    def test_conjugation_invariance(self):
        X = M(25, 0, 0)
        t = extract_germs(X, default_basis(CFG))
        g = random_sl2(CFG, random.Random(61))
        t2 = extract_germs(ad(g, X), default_basis(CFG))
        assert t == t2

    def test_basis_independence(self):
        X = rep_elliptic(CFG, 2 * 5**4, tag=True)
        t1 = extract_germs(X, default_basis(CFG))
        # a different rank-5 basis: dilates and shifted nilpotent cells
        alt = [("ball", unit_ball(CFG)),
               ("ball4", unit_ball(CFG).dilate(CFG.zeta**4))]
        for om in (REG_ONE, REG_EPS, REG_PI):
            alt.append((f"n{om.nil_class.value}", indicator_lattice(
                CFG, BASE, 2, center=nilpotent_center(CFG, om, 2))))
        from germlab import REG_EPSPI
        alt.append(("nEpsPi", indicator_lattice(
            CFG, BASE, 2, center=nilpotent_center(CFG, REG_EPSPI, 2))))
        t2 = extract_germs(X, GermBasis(alt))
        assert t1 == t2

    def test_rank_deficient_raises(self):
        bad = [("a", unit_ball(CFG)), ("b", 2 * unit_ball(CFG))]
        with pytest.raises(RankDeficient):
            extract_germs(M(25, 0, 0), GermBasis(bad))

    def test_shallow_raises_then_auto_deepens(self):
        X = M(5, 0, 0)
        with pytest.raises(InconsistentSystem):
            extract_germs(X, default_basis(CFG))
        t = extract_germs_auto(X, default_basis(CFG))
        assert t[REG_ONE] == 5 and t[ZERO_ORBIT] == 0


class TestHomogeneity:
    @pytest.mark.parametrize("mk", [
        lambda cfg: Sl2Element.from_rationals(cfg, cfg.p**2, 0, 0),
        lambda cfg: rep_elliptic(cfg, cfg.eps * cfg.p**4, tag=True),
        lambda cfg: rep_elliptic(cfg, Fraction(cfg.p) ** 5, tag=True),
    ])
    def test_direct_vs_extend(self, mk):
        X = mk(CFG)
        basis = default_basis(CFG)
        t = extract_germs(X, basis)
        t_up = extract_germs(X.scale(CFG.zeta**2), basis)
        assert t_up == homogeneity_extend(t, 1, CFG)
        assert t == homogeneity_extend(t_up, -1, CFG)

    def test_k_zero_is_identity(self):
        t = extract_germs(M(25, 0, 0), default_basis(CFG))
        assert t == homogeneity_extend(t, 0, CFG)

    def test_regular_scale_zero_fixed(self):
        t = extract_germs(rep_elliptic(CFG, 2 * 5**4, tag=True), default_basis(CFG))
        e = homogeneity_extend(t, 3, CFG)
        assert e[ZERO_ORBIT] == t[ZERO_ORBIT]
        for om in ALL_ORBITS:
            if om.dim == 2:
                assert e[om] == t[om] * CFG.qpow(6)


@functools.lru_cache(maxsize=None)
def _basis(p):
    return default_basis(FieldConfig(p))


@st.composite
def regular_conjugates(draw):
    """A random conjugate of a split, unramified or ramified representative."""
    cfg = FieldConfig(draw(st.sampled_from((3, 5, 7))))
    p, t = Fraction(cfg.p), draw(st.integers(-3, 8))
    unit = draw(st.integers(1, cfg.p ** 2).filter(lambda u: u % cfg.p))
    if t % 2 == 0 and draw(st.booleans()):
        X = M(unit * p ** (t // 2), 0, 0, cfg)
    else:
        cls = cfg.eps if t % 2 == 0 else draw(st.sampled_from((1, cfg.eps)))
        X = rep_elliptic(cfg, unit * unit * cls * p ** t, tag=draw(st.booleans()))
    return random_conjugate(X, seed=draw(st.integers(0, 2 ** 32)),
                            size_bound=draw(st.integers(1, 2)))


def _names(code):
    """Every global and attribute name a code object and its nested code read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


class TestClosedForm:
    """closed_form_germs against extraction, its oracle."""

    ENGINE = {"classify", "_classify", "admits", "digits", "Orbit", "CellTable",
              "_cell_integral"}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(regular_conjugates())
    def test_equals_extraction(self, X):
        assert closed_form_germs(X) == extract_germs_auto(X, _basis(X.cfg.p))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_zero_orbit_constants(self, p):
        cfg, q = FieldConfig(p), Fraction(p)
        cases = [(M(p, 0, 0, cfg), 0)]
        cases += [(rep_elliptic(cfg, cfg.eps * p ** 2, tag=tag), -1 / q) for tag in (True, False)]
        cases += [(rep_elliptic(cfg, u * p, tag=tag), -(q + 1) / (2 * q * q))
                  for u in (1, cfg.eps) for tag in (True, False)]
        for X, zero in cases:
            assert closed_form_germs(X)[ZERO_ORBIT] == zero, X

    def test_nilpotent_X_raises(self):
        basis = default_basis(CFG)
        for X in (M(0, 0, 0), M(0, 1, 0), M(0, 0, 5), M(1, 1, -1)):
            with pytest.raises(NotRegular):
                closed_form_germs(X)
            with pytest.raises(NotRegular):
                extract_germs_auto(X, basis)

    def test_names_neither_classification_nor_engine(self):
        assert not _names(closed_form_germs.__code__) & self.ENGINE

    def test_the_guard_has_teeth(self):
        # every guarded name is real, and the extraction it is checked
        # against names the engine
        from germlab import germs, orbital, sl2
        for name in self.ENGINE:
            assert any(hasattr(mod, name) for mod in (germs, orbital, sl2, sl2.OrbitLabel)), name
        assert _names(extract_germs.__code__) & self.ENGINE == {"Orbit"}


class TestHrOmega:
    def test_single_orbit_support(self):
        pool = GermBasis(default_pool(CFG, 0))
        for om in ALL_ORBITS:
            for _, f in construct_Hr_Omega(0, om, pool):
                nv = nilpotent_vector(f)
                for om2 in ALL_ORBITS:
                    assert nv[om2] == (1 if om2 == om else 0)

    def test_zero_orbit_members_hit_origin(self):
        pool = GermBasis(default_pool(CFG, 0))
        for _, f in construct_Hr_Omega(0, ZERO_ORBIT, pool):
            assert f.evaluate(M(0, 0, 0)) != 0

    def test_span_dimension_recovers_pool(self):
        pool = default_pool(CFG, 0)
        rows = [[nilpotent_vector(f)[om] for om in ORBIT_ORDER] for _, f in pool]
        assert rank(rows) == 5
        kers = kernel_combinations(GermBasis(pool))
        assert len(kers) == len(pool) - 5

    def test_pool_deficient(self):
        pool = [("a", unit_ball(CFG)), ("b", indicator_lattice(CFG, BASE, 1))]
        with pytest.raises(PoolDeficient):
            construct_Hr_Omega(0, REG_ONE, GermBasis(pool))


class TestInvariantChecks:
    """The re-checks raise a GermlabError, so python -O keeps them."""

    def test_construct_Hr_Omega_rejects_an_off_target_combination(self, monkeypatch):
        solve = RowReduction.solve
        # solving for the next orbit in ORBIT_ORDER misses the requested one
        monkeypatch.setattr(RowReduction, "solve",
                            lambda self, y: solve(self, y[-1:] + y[:-1]))
        with pytest.raises(InvariantViolated):
            construct_Hr_Omega(0, REG_ONE, GermBasis(default_pool(CFG, 0)))

    def test_verify_claim_rejects_a_nonzero_nilpotent_vector(self, monkeypatch):
        from germlab import germs
        # without the dilation combination, h keeps its single-orbit vector
        monkeypatch.setattr(germs, "h_combination", lambda f, d: f)
        with pytest.raises(InvariantViolated):
            verify_claim(0, GermBasis(default_pool(CFG, 0)), [])


class TestClaim:
    def test_r0_full_grid(self):
        pool = GermBasis(default_pool(CFG, 0))
        grid = standard_grid(CFG, 0)
        assert len(grid) >= 10
        reports = verify_claim(0, pool, grid)
        assert reports and all(r.passed for r in reports)

    def test_zero_function_trivially_passes(self):
        z = LCFunction(CFG, [])
        assert all(v == 0 for v in nilpotent_vector(z).values())
        assert ss_orbital(M(5, 0, 0), z).value == 0

    def test_r1_interior_grid(self):
        pool = GermBasis(default_pool(CFG, 1))
        grid = [(n, X) for n, X in standard_grid(CFG, 1)
                if not _at_boundary(X, 1)]
        reports = verify_claim(1, pool, grid)
        assert reports and all(r.passed for r in reports)

    def test_r1_boundary_is_the_documented_proxy_gap(self):
        # level-2 vertex cells are unions of g_{x,1+} cosets, not g_{x,1}
        # cosets, and no expansion holds for them at depth exactly 1; this
        # pins that finding (README.md, "Known findings")
        pool = GermBasis(default_pool(CFG, 1))
        grid = [("split-d1", M(5, 0, 0))]
        reports = verify_claim(1, pool, grid)
        assert any(not r.passed for r in reports)


def _at_boundary(X, r):
    return depth(X) == r


class TestScalingSuite:
    @pytest.mark.parametrize("p, r", [(3, 0), (3, 1), (5, 0), (5, 1)])
    def test_proof_route_identity(self, p, r):
        # claim's h-row of f at X dilates f; it must equal the proof-route
        # identity's q^d I_X(f) - I_{zeta^2 X}(f), which moves X instead
        cfg = FieldConfig(p)
        pool = GermBasis(default_pool(cfg, r))
        grid = _standard_grid(cfg, r, 0, False)
        members = [(om, name, f) for om in ALL_ORBITS
                   for name, f in construct_Hr_Omega(r, om, pool)]
        table = CellTable(f for _, _, f in members)
        want = {}
        for xname, X in grid:
            at_x = table.integrals(Orbit.of(X))
            at_zx = table.integrals(Orbit.of(X.scale(cfg.zeta**2)))
            for (om, name, _), a, b in zip(members, at_x, at_zx):
                want[f"h[{name}]", xname] = cfg.qpow(om.dim) * a - b
        got = {(x.f_id, x.x_id): x.lhs for x in verify_claim(r, pool, grid)
               if x.f_id.startswith("h[")}
        assert got == want
        assert r == 0 or any(v != 0 for v in got.values())

    def test_contrast_mixed_vector_generally_fails(self):
        # scaling with d=2 breaks by (1 - q^2) j_Zero(X) f(0), so it needs an
        # elliptic X (nonzero zero-orbit germ) and f(0) != 0
        f = unit_ball(CFG)
        X = rep_elliptic(CFG, 2 * 25, tag=True)
        lhs = CFG.qpow(2) * ss_orbital(X, f).value
        rhs = ss_orbital(X.scale(25), f).value
        assert lhs != rhs
        t = extract_germs_auto(X, default_basis(CFG))
        assert rhs - lhs == (1 - CFG.qpow(2)) * t[ZERO_ORBIT] * f.evaluate(M(0, 0, 0))


class TestTheorem:
    def test_r0_everything_gates_and_passes(self):
        pool = default_pool(CFG, 0)
        fam = list(pool) + [("c", 2 * pool[0][1] - pool[3][1])]
        grid = standard_grid(CFG, 0)
        reports = verify_theorem(0, fam, grid)
        gated = [x for x in reports if x.expected]
        assert len(gated) == len(reports)
        assert all(x.passed for x in gated)

    def test_r1_interior_passes_boundary_fails(self):
        # the level-2 vertex cells fail at depth exactly 1 by design; see
        # README.md, "Known findings"
        pool = default_pool(CFG, 1)
        fam = [("f0", pool[0][1]), ("f1", pool[1][1])]
        grid = standard_grid(CFG, 1, extra_conj=False)
        reports = verify_theorem(1, fam, grid)
        interior = [x for x in reports if x.depth > 1]
        boundary = [x for x in reports if x.depth == 1]
        assert interior and all(x.passed for x in interior)
        assert boundary and any(not x.passed for x in boundary)

    def test_barycentric_invariant_member_passes_at_boundary(self):
        # a level-2 combination invariant under the edge-midpoint lattice
        # {a in pO, b in pO, c in p^2 O} is a true depth-1 function and its
        # expansion holds at depth exactly 1
        f = None
        for ap in range(5):
            for bp in range(5):
                g = indicator_lattice(CFG, BASE, 2, center=M(5 * ap, 5 * bp, 0))
                f = g if f is None else f + g
        X = M(5, 0, 0)
        t = extract_germs_auto(X, default_basis(CFG))
        assert ss_orbital(X, f).value == expansion_rhs(t, nilpotent_vector(f))

    def test_contrast_row_fine_function_shallow_point(self):
        f3 = indicator_lattice(CFG, BASE, 3)
        X = M(5, 0, 0)
        t = extract_germs_auto(X, default_basis(CFG))
        residual = ss_orbital(X, f3).value - expansion_rhs(t, nilpotent_vector(f3))
        assert residual != 0

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("r", [0, 1])
    def test_rhs_is_the_germ_table_expansion(self, r, p):
        # verify_theorem forms each rhs as one int dot product over the
        # cleared closed-form germs and nilpotent rows; it must equal
        # expansion_rhs, the plain Fraction sum, of the extracted germs.
        # The extracted germs come from the int solve and are checked
        # here by Fraction substitution, A j == I_X(basis), at the deepened X
        # that extract_germs_auto solves at
        cfg = FieldConfig(p)
        family = _theorem_family(cfg, r)
        grid = _standard_grid(cfg, r, 0, False)
        reports = verify_theorem(r, family, grid)
        assert len(reports) == len(family) * len(grid)
        nil = [nilpotent_vector(f) for _, f in family]
        basis = default_basis(cfg)
        basis_nil = [nilpotent_vector(f) for _, f in basis.members]
        rows = iter(reports)
        for _, X in grid:
            t = extract_germs_auto(X, basis)
            for nv in nil:
                rep = next(rows)
                # an int, or a Fraction only when it is not an integer
                assert type(rep.rhs) is (int if rep.rhs.denominator == 1 else Fraction)
                assert rep.rhs == expansion_rhs(t, nv)
            k = _deepening(depth(X))
            Xk = X.scale(cfg.zeta ** (2 * k))
            solved = extract_germs(Xk, basis)
            assert homogeneity_extend(solved, -k, cfg) == t
            for (_, f), nv in zip(basis.members, basis_nil):
                assert sum(nv[om] * solved[om] for om in ORBIT_ORDER) == ss_orbital(Xk, f).value

    def test_deepening_is_the_ceiling_at_every_half_integer_depth(self):
        # k = ceil((2 - d) / 2), floored at 0, for every d in (1/2)Z in
        # [-4, 4], given as a Fraction (integral or not) and in the form
        # depth returns (an int when d is an integer)
        for n in range(-8, 9):
            want = max(0, math.ceil((2 - Fraction(n, 2)) / 2))
            for d in (Fraction(n, 2), ratio(n, 2)):
                k = _deepening(d)
                assert type(k) is int and k == want, (d, k, want)

    def test_report_serialization(self):
        pool = default_pool(CFG, 0)
        reports = verify_theorem(0, [("f0", pool[0][1])],
                                 [("split-d1", M(5, 0, 0))])
        text = reports_to_csv(reports)
        assert text.splitlines()[0] == "f_id,X_id,torus,depth,r,lhs,rhs,residual,pass"
        header, row = csv.reader(io.StringIO(text))
        assert dict(zip(header, row))["X_id"] == "split-d1"


@pytest.fixture
def reductions(monkeypatch):
    """The matrices that germs hands to RowReduction, in order."""
    from germlab import germs
    seen = []

    class Counted(RowReduction):
        def __init__(self, M):
            seen.append(M)
            super().__init__(M)

    monkeypatch.setattr(germs, "RowReduction", Counted)
    return seen


class TestGermBasis:
    def test_nilpotent_vectors_are_computed_once_per_suite(self, monkeypatch):
        # one nilpotent row per orbit and cell table: a row evaluates each of
        # the table's cells once and gives every member's I_Omega
        calls = []
        real = Orbit.nilpotent
        monkeypatch.setattr(Orbit, "nilpotent",
                            classmethod(lambda cls, cfg, om: calls.append(om) or real(cfg, om)))
        pool = default_pool(CFG, 0)
        grid = _standard_grid(CFG, 0, 0, False)
        verify_claim(0, GermBasis(pool), grid)
        # the pool's matrix, one re-check table per orbit and the h table
        assert len(calls) == 5 * (1 + 5 + 1)
        calls.clear()
        verify_theorem(0, pool, grid)
        # the family's table alone: the germs come in closed form, with no
        # extraction basis (one nilpotent_vector call per function made 14
        # calls, 70 one-function integrals, and the basis's table 5 more rows)
        assert len(calls) == 5

    def test_verify_claim_solves_the_pool_kernel_once(self, reductions):
        # the rank, the kernel combinations and the five single-orbit solves
        # share one reduction of A^T (solving the kernel per call made six
        # nullspace calls, and each solve reduced A^T again)
        pool = GermBasis(default_pool(CFG, 0))
        verify_claim(0, pool, _standard_grid(CFG, 0, 0, False))
        assert reductions == [list(zip(*pool.matrix))]

    def test_extraction_reduces_the_basis_once(self, reductions):
        # every X of the theorem suite applies the row operations of one
        # reduction of A (each extraction row-reduced A | y again)
        basis = default_basis(CFG)
        for X in (M(25, 0, 0), M(125, 0, 0), rep_elliptic(CFG, 2 * 5**4, tag=True)):
            extract_germs(X, basis)
        assert reductions == [list(zip(*basis.matrix)), basis.matrix]


def test_cell_table_lookups_of_verify_claim():
    # the claim suite at p=5, r=0 on the command line's grid looks up 372 cell
    # integrals, 174 of them distinct (integrating every term of every
    # function against every X looked up 3,070); a rule that stopped hashing
    # by value would turn the memo off while every value stayed right
    _cell_integral.cache_clear()
    verify_claim(0, GermBasis(default_pool(CFG, 0)), _standard_grid(CFG, 0, 0, False))
    info = _cell_integral.cache_info()
    assert (info.hits + info.misses, info.misses) == (372, 174)


def test_cell_memo_keys_carry_only_the_cell(monkeypatch):
    # the memo key is (field, -det X, rule, cell, level) and nothing else, so
    # each distinct cell of the claim suite at p=5, r=0 is integrated once:
    # 174 misses, where a function-wide tail hint in the key made 341
    from germlab import orbital
    real = orbital._cell_integral
    distinct = set()

    def record(*args):
        distinct.add(args[:5])
        return real(*args)

    monkeypatch.setattr(orbital, "_cell_integral", record)
    real.cache_clear()
    verify_claim(0, GermBasis(default_pool(CFG, 0)), _standard_grid(CFG, 0, 0, False))
    assert real.cache_info().misses == len(distinct)

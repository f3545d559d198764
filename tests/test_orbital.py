import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab import (ALL_ORBITS, FieldConfig, GridTooLarge, InvariantViolated,
                     NotRegular, OrbitLabel, REG_EPS, REG_EPSPI, REG_ONE, REG_PI,
                     Sl2Element,
                     GermBasis, ZERO_ORBIT, ad, brute_force_cell_oracle,
                     default_basis, default_pool, extract_germs_auto,
                     indicator_lattice, make_vertex, nilpotent_orbital,
                     nilpotent_vector, random_conjugate, random_sl2,
                     rep_elliptic, rep_nilpotent, ss_orbital, unit_ball,
                     verify_claim, verify_theorem)
from germlab import orbital
from germlab.cli import _standard_grid, _theorem_family
from germlab.lcfunc import h_combination
from germlab.orbital import (_cell_integral, _stratum_value, _tail_start,
                             tree_oracle_compare)
from germlab.padic import SquareClass, mod_pk, val_p
from germlab.sl2 import classify
from germlab import tree
from germlab.tree import BASE, ad_to_base, ball

CFG = FieldConfig(5)
CFG3 = FieldConfig(3)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


def q(cfg):
    return Fraction(cfg.p)


class TestSplitAnchors:
    def test_unit_ball_at_depth0(self):
        res = ss_orbital(M(1, 0, 0), unit_ball(CFG))
        assert res.value == Fraction(6, 5)
        assert res.tail == "geometric"

    def test_unit_ball_at_depth1(self):
        assert ss_orbital(M(5, 0, 0), unit_ball(CFG)).value == 6

    def test_p3(self):
        assert ss_orbital(M(1, 0, 0, CFG3), unit_ball(CFG3)).value == Fraction(4, 3)

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            ss_orbital(M(0, 1, 0), unit_ball(CFG))


class TestNilpotentAnchors:
    def test_zero_orbit_point_mass(self):
        f = unit_ball(CFG)
        assert nilpotent_orbital(ZERO_ORBIT, f).value == 1
        assert nilpotent_orbital(ZERO_ORBIT, LCZero()).value == 0

    def test_unit_classes(self):
        f = unit_ball(CFG)
        assert nilpotent_orbital(REG_ONE, f).value == Fraction(1, 2)
        assert nilpotent_orbital(REG_EPS, f).value == Fraction(1, 2)

    def test_odd_classes_carry_the_chart_normalization(self):
        # with the fixed chart measure da db/|b| on {class(b) = lambda} the
        # odd-valuation classes integrate the unit ball to 1/(2q)
        f = unit_ball(CFG)
        assert nilpotent_orbital(REG_PI, f).value == Fraction(1, 10)
        assert nilpotent_orbital(REG_EPSPI, f).value == Fraction(1, 10)

    def test_vector_and_linearity(self):
        rng = random.Random(51)
        f = unit_ball(CFG)
        g = indicator_lattice(CFG, BASE, 1)
        for _ in range(50):
            a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            nv = nilpotent_vector(a * f + b * g)
            nf, ng = nilpotent_vector(f), nilpotent_vector(g)
            for om in ALL_ORBITS:
                assert nv[om] == a * nf[om] + b * ng[om]

    def test_vector_is_pure(self):
        f = unit_ball(CFG) + indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)
        before = dict(vars(f))
        first = nilpotent_vector(f)
        assert vars(f) == before
        assert nilpotent_vector(f) == first

    def test_dilated_example(self):
        f = unit_ball(CFG).dilate(CFG.zeta**2)
        assert nilpotent_orbital(REG_ONE, f).value == Fraction(25, 2)

    def test_h_combination_kills_everything_when_supported_off_zero(self):
        f = indicator_lattice(CFG, BASE, 1, center=M(0, 1, 0))
        assert f.evaluate(M(0, 0, 0)) == 0
        h = h_combination(f, 2)
        assert all(v == 0 for v in nilpotent_vector(h).values())


def LCZero():
    from germlab import LCFunction
    return LCFunction(CFG, [])


class TestScalingLaw:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_orbits_many_functions(self, p):
        cfg = FieldConfig(p)
        z2 = cfg.zeta**2
        fs = _function_zoo(cfg)
        assert len(fs) >= 10
        for _, f in fs:
            fz = f.dilate(z2)
            for om in ALL_ORBITS:
                lhs = nilpotent_orbital(om, fz).value
                rhs = cfg.qpow(om.dim) * nilpotent_orbital(om, f).value
                assert lhs == rhs


def _function_zoo(cfg):
    from germlab import rep_nilpotent
    out = [("ball", unit_ball(cfg)),
           ("lvl1", indicator_lattice(cfg, BASE, 1)),
           ("lvl2", indicator_lattice(cfg, BASE, 2)),
           ("dil", unit_ball(cfg).dilate(cfg.zeta**2)),
           ("x1", indicator_lattice(cfg, make_vertex(cfg, 1, 0), 1)),
           ("x-1", indicator_lattice(cfg, make_vertex(cfg, -1, 0), 1)),
           ("nOne", indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_ONE))),
           ("nPi", indicator_lattice(cfg, BASE, 2, center=rep_nilpotent(cfg, REG_PI))),
           ("comb", 2 * unit_ball(cfg) - 3 * indicator_lattice(cfg, BASE, 1)),
           ("hcomb", h_combination(indicator_lattice(cfg, BASE, 1), 2)),
           ("shift", indicator_lattice(cfg, BASE, 1,
                                       center=Sl2Element.from_rationals(cfg, 0, Fraction(1, cfg.p), 0))),
           ]
    return out


class TestCovariance:
    def test_substitution_identity_twenty_pairs(self):
        z2 = CFG.zeta**2
        Xs = [M(1, 0, 0), M(5, 0, 0), M(0, 1, 2), M(0, 1, 5), M(0, 1, 10),
              M(0, 2, 1), M(0, 1, 2 * 25), rep_elliptic(CFG, 5, tag=False)]
        fs = [f for _, f in _function_zoo(CFG)][:5]
        pairs = 0
        for X in Xs:
            for f in fs:
                lhs = ss_orbital(X.scale(z2), f).value
                rhs = ss_orbital(X, f.dilate(z2)).value
                assert lhs == rhs
                pairs += 1
        assert pairs >= 20

    def test_unit_scaling_covariance(self):
        for c in (Fraction(2), Fraction(3)):
            for X in (M(1, 0, 0), M(0, 1, 5)):
                lhs = ss_orbital(X.scale(c), unit_ball(CFG)).value
                rhs = ss_orbital(X, unit_ball(CFG).dilate(c)).value
                assert lhs == rhs

    def test_zeta4(self):
        X = M(0, 1, 2)
        f = unit_ball(CFG)
        z4 = CFG.zeta**4
        assert ss_orbital(X.scale(z4), f).value == ss_orbital(X, f.dilate(z4)).value


class TestAdInvariance:
    def test_engine_depends_on_class_only(self):
        rng = random.Random(52)
        f = unit_ball(CFG)
        for X in (M(5, 0, 0), M(0, 1, 5), M(0, 1, 2)):
            base = ss_orbital(X, f).value
            for _ in range(20):
                g = random_sl2(CFG, rng)
                assert ss_orbital(ad(g, X), f).value == base

    def test_pullback_identity_integral_conjugators(self):
        # SL2(O) conjugators keep cells near the base vertex
        from germlab import GroupElement
        f = unit_ball(CFG) + 2 * indicator_lattice(CFG, BASE, 1)
        ks = [GroupElement(CFG, [[1, 2], [0, 1]]),
              GroupElement(CFG, [[1, 0], [3, 1]]),
              GroupElement(CFG, [[2, 1], [1, 1]])]
        for X in (M(5, 0, 0), M(0, 1, 2)):
            for g in ks:
                lhs = ss_orbital(ad(g, X), f).value
                rhs = ss_orbital(X, f.ad_pullback(g)).value
                assert lhs == rhs

    def test_pullback_identity_deep_conjugator_p3(self):
        cfg = FieldConfig(3)
        f = unit_ball(cfg)
        g = random_sl2(cfg, random.Random(5), size_bound=1)
        X = Sl2Element.from_rationals(cfg, 3, 0, 0)
        assert ss_orbital(ad(g, X), f).value == ss_orbital(X, f.ad_pullback(g)).value


class TestOracleTriangle:
    def test_brute_force_agreement(self):
        cases = []
        for cfg in (CFG, CFG3):
            ball = unit_ball(cfg)
            f1 = indicator_lattice(cfg, BASE, 1)
            fn = indicator_lattice(cfg, BASE, 2,
                                   center=Sl2Element.from_rationals(cfg, 0, 1, 0))
            cases += [
                (Sl2Element.from_rationals(cfg, 1, 0, 0), ball),
                (Sl2Element.from_rationals(cfg, cfg.p, 0, 0), ball),
                (Sl2Element.from_rationals(cfg, 1, 0, 0), f1),
                (Sl2Element.from_rationals(cfg, cfg.p, 0, 0), f1),
                (rep_elliptic(cfg, cfg.eps, tag=True), ball),
                (rep_elliptic(cfg, cfg.p, tag=True), ball),
                (rep_elliptic(cfg, cfg.eps * cfg.p, tag=True), f1),
                (rep_elliptic(cfg, cfg.eps * cfg.p**2, tag=True), fn),
                (REG_ONE, ball), (REG_PI, ball), (REG_EPS, f1), (ZERO_ORBIT, fn),
            ]
        assert len(cases) >= 20
        for target, f in cases:
            if isinstance(target, Sl2Element):
                eng = ss_orbital(target, f).value
            else:
                eng = nilpotent_orbital(target, f).value
            assert brute_force_cell_oracle(target, f) == eng, (target, eng)

    @pytest.mark.parametrize("p", [3, 5])
    def test_several_cells_and_p_power_denominators(self, p):
        # cells that share beta and chi but not alpha, and centres and s with
        # p-power denominators: the oracle's memo key and its int b-coset
        # lookup see both (every other case has one integral cell)
        cfg = FieldConfig(p)
        q = Fraction(1, p)

        def lat(n, a, b, c):
            return indicator_lattice(cfg, BASE, n, center=M(a, b, c, cfg))
        fs = [lat(1, 0, 0, 0) + 2 * lat(1, 1, 0, 0) - lat(1, 2, 0, p),
              lat(0, q, 0, 0) + lat(0, 2 * q, 0, 0), lat(0, 0, q, 0) - lat(0, q, q, 0),
              lat(0, 0, 0, q * q)]
        assert [len(f.canonical_cells(f.level())) for f in fs] == [3, 2, 2, 1]
        targets = [M(1, 0, 0, cfg), M(q, 0, 0, cfg), rep_elliptic(cfg, cfg.eps * q * q, tag=True),
                   rep_elliptic(cfg, p, tag=True), rep_elliptic(cfg, q, tag=False),
                   REG_ONE, REG_PI]
        nonzero = 0
        for f in fs:
            for target in targets:
                if isinstance(target, Sl2Element):
                    eng = ss_orbital(target, f).value
                else:
                    eng = nilpotent_orbital(target, f).value
                assert brute_force_cell_oracle(target, f) == eng, (target, f)
                nonzero += eng != 0
        assert nonzero >= 12

    def test_anchor_values(self):
        assert brute_force_cell_oracle(M(1, 0, 0), unit_ball(CFG)) == Fraction(6, 5)
        assert brute_force_cell_oracle(M(5, 0, 0), unit_ball(CFG)) == 6
        assert brute_force_cell_oracle(REG_ONE, unit_ball(CFG)) == Fraction(1, 2)
        level6 = indicator_lattice(CFG, BASE, 6)  # cancels to no cell at all
        assert brute_force_cell_oracle(M(1, 0, 0), level6 - level6) == 0

    def test_budget_guard_raises(self):
        # level 6 at p = 5: 4 * 5^5 b-cosets per stratum over 16 strata
        with pytest.raises(GridTooLarge, match="budget"):
            brute_force_cell_oracle(M(1, 0, 0), indicator_lattice(CFG, BASE, 6))

    def test_raises_without_a_geometric_tail(self, monkeypatch):
        # an a-measure that stops shrinking leaves the strata without a tail;
        # the oracle must raise rather than return a partial sum
        # (every target above 2 reads the measure at 2)
        real = orbital._interval_ameas

        def broken(cfg, alpha, N, theta, m_lo, m_hi):
            return [real(cfg, alpha, N, theta, min(m, 2), min(m, 2))[0]
                    for m in range(m_lo, m_hi + 1)]
        monkeypatch.setattr(orbital, "_interval_ameas", broken)
        for target in (M(1, 0, 0), REG_ONE):
            with pytest.raises(GridTooLarge, match="no geometric tail"):
                brute_force_cell_oracle(target, unit_ball(CFG))

    def test_raises_when_the_last_block_breaks_the_ratio(self, monkeypatch):
        # one more point of measure in the last stratum only: B0 and B1 keep
        # their ratio (1/q^2 on the unit ball, 0 on a cell that misses the
        # roots +-1) and B2 alone breaks it
        real = orbital._interval_ameas

        def last_target_off(cfg, alpha, N, theta, m_lo, m_hi):
            out = real(cfg, alpha, N, theta, m_lo, m_hi)
            count, k = out[-1]
            return out[:-1] + [(count + 1, k)]
        away = indicator_lattice(CFG, BASE, 1, center=M(2, 0, 0))
        X = M(1, 0, 0)
        assert brute_force_cell_oracle(X, unit_ball(CFG)) != 0 == brute_force_cell_oracle(X, away)
        monkeypatch.setattr(orbital, "_interval_ameas", last_target_off)
        for f in (unit_ball(CFG), away):
            with pytest.raises(GridTooLarge, match="no geometric tail"):
                brute_force_cell_oracle(X, f)

    def test_tree_oracle_calibration(self):
        rows, ok = tree_oracle_compare(CFG)
        assert ok
        assert len(rows) - 1 >= 20


def _names(code):
    """Every global and attribute name a code object and its nested
    comprehensions, generator expressions and lambdas read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


class TestOracleIndependence:
    """The independent oracles name no part of the engine's Hensel-branch
    path, its square-class test (legendre) or its cell memo.  The guard lets
    OrbitLabel.digits and classify through: the cell oracle still reads the
    engine's digit sets."""

    ENGINE = {"sqmeas", "hensel_sqrt", "legendre", "_tail_start", "_cell_integral",
              "_stratum_value", "_bounded_cell_value"}

    def test_no_oracle_names_the_engine(self):
        fns = [orbital.brute_force_cell_oracle, orbital._interval_ameas, tree.tree_count_oracle]
        fns += [f for f in vars(tree._Chart).values() if isinstance(f, types.FunctionType)]
        assert len(fns) >= 10
        for fn in fns:
            assert not _names(fn.__code__) & self.ENGINE, fn.__qualname__

    def test_the_check_has_teeth(self):
        # every guarded name is a real engine function, and one read only
        # inside a generator expression is still seen
        assert all(callable(getattr(orbital, name)) for name in self.ENGINE)

        def leaky(p, cells):
            return sum(sqmeas(p, *cell)[0] for cell in cells)  # noqa: F821
        assert "sqmeas" not in leaky.__code__.co_names
        assert "sqmeas" in _names(leaky.__code__)


class TestPinnedBOracle:
    """Engine against the brute-force oracle on cells with val(chi) < N.

    There the c-condition pins b near (s - a^2)/chi, so the admitted digits
    of b become digits of s - a^2 shifted by lead(chi): the branch of
    _stratum_value that the unit ball and indicator_lattice(cfg, BASE, 1)
    never reach.  Centres with a = 1 meet the roots a = +-1 of the split
    target diag(1, -1), whose strata there are differences of two measures.
    """

    @pytest.mark.parametrize("p", [3, 5])
    def test_base_cells_at_lower_nilpotents(self, p):
        cfg = FieldConfig(p)
        targets = [rep_elliptic(cfg, s, tag=tag)
                   for s in (p, cfg.eps * p, cfg.eps) for tag in (True, False)]
        targets += [M(1, 0, 0, cfg), REG_ONE, REG_EPS, REG_PI, REG_EPSPI]
        nonzero = 0
        for n in (1, 2):
            for a, c in itertools.product((0, 1), (1, cfg.eps, p)):
                f = indicator_lattice(cfg, BASE, n, center=M(a, 0, c, cfg))
                for target in targets:
                    if isinstance(target, Sl2Element):
                        eng = ss_orbital(target, f).value
                    else:
                        eng = nilpotent_orbital(target, f).value
                    assert brute_force_cell_oracle(target, f) == eng, (n, a, c, target)
                    nonzero += eng != 0
        assert nonzero > 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_one_function_with_both_kinds_of_cell(self, p):
        # the unit ball minus a pinned-b cell: the oracle reads the chi = 0
        # cell through one subdivision for all strata and the chi != 0 cell
        # through its per-stratum memo, in the same call
        cfg = FieldConfig(p)
        f = unit_ball(cfg) + 2 * indicator_lattice(cfg, BASE, 1, center=M(1, 0, 1, cfg))
        chis = [key[2] for key in f.canonical_cells(f.level())]
        assert 0 in chis and any(chis)
        targets = [M(1, 0, 0, cfg), M(p, 0, 0, cfg), rep_elliptic(cfg, cfg.eps, tag=True),
                   rep_elliptic(cfg, p, tag=False), REG_ONE, REG_EPS]
        for target in targets:
            if isinstance(target, Sl2Element):
                eng = ss_orbital(target, f).value
            else:
                eng = nilpotent_orbital(target, f).value
            assert brute_force_cell_oracle(target, f) == eng, target


def _ameas_at(cfg, alpha, N, theta, m):
    """The oracle's a-measure at the single target m, as a Fraction."""
    (count, k), = orbital._interval_ameas(cfg, alpha, N, theta, m, m)
    return count * Fraction(cfg.p) ** -k


def _residue_ameas(p, alpha, N, theta, m):
    """meas{a in alpha + p^N O : val(a^2 - theta) >= m} by counting t mod p^L.

    For a = alpha + p^N t the condition is constant on t + p^L O once every
    perturbation 2 a p^N d + p^(2N) d^2 (d in p^L O) has valuation >= m, which
    holds for L = max(0, m - N - min(val alpha, N), ceil(m/2) - N).
    """
    low = min(val_p(alpha, p), N)
    L = max(0, m - N - low, -((2 * N - m) // 2))
    step = Fraction(p) ** N
    hits = sum(1 for t in range(p**L) if val_p((alpha + step * t) ** 2 - theta, p) >= m)
    return Fraction(hits, p**L) * Fraction(p) ** -N


def _ameas_cases(p, seed, count):
    """Seeded (alpha, N, theta, m): negative values, p-power and non-p
    denominators, alpha or theta zero, theta near a square of the coset."""
    rng = random.Random(seed)

    def rat(vlo, vhi):
        x = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 7)))
        return x * Fraction(p) ** rng.randint(vlo, vhi)

    cases = []
    for i in range(count):
        N = (-1, 0, 1, 2)[i % 4]
        alpha = rat(-1, 2)
        if i % 3 == 0:   # a square of the coset plus a deep perturbation
            a0 = alpha + rng.randint(0, p**2) * Fraction(p) ** N
            theta = a0 * a0 + rat(N, N + 4)
        else:
            theta = rat(-2, 3)
        cases.append((alpha, N, theta, rng.randint(-2, N + 5)))
    cases += [(Fraction(0), 1, Fraction(0), 3), (Fraction(0), 0, Fraction(p), 1),
              (Fraction(1, p), 0, Fraction(1, p * p), 2)]
    return cases


class TestIntervalAmeas:
    """The brute-force oracle's a-measure against direct residue counting,
    which calls nothing from orbital."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_residue_counting(self, p):
        # also with theta reduced mod p^m: the brute-force oracle memoises
        # the a-measure on that residue
        cfg = FieldConfig(p)
        nonzero = 0
        kinds = set()
        for alpha, N, theta, m in _ameas_cases(p, 70 + p, 60):
            want = _residue_ameas(p, alpha, N, theta, m)
            got = _ameas_at(cfg, alpha, N, theta, m)
            assert got == want, (alpha, N, theta, m, got, want)
            reduced = mod_pk(theta, p, m)
            assert _ameas_at(cfg, alpha, N, reduced, m) == want, (alpha, N, theta, m)
            nonzero += 0 < want < Fraction(p) ** -N
            t = val_p(theta, p)
            kinds.add("deep" if t >= m else "negative" if t < 0 else "shallow")
            kinds.add("moved" if reduced != theta else "kept")
        assert nonzero >= 10   # the cases reach the subdivision, not only its ends
        assert kinds == {"deep", "negative", "shallow", "moved", "kept"}

    def test_whole_coset_when_the_scaled_target_is_nonpositive(self):
        # alpha, theta integral and N >= 0 give e = 0, so m <= 0 means M <= 0
        for alpha, N, theta, m in ((Fraction(3), 2, Fraction(-7, 2), 0),
                                   (Fraction(1, 2), 0, Fraction(5), -1)):
            want = Fraction(1, 5**N)
            assert _residue_ameas(5, alpha, N, theta, m) == want
            assert _ameas_at(CFG, alpha, N, theta, m) == want


class TestAmeasRange:
    """One subdivision for a range of targets against residue counting at
    each target, and against the range's own single-target calls."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_every_target_agrees_with_residue_counting(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(80 + p)
        kinds = set()
        for alpha, N, theta, m in _ameas_cases(p, 60 + p, 40):
            m_lo = m - rng.randint(0, 4)   # reaches M <= 0 at N <= 0
            m_hi = max(m, min(m + rng.randint(0, 3), N + 5))  # the counting is p^L
            got = orbital._interval_ameas(cfg, alpha, N, theta, m_lo, m_hi)
            assert len(got) == m_hi - m_lo + 1
            for target, (count, k) in zip(range(m_lo, m_hi + 1), got):
                want = _residue_ameas(p, alpha, N, theta, target)
                assert count * Fraction(p) ** -k == want, (alpha, N, theta, target)
                t = val_p(theta, p)
                kinds.add("deep" if t >= target else "negative" if t < 0 else "shallow")
                kinds.add("nonpositive" if target <= 0 else "positive")
            kinds.add("theta zero" if theta == 0 else "theta nonzero")
        assert kinds == {"deep", "negative", "shallow", "nonpositive", "positive",
                         "theta zero", "theta nonzero"}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_range_equals_single_targets(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(50 + p)
        for kind, alpha, N, theta, m in _sqmeas_cases(cfg, 40 + p, 150):
            m_lo, m_hi = m - rng.randint(0, 3), m + rng.randint(0, 6)
            got = orbital._interval_ameas(cfg, alpha, N, theta, m_lo, m_hi)
            singles = [_ameas_at(cfg, alpha, N, theta, target)
                       for target in range(m_lo, m_hi + 1)]
            assert [c * Fraction(p) ** -k for c, k in got] == singles, (alpha, N, theta)


def _sqmeas_cases(cfg, seed, count):
    """Seeded (alpha, N, theta, m), by i mod 4: theta = 0, theta of odd
    valuation, theta a non-square unit times p^(2j), and theta a square near
    the coset plus a deeper perturbation (the Hensel branches).  alpha has a
    p-power denominator, N runs over -2..3 and m over N - 1..N + 6."""
    p = cfg.p
    rng = random.Random(seed)

    def unit():
        return rng.choice((1, -1)) * rng.choice([u for u in range(1, p * p) if u % p])

    cases = []
    for i in range(count):
        N = rng.randint(-2, 3)
        alpha = Fraction(rng.randint(-p ** 4, p ** 4), p ** rng.randint(0, 2))
        kind = i % 4
        if kind == 0:
            theta = Fraction(0)
        elif kind == 1:
            theta = unit() * Fraction(p) ** (2 * rng.randint(-2, 2) + 1)
        elif kind == 2:
            w = unit()
            theta = (cfg.eps * w * w + p * rng.randint(-p, p)) * Fraction(p) ** (2 * rng.randint(-2, 2))
        else:
            a0 = alpha + rng.randint(0, p ** 3) * Fraction(p) ** rng.randint(N - 1, N + 1)
            theta = a0 * a0 + rng.randint(-p ** 2, p ** 2) * Fraction(p) ** rng.randint(N, N + 7)
        cases.append((kind, alpha, N, theta, rng.randint(N - 1, N + 6)))
    return cases


class TestSqmeas:
    """sqmeas, which reads Hensel branches, against the oracle's
    _interval_ameas, which subdivides cosets and shares no square-root logic."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_interval_subdivision(self, p):
        cfg = FieldConfig(p)
        nonzero = [0, 0, 0, 0]   # per kind of theta
        branches = set()         # counts of branch cosets that meet the cell
        for kind, alpha, N, theta, m in _sqmeas_cases(cfg, 90 + p, 400):
            count, k = orbital.sqmeas(p, alpha, N, theta, m)
            want = _ameas_at(cfg, alpha, N, theta, m)
            assert count * Fraction(p) ** -k == want, (alpha, N, theta, m, count, k)
            nonzero[kind] += want != 0
            if kind == 3 and val_p(theta, p) < m:
                branches.add(count)
        assert all(n >= 10 for n in nonzero), nonzero
        assert branches == {0, 1, 2}


class TestCertificates:
    def test_result_fields(self):
        res = ss_orbital(M(0, 1, 2), unit_ball(CFG))
        assert res.to_json() == {"value": str(res.value), "v0": res.v0, "tail": res.tail}


def _moved_rule_cases(cfg):
    """Orbits of every kind: split, the three elliptic tori with both tags,
    the four regular nilpotent classes (b = 0 too), and random conjugates."""
    p, e = cfg.p, cfg.eps
    base = [M(1, 0, 0, cfg), M(p, p, 0, cfg), M(1, Fraction(1, p), 0, cfg)]
    for s in (e, e * p**2, p, p**3, e * p, e * p**3):
        base += [rep_elliptic(cfg, s, tag=True), rep_elliptic(cfg, s, tag=False)]
    for om in (REG_ONE, REG_EPS, REG_PI, REG_EPSPI):
        lam = rep_nilpotent(cfg, om).b
        base += [rep_nilpotent(cfg, om), M(0, 0, -lam, cfg)]
    return base + [random_conjugate(X, seed) for seed in (1, 2) for X in base]


class TestMovedRule:
    """The label at vertex v is classify(X) for even v.m and its moved(cfg)
    for odd v.m; the oracle reclassifies Ad(g_v^{-1})X itself."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_parity_rule_matches_reclassification(self, p):
        cfg = FieldConfig(p)
        vertices = ball(cfg, BASE, 2)
        flips = 0
        for X in _moved_rule_cases(cfg):
            label = classify(X)
            moved = label.moved(cfg)
            flips += moved != label
            for v in vertices:
                Y = Sl2Element(cfg, *ad_to_base(cfg, v, *X.exact_entries()))
                assert (moved if v.m % 2 else label) == classify(Y), (X, v)
        assert flips > 0

    def test_zero_orbit_moves_to_itself(self):
        assert ZERO_ORBIT.moved(CFG) is ZERO_ORBIT
        assert nilpotent_orbital(ZERO_ORBIT, unit_ball(CFG)).tail == "point"
        assert orbital.Orbit.nilpotent(CFG, ZERO_ORBIT).rules == (ZERO_ORBIT, ZERO_ORBIT)

    def test_engine_classifies_once_per_call(self, monkeypatch):
        # Orbit.of reads the label and s = -det X from one sl2._classify call
        calls = []
        real = orbital._classify

        def counting(X):
            calls.append(X)
            return real(X)

        monkeypatch.setattr(orbital, "_classify", counting)
        f = (indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1)
             - indicator_lattice(CFG, make_vertex(CFG, -1, 0), 0)
             + unit_ball(CFG))
        X = rep_elliptic(CFG, 5, tag=False)
        ss_orbital(X, f)
        assert calls == [X]


class TestCellMemo:
    """_cell_integral is memoised on its exact, value-hashed arguments."""

    XS = [("split", M(5, 0, 0)), ("unram", rep_elliptic(CFG, 2 * 25, tag=True)),
          ("ram", rep_elliptic(CFG, 5, tag=False))]

    def test_rules_built_apart_are_equal(self):
        for p in (3, 5, 7):
            cfg = FieldConfig(p)
            for X in _moved_rule_cases(cfg):
                twin = Sl2Element(FieldConfig(p), *X.exact_entries())
                l1, l2 = classify(X), classify(twin)
                assert l1 is not l2
                assert l1 == l2 and hash(l1) == hash(l2)
                assert l1.moved(cfg) == l2.moved(FieldConfig(p))
            n1 = OrbitLabel("nil", SquareClass.EPS)
            n2 = classify(rep_nilpotent(cfg, REG_EPS))
            assert n1 == n2 and hash(n1) == hash(n2)
            assert n1 != REG_PI

    def test_memo_keys_on_the_prime(self):
        # one label serves every p, so the prime is a key of its own
        cell = (Fraction(0),) * 3
        _cell_integral.cache_clear()
        v5 = _cell_integral(CFG, Fraction(1), OrbitLabel("split"), cell, 0)
        v3 = _cell_integral(CFG3, Fraction(1), OrbitLabel("split"), cell, 0)
        assert _cell_integral.cache_info().hits == 0
        assert v5[0] != v3[0]

    def test_cold_warm_and_unmemoised_results_agree(self, monkeypatch):
        # an off-base term (vertex (1,0)) next to two base-vertex cells
        f = (unit_ball(CFG)
             - 2 * indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1, center=M(5, 0, 5))
             + 3 * indicator_lattice(CFG, BASE, 2, center=M(0, 5, 0)))
        for name, X in self.XS:
            _cell_integral.cache_clear()
            cold = ss_orbital(X, f)
            assert _cell_integral.cache_info().hits == 0, name
            warm = ss_orbital(X, f)
            assert _cell_integral.cache_info().hits == len(f.terms), name
            with monkeypatch.context() as m:
                m.setattr(orbital, "_cell_integral", _cell_integral.__wrapped__)
                plain = ss_orbital(X, f)
            assert cold == warm == plain, name
            assert (cold.value, cold.v0, cold.tail) == (plain.value, plain.v0, plain.tail)

    def test_memo_is_bounded(self):
        assert _cell_integral.cache_info().maxsize is not None


# -- the proved tail -----------------------------------------------------------

CFGS = {p: FieldConfig(p) for p in (3, 5, 7)}


def _ratio(cfg, rule):
    """S(v+2)/S(v) past the tail start, from the orbit type alone."""
    return {"nil": Fraction(1, cfg.p), "split": Fraction(1, cfg.p ** 2),
            "elliptic": Fraction(0)}[rule.kind]


@st.composite
def unbounded_cells(draw):
    """(cfg, s, rule, cell, N) with b in p^N O, for every orbit type."""
    p = draw(st.sampled_from((3, 5, 7)))
    cfg = CFGS[p]
    N = draw(st.integers(-2, 3))
    kind = draw(st.sampled_from(("split", "elliptic", "nil")))
    unit = draw(st.integers(1, p * p).filter(lambda u: u % p))
    j = draw(st.integers(-2, 2))
    if kind == "nil":
        s = Fraction(0)
        rule = OrbitLabel("nil", draw(st.sampled_from(list(SquareClass))))
    elif kind == "split":
        c = Fraction(unit) * Fraction(p) ** j
        s = c * c
        rule = classify(M(c, 0, 0, cfg))
    else:
        cls = draw(st.sampled_from((SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI)))
        s = unit * unit * cls.representative(cfg) * Fraction(p) ** (2 * j)
        X = rep_elliptic(cfg, s, tag=draw(st.booleans()))
        rule = classify(X)
    entry = st.builds(lambda k, i: mod_pk(Fraction(k, p ** i), p, N),
                      st.integers(-p ** 3, p ** 3), st.integers(0, 2))
    cell = (draw(entry), Fraction(0), draw(entry))
    return cfg, s, rule, cell, N


def _stratum(cfg, s, rule, alpha, chi, N, v):
    """_stratum_value's measure (count, k) read as the rational count q^-k."""
    count, k = _stratum_value(cfg, s, rule.digits(v, cfg), alpha, chi, N, v)
    return count * Fraction(cfg.p) ** -k


def _observed_tail_integral(cfg, s, rule, cell, N):
    """The engine's former tail, kept as a reference for the proved one.

    Sum the strata up to a heuristic start v0, accept a geometric tail when
    three stratum blocks there match a ratio in {0, 1/q, 1/q^2}, and move v0
    on by 4 up to three times.  The hint M is the cell's own reach outside
    sl2(O), as the engine computed it for a one-term function.
    """
    alpha, beta, chi = cell
    p = cfg.p
    hint = max(0, -min(N, *(val_p(e, p) for e in cell)))
    v0 = N + (abs(int(val_p(s, p))) if s != 0 else 0) + hint + 4
    for _attempt in range(3):
        exact = sum((_stratum(cfg, s, rule, alpha, chi, N, v)
                     for v in range(N, v0)), Fraction(0))
        B0, B1, B2 = (_stratum(cfg, s, rule, alpha, chi, N, v0 + 2 * k)
                      + _stratum(cfg, s, rule, alpha, chi, N, v0 + 2 * k + 1)
                      for k in range(3))
        if B0 == 0:
            if B1 == 0 and B2 == 0:
                return exact
        else:
            ratio = B1 / B0
            if ratio in (0, Fraction(1, p), Fraction(1, p * p)) and B2 == B1 * ratio:
                return exact + B0 / (1 - ratio)
        v0 += 4
    raise AssertionError(f"no geometric tail for {cell} at N={N}")


class TestProvedTail:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(unbounded_cells())
    def test_strata_are_geometric_from_the_start_index(self, case):
        cfg, s, rule, (alpha, beta, chi), N = case
        v_star = _tail_start(cfg, s, chi, N)
        assert v_star >= N
        S = [_stratum(cfg, s, rule, alpha, chi, N, v)
             for v in range(v_star, v_star + 43)]
        rho = _ratio(cfg, rule)
        for i in range(41):
            assert S[i + 2] == rho * S[i], (case, v_star + i)

    def test_values_match_the_observed_tail_on_suite_cells(self, monkeypatch):
        cells = set()
        real = orbital._cell_integral

        def record(*args):
            cells.add(args)
            return real(*args)

        monkeypatch.setattr(orbital, "_cell_integral", record)
        basis = default_basis(CFG)
        for r in (0, 1):
            grid = _standard_grid(CFG, r, 0, False)
            verify_claim(r, GermBasis(default_pool(CFG, r)), grid)
            verify_theorem(r, _theorem_family(CFG, r), grid)
            # the extraction that verify germs checks the closed form with
            for _, X in grid:
                extract_germs_auto(X, basis)
        unbounded = [a for a in cells if val_p(a[3][1], CFG.p) >= a[4]]
        kinds = {a[2].kind for a in unbounded}
        assert len(unbounded) >= 80 and kinds == {"nil", "split", "elliptic"}
        for args in unbounded:
            assert real(*args)[0] == _observed_tail_integral(*args), args

    def test_a_start_index_too_early_is_caught(self, monkeypatch):
        # diag(5, -5) on p^0 sl2(O): S(v+2) = S(v)/25 only from v = 3 on
        args = (CFG, Fraction(25), classify(M(5, 0, 0)), (Fraction(0),) * 3, 0)
        cell_integral = _cell_integral.__wrapped__
        assert cell_integral(*args)[1] == 3
        monkeypatch.setattr(orbital, "_tail_start", lambda cfg, s, chi, N: N)
        with pytest.raises(InvariantViolated):
            cell_integral(*args)

    def test_elliptic_tails_are_finite(self):
        for X in (rep_elliptic(CFG, 2 * 25, tag=True), rep_elliptic(CFG, 5, tag=False)):
            assert ss_orbital(X, unit_ball(CFG) + indicator_lattice(CFG, BASE, 2)).tail == "finite"

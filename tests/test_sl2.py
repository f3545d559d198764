import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab import (FieldConfig, GermBasis, GroupElement, REG_EPS,
                     REG_EPSPI, REG_ONE, REG_PI, Sl2Element, SpecMismatch,
                     SquareClass, ZERO_ORBIT, ad, classify, default_pool, depth,
                     in_g_nil_r, random_sl2, rep_elliptic, rep_nilpotent, sl2,
                     verify_claim)
from germlab.cli import _standard_grid
from germlab.padic import INF, square_class_of_rational, val_p
from germlab.sl2 import ALL_ORBITS, OrbitLabel
from germlab.tree import BASE, depth_via_tree

CFG = FieldConfig(5)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


class TestClassify:
    def test_upper_nilpotent(self):
        k = classify(M(0, 1, 0))
        assert k.kind == "nil" and k == REG_ONE

    def test_lower_nilpotent_minus_one_square(self):
        # -c = -1 is a square in Q5 (5 = 1 mod 4)
        k = classify(M(0, 0, 1))
        assert k.kind == "nil" and k == REG_ONE

    def test_split_diag(self):
        k = classify(M(1, 0, 0))
        assert k.is_regular and k.is_split

    def test_unramified(self):
        k = classify(M(0, 1, 2))
        assert k.is_regular and not k.is_split
        assert k.ext == SquareClass.EPS and k.tag is True

    def test_zero(self):
        assert classify(M(0, 0, 0)).kind == "zero"

    def test_orbit_labels_enumerate(self):
        assert len(ALL_ORBITS) == 5
        assert {om.dim for om in ALL_ORBITS} == {0, 2}

    def test_tags_ad_invariant(self):
        rng = random.Random(21)
        samples = [M(0, 1, 0), M(0, 2, 0), M(0, 5, 0), M(0, 10, 0),
                   M(1, 0, 0), M(0, 1, 2), M(0, 1, 5), M(0, 2, 5)]
        for X in samples:
            k0 = classify(X)
            for _ in range(100):
                g = random_sl2(CFG, rng)
                k = classify(ad(g, X))
                assert k == k0

    def test_nilpotent_partition(self):
        rng = random.Random(22)
        seen = set()
        for _ in range(200):
            lam = rng.choice([1, 2, 5, 10, 3, 8, 20, 45])
            X = ad(random_sl2(CFG, rng), M(0, lam, 0))
            k = classify(X)
            assert k.kind == "nil"
            seen.add(k)
        assert len(seen) == 4


def _chart_labels():
    """Every label with an (a, b) chart: nilpotent, split and elliptic."""
    out = [om for om in ALL_ORBITS if om.kind != "zero"] + [OrbitLabel("split")]
    for cls in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI):
        out += [OrbitLabel("elliptic", ext=cls, tag=tag)
                for tag in (True, False)]
    return out


class TestAdmits:
    """OrbitLabel.admits is the class test of classify; digits reads it per
    b-stratum."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_digits_are_the_admitted_leading_digits(self, p):
        cfg = FieldConfig(p)
        sizes = set()
        for label in _chart_labels():
            for v in range(-3, 5):
                want = {d for d in range(1, p) if label.admits(
                    square_class_of_rational(Fraction(d) * Fraction(p) ** v, p), p)}
                assert label.digits(v, cfg) == want, (label, v)
                sizes.add(len(want))
        assert sizes == {0, (p - 1) // 2, p - 1}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_moved_label_admits_p_times_b(self, p):
        cfg = FieldConfig(p)
        for label in _chart_labels():
            for c in SquareClass:
                assert (label.moved(cfg).admits(c, p)
                        == label.admits(c * SquareClass.PI, p)), (label, c)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_classify_admits_the_b_of_x(self, p):
        cfg = FieldConfig(p)
        rng = random.Random(90 + p)
        kinds = set()
        for _ in range(300):
            a, b, c = (Fraction(rng.randint(-p**3, p**3), p ** rng.randint(0, 2))
                       for _ in range(3))
            if rng.random() < 0.3:  # nilpotent: c = -a^2/b, or b = a = 0
                if b:
                    c = -a * a / b
                else:
                    a = Fraction(0)
            X = M(a, b, c, cfg)
            if X.is_zero_elt():
                continue
            label = classify(X)
            kinds.add(label.kind)
            assert label.admits(square_class_of_rational(X.b if X.b else -X.c, p), p), X
        assert kinds == {"nil", "split", "elliptic"}

    def test_zero_orbit_has_no_chart(self):
        with pytest.raises(ValueError, match="zero orbit"):
            ZERO_ORBIT.admits(SquareClass.ONE, 5)
        with pytest.raises(ValueError, match="zero orbit"):
            ZERO_ORBIT.digits(0, CFG)


class TestFieldInEquality:
    def test_elements_at_two_primes_differ(self):
        X3 = M(Fraction(1, 3), 0, 0, FieldConfig(3))
        X5 = M(Fraction(1, 3), 0, 0, FieldConfig(5))
        assert X3 != X5 and hash(X3) != hash(X5)
        assert X5 == M(Fraction(1, 3), 0, 0, FieldConfig(5))
        g3, g5 = GroupElement.identity(FieldConfig(3)), GroupElement.identity(FieldConfig(5))
        assert g3 != g5 and g5 == GroupElement.identity(FieldConfig(5))


class TestDepth:
    def test_examples(self):
        assert depth(M(5, 0, 0)) == 1
        assert depth(M(1, 0, 0)) == 0
        assert depth(M(0, 1, 5)) == Fraction(1, 2)

    def test_matches_tree_oracle(self):
        for X, want in ((M(5, 0, 0), 1), (M(1, 0, 0), 0), (M(0, 1, 2), 0)):
            assert depth_via_tree(CFG, X, 4) == want

    def test_ad_invariance(self):
        rng = random.Random(23)
        for X in (M(5, 0, 0), M(0, 1, 5), M(0, 1, 2 * 25)):
            d = depth(X)
            for _ in range(50):
                assert depth(ad(random_sl2(CFG, rng), X)) == d

    def test_scaling_shifts_depth(self):
        for X in (M(1, 0, 0), M(0, 1, 5), M(0, 1, 2)):
            assert depth(X.scale(25)) == depth(X) + 2

    def test_nilpotent_is_deep(self):
        assert depth(M(0, 1, 0)) == INF
        assert depth(M(0, 0, 0)) == INF
        assert INF > Fraction(10**9)

    def test_in_g_r(self):
        # g_r is {depth >= r}, or {depth > r} when strict; INF lies in every g_r
        assert depth(M(5, 0, 0)) >= 1
        assert not depth(M(1, 0, 0)) >= 1
        assert depth(M(1, 0, 0)) >= 0
        assert not depth(M(5, 0, 0)) > 1
        assert depth(M(0, 1, 0)) >= 10**6
        assert in_g_nil_r(M(5, 0, 0), 1)
        assert not in_g_nil_r(M(25, 0, 0), 3)
        assert not in_g_nil_r(M(5, 0, 0), 1, strict=True)
        assert in_g_nil_r(M(0, 1, 0), 10**6, strict=True)
        assert in_g_nil_r(M(0, 0, 0), 10**6)

    def test_g_nil_cut(self):
        assert not in_g_nil_r(M(1, 0, 0), 0)     # depth 0 but not nilpotent
        assert in_g_nil_r(M(0, 1, 5), 0)         # depth 1/2
        assert in_g_nil_r(M(5, 0, 0), 1)


def _elements(p: int):
    """Five kinds of X at p: regular representatives scaled by p^k, the four
    nilpotent representatives, zero, and seeded conjugates of the first two."""
    cfg = FieldConfig(p)
    regular = [Sl2Element(cfg, 1, 0, 0)] + [
        rep_elliptic(cfg, s, tag) for s in (cfg.eps, p, cfg.eps * p) for tag in (True, False)]
    nilpotent = [rep_nilpotent(cfg, om) for om in (REG_ONE, REG_EPS, REG_PI, REG_EPSPI)]
    scaled = st.builds(lambda X, k: X.scale(Fraction(p) ** k),
                       st.sampled_from(regular), st.integers(-2, 3))
    base = st.one_of(scaled, st.sampled_from(nilpotent))
    conjugated = st.builds(lambda X, seed: ad(random_sl2(cfg, random.Random(seed)), X),
                           base, st.integers(0, 10**6))
    return st.one_of(base, st.just(Sl2Element.zero(cfg)), conjugated)


def _old_in_g_nil_r(X, r, strict):
    """g_r membership as it read before depth was one number: through classify,
    with every non-regular element in every g_r, and val(det) > 0 on top."""
    if classify(X).is_regular:
        d = Fraction(val_p(X.det(), X.cfg.p), 2)
        in_g_r = d > r if strict else d >= r
    else:
        in_g_r = True
    return in_g_r and val_p(X.det(), X.cfg.p) > 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7]).flatmap(_elements),
       st.integers(-2, 8).map(lambda k: Fraction(k, 2)), st.booleans())
def test_depth_is_half_the_valuation_of_minus_det(X, r, strict):
    d = depth(X)
    assert (d == INF) == (not classify(X).is_regular)
    if d != INF:
        assert d == Fraction(val_p(-X.det(), X.cfg.p), 2)
    assert in_g_nil_r(X, r, strict) == _old_in_g_nil_r(X, r, strict)


def _count_classify(monkeypatch):
    """Count classifications: calls of sl2._classify, which classify wraps and
    Orbit.of calls for the label and s = -det together, wherever a germlab
    module binds it."""
    calls = []
    real = sl2._classify

    def counting(X):
        calls.append(X)
        return real(X)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "germlab" or name.startswith("germlab.")):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_depth_makes_no_classify_call(monkeypatch):
    calls = _count_classify(monkeypatch)
    for X in (M(5, 0, 0), M(0, 1, 5), M(0, 1, 0), M(0, 0, 0)):
        depth(X)
        in_g_nil_r(X, 1)
    assert calls == []


def test_verify_claim_classifies_each_x_once(monkeypatch):
    # at p=5, r=0 the grid's 10 elliptic representatives classify once each
    # to check their tags, and each of its 15 X once, for its Orbit, whose
    # label also gives the torus kind: 25 calls.  A separate classify for the
    # torus label made 40, and a depth that classified added one call per X
    # in the grid filter and one in the report rows, 70 in all
    calls = _count_classify(monkeypatch)
    verify_claim(0, GermBasis(default_pool(CFG, 0)), _standard_grid(CFG, 0, 0, False))
    assert len(calls) == 25


class TestGroupElement:
    def test_determinant_must_be_one(self):
        with pytest.raises(ValueError):
            GroupElement(CFG, [[2, 0], [0, 1]])

    def test_float_entry_raises(self):
        # 0.5 * 2.0 has determinant exactly 1, yet floats are refused
        with pytest.raises(TypeError):
            GroupElement(CFG, [[0.5, 0], [0, 2.0]])


class TestAd:
    def test_identity(self):
        X = M(1, 2, 3)
        assert ad(GroupElement.identity(CFG), X) == X

    def test_det_preserved(self):
        rng = random.Random(27)
        for _ in range(100):
            X = M(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            g = random_sl2(CFG, rng)
            assert ad(g, X).det() == X.det()


class TestRepresentatives:
    def test_nilpotent_reps(self):
        X = rep_nilpotent(CFG, REG_PI)
        assert X.b == 5
        assert classify(X) == REG_PI
        assert rep_nilpotent(CFG, ZERO_ORBIT).is_zero_elt()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_nilpotent_reps_classify_to_their_label(self, p):
        cfg = FieldConfig(p)
        for om in ALL_ORBITS:
            assert classify(rep_nilpotent(cfg, om)) == om

    def test_elliptic_reps_roundtrip(self):
        for s in (2, 5, 10, 2 * 25, 125):
            for tag in (True, False):
                X = rep_elliptic(CFG, s, tag=tag)
                k = classify(X)
                assert k.tag is tag
                assert -X.det() == s

    @pytest.mark.parametrize("p, eps", [(23, 5), (71, 7)])
    def test_eps_past_three(self, p, eps):
        # 2 and 3 are squares mod 23 and mod 71, so eps is neither of the two
        # values every prime 3..13 gets; the squares come from squaring, not
        # from the Legendre symbol eps is found with
        cfg = FieldConfig(p)
        squares = {x * x % p for x in range(1, p)}
        assert cfg.eps == min(u for u in range(1, p) if u not in squares) == eps
        for s in (cfg.eps, p, cfg.eps * p):
            cls = square_class_of_rational(s, p)
            for tag in (True, False):
                X = rep_elliptic(cfg, s, tag=tag)
                assert -X.det() == s
                assert classify(X) == OrbitLabel("elliptic", ext=cls, tag=tag)

    def test_elliptic_rejects_square(self):
        with pytest.raises(SpecMismatch):
            rep_elliptic(CFG, 4)

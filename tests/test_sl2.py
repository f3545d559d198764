import random
from fractions import Fraction

import pytest

from germlab import (DEEP, FieldConfig, GroupElement, OutsideDomain,
                     REG_EPS, REG_EPSPI, REG_ONE, REG_PI, Sl2Element,
                     SpecMismatch, SquareClass, ZERO_ORBIT, ad, cayley,
                     cayley_inv, classify, depth, in_g_nil_r, in_g_r,
                     is_top_nilpotent, random_sl2, rep_elliptic,
                     rep_nilpotent, rep_split, standard_representative)
from germlab.padic import val_p
from germlab.sl2 import ALL_ORBITS, DIM_NILPOTENT_CONE
from germlab.tree import BASE, depth_via_tree

CFG = FieldConfig(5)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


class TestClassify:
    def test_upper_nilpotent(self):
        k = classify(M(0, 1, 0))
        assert k.kind == "nilpotent" and k.label == REG_ONE

    def test_lower_nilpotent_minus_one_square(self):
        # -c = -1 is a square in Q5 (5 = 1 mod 4)
        k = classify(M(0, 0, 1))
        assert k.kind == "nilpotent" and k.label == REG_ONE

    def test_split_diag(self):
        k = classify(M(1, 0, 0))
        assert k.is_regular and k.is_split

    def test_unramified(self):
        k = classify(M(0, 1, 2))
        assert k.is_regular and not k.is_split
        assert not k.torus.ramified and k.ss_tag is True

    def test_zero(self):
        assert classify(M(0, 0, 0)).kind == "zero"

    def test_orbit_labels_enumerate(self):
        assert len(ALL_ORBITS) == 5
        assert {om.dim for om in ALL_ORBITS} == {0, 2}
        assert all(DIM_NILPOTENT_CONE - om.dim in (0, 2) for om in ALL_ORBITS)

    def test_tags_ad_invariant(self):
        rng = random.Random(21)
        samples = [M(0, 1, 0), M(0, 2, 0), M(0, 5, 0), M(0, 10, 0),
                   M(1, 0, 0), M(0, 1, 2), M(0, 1, 5), M(0, 2, 5)]
        for X in samples:
            k0 = classify(X)
            for _ in range(100):
                g = random_sl2(CFG, rng)
                k = classify(ad(g, X))
                assert k.kind == k0.kind
                assert k.label == k0.label
                assert k.torus == k0.torus
                assert k.ss_tag == k0.ss_tag

    def test_nilpotent_partition(self):
        rng = random.Random(22)
        seen = set()
        for _ in range(200):
            lam = rng.choice([1, 2, 5, 10, 3, 8, 20, 45])
            X = ad(random_sl2(CFG, rng), M(0, lam, 0))
            k = classify(X)
            assert k.kind == "nilpotent"
            seen.add(k.label)
        assert len(seen) == 4


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
        assert depth(M(0, 1, 0)) is DEEP
        assert DEEP > Fraction(10**9)

    def test_in_g_r(self):
        assert in_g_r(M(5, 0, 0), 1)
        assert not in_g_r(M(1, 0, 0), 1)
        assert in_g_r(M(1, 0, 0), 0)
        assert not in_g_r(M(5, 0, 0), 1, strict=True)
        assert in_g_r(M(0, 1, 0), 10**6)

    def test_g_nil_cut(self):
        assert not in_g_nil_r(M(1, 0, 0), 0)     # depth 0 but not nilpotent
        assert in_g_nil_r(M(0, 1, 5), 0)         # depth 1/2
        assert in_g_nil_r(M(5, 0, 0), 1)


class TestTopNilpotent:
    def test_examples(self):
        assert is_top_nilpotent(M(5, 0, 0))
        assert not is_top_nilpotent(M(1, 0, 0))
        assert is_top_nilpotent(M(0, 1, 0))


class TestCayley:
    def test_zero_to_identity(self):
        g = cayley(M(0, 0, 0))
        assert g == GroupElement.identity(CFG)

    def test_diagonal_formula(self):
        u = Fraction(5)
        g = cayley(M(u, 0, 0))
        want = (1 + u / 2) / (1 - u / 2)
        assert g.entry(0, 0) == want
        assert g.entry(1, 1) == 1 / want

    def test_det_one_and_roundtrip(self):
        rng = random.Random(24)
        for _ in range(100):
            X = ad(random_sl2(CFG, rng),
                   M(5 * rng.randint(1, 4), 5 * rng.randint(0, 4), 5 * rng.randint(0, 4)))
            if not is_top_nilpotent(X):
                continue
            g = cayley(X)
            assert g.det() == 1
            back = cayley_inv(g)
            assert back == X

    def test_equivariance(self):
        rng = random.Random(25)
        for _ in range(100):
            X = M(5, 5 * rng.randint(0, 4), 5 * rng.randint(0, 4))
            g = random_sl2(CFG, rng)
            lhs = cayley(ad(g, X))
            rhs_m = g @ cayley(X) @ g.inverse()
            assert lhs == rhs_m

    def test_depth_shadow_congruence(self):
        # integral X in p^r sl2(O) maps to a group element congruent to 1 mod p^r
        rng = random.Random(26)
        for r in (1, 2):
            for _ in range(20):
                X = M(5**r * rng.randint(0, 4), 5**r * rng.randint(0, 4),
                      5**r * rng.randint(1, 4))
                if X.is_zero_elt() or not is_top_nilpotent(X):
                    continue
                g = cayley(X)
                one = GroupElement.identity(CFG)
                for i in range(2):
                    for j in range(2):
                        d = g.entry(i, j) - one.entry(i, j)
                        assert d == 0 or val_p(d, 5) >= r

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            cayley(M(1, 0, 0))

    def test_inverse_outside_domain(self):
        # trace 5/2: tr - 2 = 1/2 is a unit, so g is not topologically unipotent
        g = GroupElement.from_rationals(CFG, [[2, 0], [0, Fraction(1, 2)]])
        with pytest.raises(OutsideDomain):
            cayley_inv(g)


class TestGroupElement:
    def test_determinant_must_be_one(self):
        with pytest.raises(ValueError):
            GroupElement.from_rationals(CFG, [[2, 0], [0, 1]])

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
        assert classify(X).label == REG_PI
        assert rep_nilpotent(CFG, ZERO_ORBIT).is_zero_elt()

    def test_split_rep(self):
        X = rep_split(CFG, 1)
        assert classify(X).is_split
        with pytest.raises(SpecMismatch):
            rep_split(CFG, 0)

    def test_elliptic_reps_roundtrip(self):
        for s in (2, 5, 10, 2 * 25, 125):
            for tag in (True, False):
                X = rep_elliptic(CFG, s, tag=tag)
                k = classify(X)
                assert k.ss_tag is tag
                assert -X.det() == s

    def test_elliptic_rejects_square(self):
        with pytest.raises(SpecMismatch):
            rep_elliptic(CFG, 4)

    def test_dispatch(self):
        assert standard_representative(CFG, REG_PI).b == 5
        assert classify(standard_representative(CFG, ("split", 2))).is_split
        assert standard_representative(CFG, ("elliptic", 2, True)).b == 1
        with pytest.raises(SpecMismatch):
            standard_representative(CFG, "bogus")

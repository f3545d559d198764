import random
from fractions import Fraction

import pytest

from germlab import (DivisionByZero, FieldConfig, InsufficientPrecision,
                     PadicScalar, QuadExtDescriptor, SquareClass, arith,
                     hilbert_symbol, is_norm, padic_sqrt, scalar_from_rational,
                     square_class, val_p, valuation)
from germlab.padic import (INF, legendre, mod_pk, square_class_of_rational,
                           unit_mod_pk)

CFG5 = FieldConfig(5)
CFG3 = FieldConfig(3)
CFG7 = FieldConfig(7)


def exact(cfg, x):
    return PadicScalar.exact(cfg, Fraction(x))


def rand_rational(rng, p, span=2):
    num = rng.randint(-200, 200)
    while num == 0:
        num = rng.randint(-200, 200)
    den = rng.randint(1, 60)
    return Fraction(num, den) * Fraction(p) ** rng.randint(-span, span)


class TestConfig:
    def test_rejects_even_and_composite(self):
        with pytest.raises(ValueError):
            FieldConfig(2)
        with pytest.raises(ValueError):
            FieldConfig(9)
        with pytest.raises(ValueError):
            FieldConfig(5, precision=3)

    def test_eps_is_smallest_nonsquare(self):
        assert CFG5.eps == 2
        assert CFG3.eps == 2
        assert CFG7.eps == 3

    def test_eps_is_searched_once(self, monkeypatch):
        from germlab import padic
        calls = []
        search = padic.smallest_nonsquare_unit
        monkeypatch.setattr(padic, "smallest_nonsquare_unit",
                            lambda p: calls.append(p) or search(p))
        cfg = FieldConfig(11)
        assert (cfg.eps, cfg.eps) == (2, 2)
        assert calls == [11]
        assert cfg == FieldConfig(11) and hash(cfg) == hash(FieldConfig(11))

    def test_zeta_is_p(self):
        assert CFG5.zeta == 5
        assert valuation(exact(CFG5, 5)) == 1


class TestFromRational:
    def test_zero(self):
        assert scalar_from_rational(0, 1, CFG5).is_zero

    def test_p_has_valuation_one(self):
        x = scalar_from_rational(5, 1, CFG5)
        assert valuation(x) == 1
        assert x.digits()[0] == 1

    def test_inverse_p(self):
        assert valuation(scalar_from_rational(1, 5, CFG5)) == -1

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            scalar_from_rational(1, 0, CFG5)


class TestArith:
    def test_exact_cancellation_gives_exact_zero(self):
        z = arith(exact(CFG5, 1), exact(CFG5, -1), "add")
        assert z.is_zero

    def test_mul_valuations_add(self):
        x = arith(exact(CFG5, 5), exact(CFG5, 5), "mul")
        assert valuation(x) == 2

    def test_cancelling_all_digits_raises(self):
        a = PadicScalar.approx(CFG5, 0, 1, 3)          # 1 known to 3 digits
        b = exact(CFG5, -1 + 5**3 * 2)                 # -1 + p^3 u
        with pytest.raises(InsufficientPrecision):
            arith(a, b, "add")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            arith(exact(CFG5, 1), PadicScalar.zero(CFG5), "div")

    def test_random_exact_arith_matches_fractions(self):
        rng = random.Random(11)
        for _ in range(300):
            x, y = rand_rational(rng, 5), rand_rational(rng, 5)
            for op, fn in (("add", lambda a, b: a + b), ("sub", lambda a, b: a - b),
                           ("mul", lambda a, b: a * b), ("div", lambda a, b: a / b)):
                got = arith(exact(CFG5, x), exact(CFG5, y), op)
                assert got.exact_value() == fn(x, y)

    def test_approx_coset_contains_true_value(self):
        # exact-rational shadow: the represented coset of each approximate
        # result contains the exact rational result
        rng = random.Random(12)
        p = 5
        for _ in range(300):
            x, y = rand_rational(rng, p), rand_rational(rng, p)
            xa = PadicScalar.approx(CFG5, int(val_p(x, p)), unit_mod_pk(x, p, 6), 6)
            ya = PadicScalar.approx(CFG5, int(val_p(y, p)), unit_mod_pk(y, p, 6), 6)
            for op, fn in (("add", lambda a, b: a + b), ("mul", lambda a, b: a * b),
                           ("div", lambda a, b: a / b)):
                try:
                    got = arith(xa, ya, op)
                except InsufficientPrecision:
                    continue
                true = fn(x, y)
                diff = true - got._rep()
                assert diff == 0 or val_p(diff, p) >= got._window_end()

    def test_valuation_of_zero_is_infinite(self):
        assert valuation(PadicScalar.zero(CFG5)) == INF

    def test_approx_rejects_a_non_unit(self):
        with pytest.raises(ValueError):
            PadicScalar.approx(CFG5, 0, 5, 3)


class TestSquareClass:
    def test_examples(self):
        assert square_class(exact(CFG5, 4)) == SquareClass.ONE
        assert square_class(exact(CFG5, 5)) == SquareClass.PI
        # 2 is a nonsquare unit mod 5: squares of units mod 5 are {1, 4}
        assert square_class(exact(CFG5, 2)) == SquareClass.EPS

    def test_minus_one_is_square_mod_5(self):
        assert square_class(exact(CFG5, -1)) == SquareClass.ONE

    def test_requires_two_digits(self):
        x = PadicScalar.approx(CFG5, 0, 2, 1)
        with pytest.raises(InsufficientPrecision):
            square_class(x)

    def test_klein_four_product_law(self):
        rng = random.Random(13)
        for _ in range(1000):
            x, y = rand_rational(rng, 5), rand_rational(rng, 5)
            cx = square_class(exact(CFG5, x))
            cy = square_class(exact(CFG5, y))
            assert square_class(exact(CFG5, x * y)) == cx * cy


class TestSqrt:
    def test_perfect_square_canonical_branch(self):
        r = padic_sqrt(exact(CFG5, 4))
        assert r.exact_value() == 2  # leading digit 2 <= (p-1)/2

    def test_exact_non_rational_square_gets_hensel_root(self):
        # -4 is a square in Q5 but not in Q: the root is a Hensel lift
        x = exact(CFG5, -4)
        r = padic_sqrt(x)
        assert not r.is_exact
        assert (r * r).agrees_with(x)

    def test_odd_valuation_has_no_root(self):
        assert padic_sqrt(exact(CFG5, 5)) is None

    def test_hensel_root_squares_back(self):
        x = exact(CFG5, 6)
        r = padic_sqrt(x)
        sq = r * r
        assert sq.agrees_with(x)

    def test_random_roots_square_back(self):
        rng = random.Random(14)
        hits = 0
        for _ in range(400):
            x = rand_rational(rng, 5)
            xe = exact(CFG5, x)
            r = padic_sqrt(xe)
            if r is None:
                assert square_class(xe) != SquareClass.ONE
                continue
            hits += 1
            assert (r * r).agrees_with(xe)
            assert 1 <= r.digits()[0] <= 2
        assert hits > 50


def _norm_witness(d: Fraction, x: Fraction, p: int, k: int = 5) -> bool:
    """Independent oracle: search a nondegenerate solution of a^2 - d b^2 = x
    modulo p^k over a digit grid (smooth solutions lift, so this decides)."""
    vx = val_p(x, p)
    shift = -int(vx) // 2 + 1
    m = p ** (k + 2 * shift)
    scale = Fraction(p) ** (-shift)
    vals = [i * scale for i in range(p ** (k + shift))]
    target_den = (x * Fraction(p) ** (2 * shift))
    tnum = int(target_den) if target_den.denominator == 1 else None
    if tnum is None:
        return False
    dd = int(d) if d.denominator == 1 else None
    for ia in range(p ** ((k + 2 * shift) // 2 + 1)):
        a2 = ia * ia % m
        rest = (a2 - tnum) % m
        # need d*b^2 == rest mod m with the pair not both divisible by p^big
        for ib in range(p ** ((k + 2 * shift) // 2 + 1)):
            if (dd * ib * ib - rest) % m == 0:
                if ia % p != 0 or ib % p != 0 or tnum % p == 0:
                    return True
    return False


class TestIsNorm:
    def test_squares_are_norms(self):
        rng = random.Random(15)
        for cls in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI):
            ext = QuadExtDescriptor(cls)
            for _ in range(50):
                x = rand_rational(rng, 5)
                assert is_norm(ext, exact(CFG5, x * x))

    def test_unramified_norms_are_even_valuation(self):
        ext = QuadExtDescriptor(SquareClass.EPS)
        assert not is_norm(ext, exact(CFG5, 5))
        assert is_norm(ext, exact(CFG5, 3))
        assert is_norm(ext, exact(CFG5, 25))

    def test_ramified_hilbert_example(self):
        # (5, 2)_5 = legendre(2|5) = -1, so 2 is not a norm from Q5(sqrt 5)
        assert hilbert_symbol(5, 2, 5) == -1
        ext = QuadExtDescriptor(SquareClass.PI)
        assert not is_norm(ext, exact(CFG5, 2))

    @pytest.mark.parametrize("x", [2, 3, 4, -1, 5, 10, 15, 6])
    def test_ramified_pi_against_witness_search(self, x):
        ext = QuadExtDescriptor(SquareClass.PI)
        got = is_norm(ext, exact(CFG5, x))
        assert got == _norm_witness(Fraction(5), Fraction(x), 5)

    def test_norm_subgroup_index_two(self):
        rng = random.Random(16)
        for cls in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI):
            ext = QuadExtDescriptor(cls)
            for _ in range(1000):
                x, y = rand_rational(rng, 5), rand_rational(rng, 5)
                lhs = is_norm(ext, exact(CFG5, x * y))
                assert lhs == (is_norm(ext, exact(CFG5, x))
                               == is_norm(ext, exact(CFG5, y)))


class TestRationalHelpers:
    """The Fraction helpers that `classify` reads agree with PadicScalar."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_agree_with_scalar_predicates(self, p):
        cfg = FieldConfig(p)
        exts = [QuadExtDescriptor(c)
                for c in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI)]
        for den in (1, p, p * p, 2, 3 * p):
            for num in range(-60, 61):
                if num == 0:
                    continue
                x = Fraction(num, den)
                assert square_class_of_rational(x, p) == exact(cfg, x).square_class()
                for ext in exts:
                    assert ext.is_norm_rational(x, cfg) == exact(cfg, x).is_norm(ext)


class TestSerialization:
    def test_format(self):
        x = exact(FieldConfig(5, precision=4), Fraction(5))
        s = x.serialize()
        assert s.startswith("5^1 * (1")
        assert s.endswith("mod 5^5")

    def test_mod_pk_canonical(self):
        assert mod_pk(Fraction(7), 5, 1) == 2
        assert mod_pk(Fraction(1, 5), 5, 0) == Fraction(1, 5)
        assert mod_pk(Fraction(26, 5), 5, 1) == Fraction(1, 5)
        assert mod_pk(Fraction(6, 5), 5, 1) == Fraction(6, 5)
        assert mod_pk(Fraction(25), 5, 2) == 0

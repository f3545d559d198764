import random
from fractions import Fraction

import pytest

from germlab import FieldConfig, QuadExtDescriptor, SquareClass, hilbert_symbol, val_p
from germlab.padic import (INF, hensel_sqrt, leading_digit, mod_pk, rational_sqrt,
                           square_class_of_rational)

CFG5 = FieldConfig(5)
CFG3 = FieldConfig(3)
CFG7 = FieldConfig(7)
EXTS = [QuadExtDescriptor(c) for c in (SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI)]


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
        assert val_p(CFG5.zeta, 5) == 1


class TestFromRational:
    """Valuation and leading digit read off a rational."""

    def test_p_has_valuation_one(self):
        assert val_p(5, 5) == 1
        assert leading_digit(5, 5) == 1

    def test_inverse_p(self):
        assert val_p(Fraction(1, 5), 5) == -1


class TestArith:
    """The valuation of a product and of zero."""

    def test_mul_valuations_add(self):
        assert val_p(5 * 5, 5) == 2
        rng = random.Random(11)
        for _ in range(300):
            x, y = rand_rational(rng, 5), rand_rational(rng, 5)
            assert val_p(x * y, 5) == val_p(x, 5) + val_p(y, 5)

    def test_valuation_of_zero_is_infinite(self):
        assert val_p(0, 5) == INF
        assert val_p(Fraction(0), 7) == INF


class TestSquareClass:
    def test_examples(self):
        assert square_class_of_rational(4, 5) == SquareClass.ONE
        assert square_class_of_rational(5, 5) == SquareClass.PI
        # 2 is a nonsquare unit mod 5: squares of units mod 5 are {1, 4}
        assert square_class_of_rational(2, 5) == SquareClass.EPS

    def test_minus_one_is_square_mod_5(self):
        assert square_class_of_rational(-1, 5) == SquareClass.ONE

    def test_klein_four_product_law(self):
        rng = random.Random(13)
        for _ in range(1000):
            x, y = rand_rational(rng, 5), rand_rational(rng, 5)
            cx = square_class_of_rational(x, 5)
            cy = square_class_of_rational(y, 5)
            assert square_class_of_rational(x * y, 5) == cx * cy


class TestSqrt:
    """hensel_sqrt(u, p, k): r^2 = u mod p^k with r mod p in 1..(p-1)/2."""

    @staticmethod
    def check_root(u, p, k):
        r = hensel_sqrt(u, p, k)
        assert 0 <= r < p**k
        assert (r * r - u) % p**k == 0
        assert 1 <= r % p <= (p - 1) // 2
        return r

    def test_perfect_square_canonical_branch(self):
        assert rational_sqrt(Fraction(4)) == 2
        for k in range(1, 9):
            assert self.check_root(4, 5, k) == 2   # leading digit 2 <= (p-1)/2

    def test_exact_non_rational_square_gets_hensel_root(self):
        # -4 is a square in Q5 but not in Q: the root is a Hensel lift
        assert rational_sqrt(Fraction(-4)) is None
        for k in range(1, 9):
            self.check_root(-4, 5, k)

    def test_odd_valuation_has_no_root(self):
        for x in (5, 10, Fraction(5, 4), Fraction(-1, 5), 125):
            assert square_class_of_rational(x, 5).parity == 1
        # and a unit that is not a square mod p has no Hensel root
        with pytest.raises(ValueError):
            hensel_sqrt(2, 5, 3)

    def test_hensel_root_squares_back(self):
        # every unit mod p^2 whose residue is a square mod p, lifted to k <= 8
        for p in (3, 5, 7, 11):
            squares = {y * y % p for y in range(1, p)}
            for u in range(1, p * p):
                if u % p in squares:
                    for k in range(1, 9):
                        self.check_root(u, p, k)

    def test_random_roots_square_back(self):
        # a unit square has exactly the two roots +-y; the canonical one is found
        rng = random.Random(14)
        for _ in range(400):
            p = rng.choice((3, 5, 7, 11))
            k = rng.randint(1, 8)
            m = p**k
            y = rng.randrange(1, m)
            if y % p == 0:
                continue
            r = self.check_root(y * y % m, p, k)
            assert r in (y, m - y)


def _norm_witness(d: int, x: Fraction, p: int) -> bool:
    """Independent oracle: is x = a^2 - d b^2 solvable in Q_p (v(d) <= 1)?

    Norms form a group that holds the squares, so x is scaled by its
    denominator squared and by p^-2 until it is an integer n of valuation 0
    or 1.  Such an n has only integral solutions, and each has a partial
    derivative 2a or 2db of valuation at most 1.  By Hensel's lemma n is a
    norm iff a, b mod p^3 solve it mod p^3 with v(a) <= 1 or v(db) <= 1.
    """
    n = int(x * x.denominator ** 2)
    while n % (p * p) == 0:
        n //= p * p
    m = p**3
    any_b, smooth_b = set(), set()
    for b in range(m):
        t = d * b * b % m
        any_b.add(t)
        if d * b % (p * p):
            smooth_b.add(t)
    return any((a * a - n) % m in (any_b if a % (p * p) else smooth_b)
               for a in range(m))


def _square_class_brute(x: Fraction, p: int, unit_squares: set) -> SquareClass:
    """Independent oracle: scale x by its denominator squared, strip the
    powers of p and look the unit up among the unit squares mod p^3."""
    n = int(x * x.denominator ** 2)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    square = n % p**3 in unit_squares
    return {(0, True): SquareClass.ONE, (0, False): SquareClass.EPS,
            (1, True): SquareClass.PI, (1, False): SquareClass.EPSPI}[(v % 2, square)]


class TestIsNorm:
    def test_squares_are_norms(self):
        rng = random.Random(15)
        for ext in EXTS:
            for _ in range(50):
                x = rand_rational(rng, 5)
                assert ext.is_norm_rational(x * x, CFG5)

    def test_unramified_norms_are_even_valuation(self):
        ext = QuadExtDescriptor(SquareClass.EPS)
        assert not ext.is_norm_rational(5, CFG5)
        assert ext.is_norm_rational(3, CFG5)
        assert ext.is_norm_rational(25, CFG5)

    def test_ramified_hilbert_example(self):
        # (5, 2)_5 = legendre(2|5) = -1, so 2 is not a norm from Q5(sqrt 5)
        assert hilbert_symbol(5, 2, 5) == -1
        ext = QuadExtDescriptor(SquareClass.PI)
        assert not ext.is_norm_rational(2, CFG5)

    @pytest.mark.parametrize("x", [2, 3, 4, -1, 5, 10, 15, 6])
    def test_ramified_pi_against_witness_search(self, x):
        ext = QuadExtDescriptor(SquareClass.PI)
        assert ext.is_norm_rational(x, CFG5) == _norm_witness(5, Fraction(x), 5)

    def test_norm_subgroup_index_two(self):
        rng = random.Random(16)
        for ext in EXTS:
            for _ in range(1000):
                x, y = rand_rational(rng, 5), rand_rational(rng, 5)
                lhs = ext.is_norm_rational(x * y, CFG5)
                assert lhs == (ext.is_norm_rational(x, CFG5)
                               == ext.is_norm_rational(y, CFG5))


class TestRationalHelpers:
    """The Fraction helpers that `classify` reads agree with brute force
    that shares no logic with `legendre` or `hilbert_symbol`."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_agree_with_scalar_predicates(self, p):
        cfg = FieldConfig(p)
        unit_squares = {y * y % p**3 for y in range(p**3) if y % p}
        discs = [int(ext.disc_rep(cfg)) for ext in EXTS]
        for den in (1, p, p * p, 2, 3 * p):
            for num in range(-60, 61):
                if num == 0:
                    continue
                x = Fraction(num, den)
                assert square_class_of_rational(x, p) == _square_class_brute(
                    x, p, unit_squares)
                for ext, d in zip(EXTS, discs):
                    assert ext.is_norm_rational(x, cfg) == _norm_witness(d, x, p)


class TestSerialization:
    def test_mod_pk_canonical(self):
        assert mod_pk(Fraction(7), 5, 1) == 2
        assert mod_pk(Fraction(1, 5), 5, 0) == Fraction(1, 5)
        assert mod_pk(Fraction(26, 5), 5, 1) == Fraction(1, 5)
        assert mod_pk(Fraction(6, 5), 5, 1) == Fraction(6, 5)
        assert mod_pk(Fraction(25), 5, 2) == 0

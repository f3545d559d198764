import math
import random
from fractions import Fraction

import pytest

from germlab import FieldConfig, SquareClass, hilbert_symbol, padic, val_p
from germlab.padic import (INF, hensel_sqrt, leading_digit, mod_pk,
                           square_class_of_rational, unit_mod_pk)

CFG5 = FieldConfig(5)
CFG3 = FieldConfig(3)
CFG7 = FieldConfig(7)
EXTS = [SquareClass.EPS, SquareClass.PI, SquareClass.EPSPI]   # Q_p(sqrt c), c != ONE


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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_klein_four_product_law(self, p):
        rng = random.Random(13)
        for _ in range(1000):
            x, y = rand_rational(rng, p), rand_rational(rng, p)
            cx = square_class_of_rational(x, p)
            cy = square_class_of_rational(y, p)
            assert square_class_of_rational(x * y, p) == cx * cy

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_representatives_read_back(self, p):
        cfg = FieldConfig(p)
        for c in SquareClass:
            assert square_class_of_rational(c.representative(cfg), p) is c

    def test_values_are_the_report_names(self):
        # labels, torus kinds and basis names print these strings
        assert [c.value for c in SquareClass] == ["One", "Eps", "Pi", "EpsPi"]

    def test_a_class_read_takes_one_valuation(self, monkeypatch):
        calls = []

        def counting_val_p(x, p):
            calls.append(x)
            return val_p(x, p)

        monkeypatch.setattr(padic, "val_p", counting_val_p)
        for x in (Fraction(-3, 50), 10, Fraction(7, 125)):
            calls.clear()
            square_class_of_rational(x, 5)
            assert calls == [x]


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
        assert square_class_of_rational(4, 5) == SquareClass.ONE
        for k in range(1, 9):
            assert self.check_root(4, 5, k) == 2   # leading digit 2 <= (p-1)/2

    def test_exact_non_rational_square_gets_hensel_root(self):
        # -4 is a square in Q5 but not in Q (it is negative): the root is a
        # Hensel lift
        assert square_class_of_rational(-4, 5) == SquareClass.ONE
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


def _scan_sqrt(u: int, p: int, k: int) -> int:
    """Oracle: the start root by scanning d = 1 .. (p-1)/2 for d^2 = u mod p,
    then the same Newton lift as hensel_sqrt."""
    r = next((d for d in range(1, (p - 1) // 2 + 1) if (d * d - u) % p == 0), None)
    if r is None:
        raise ValueError("not a square mod p")
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        r = (r + u % m * pow(r, -1, m)) * pow(2, -1, m) % m
    return r


class TestStartRoot:
    """hensel_sqrt finds its start root in O(log p): the same roots as the
    linear scan, and canonical at primes the scan cannot reach."""

    ODD_PRIMES = [p for p in range(3, 62) if all(p % d for d in range(2, p))]

    def test_every_unit_equals_the_scan(self):
        assert len(self.ODD_PRIMES) == 17 and 61 in self.ODD_PRIMES
        for p in self.ODD_PRIMES:
            for u in range(1, p * p):
                if u % p == 0:
                    continue
                for k in range(1, 5):
                    try:
                        want = _scan_sqrt(u, p, k)
                    except ValueError:
                        with pytest.raises(ValueError, match="not a square mod p"):
                            hensel_sqrt(u, p, k)
                        continue
                    assert hensel_sqrt(u, p, k) == want, (u, p, k)

    @pytest.mark.parametrize("p", [10007, 100003, 10037, 10009, 65537])
    def test_large_primes(self, p):
        # 10007 and 100003 are 3 mod 4 (one pow); 10037 = 5 mod 8,
        # 10009 = 1 mod 8 and 65537 = 1 + 2^16 run the Tonelli-Shanks loop
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        rng = random.Random(p)
        for _ in range(100):
            k = rng.randint(1, 6)
            y = rng.randrange(1, p**k)
            if y % p == 0:
                continue
            u = y * y % p**k
            r = hensel_sqrt(u, p, k)
            assert (r * r - u) % p**k == 0
            assert 1 <= r % p <= (p - 1) // 2


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


def is_norm(ext: SquareClass, x, p: int) -> bool:
    """Whether x is a norm from Q_p(sqrt ext): the pairing (ext, [x])_p is 1."""
    return ext.hilbert(square_class_of_rational(x, p), p) == 1


class TestIsNorm:
    def test_squares_are_norms(self):
        rng = random.Random(15)
        for ext in EXTS:
            for _ in range(50):
                x = rand_rational(rng, 5)
                assert is_norm(ext, x * x, 5)

    def test_unramified_norms_are_even_valuation(self):
        assert not is_norm(SquareClass.EPS, 5, 5)
        assert is_norm(SquareClass.EPS, 3, 5)
        assert is_norm(SquareClass.EPS, 25, 5)

    def test_ramified_hilbert_example(self):
        # (5, 2)_5 = legendre(2|5) = -1, so 2 is not a norm from Q5(sqrt 5)
        assert hilbert_symbol(5, 2, 5) == -1
        assert not is_norm(SquareClass.PI, 2, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(0, 2, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(5, Fraction(0), 5)

    @pytest.mark.parametrize("x", [2, 3, 4, -1, 5, 10, 15, 6])
    def test_ramified_pi_against_witness_search(self, x):
        assert is_norm(SquareClass.PI, x, 5) == _norm_witness(5, Fraction(x), 5)

    def test_norm_subgroup_index_two(self):
        rng = random.Random(16)
        for ext in EXTS:
            for _ in range(1000):
                x, y = rand_rational(rng, 5), rand_rational(rng, 5)
                lhs = is_norm(ext, x * y, 5)
                assert lhs == (is_norm(ext, x, 5) == is_norm(ext, y, 5))


class TestHilbertPairing:
    """SquareClass.hilbert, read off two classes, against brute force and its
    group laws; p = 3, 7, 11 are 3 mod 4 and p = 5, 13 are 1 mod 4."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_all_pairs_against_witness_search(self, p):
        cfg = FieldConfig(p)
        for c in SquareClass:
            for d in SquareClass:
                norm = _norm_witness(int(c.representative(cfg)), d.representative(cfg), p)
                assert c.hilbert(d, p) == (1 if norm else -1), (c, d)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_symmetric_and_bimultiplicative(self, p):
        for c in SquareClass:
            for d in SquareClass:
                assert c.hilbert(d, p) == d.hilbert(c, p)
                for e in SquareClass:
                    assert (c * d).hilbert(e, p) == c.hilbert(e, p) * d.hilbert(e, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_norms_are_two_classes_with_one_and_minus_disc(self, p):
        # N(x + y sqrt D) = x^2 - D y^2 takes the values 1 and -D, and the
        # norms have index 2; when -D is a square (D = EPS at p = 3 mod 4)
        # the norm classes are ONE and EPS, the even valuations
        minus_one = square_class_of_rational(-1, p)
        for ext in EXTS:
            norms = {c for c in SquareClass if ext.hilbert(c, p) == 1}
            assert len(norms) == 2 and {SquareClass.ONE, minus_one * ext} <= norms, ext


class TestRationalHelpers:
    """The class helpers that `classify` reads agree with brute force
    that shares no logic with `legendre` or the Hilbert pairing."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_agree_with_scalar_predicates(self, p):
        cfg = FieldConfig(p)
        unit_squares = {y * y % p**3 for y in range(p**3) if y % p}
        discs = [int(ext.representative(cfg)) for ext in EXTS]
        for den in (1, p, p * p, 2, 3 * p):
            for num in range(-60, 61):
                if num == 0:
                    continue
                x = Fraction(num, den)
                assert square_class_of_rational(x, p) == _square_class_brute(
                    x, p, unit_squares)
                for ext, d in zip(EXTS, discs):
                    assert is_norm(ext, x, p) == _norm_witness(d, x, p)


class TestSerialization:
    def test_mod_pk_canonical(self):
        assert mod_pk(Fraction(7), 5, 1) == 2
        assert mod_pk(Fraction(1, 5), 5, 0) == Fraction(1, 5)
        assert mod_pk(Fraction(26, 5), 5, 1) == Fraction(1, 5)
        assert mod_pk(Fraction(6, 5), 5, 1) == Fraction(6, 5)
        assert mod_pk(Fraction(25), 5, 2) == 0


def _random_numbers(rng, p, count):
    """Seeded ints and Fractions: negative, p-power and non-p denominators, zero."""
    out = [0, Fraction(0)]
    for _ in range(count):
        num = rng.randint(-10**6, 10**6) * p ** rng.randint(0, 4)
        if rng.random() < 0.3:
            out.append(num)
        else:
            out.append(Fraction(num, rng.choice((1, 2, 7, 10)) * p ** rng.randint(0, 4)))
    return out


class TestValuationAndReduction:
    """val_p and mod_pk read .numerator and .denominator only; their
    defining properties, checked with plain int arithmetic."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_val_p_is_the_exact_power(self, p):
        for x in _random_numbers(random.Random(40 + p), p, 300):
            v = val_p(x, p)
            if x == 0:
                assert v == INF
                continue
            y = Fraction(x) / Fraction(p) ** v
            assert y.numerator % p and y.denominator % p, (x, v)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_mod_pk_is_the_canonical_residue(self, p):
        rng = random.Random(50 + p)
        for x in _random_numbers(rng, p, 300):
            for k in (rng.randint(-3, 6), rng.randint(-3, 6)):
                r = mod_pk(x, p, k)
                # an int exactly when the residue is integral
                assert type(r) is (int if r.denominator == 1 else Fraction), (x, k, r)
                pj = r.denominator
                j = 0
                while pj % p == 0:
                    pj //= p
                    j += 1
                assert pj == 1, (x, k, r)
                assert 0 <= r * p**j < p ** (k + j), (x, k, r)
                assert val_p(Fraction(x) - r, p) >= k, (x, k, r)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_int_and_fraction_inputs_agree(self, p):
        rng = random.Random(60 + p)
        for _ in range(300):
            n = rng.choice((0, rng.randint(-10**6, 10**6) * p ** rng.randint(0, 4)))
            assert val_p(n, p) == val_p(Fraction(n), p)
            for k in range(-2, 5):
                assert mod_pk(n, p, k) == mod_pk(Fraction(n), p, k)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_unit_mod_pk_is_the_unit_residue(self, p):
        rng = random.Random(70 + p)
        for x in _random_numbers(rng, p, 300)[2:]:
            v = val_p(x, p)
            for k in (1, rng.randint(2, 6)):
                u = unit_mod_pk(x, p, k)
                assert 0 < u < p**k and u % p, (x, k, u)
                assert val_p(Fraction(x) - u * Fraction(p) ** v, p) >= v + k, (x, k, u)
                assert unit_mod_pk(Fraction(x), p, k) == u

import functools
import math
import random
from fractions import Fraction

import pytest

from germlab import (BallTooSmall, FieldConfig, GroupElement,
                     Sl2Element, ad, ball, depth_via_tree, distance,
                     indicator_lattice, make_vertex, neighbors,
                     random_sl2, rep_elliptic, ss_orbital, tree_count_oracle)
from germlab.orbital import tree_oracle_cases, tree_oracle_compare
from germlab.padic import INF, ratio, val_p
from germlab.sl2 import classify, random_conjugate
from germlab.tree import (BASE, _Chart, _lattice_class, act, ad_to_base, basis_matrix,
                          cartan, min_level)

CFG = FieldConfig(5)


def M(a, b, c, cfg=CFG):
    return Sl2Element.from_rationals(cfg, a, b, c)


class TestNeighbors:
    def test_count(self):
        assert len(neighbors(CFG, BASE)) == 6

    def test_base_neighbors_include_apartment_steps(self):
        ns = set(neighbors(CFG, BASE))
        assert make_vertex(CFG, 1, 0) in ns
        assert make_vertex(CFG, -1, 0) in ns

    def test_symmetry(self):
        rng = random.Random(31)
        vs = ball(CFG, BASE, 3)
        for _ in range(100):
            v = rng.choice(vs)
            for w in neighbors(CFG, v):
                assert v in neighbors(CFG, w)


class TestBall:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("R", [0, 1, 2, 3, 4])
    def test_sizes(self, p, R):
        cfg = FieldConfig(p)
        want = 1 if R == 0 else 1 + (p + 1) * (p**R - 1) // (p - 1)
        assert len(ball(cfg, BASE, R)) == want

    def test_r1_p5(self):
        assert len(ball(CFG, BASE, 1)) == 7

    def test_r2_p5(self):
        assert len(ball(CFG, BASE, 2)) == 37


class TestDistance:
    def test_neighbors_at_distance_one(self):
        for w in neighbors(CFG, BASE):
            assert distance(CFG, BASE, w) == 1

    def test_bfs_agrees(self):
        # distance formula against breadth-first layers
        layer = {BASE: 0}
        frontier = [BASE]
        for d in range(1, 4):
            nxt = []
            for v in frontier:
                for w in neighbors(CFG, v):
                    if w not in layer:
                        layer[w] = d
                        nxt.append(w)
            frontier = nxt
        for v, d in layer.items():
            assert distance(CFG, BASE, v) == d

    def test_action_preserves_distance(self):
        rng = random.Random(32)
        vs = ball(CFG, BASE, 2)
        from germlab.tree import act
        for _ in range(100):
            v, w = rng.choice(vs), rng.choice(vs)
            g = random_sl2(CFG, rng)
            assert distance(CFG, act(CFG, g, v), act(CFG, g, w)) == distance(CFG, v, w)


class TestMpLattice:
    def test_base_contains_unit(self):
        X = M(1, 0, 0)
        assert min_level(CFG, BASE, X) == 0
        assert min_level(CFG, BASE, M(0, 0, 0)) == INF

    def test_shifted_vertex_example(self):
        v = make_vertex(CFG, 1, 0)
        X = M(0, Fraction(1, 5), 5)
        assert min_level(CFG, v, X) == 0

    def test_inexact_element_raises(self):
        # matrix entries are exact rationals; a float is refused, not rounded
        with pytest.raises(TypeError):
            Sl2Element(CFG, 0.1, 0, 0)

    def test_scaling_by_zeta(self):
        v = make_vertex(CFG, 1, 0)
        X = M(1, 5, Fraction(2, 5))
        assert min_level(CFG, v, X.scale(5)) == min_level(CFG, v, X) + 1

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("m", range(-2, 4))
    def test_ad_to_base_is_conjugation_by_the_basis_matrix(self, p, m):
        # the exact product g_v^{-1} X g_v, with m < 0 as in default_pool
        cfg = FieldConfig(p)
        rng = random.Random(100 * p + m)

        def mul(g, h):
            return [[sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]

        def rat():
            return Fraction(rng.randint(-p**3, p**3), p ** rng.randint(0, 3))

        for _ in range(20):
            v = make_vertex(cfg, m, rat())
            (g00, g01), (g10, g11) = basis_matrix(cfg, v)
            # the entries follow the int rule, so they are divided with ratio
            assert all(type(t) is int or t.denominator > 1 for t in (g00, g01, g10, g11))
            det = g00 * g11 - g01 * g10
            g_inv = [[ratio(g11, det), ratio(-g01, det)], [ratio(-g10, det), ratio(g00, det)]]
            a, b, c = rat(), rat(), rat()
            (a2, b2), (c2, d2) = mul(mul(g_inv, [[a, b], [c, -a]]), basis_matrix(cfg, v))
            assert d2 == -a2
            assert ad_to_base(cfg, v, a, b, c) == (a2, b2, c2), (v, a, b, c)

    def test_act_compatibility(self):
        from germlab.tree import act
        rng = random.Random(33)
        vs = ball(CFG, BASE, 2)
        for _ in range(100):
            v = rng.choice(vs)
            g = random_sl2(CFG, rng)
            X = M(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            assert min_level(CFG, act(CFG, g, v), ad(g, X)) == min_level(CFG, v, X)


class TestCartan:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_adapted_basis_spans_the_lattice(self, p):
        # p^n t1, p^(n-d) t2, p^(n+d) t3 lie in g_{v,n} and have a unit
        # determinant; g_{v,n} has the covolume of p^n sl2(O), so they span it
        cfg = FieldConfig(p)
        for v in ball(cfg, BASE, 3):
            (t1, t2, t3), e, f = cartan(cfg, v)
            d = distance(cfg, BASE, v)
            assert e <= f and f - e == d, v
            det = (t1[0] * (t2[1] * t3[2] - t2[2] * t3[1])
                   - t1[1] * (t2[0] * t3[2] - t2[2] * t3[0])
                   + t1[2] * (t2[0] * t3[1] - t2[1] * t3[0]))
            assert val_p(Fraction(det), p) == 0, v
            for n in (0, 1):
                for k, t in ((n, t1), (n - d, t2), (n + d, t3)):
                    scaled = [Fraction(p) ** k * x for x in t]
                    assert min_level(cfg, v, M(*scaled, cfg)) >= n, (v, n, k)


class TestDepthViaTree:
    def test_examples(self):
        assert depth_via_tree(CFG, M(5, 0, 0), 2) == 1
        assert depth_via_tree(CFG, M(1, 0, 0), 3) == 0

    def test_monotone_in_R(self):
        X = M(0, 1, 2 * 25)
        vals = [depth_via_tree(CFG, X, R) for R in (0, 1, 2, 3)]
        assert vals == sorted(vals)

    def test_nilpotent_grows(self):
        X = M(0, 1, 0)
        assert depth_via_tree(CFG, X, 3) > depth_via_tree(CFG, X, 1)

    def test_floor_of_ramified_depth(self):
        X = M(0, 1, 5)  # depth 1/2
        assert depth_via_tree(CFG, X, 3) == 0


class TestCountOracle:
    """Each count runs under the lattice-test budget of _fill_and_scan, so a
    search that loses its R bound fails instead of hanging."""

    def test_split_unit_apartment(self, lattice_tests):
        # fixed set of diag(1,-1) at level 0 is the apartment; the window
        # holds one even vertex
        assert _capped_count(lattice_tests, CFG, M(1, 0, 0), 0, 4) == 1

    def test_split_depth1_tube(self, lattice_tests):
        assert _capped_count(lattice_tests, CFG, M(5, 0, 0), 0, 4) == 5

    def test_unram_depth0_single_vertex(self, lattice_tests):
        X = rep_elliptic(CFG, 2, tag=True)
        assert _capped_count(lattice_tests, CFG, X, 0, 3) == 1

    def test_ball_too_small(self, lattice_tests):
        with pytest.raises(BallTooSmall):
            _capped_count(lattice_tests, CFG, M(1, 0, 0), 0, 1)

    def test_empty_fixed_set(self, lattice_tests):
        # diag(1,-1) has depth 0, so no lattice g_{v,1} holds it
        X = M(1, 0, 0)
        assert _capped_count(lattice_tests, CFG, X, 1, 4) == 0 == _scan_count(CFG, X, 1, 4)

    def test_fixed_set_outside_the_ball(self, lattice_tests):
        # the fixed set of this depth-0 elliptic X at level 0 is one vertex,
        # moved to distance 4 by g; a ball of radius 3 misses it entirely
        g = GroupElement(CFG, [[25, 0], [0, Fraction(1, 25)]])
        X = ad(g, rep_elliptic(CFG, CFG.eps, tag=True))
        assert distance(CFG, BASE, act(CFG, g, BASE)) == 4
        assert _capped_count(lattice_tests, CFG, X, 0, 3) == 0 == _scan_count(CFG, X, 0, 3)
        with pytest.raises(BallTooSmall):
            _capped_count(lattice_tests, CFG, X, 0, 4)
        assert _capped_count(lattice_tests, CFG, X, 0, 5) == 1 == _scan_count(CFG, X, 0, 5)


# -- the full-ball scan: test oracle for the flood fill of tree_count_oracle --


@functools.lru_cache(maxsize=None)
def _ball(p, R):
    return tuple(ball(FieldConfig(p), BASE, R))


@functools.lru_cache(maxsize=64)
def _scan_fixed(cfg, X, n, R):
    """Every vertex of the R-ball tested: the fixed vertices it holds.

    Memoised: both windows of _scan_count scan the same ball for one X.
    """
    return tuple(v for v in _ball(cfg.p, R) if min_level(cfg, v, X) >= n)


def _rational_sqrt(x):
    """The square root of x in Q, or None."""
    if x < 0:
        return None
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def _eigen_apartment(cfg, X, k_range):
    """Columns k of the apartment of a split X with rational eigenvalues +-u:
    the lattices spanned by an eigenvector of u and p^k times one of -u."""
    a, b, c = X.exact_entries()
    u = _rational_sqrt(a * a + b * c)  # -det
    assert u is not None, "the eigenvector apartment needs rational eigenvalues"
    if b != 0:
        w_plus, w_minus = (b, u - a), (b, -u - a)
    elif c != 0:
        w_plus, w_minus = (u + a, c), (-u + a, c)
    else:
        w_plus, w_minus = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    pk = [Fraction(cfg.p) ** k for k in k_range]
    return [_lattice_class(cfg, (w_plus, (w_minus[0] * t, w_minus[1] * t))) for t in pk]


def _nearest_columns(cfg, apt):
    """Indices into apt of the column nearest BASE and of its first
    apartment neighbour in `neighbors` order."""
    j0 = min(range(len(apt)), key=lambda j: distance(cfg, BASE, apt[j]))
    assert 0 < j0 < len(apt) - 1, "nearest column at the end of the span"
    j1 = min((j0 - 1, j0 + 1), key=lambda j: neighbors(cfg, apt[j0]).index(apt[j]))
    return j0, j1


def _scan_window(cfg, X, n, R, window="nearest"):
    """For split X: the two apartment columns the count keeps, column 0
    first, and K, the fixed vertices of the R-ball projecting to them.

    With window="nearest" the columns are the one nearest BASE and its first
    apartment neighbour in `neighbors` order, as tree_count_oracle has them;
    with window="eigen" the lattices (w+, w-) and (w+, p w-)."""
    span = 2 * R + 2
    apt = _eigen_apartment(cfg, X, range(-span, span + 1))
    cols = (span, span + 1) if window == "eigen" else _nearest_columns(cfg, apt)
    kept = []
    for v in _scan_fixed(cfg, X, n, R):
        dists = [distance(cfg, v, av) for av in apt]
        if dists.index(min(dists)) in cols:
            kept.append(v)
    return [apt[j] for j in cols], kept


def _scan_count(cfg, X, n, R, window="nearest"):
    """tree_count_oracle (even distances from BASE count) with the fixed
    set found by scanning the whole ball and, for split X, the kept columns
    of _scan_window, built from eigenvectors."""
    fixed = _scan_fixed(cfg, X, n, R)
    if classify(X).is_split:
        columns, fixed = _scan_window(cfg, X, n, R, window)
        if any(distance(cfg, BASE, a) >= R for a in columns):
            raise BallTooSmall("fundamental-domain columns not inside the ball")
    if any(distance(cfg, BASE, v) == R for v in fixed):
        raise BallTooSmall(f"fixed set reaches the R={R} boundary")
    return Fraction(sum(1 for v in fixed if distance(cfg, BASE, v) % 2 == 0))


class TestApartmentWindow:
    """tree_count_oracle projects onto apartment columns -1..2 only."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_distance_grows_by_one_per_column_from_the_projection(self, p):
        # d(v, apt[j]) = d(v, A) + |j - j_v| over the full span the count
        # used to scan, so the window's argmin is in {0, 1} iff j_v is
        cfg = FieldConfig(p)
        seen = set()
        for name, X, n, R in tree_oracle_cases(cfg):
            if not classify(X).is_split:
                continue
            span = 2 * R + 2
            apt = _eigen_apartment(cfg, X, range(-span, span + 1))
            for v in _scan_fixed(cfg, X, n, R):
                dists = [distance(cfg, v, av) for av in apt]
                dmin = min(dists)
                jv = dists.index(dmin) - span
                assert dists == [dmin + abs(j - jv) for j in range(-span, span + 1)], (name, v)
                window = dists[span - 1:span + 3]
                assert (window.index(min(window)) in (1, 2)) == (jv in (0, 1)), (name, v)
                seen.add(jv)
        assert set(range(-2, 4)) <= seen   # projections inside and outside the window

    @pytest.mark.parametrize("p", [3, 5])
    def test_nearest_and_eigenvector_windows_count_alike(self, p):
        # the torus moves the apartment by two columns and keeps the fixed
        # set and the parity of distances from BASE, so any two adjacent
        # columns are a fundamental domain: the counts agree wherever the
        # eigenvector window lies inside the ball
        cfg = FieldConfig(p)
        compared = 0
        for i, (name, X, n, R) in enumerate(tree_oracle_cases(cfg)):
            if not classify(X).is_split:
                continue
            for Y in [X] + [random_conjugate(X, seed=2 * i + j) for j in (1, 2)]:
                for r in (R - 1, R, R + 1):
                    old = _outcome(functools.partial(_scan_count, window="eigen"),
                                   cfg, Y, n, r)
                    if old is not BallTooSmall:
                        assert _scan_count(cfg, Y, n, r) == old, (name, Y, r)
                        compared += 1
        assert compared >= 40

    @pytest.mark.parametrize("s", [150, 275, 6])
    def test_irrational_eigenvalues(self, s):
        # -det X = s is a square in Q_5 but not in Q; the count still runs
        # and matches the engine through the split calibration constant
        X = M(0, 1, s)
        assert classify(X).is_split and _rational_sqrt(Fraction(s)) is None
        rows, ok = tree_oracle_compare(CFG)
        split = Fraction(rows[-1]["calibration"]["split"])
        assert ok and split == Fraction(6, 5)
        top = val_p(s, 5) // 2
        for n in (top - 1, top):
            count = tree_count_oracle(CFG, X, n, 5)
            assert count > 0
            assert ss_orbital(X, indicator_lattice(CFG, BASE, n)).value == split * count


class TestCalibration:
    """The engine over the count, one constant per torus type, pinned to
    closed forms in q: a measured fit that ROADMAP direction P must derive."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_constants_match_the_fitted_closed_forms(self, p):
        q = Fraction(p)
        ramified = (q * q - 1) / (2 * q * q)
        want = {"split": (q + 1) / q, "unramified": (q - 1) / q,
                "ramified-Pi": ramified, "ramified-EpsPi": ramified}
        rows, ok = tree_oracle_compare(FieldConfig(p))
        assert ok
        assert rows[-1]["calibration"] == {k: str(v) for k, v in sorted(want.items())}

    def test_first_case_of_each_type_is_checked(self, monkeypatch):
        # a count off by a factor on the first case of a torus type fails
        # that case: the constant is fixed in advance, not fitted to it
        from germlab import orbital
        cases = tree_oracle_cases(CFG)
        firsts = {}
        for name, X, _, _ in cases:
            firsts.setdefault(classify(X).torus_kind(), name)
        for kind, first in firsts.items():
            doubled = next((X, n) for name, X, n, _ in cases if name == first)

            def count(cfg, X, n, R, doubled=doubled):
                c = tree_count_oracle(cfg, X, n, R)
                return 2 * c if (X, n) == doubled else c

            monkeypatch.setattr(orbital, "tree_count_oracle", count)
            rows, ok = tree_oracle_compare(CFG)
            failed = [row["case"] for row in rows[:-1] if not row["pass"]]
            assert not ok and failed == [first], kind


def _scan_depth(cfg, X, R):
    """depth_via_tree with every vertex of the R-ball tested."""
    return max(min_level(cfg, v, X) for v in _ball(cfg.p, R))


def _outcome(count, cfg, X, n, R):
    """The count, or BallTooSmall if the count raised it."""
    try:
        return count(cfg, X, n, R)
    except BallTooSmall:
        return BallTooSmall


class _LatticeTests:
    """Counts the lattice tests the walk makes in tree_count_oracle and
    depth_via_tree: calls of _Chart.meets, the threshold test X in g_{v,n}
    that every step of the ascent, fill and window makes, and of
    _Chart.min_level, the exact level the ascent reads at BASE.

    Passing `limit` turns a runaway search into a failure, not a hang.  A
    run that counts no test fails too: every walk tests BASE, so a count of
    0 means the counter no longer sees the walk.
    """

    def __init__(self, monkeypatch):
        self.calls, self.limit = 0, None
        for name in ("meets", "min_level"):
            monkeypatch.setattr(_Chart, name, self._counted(getattr(_Chart, name)))

    def _counted(self, test):
        def counted(chart, *args):
            self.calls += 1
            if self.limit is not None and self.calls > self.limit:
                raise AssertionError(f"more than {self.limit} lattice tests")
            return test(chart, *args)
        return counted

    def run(self, limit, fn, *args):
        self.calls, self.limit = 0, limit
        try:
            out = fn(*args)
        finally:
            self.limit = None
        assert self.calls > 0, "no lattice test counted"
        return out


@pytest.fixture
def lattice_tests(monkeypatch):
    return _LatticeTests(monkeypatch)


def _ball_budget(p, R):
    """No search of the R-ball needs more tests than the (R+1)-ball has vertices."""
    return 1 + (p + 1) * (p ** (R + 1) - 1) // (p - 1)


def _capped_count(tests, cfg, X, n, R):
    """tree_count_oracle under the lattice-test budget of the R-ball."""
    return tests.run(_ball_budget(cfg.p, R), tree_count_oracle, cfg, X, n, R)


def _fill_and_scan(tests, cfg, X, n, R):
    """Outcomes of tree_count_oracle and of the scan on the same input."""
    want = _outcome(_scan_count, cfg, X, n, R)
    return tests.run(_ball_budget(cfg.p, R), _outcome, tree_count_oracle,
                     cfg, X, n, R), want


class TestFloodFill:
    def test_agrees_with_scan_p3(self, lattice_tests):
        # each case and two seeded conjugates, at the suite's R and at R - 1
        cfg = FieldConfig(3)
        seen = set()
        for i, (name, X, n, R) in enumerate(tree_oracle_cases(cfg)):
            xs = [X] + [random_conjugate(X, seed=2 * i + j) for j in (1, 2)]
            for j, Y in enumerate(xs):
                for r in (R, R - 1):
                    got, want = _fill_and_scan(lattice_tests, cfg, Y, n, r)
                    assert got == want, f"{name} conjugate {j} R={r}: fill {got}, scan {want}"
                    seen.add("raises" if want is BallTooSmall else "zero" if want == 0
                             else "count")
        assert seen == {"raises", "zero", "count"}

    def test_agrees_with_scan_p5(self, lattice_tests):
        cfg = FieldConfig(5)
        for name, X, n, R in tree_oracle_cases(cfg):
            got, want = _fill_and_scan(lattice_tests, cfg, X, n, R)
            assert got == want, f"{name}: fill {got}, scan {want}"

    def test_work_is_bounded_by_the_fixed_set(self, lattice_tests):
        # the ascent walks the geodesic from BASE to the nearest fixed vertex,
        # testing the q + 1 neighbours of each vertex it leaves; the fill
        # tests each vertex it counts once, and only the children of each
        # that its congruence leaves
        cfg = FieldConfig(5)
        for name, X, n, R in tree_oracle_cases(cfg):
            fixed = _scan_fixed(cfg, X, n, R)
            assert fixed, name
            steps = min(distance(cfg, BASE, v) for v in fixed)
            bound = (cfg.p + 1) * (len(fixed) + steps + 1)
            lattice_tests.run(bound, tree_count_oracle, cfg, X, n, R)
            counted = _scan_window(cfg, X, n, R)[1] if classify(X).is_split else fixed
            assert lattice_tests.calls >= len(counted), name
        # at p = 23 the walk made 34,365 tests when it tried all q + 1
        # neighbours of each vertex
        cfg, calls = FieldConfig(23), 0
        for name, X, n, R in tree_oracle_cases(cfg):
            lattice_tests.run(_ball_budget(cfg.p, R), tree_count_oracle, cfg, X, n, R)
            calls += lattice_tests.calls
        assert calls <= 2500

    @pytest.mark.parametrize("p", [3, 5])
    def test_split_fill_stays_in_the_window(self, lattice_tests, p):
        # the ascent tests BASE and the q + 1 neighbours of at most d(BASE, a0)
        # vertices, the window those of a0 and a1, and the fill those of each
        # vertex of K only, never entering columns -1 and 2
        cfg = FieldConfig(p)
        for i, (name, X, n, R) in enumerate(tree_oracle_cases(cfg)):
            if not classify(X).is_split:
                continue
            for seed in (3 * i + 1, 3 * i + 2, 3 * i + 3):
                Y = random_conjugate(X, seed=seed)
                (a0, _a1), kept = _scan_window(cfg, Y, n, R)
                bound = (p + 1) * (len(kept) + distance(cfg, BASE, a0) + 3)
                lattice_tests.run(bound, _outcome, tree_count_oracle, cfg, Y, n, R)
                assert lattice_tests.calls >= len(kept), (name, seed)


def _public_fill(cfg, X, n, R):
    """tree_count_oracle by a flood fill over the public exact primitives,
    for balls too big to scan.

    The fill keeps a seen set and tests every neighbour of each vertex it
    keeps.  For split X it starts at column 0 of the eigenvector apartment
    and never enters columns -1 and 2; otherwise it starts where a greedy
    ascent of min_level from BASE, reading the level of every neighbour,
    first reaches level n within R steps.
    """
    def level(v):
        return min_level(cfg, v, X)

    avoid = set()
    if classify(X).is_split:
        span = 2 * R + 2
        apt = _eigen_apartment(cfg, X, range(-span, span + 1))
        j0, j1 = _nearest_columns(cfg, apt)
        if any(distance(cfg, BASE, apt[j]) >= R for j in (j0, j1)):
            raise BallTooSmall("fundamental-domain columns not inside the ball")
        outside = (2 * j0 - j1, 2 * j1 - j0)  # columns -1 and 2
        assert 0 <= min(outside) and max(outside) < len(apt), "window at the end of the span"
        start, avoid = apt[j0], {apt[j] for j in outside}
    else:
        start = BASE
        for _ in range(R):
            if level(start) >= n:
                break
            start = max(neighbors(cfg, start), key=level)
    if level(start) < n:
        return Fraction(0)
    dists, todo, seen = [], [start], {start} | avoid
    while todo:
        v = todo.pop()
        dists.append(distance(cfg, BASE, v))
        for w in neighbors(cfg, v):
            if w not in seen:
                seen.add(w)
                if distance(cfg, BASE, w) <= R and level(w) >= n:
                    todo.append(w)
    if R in dists:
        raise BallTooSmall(f"fixed set reaches the R={R} boundary")
    return Fraction(sum(1 for d in dists if d % 2 == 0))


class TestDownWalk:
    """The fill's climb and down-walk, whose candidate children come from
    one congruence, against _public_fill on balls too big to scan."""

    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_agrees_with_a_public_flood_fill(self, monkeypatch, p):
        # each case and two seeded conjugates, at the suite's R and at R - 1;
        # every branch of _Chart.digits is taken
        cfg = FieldConfig(p)
        branches = set()
        digits = _Chart.digits

        def recorded(chart, v, n):
            out = digits(chart, v, n)
            m, xi = v
            K, P = n + chart.off3 + m + 1, chart.pw[m + chart.S]
            trial = K <= 0 or chart.B * P * P % p**K != 0
            branches.add("trial" if trial else {0: "none", 1: "one", p: "all"}[len(out)])
            return out

        monkeypatch.setattr(_Chart, "digits", recorded)
        seen = set()
        for i, (name, X, n, R) in enumerate(tree_oracle_cases(cfg)):
            xs = [X] + [random_conjugate(X, seed=2 * i + j) for j in (1, 2)]
            for j, Y in enumerate(xs):
                for r in (R, R - 1):
                    got = _outcome(tree_count_oracle, cfg, Y, n, r)
                    want = _outcome(_public_fill, cfg, Y, n, r)
                    assert got == want, f"{name} conjugate {j} R={r}: walk {got}, fill {want}"
                    seen.add("raises" if want is BallTooSmall else "zero" if want == 0
                             else "count")
        assert seen == {"raises", "zero", "count"}
        assert branches == {"trial", "none", "one", "all"}


class TestDepthAscent:
    """depth_via_tree climbs min_level; the full-ball scan is its oracle."""

    CASES = [(M(5, 0, 0), 2), (M(1, 0, 0), 3), (M(0, 1, 5), 3), (M(0, 1, 0), 1),
             (M(0, 1, 0), 3)] + [(M(0, 1, 2 * 25), R) for R in (0, 1, 2, 3)]

    @staticmethod
    def _ascent_and_scan(tests, cfg, X, R):
        # the ascent tests BASE, then the q + 1 neighbours of each of at most
        # R vertices it leaves
        got = tests.run(1 + R * (cfg.p + 1), depth_via_tree, cfg, X, R)
        return got, _scan_depth(cfg, X, R)

    def test_agrees_with_scan_on_the_examples(self, lattice_tests):
        for X, R in self.CASES:
            got, want = self._ascent_and_scan(lattice_tests, CFG, X, R)
            assert got == want, f"{X!r} R={R}: ascent {got}, scan {want}"

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_scan_on_conjugates(self, lattice_tests, p):
        cfg = FieldConfig(p)
        e = cfg.eps
        reps = [M(1, 0, 0, cfg), M(p, 0, 0, cfg), M(0, 1, 0, cfg),
                rep_elliptic(cfg, e, tag=True), rep_elliptic(cfg, e * p**2, tag=False),
                rep_elliptic(cfg, p, tag=True), rep_elliptic(cfg, e * p**3, tag=True)]
        for i, X in enumerate(reps):
            for seed in (3 * i + 1, 3 * i + 2):
                Y = random_conjugate(X, seed=seed)
                for R in range(5):
                    got, want = self._ascent_and_scan(lattice_tests, cfg, Y, R)
                    assert got == want, f"{Y!r} R={R}: ascent {got}, scan {want}"


_CHART_R = 2


@functools.lru_cache(maxsize=None)
def _chart_inputs(p):
    """Elements of every kind, seeded conjugates with non-p denominators and
    negative valuations, and the vertices of the (R + 1)-ball with their
    chart coordinates."""
    cfg, R = FieldConfig(p), _CHART_R
    pS = p ** (R + 1)
    reps = [M(1, 0, 0, cfg), M(p, 0, 0, cfg), M(0, 1, 0, cfg),
            rep_elliptic(cfg, cfg.eps, tag=True), rep_elliptic(cfg, p, tag=True),
            M(Fraction(1, 2), Fraction(3, 4 * p), 7, cfg)]
    xs = reps + [random_conjugate(X, seed=40 + i, size_bound=1 + i % 2)
                 for i, X in enumerate(reps)]
    xs.append(M(0, Fraction(1, p), 2 * p * p, cfg))  # a zero entry and a p-power denominator
    assert any(val_p(t, p) < 0 for X in xs for t in X.exact_entries())
    coords = {}
    for v in _ball(p, R + 1):  # x = xi / p^S with xi an int, canonical mod p^(m+S)
        xi = v.x * pS
        assert xi.denominator == 1 and 0 <= xi < p ** (v.m + R + 1), v
        coords[v] = (v.m, int(xi))
    return cfg, xs, coords


class TestIntChart:
    """_Chart, the int coordinates the walk runs on, against the public
    primitives on every vertex of the (R + 1)-ball: the fill carries the
    distance of vertices there, and the ascent, fill and window test their
    level against a threshold."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_the_public_primitives(self, p):
        cfg, xs, coords = _chart_inputs(p)
        R = _CHART_R
        for X in xs:
            chart = _Chart(cfg, X, R)
            for v, u in coords.items():
                assert chart.min_level(u) == min_level(cfg, v, X), (X, v)
        for v, u in coords.items():
            d = distance(cfg, BASE, v)
            assert chart.from_base(u) == d, v
            if d <= R:  # the walk's neighbours stay in the (R + 1)-ball
                assert chart.neighbors(u) == [coords[w] for w in neighbors(cfg, v)], v

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_meets_is_the_level_threshold(self, p):
        # the walk's one lattice test, at the level and one either side of it
        cfg, xs, coords = _chart_inputs(p)
        for X in xs:
            chart = _Chart(cfg, X, _CHART_R)
            for v, u in coords.items():
                lev = min_level(cfg, v, X)
                for n in (lev - 1, lev, lev + 1):
                    assert chart.meets(u, n) == (lev >= n), (X, v, n)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_adjacent_levels_differ_by_at_most_one(self, p):
        # the threshold ascent moves to the first neighbour at level lev + 1,
        # which is the neighbour of largest level only because none is higher
        cfg, xs, coords = _chart_inputs(p)
        steps = set()
        for X in xs:
            for v in coords:
                if distance(cfg, BASE, v) > _CHART_R:
                    continue
                lev = min_level(cfg, v, X)
                for w in neighbors(cfg, v):
                    step = min_level(cfg, w, X) - lev
                    assert abs(step) <= 1, (X, v, w)
                    steps.add(step)
        assert steps == {-1, 0, 1}

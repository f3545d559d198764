import random
from fractions import Fraction

import pytest

from germlab import (BallTooSmall, FieldConfig, GroupElement,
                     Sl2Element, ad, ball, depth_via_tree, distance, make_vertex,
                     mp_lattice, neighbors, random_sl2, rep_elliptic,
                     tree_count_oracle)
from germlab.tree import BASE, cartan, basis_matrix

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
        assert mp_lattice(CFG, BASE, 0).contains(X)
        assert not mp_lattice(CFG, BASE, 1).contains(X)

    def test_shifted_vertex_example(self):
        v = make_vertex(CFG, 1, 0)
        X = M(0, Fraction(1, 5), 5)
        assert mp_lattice(CFG, v, 0).contains(X)

    def test_inexact_element_raises(self):
        # matrix entries are exact rationals; a float is refused, not rounded
        with pytest.raises(TypeError):
            Sl2Element(CFG, 0.1, 0, 0)

    def test_scaling_by_zeta(self):
        v = make_vertex(CFG, 1, 0)
        X = M(1, 5, Fraction(2, 5))
        lat = mp_lattice(CFG, v, 0)
        assert lat.contains(X) == lat.scaled(1).contains(X.scale(5))

    def test_act_compatibility(self):
        from germlab.tree import act
        rng = random.Random(33)
        vs = ball(CFG, BASE, 2)
        for _ in range(100):
            v = rng.choice(vs)
            g = random_sl2(CFG, rng)
            X = M(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            n = rng.randint(-1, 1)
            lhs = mp_lattice(CFG, act(CFG, g, v), n).contains(ad(g, X))
            rhs = mp_lattice(CFG, v, n).contains(X)
            assert lhs == rhs


class TestCartan:
    def test_reconstruction(self):
        rng = random.Random(34)
        from germlab.padic import val_p
        for _ in range(80):
            v = rng.choice(ball(CFG, BASE, 3))
            Mx = basis_matrix(CFG, v)
            K, e, f = cartan(CFG, Mx)
            assert e <= f
            # K must be integral with unit determinant
            det = K[0][0] * K[1][1] - K[0][1] * K[1][0]
            assert val_p(det, 5) == 0
            for row in K:
                for x in row:
                    assert x == 0 or val_p(x, 5) >= 0


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
    def test_split_unit_apartment(self):
        # fixed set of diag(1,-1) at level 0 is the apartment; the window
        # holds one even vertex
        assert tree_count_oracle(CFG, M(1, 0, 0), 0, 4) == 1

    def test_split_depth1_tube(self):
        assert tree_count_oracle(CFG, M(5, 0, 0), 0, 4) == 5

    def test_unram_depth0_single_vertex(self):
        X = rep_elliptic(CFG, 2, tag=True)
        assert tree_count_oracle(CFG, X, 0, 3) == 1

    def test_ball_too_small(self):
        with pytest.raises(BallTooSmall):
            tree_count_oracle(CFG, M(1, 0, 0), 0, 1)

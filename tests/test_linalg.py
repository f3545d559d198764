"""RowReduction against plain substitution.

Each case builds M = P [C; 0] with P invertible (a product of unit lower and
upper triangular matrices), so the column space of M lies in P span(e_1..e_r)
and y = P u is outside it whenever u has a nonzero entry past r.  Nothing
here reads the reduction's own bookkeeping: a solution is checked by M x == y,
a kernel vector by M k == 0.
"""

import random
from fractions import Fraction

import pytest

from germlab.linalg import RowReduction, nullspace, rank, solve_consistent


def _rat(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _mul(A, z):
    return [sum((a * t for a, t in zip(row, z)), Fraction(0)) for row in A]


def _matmul(A, B):
    return [_mul(list(zip(*B)), row) for row in A]


def _invertible(rng, n):
    lower = [[Fraction(int(i == j)) if j >= i else _rat(rng) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) if j <= i else _rat(rng) for j in range(n)] for i in range(n)]
    return _matmul(lower, upper)


def _case(seed):
    """(M, consistent ys, inconsistent ys) for one seeded shape and rank."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    r = rng.randint(0, min(rows, cols))
    P = _invertible(rng, rows)
    C = [[_rat(rng) for _ in range(cols)] for _ in range(r)]
    M = _matmul(P, C + [[Fraction(0)] * cols for _ in range(rows - r)])
    bad = []
    if r < rows:
        u = [_rat(rng) for _ in range(rows)]
        u[rng.randrange(r, rows)] = Fraction(rng.choice((-3, -1, 1, 2)))
        bad.append(_mul(P, u))
    if rng.random() < 0.5:
        # a zero row, and a right-hand side that is nonzero on it
        at = rng.randint(0, rows)
        M.insert(at, [Fraction(0)] * cols)
        bad = [y[:at] + [Fraction(0)] + y[at:] for y in bad]
        y = _mul(M, [_rat(rng) for _ in range(cols)])
        y[at] = Fraction(1)
        bad.append(y)
    good = [_mul(M, [_rat(rng) for _ in range(cols)]) for _ in range(3)]
    good.append([Fraction(0)] * len(M))
    return M, good, bad


@pytest.mark.parametrize("seed", range(80))
def test_reduction_agrees_with_substitution(seed):
    M, good, bad = _case(seed)
    rows, cols = len(M), len(M[0])
    rr = RowReduction(M)
    for y in good:
        x = rr.solve(y)
        assert x is not None and len(x) == cols and _mul(M, x) == y, (M, y)
        assert solve_consistent(M, y) == x
    for y in bad:
        assert rr.solve(y) is None, (M, y)
    for k in rr.kernel:
        assert any(k) and _mul(M, k) == [0] * rows
    assert rr.rank + len(rr.kernel) == cols
    assert rank(M) == rr.rank and nullspace(M) == rr.kernel


def test_shapes_with_no_entries():
    empty = RowReduction([])
    assert (empty.rank, empty.kernel, empty.solve([])) == (0, [], [])
    no_columns = RowReduction([[], []])
    assert (no_columns.rank, no_columns.kernel) == (0, [])
    assert no_columns.solve([0, 0]) == [] and no_columns.solve([0, 1]) is None


def test_a_solution_is_checked_against_the_matrix():
    # row operations that no longer reduce M give a wrong x; the
    # substitution check M x == y turns it into None
    rr = RowReduction([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert rr.solve([1, 1]) == [1, 1]
    rr.ops[0] = [Fraction(2), Fraction(0)]
    assert rr.solve([1, 1]) is None

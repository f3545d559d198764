"""RowReduction against plain substitution.

Each case builds M = P [C; 0] with P invertible (a product of unit lower and
upper triangular matrices), so the column space of M lies in P span(e_1..e_r)
and y = P u is outside it whenever u has a nonzero entry past r.  A solution
is checked by M x == y and a kernel vector by M k == 0, for Fraction and for
int right-hand sides; the pivots and the kernel of the integer reduction,
which fix its reduced form, are compared with a plain Fraction Gauss-Jordan
written here, which shares no code with linalg.  The substitution-teeth
tests break the row operations E (ops_ints) and check that solve's
substitution check M x == y still refuses the wrong x.
"""

import math
import random
from fractions import Fraction

import pytest

from germlab.linalg import RowReduction, nullspace, rank, solve_consistent


def _on_the_int_rule(x):
    # padic's rule: an int when integral, else a Fraction that is not one
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


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


def _gauss_jordan(M):
    """(pivots, kernel basis) of M by Fraction Gauss-Jordan."""
    A = [[Fraction(x) for x in row] for row in M]
    cols = len(A[0]) if A else 0
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    kernel = []
    for fc in (c for c in range(cols) if c not in pivots):
        k = [Fraction(int(c == fc)) for c in range(cols)]
        for i, pc in enumerate(pivots):
            k[pc] = -A[i][fc]
        kernel.append(k)
    return pivots, kernel


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


@pytest.mark.parametrize("seed", range(80))
def test_integer_reduction_is_the_fraction_rref(seed):
    M = _case(seed)[0]
    rr = RowReduction(M)
    assert (rr.pivots, rr.kernel) == _gauss_jordan(M)
    assert all(_on_the_int_rule(x) for row in rr.kernel for x in row)


@pytest.mark.parametrize("seed", range(80))
def test_integer_solve_agrees_with_substitution(seed):
    # an int right-hand side D y is solved as it stands, and with free
    # variables zero the solution is D times the one for y
    M, good, bad = _case(seed)
    rr = RowReduction(M)
    for y in good:
        D = math.lcm(*(t.denominator for t in y))
        ints = [int(t * D) for t in y]
        x = rr.solve(ints)
        assert all(_on_the_int_rule(t) for t in x) and _mul(M, x) == ints, (M, y)
        assert x == [D * t for t in rr.solve(y)]
    for y in bad:
        D = math.lcm(*(t.denominator for t in y))
        assert rr.solve([int(t * D) for t in y]) is None, (M, y)


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
    assert rr.ops_ints == [[1, 0], [0, 1]] and rr.ops_den == 1
    rr.ops_ints[0] = [2, 0]
    assert rr.solve([1, 1]) is None


def test_an_inconsistent_system_is_caught_by_substitution_too():
    # E read as zero past the rank takes every y for consistent; M x == y
    # still refuses the one outside the column space
    rr = RowReduction([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert rr.rank == 1 and rr.solve([1, 2]) == [2, 0]
    assert rr.solve([1, 1]) is None
    rr.ops_ints[1] = [0, 0]
    assert rr.solve([1, 1]) is None

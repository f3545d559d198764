"""Small exact linear algebra over Fraction: one row reduction per matrix.

A RowReduction brings [M | I] to reduced row echelon form once, pivoting on
the columns of M only.  The left block is then the reduced form R = E M and
the right block the row operations E, so one reduction gives the rank, the
pivots and the kernel of M, and solves M x = y for every right-hand side y by
applying E to y.  rank, solve_consistent and nullspace are one-shot wrappers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple


def _rref(A: List[List[Fraction]], cols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form of A in place, pivoting on its first `cols` columns."""
    rows = len(A)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


class RowReduction:
    """One exact reduction of a rows x cols matrix M, shared by every query.

    Row i of `reduced` is row i of E M and row i of `ops` is row i of E, for
    the invertible E that one _rref of [M | I] applies.  Rows of E M past the
    rank are zero, so M x = y is consistent exactly when E y vanishes past the
    rank.
    """

    def __init__(self, M: Sequence[Sequence[Fraction]]):
        self.matrix = [[Fraction(x) for x in row] for row in M]
        rows = len(self.matrix)
        self.cols = len(self.matrix[0]) if rows else 0
        aug = [row + [Fraction(int(i == j)) for j in range(rows)]
               for i, row in enumerate(self.matrix)]
        R, self.pivots = _rref(aug, self.cols)
        self.reduced = [row[:self.cols] for row in R]
        self.ops = [row[self.cols:] for row in R]
        self.rank = len(self.pivots)

    @cached_property
    def kernel(self) -> List[List[Fraction]]:
        """Basis of the exact kernel of M, one vector per free column."""
        basis = []
        for fc in range(self.cols):
            if fc in self.pivots:
                continue
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for i, pc in enumerate(self.pivots):
                v[pc] = -self.reduced[i][fc]
            basis.append(v)
        return basis

    def solve(self, y: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """One exact solution of M x = y, or None when the system is inconsistent.

        Free variables are set to zero.
        """
        ey = [sum((e * t for e, t in zip(row, y) if e), Fraction(0)) for row in self.ops]
        if any(ey[self.rank:]):
            return None
        x = [Fraction(0)] * self.cols
        for i, c in enumerate(self.pivots):
            x[c] = ey[i]
        # substitution check: x is tested against M itself, not against E
        for row, t in zip(self.matrix, y):
            if sum(a * b for a, b in zip(row, x)) != t:
                return None
        return x


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return RowReduction(M).rank


def solve_consistent(M: Sequence[Sequence[Fraction]], y: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One exact solution of M x = y (free variables zero), or None when inconsistent."""
    return RowReduction(M).solve(y)


def nullspace(M: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the exact kernel of M."""
    return RowReduction(M).kernel

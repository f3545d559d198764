"""Small exact linear algebra: one integer row reduction per rational matrix.

A RowReduction clears each row of [M | I] to ints and brings it to reduced
row echelon form once, pivoting on the columns of M only and without
fractions: a row is cleared by an int combination with the pivot row and
divided by its content, so entries stay small.  The left block is then the
reduced form R = E M, up to one positive or negative scale per pivot row,
and the right block the row operations E, so one reduction gives the rank,
the pivots and the kernel of M, and solves M x = y for every right-hand side
y by applying E to y.  E is kept as one int matrix over one denominator and
M as one int matrix over another, so a solve clears y to ints once and is
then int dot products and an int substitution check.  The reduced form is
unique and fixed by the pivots and the kernel, so those are what a Fraction
Gauss-Jordan gives.  Kernel vectors and solutions follow the int rule of
padic: an entry is an int when it is integral, else a Fraction (padic.ratio
forms each quotient).  rank, solve_consistent and nullspace are one-shot
wrappers.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .padic import Rat, ratio


def clear_denominators(row: Sequence[Rat]) -> Tuple[int, List[int]]:
    """(d, ints) with row = ints / d for a row of Fractions or ints: d > 0 is
    the lcm of the entries' denominators."""
    d = math.lcm(*(x.denominator for x in row))
    return d, [x.numerator * (d // x.denominator) for x in row]


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rref_ints(A: List[List[int]], cols: int) -> List[int]:
    """Fraction-free Gauss-Jordan of the int matrix A in place; its pivot columns.

    Pivot row r ends with entry A[r][c_r] != 0 in its pivot column and zeros
    in every other pivot column; rows past the rank are zero in the first
    `cols` columns.
    """
    rows = len(A)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        top = A[r]
        for i in range(rows):
            lead = A[i][c]
            if i != r and lead:
                g = math.gcd(top[c], lead)
                a, b = top[c] // g, lead // g
                A[i] = _primitive([a * x - b * y for x, y in zip(A[i], top)])
        pivots.append(c)
        r += 1
    return pivots


class RowReduction:
    """One exact reduction of a rows x cols matrix M, shared by every query.

    M = matrix_ints / matrix_den and E = ops_ints / ops_den, for the
    invertible E whose product E M is the reduced row echelon form of M
    below the rank and zero past it.  So M x = y is consistent exactly when
    E y vanishes past the rank.
    """

    def __init__(self, M: Sequence[Sequence[Rat]]):
        rows = len(M)
        self.cols = len(M[0]) if rows else 0
        self.matrix_den = math.lcm(*(x.denominator for row in M for x in row))
        self.matrix_ints = [[x.numerator * (self.matrix_den // x.denominator) for x in row]
                            for row in M]
        # row i of [M | I] times matrix_den, over its content
        aug = [_primitive(row + [self.matrix_den * (i == j) for j in range(rows)])
               for i, row in enumerate(self.matrix_ints)]
        self.pivots = _rref_ints(aug, self.cols)
        self.rank = len(self.pivots)
        # pivot row i of R is left_i / lead_i and of E right_i / lead_i; past
        # the rank E keeps right_i, where only whether E y vanishes matters
        self._left = [row[:self.cols] for row in aug[:self.rank]]
        self._leads = [row[c] for row, c in zip(aug, self.pivots)]
        self.ops_den = math.lcm(*(abs(lead) for lead in self._leads))
        self.ops_ints = [[x * (self.ops_den // lead) for x in row[self.cols:]]
                         for row, lead in zip(aug, self._leads)]
        self.ops_ints += [row[self.cols:] for row in aug[self.rank:]]

    @cached_property
    def kernel(self) -> List[List[Rat]]:
        """Basis of the exact kernel of M, one vector per free column."""
        basis = []
        for fc in range(self.cols):
            if fc in self.pivots:
                continue
            v = [0] * self.cols
            v[fc] = 1
            for row, lead, pc in zip(self._left, self._leads, self.pivots):
                v[pc] = ratio(-row[fc], lead)
            basis.append(v)
        return basis

    def solve(self, y: Sequence[Rat]) -> Optional[List[Rat]]:
        """One exact solution of M x = y, or None when the system is inconsistent.

        y (Fractions or ints) is cleared to ints over D, E is applied in
        ints, and x = E y / (ops_den D); free variables are set to zero.
        """
        D, ints = clear_denominators(y)
        ey = [sum(e * t for e, t in zip(row, ints) if e) for row in self.ops_ints]
        if any(ey[self.rank:]):
            return None
        x = [0] * self.cols
        for i, c in enumerate(self.pivots):
            x[c] = ey[i]
        # substitution check: x is tested against M itself, not against E;
        # M x = y reads matrix_ints x == matrix_den ops_den (D y)
        scale = self.matrix_den * self.ops_den
        for row, t in zip(self.matrix_ints, ints):
            if sum(a * b for a, b in zip(row, x) if a) != scale * t:
                return None
        den = self.ops_den * D
        return [ratio(t, den) for t in x]


def rank(M: Sequence[Sequence[Rat]]) -> int:
    return RowReduction(M).rank


def solve_consistent(M: Sequence[Sequence[Rat]], y: Sequence[Rat]) -> Optional[List[Rat]]:
    """One exact solution of M x = y (free variables zero), or None when inconsistent."""
    return RowReduction(M).solve(y)


def nullspace(M: Sequence[Sequence[Rat]]) -> List[List[Rat]]:
    """Basis of the exact kernel of M."""
    return RowReduction(M).kernel

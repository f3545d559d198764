"""Germ tables, in closed form and by extraction, and the verification suites.

A germ table at a regular X solves the expansion

    I_X(f_i) = sum_Omega j_Omega(X) * I_Omega(f_i)

exactly over a rank-5 function basis; every extra function must have zero
residual.  For sl2 the solution is known in closed form (Shalika 1972;
DeBacker-Sally 2000): closed_form_germs reads it off s = -det X and one
Hilbert pairing of square classes per orbit, and verify_theorem uses it.
Extraction is its oracle: `verify germs` compares the two.  The scaling law
under deepening is forced by the engine's exact substitution covariance
together with uniqueness of the expansion:

    j_Omega(zeta^2 X) = q^(dim Omega) * j_Omega(X),

so homogeneity_extend rescales regular entries by q^(2k) and leaves the
zero-orbit entry alone.  (The discriminant-normalized germ convention, in
which regular entries are invariant and the zero entry scales by q^(-2k),
differs from this one by the global factor q^(2k); the engine's unnormalized
integrals obey the law implemented here, and verify germs checks it.)

A germ table is a plain dict {orbit: j_Omega(X)} with its keys in
ORBIT_ORDER, and expansion_rhs(germs, nil_vec) is the right-hand side
sum_Omega j_Omega(X) I_Omega(f) as a plain Fraction sum.

Both sides of the expansion are linear in f, so every suite reads its
function family once into a CellTable and runs X in the outer loop: one
Orbit and one table row per X (or nilpotent orbit) give every function's
integral, as int dot products over one common denominator, and the Orbit's
label gives the row's torus kind.  An extraction basis or a pool is a
GermBasis, built once from its member list: it owns the pool's linear
algebra (table, nilpotent matrix, and one linalg.RowReduction each of A^T
and A), so the rank, the kernel and every solve share one reduction, and
every entry point that needs a basis takes one.  extract_germs solves
A j = I_X(basis) with the reduction of A; verify_theorem forms each
right-hand side as one int dot product of the cleared closed-form germs
with the member's cleared nilpotent row, and one padic.ratio.
"""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (InconsistentSystem, InvariantViolated, NotRegular,
                     PoolDeficient, RankDeficient)
from .linalg import RowReduction, clear_denominators
from .lcfunc import LCFunction, h_combination, indicator_lattice, unit_ball
from .orbital import Orbit
from .padic import INF, FieldConfig, Rat, SquareClass, ratio, square_class_of_rational, val_p
from .sl2 import (ALL_ORBITS, REG_EPS, REG_EPSPI, REG_ONE, REG_PI, OrbitLabel,
                  Sl2Element, depth, rep_nilpotent)
from .tree import BASE, make_vertex

ORBIT_ORDER = list(ALL_ORBITS)  # Zero, Regular(One), Regular(Eps), Regular(Pi), Regular(EpsPi)


def expansion_rhs(germs: Dict[OrbitLabel, Rat],
                  nil_vec: Dict[OrbitLabel, Rat]) -> Rat:
    """sum_Omega j_Omega(X) I_Omega(f) for germs j and f's nilpotent vector,
    as a plain Fraction sum."""
    return sum(germs[om] * nil_vec[om] for om in ORBIT_ORDER)


class ExpansionReport:
    """One (f, X) verification row.

    `expected`: is the row inside the claimed validity range?  Contrast rows
    (False) never gate an exit code.
    """

    def __init__(self, f_id: str, x_id: str, torus: str, depth, r, lhs: Rat,
                 rhs: Rat, expected: bool):
        self.f_id, self.x_id, self.torus, self.depth, self.r = f_id, x_id, torus, depth, r
        self.lhs, self.rhs, self.expected = lhs, rhs, expected

    @cached_property
    def residual(self) -> Rat:
        """lhs - rhs, formed once per row; the CSV row and passed both read it.

        Formed on numerators and denominators, so a passing row's 0 is an int
        and builds no Fraction.
        """
        lhs, rhs = self.lhs, self.rhs
        return ratio(lhs.numerator * rhs.denominator - rhs.numerator * lhs.denominator,
                     lhs.denominator * rhs.denominator)

    @property
    def passed(self) -> bool:
        return self.residual == 0

    def csv_row(self) -> list:
        return [self.f_id, self.x_id, self.torus, str(self.depth), str(self.r),
                str(self.lhs), str(self.rhs), str(self.residual),
                "pass" if self.passed else ("fail" if self.expected else "contrast")]


CSV_HEADER = ["f_id", "X_id", "torus", "depth", "r", "lhs", "rhs", "residual", "pass"]


class CellTable:
    """A function family as sparse int coefficient vectors over its distinct cells.

    Every term of every member is read once, as the base-vertex cell the
    engine integrates (LCFunction.integration_cells); equal cells share a
    column.  Each member is stored as one positive int denominator (the lcm
    of its coefficients' denominators) and int numerators on its nonzero
    columns.  An orbital integral is linear in f, so integrals(orbit)
    evaluates each column once, clears that row to ints over one common
    denominator and returns every member's integral as one int dot product,
    normalised once.  A column is evaluated even where the coefficients
    cancel, so each cell's tail re-check still runs.
    """

    def __init__(self, functions: Iterable[LCFunction]):
        columns: Dict[tuple, int] = {}
        self.vectors: List[Tuple[int, List[Tuple[int, int]]]] = []
        self.cfg: Optional[FieldConfig] = None
        for f in functions:
            self.cfg = f.cfg
            vec: Dict[int, Rat] = {}
            for coeff, key, n, v in f.integration_cells():
                j = columns.setdefault((key, n, v.m % 2), len(columns))
                vec[j] = vec.get(j, 0) + coeff
            nonzero = [(j, c) for j, c in vec.items() if c != 0]
            den, nums = clear_denominators([c for _, c in nonzero])
            self.vectors.append((den, [(j, n) for (j, _), n in zip(nonzero, nums)]))
        self.cells = list(columns)
        self.common_den = math.lcm(*(den for den, _ in self.vectors))

    def integrals(self, orbit: Orbit) -> List[Rat]:
        """I_orbit(f) for every member f, in member order."""
        # the orbit's value on every column, as ints over D
        D, ints = clear_denominators([orbit.cell_value(*cell)[0] for cell in self.cells])
        pre, common = orbit.prefactor, self.common_den
        den = pre.denominator * common * D
        return [ratio(pre.numerator * (common // d) * sum(n * ints[j] for j, n in vec), den)
                for d, vec in self.vectors]

    def nilpotent_rows(self) -> List[Tuple[Rat, ...]]:
        """(I_Omega(f))_Omega in ORBIT_ORDER for every member: five table rows."""
        if self.cfg is None:
            return []
        cols = [self.integrals(Orbit.nilpotent(self.cfg, om)) for om in ORBIT_ORDER]
        return list(zip(*cols))


class GermBasis:
    """Named functions with their cell table, nilpotent matrix and its reductions.

    Row i of `matrix` is (I_Omega(f_i))_Omega with columns in ORBIT_ORDER.
    An extraction basis is shared by every X of a suite, and a pool by its
    kernel and single-orbit solves, so the table is read once and each
    member's five nilpotent integrals are computed once.  A^T is reduced
    once, at construction: that reduction gives the rank, the kernel and
    every single-orbit solve.  A is reduced at most once, on the first
    extraction, and each X then costs one application of its row operations.
    """

    def __init__(self, members: Iterable[Tuple[str, LCFunction]]):
        self.members = tuple(members)
        self.table = CellTable(f for _, f in self.members)
        self.matrix = tuple(self.table.nilpotent_rows())
        self.transpose_reduction = RowReduction(list(zip(*self.matrix)))
        self.rank = self.transpose_reduction.rank

    @property
    def kernel(self) -> List[List[Rat]]:
        """Coefficient vectors whose combinations have zero nilpotent vector."""
        return self.transpose_reduction.kernel

    @cached_property
    def matrix_reduction(self) -> RowReduction:
        """The reduction of A that solves the expansion at every X."""
        return RowReduction(self.matrix)


def _combination(coeffs: Sequence[Rat], pool: GermBasis) -> Optional[LCFunction]:
    """sum_i c_i f_i over the nonzero coefficients; None when all vanish."""
    f = None
    for c, (_, g) in zip(coeffs, pool.members):
        if c != 0:
            f = c * g if f is None else f + c * g
    return f


def default_basis(cfg: FieldConfig) -> GermBasis:
    """Rank-5 extraction basis: the unit ball, its dilate, four nilpotent cells."""
    ball = unit_ball(cfg)
    out = [("unit-ball", ball), ("unit-ball-dilated", ball.dilate(cfg.zeta**2))]
    for label in (REG_ONE, REG_EPS, REG_PI, REG_EPSPI):
        Y = rep_nilpotent(cfg, label)
        out.append((f"nil-{label.nil_class.value}-2", indicator_lattice(cfg, BASE, 2, center=Y)))
    return GermBasis(out)


def extract_germs(X: Sl2Element, basis: GermBasis) -> Dict[OrbitLabel, Rat]:
    """Solve the five-orbit expansion over the basis with exact linear algebra.

    The basis integrals at X are solved against the basis's one reduction
    of A (RowReduction.solve, which runs on ints).  The matrix of nilpotent
    vectors must have rank 5; every basis row beyond the first five must
    have zero residual, otherwise the system is reported inconsistent (X too
    shallow for some f).
    """
    if basis.rank < 5:
        raise RankDeficient("basis does not separate the five nilpotent orbits")
    x = basis.matrix_reduction.solve(basis.table.integrals(Orbit.of(X)))
    if x is None:
        raise InconsistentSystem("nonzero residual over the basis")
    return dict(zip(ORBIT_ORDER, x))


def homogeneity_extend(germs: Dict[OrbitLabel, Rat], k: int,
                       cfg: FieldConfig) -> Dict[OrbitLabel, Rat]:
    """The germs at zeta^(2k) X from those at X: j_Omega scales by q^(k dim Omega)."""
    return {om: germs[om] * cfg.qpow(k * om.dim) for om in ORBIT_ORDER}


def _deepening(d: Rat) -> int:
    """The smallest k >= 0 with d + 2k >= 2, that is max(0, ceil((2 - d)/2)),
    in int arithmetic: exact for d in (1/2)Z, an int or a Fraction."""
    return max(0, -((d - 2) // 2))


def extract_germs_auto(X: Sl2Element, basis: GermBasis) -> Dict[OrbitLabel, Rat]:
    """Extraction with deepening: extract at zeta^(2k) X, extend back.

    k is the smallest with depth(X) + 2k >= 2, which moves X into the
    validity range of every level-2 basis function (README, "Known
    findings"); the table is transported back along the scaling law.  An
    InconsistentSystem from extract_germs is raised, not retried.
    """
    cfg = X.cfg
    d = depth(X)
    if d == INF:
        raise NotRegular("germ table requested at a non-regular element")
    k = _deepening(d)
    germs = extract_germs(X.scale(cfg.zeta ** (2 * k)) if k else X, basis)
    return homogeneity_extend(germs, -k, cfg)


def closed_form_germs(X: Sl2Element) -> Dict[OrbitLabel, Rat]:
    """Shalika's germs of sl2 in the engine's normalization, in closed form.

    With s = -det X and t = val s: the zero entry is 0 for split X, -1/q for
    unramified X and -(q+1)/(2q^2) for ramified X; the class-lambda entry is
    q^(t//2) when X is split or the Hilbert pairing (lambda [b], [s])_p is
    1, and 0 otherwise.  It reads X's entries, and the square classes of s
    and b once each; extract_germs_auto is its oracle (verify germs).
    """
    cfg, p, q = X.cfg, X.cfg.p, X.cfg.q
    s = X.a * X.a + X.b * X.c
    if s == 0:
        raise NotRegular("germ table requested at a non-regular element")
    t, s_cls = val_p(s, p), square_class_of_rational(s, p)
    split = s_cls == SquareClass.ONE
    zero = 0 if split else (
        Fraction(-1, q) if t % 2 == 0 else Fraction(-(q + 1), 2 * q * q))
    reg = cfg.qpow(t // 2)
    # b != 0 off the split torus: b = 0 would make s = a^2 a square
    b_cls = None if split else square_class_of_rational(X.b, p)
    values = {ORBIT_ORDER[0]: zero}             # the zero orbit
    for om in ORBIT_ORDER[1:]:
        admitted = split or (om.nil_class * b_cls).hilbert(s_cls, p) == 1
        values[om] = reg if admitted else 0
    return values


def construct_Hr_Omega(r: int, omega: OrbitLabel,
                       pool: GermBasis) -> List[Tuple[str, LCFunction]]:
    """Combinations of pool members whose nilpotent vector sits on omega alone.

    Exact solve: with A the (pool x 5) nilpotent matrix, returns functions
    built from particular solutions of A^T x = e_omega (translated by kernel
    vectors for variety); every output is re-verified.
    """
    if pool.rank < 5:
        raise PoolDeficient("pool spans fewer than 5 independent nilpotent vectors")
    target = [int(om == omega) for om in ORBIT_ORDER]
    x0 = pool.transpose_reduction.solve(target)
    if x0 is None:
        raise PoolDeficient("target orbit vector not in the pool's span")
    combos = [x0] + [[a + b for a, b in zip(x0, kv)] for kv in pool.kernel[:2]]
    out = []
    for idx, coeffs in enumerate(combos):
        f = _combination(coeffs, pool)
        if f is not None:
            out.append((f"H{r}({omega!r})#{idx}", f))
    for (name, _), nv in zip(out, CellTable(f for _, f in out).nilpotent_rows()):
        if list(nv) != target:
            raise InvariantViolated(f"combination {name} has a nilpotent vector "
                                    "off the target orbit")
    return out


def nilpotent_center(cfg: FieldConfig, label: OrbitLabel, level: int) -> Sl2Element:
    """A class-`label` nilpotent ((0, b0), (0, 0)) just outside p^level sl2(O).

    b0 has the largest valuation below `level` compatible with the class
    parity, so the coset b0 + p^level O is a genuine off-zero cell.
    """
    par = label.nil_class.parity
    v_star = level - 1 if (level - 1) % 2 == par else level - 2
    b0 = label.nil_class.representative(cfg) * cfg.qpow(v_star - par)
    return Sl2Element.from_rationals(cfg, 0, b0, 0)


def default_pool(cfg: FieldConfig, r: int) -> List[Tuple[str, LCFunction]]:
    """Depth-r proxy generators used by the claim and theorem suites."""
    centers = [Sl2Element.zero(cfg)] + [nilpotent_center(cfg, l, r + 1)
                                        for l in (REG_ONE, REG_EPS, REG_PI, REG_EPSPI)]
    cnames = ["0", "nOne", "nEps", "nPi", "nEpsPi"]
    points = [make_vertex(cfg, 1, 0), make_vertex(cfg, -1, 0)]
    pool = [(f"1[{cn}+g(v0,{r + 1})]", indicator_lattice(cfg, BASE, r + 1, center=Y))
            for cn, Y in zip(cnames, centers)]
    return pool + [(f"1[0+g(x{i},{r + 1})]", indicator_lattice(cfg, x, r + 1))
                   for i, x in enumerate(points, 1)]


def kernel_combinations(pool: GermBasis) -> List[Tuple[str, LCFunction]]:
    """Pool combinations with identically vanishing nilpotent vector."""
    out = []
    for idx, kv in enumerate(pool.kernel):
        f = _combination(kv, pool)
        if f is not None and not f.is_zero:
            out.append((f"ker#{idx}", f))
    return out


def verify_claim(r: int, pool: GermBasis,
                 X_grid: Sequence[Tuple[str, Sl2Element]]) -> List[ExpansionReport]:
    """All pool combinations with zero nilpotent vector must kill every I_X.

    Combines the exact kernel of the pool with the dilation combinations
    q^d f - f_zeta over the single-orbit subfamilies; the pool's nilpotent
    matrix and kernel serve all six solves.  Every h goes into one cell
    table: five nilpotent rows re-check its vector, then one row per X.
    """
    hs = kernel_combinations(pool)
    for om in ALL_ORBITS:
        for name, f in construct_Hr_Omega(r, om, pool):
            hs.append((f"h[{name}]", h_combination(f, om.dim)))
    table = CellTable(h for _, h in hs)
    for (hname, _), nv in zip(hs, table.nilpotent_rows()):
        if any(v != 0 for v in nv):
            raise InvariantViolated(f"{hname} has a nonzero nilpotent vector")
    orbits = [(xname, X, Orbit.of(X)) for xname, X in X_grid]
    columns = [(xname, orbit.rules[0].torus_kind(), depth(X), table.integrals(orbit))
               for xname, X, orbit in orbits]
    return [ExpansionReport(f_id=hname, x_id=xname, torus=torus, depth=d, r=r,
                            lhs=lhs[i], rhs=0, expected=True)
            for i, (hname, _) in enumerate(hs) for xname, torus, d, lhs in columns]


def verify_theorem(r: int, family: Sequence[Tuple[str, LCFunction]],
                   X_grid: Sequence[Tuple[str, Sl2Element]]) -> List[ExpansionReport]:
    """Expansion residuals over (family x grid) with the closed-form germs.

    Rows with depth(X) >= proxy depth of f and 0 < depth(X) < INF (X regular
    and topologically nilpotent, the domain of the group-side transfer) are
    gated; shallower rows are contrast rows and only recorded.  Each X's
    germs are closed_form_germs(X), which verify germs checks against
    extraction.  One cell table of the family serves the whole grid; each
    member's nilpotent row is cleared to ints once, and each rhs is
    expansion_rhs of it, formed as one int dot product.
    """
    cells = CellTable(f for _, f in family)
    nil_rows = [clear_denominators(nv) for nv in cells.nilpotent_rows()]
    proxy = [f.proxy_depth() for _, f in family]
    reports = []
    for xname, X in X_grid:
        germs, orbit = closed_form_germs(X), Orbit.of(X)
        G, j_ints = clear_denominators([germs[om] for om in ORBIT_ORDER])
        torus, d = orbit.rules[0].torus_kind(), depth(X)
        gate = 0 < d < INF
        for (fname, _), (den, nv), rf, lhs in zip(family, nil_rows, proxy,
                                                  cells.integrals(orbit)):
            # expansion_rhs(germs, nv), as one int dot product
            rhs = ratio(sum(g * n for g, n in zip(j_ints, nv)), G * den)
            reports.append(ExpansionReport(
                f_id=fname, x_id=xname, torus=torus, depth=d, r=rf,
                lhs=lhs, rhs=rhs, expected=gate and d >= rf))
    return reports


def reports_to_csv(reports: Sequence[ExpansionReport]) -> str:
    """The header and one row per report; fields holding a comma are quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rep.csv_row() for rep in reports)
    return out.getvalue()

"""Exact semisimple and nilpotent orbital integrals on sl2(Q_p).

The adjoint orbit through a regular X with s := -det(X) is charted by
(a, b) -> ((a, b), ((s - a^2)/b, -a)) over b != 0, with invariant chart
measure da db/|b| (the Gelfand-Leray form of the determinant).  Nilpotent
orbits are the s = 0 fibers restricted to a square class of b.  Semisimple
integrals carry the extra factor q^floor(val(s)/2) = |u|_floor^{-1}, which
makes the substitution covariance  I_{c X}(f) = I_X(f_c)  an exact identity
of the engine for c = zeta^2 (and any even-valuation c).

The engine integrates an Orbit, given by s and the OrbitLabel that
sl2.classify returns, never a matrix; the label says which b the orbit
admits (OrbitLabel.admits, the class test of classify), read on each
b-stratum as the set of admitted leading digits (OrbitLabel.digits).  It
reads a function as a sum of product cells
a in alpha + p^N O,  b in beta + p^N O,  c in chi + p^N O, one per term: a
coset of g_{v,N} is moved to the base vertex by Ad(g_v^{-1}) together with
the orbit (LCFunction.integration_cells, Orbit.cell_value).  The move
multiplies b by p^m (m = v.m), so the moved orbit keeps s and takes the label
of X when m is even and OrbitLabel.moved(cfg) when m is odd.  An integral is
linear in f, so it is a sum of per-cell values of the orbit; the suites
evaluate each (orbit, cell) pair once (germs.CellTable).  For each cell the
b-integral collapses, per valuation stratum, to at most (q-1)/2 quadratic
congruence measures

    SQMEAS(alpha, N, theta, m) = meas{a in alpha + p^N O : val(a^2 - theta) >= m},

each of which is zero, one ball, or two Hensel-branch cosets.  Strata are
summed exactly up to the index v* of _tail_start, past which Hensel's lemma
makes them exactly geometric; the tail is summed in closed form and one
further block re-checks the ratio, raising InvariantViolated if it fails.

Every such measure and stratum is an int multiple of a power of q, so the
engine carries it as the int pair (count, k), meaning count q^-k; the only
other denominator is the tail's q^j - 1.  A distinct cell costs one
Fraction, its value, and none when that value is an integer: it is then an
int (padic.ratio).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .errors import GridTooLarge, InvariantViolated, NotRegular
from .padic import (FieldConfig, Rat, exact, hensel_sqrt, leading_digit, legendre,
                    mod_pk, ratio, unit_mod_pk, val_p)
from .sl2 import ALL_ORBITS, OrbitLabel, Sl2Element, _classify, classify, rep_elliptic
from .lcfunc import LCFunction, indicator_lattice
from .tree import BASE, tree_count_oracle
from .value import Value


def fingerprint(cfg: FieldConfig) -> str:
    """Measure conventions baked into every reported number."""
    return (f"p={cfg.p};zeta=p;eps={cfg.eps};"
            "dg:vol(SL2(O))=1;dt:vol(T_compact)=1;"
            "ss:q^floor(val_u)*(da db/|b|) on -a^2-bc=detX (norm-coset cut);"
            "nil:Zero=delta_0,Regular(l)=da db/|b| on bc=-a^2,b in class l")


class IntegralResult(Value):
    def __init__(self, value: Rat, v0: int, tail: str):
        self._freeze(value=value, v0=v0, tail=tail)

    def to_json(self) -> dict:
        return {"value": str(self.value), "v0": self.v0, "tail": self.tail}


_SQMEAS_CACHE: Dict[tuple, Tuple[int, int]] = {}
_ZERO = (0, 0)


def _common(p: int, pairs) -> Tuple[list, int]:
    """The counts of measures (count, k) over one power q^-K, K their largest k."""
    K = max(k for _c, k in pairs)
    return [c * p ** (K - k) for c, k in pairs], K


def _fraction(p: int, num: int, k: int, den: int = 1) -> Rat:
    """num / (den q^k) for any integer k, as an exact value (padic.ratio)."""
    return ratio(num, den * p**k) if k >= 0 else ratio(num * p**-k, den)


def sqmeas(p: int, alpha: Rat, N: int, theta: Rat, m: int) -> Tuple[int, int]:
    """meas{a in alpha + p^N O : val(a^2 - theta) >= m} as (count, k): count q^-k.

    The set is the ball p^ceil(m/2) O when val(theta) >= m, else empty or the
    two Hensel-branch cosets +-r p^(t/2) + p^(m - t/2) O (t = val theta even,
    r the root of the unit part mod p^(m - t)).  Each of them that meets
    alpha + p^N O adds q^-max(N, radius).  Memoised on the ints of its
    arguments in _SQMEAS_CACHE.
    """
    an, ad = alpha.numerator, alpha.denominator
    key = (p, an, ad, N, theta.numerator, theta.denominator, m)
    hit = _SQMEAS_CACHE.get(key)
    if hit is not None:
        return hit
    t = val_p(theta, p)
    if t >= m:
        level = -(-m // 2)  # ceil(m/2)
        out = (1, max(N, level)) if not an or val_p(alpha, p) >= min(N, level) else _ZERO
    elif t % 2 != 0:
        out = _ZERO
    else:
        u = unit_mod_pk(theta, p, m - t)
        if legendre(u, p) != 1:
            out = _ZERO
        else:
            r, half = hensel_sqrt(u, p, m - t), t // 2
            level = m - half
            # the centres +-r p^half as cn / cd; alpha - c = (an cd - cn ad) / (ad cd)
            cn, cd = (r * p**half, 1) if half >= 0 else (r, p**-half)
            mod = p ** max(0, min(N, level) + val_p(ad * cd, p))
            count = ((an * cd - cn * ad) % mod == 0) + ((an * cd + cn * ad) % mod == 0)
            out = (count, max(N, level))
    _SQMEAS_CACHE[key] = out
    return out


def _stratum_value(cfg: FieldConfig, s: Rat, digits: frozenset,
                   alpha: Rat, chi: Rat, N: int, v: int) -> Tuple[int, int]:
    """Contribution q^v * meas{(a,b): val b = v, cell conditions} of one stratum,
    as (count, k): count q^-k.  `digits` are the leading digits of b the
    orbit admits on this stratum, rule.digits(v, cfg).

    Only called for cells whose b-coset is the full ball p^N O (val(beta) >= N),
    so strata run over v >= N.
    """
    p = cfg.p
    if not digits:
        return _ZERO
    e = val_p(chi, p)
    if e >= N:  # c-condition reads s - a^2 in p^(N+v) O, independent of b
        c, k = sqmeas(p, alpha, N, s, N + v)  # times q^v * vol_b, vol_b = #digits q^(-v-1)
        return len(digits) * c, k + 1
    # c-condition pins b to a coset of radius p^(N+v-e) around (s - a^2)/chi;
    # the stratum is q^{v - T_v} = q^(e - N) times an a-measure
    w = v + e
    if len(digits) == p - 1:
        (c0, c1), k = _common(p, (sqmeas(p, alpha, N, s, w), sqmeas(p, alpha, N, s, w + 1)))
        return c0 - c1, k + N - e
    lead_chi = leading_digit(chi, p)
    pw = p**w if w >= 0 else Fraction(1, p**-w)
    # b* = psi/chi leads with delta, so psi = s - a^2 leads with delta * lead(chi)
    counts, k = _common(p, [sqmeas(p, alpha, N, s - delta * lead_chi % p * pw, w + 1)
                            for delta in digits])
    return sum(counts), k + N - e


def _bounded_cell_value(cfg: FieldConfig, s: Rat, rule: OrbitLabel,
                        alpha: Rat, beta: Rat, chi: Rat, N: int) -> Tuple[int, int]:
    """Cell with val(beta) < N: a single stratum at v = val(beta), no tail;
    (count, k) as in _stratum_value."""
    p = cfg.p
    w_b = val_p(beta, p)
    if leading_digit(beta, p) not in rule.digits(w_b, cfg):
        return _ZERO
    e = val_p(chi, p)
    if e >= N:  # q^w_b * q^-N * SQMEAS(alpha, N, s, N + w_b)
        c, k = sqmeas(p, alpha, N, s, N + w_b)
        return c, k + N - w_b
    expo = w_b - max(N, N + w_b - e)
    c, k = sqmeas(p, alpha, N, s - chi * beta, N + min(e, w_b))
    return c, k - expo


def _tail_start(cfg: FieldConfig, s: Rat, chi: Rat, N: int) -> int:
    """Index v* from which the strata obey S(v+2) = rho S(v) exactly.

    Stratum v measures {a in alpha + p^N O : val(a^2 - theta) >= m}, times a
    factor fixed by the parity of v, with w = v + min(val chi, N), m in
    {w, w+1} and theta in {s, s - d p^w}.  By Hensel's lemma, as in sqmeas:
    for s = 0 the set is a ball or two cosets of radius about w/2, inside
    p^N O once w >= 2N.  For t = val(s) and w > t, theta has valuation t and
    the leading digit of s, so the set is empty (s no square) or
    +-r + p^(m - t/2) O with r^2 = theta and r = sqrt(s) mod p^(w - t/2);
    once w > N + t/2 that radius is finer than the cell and r is fixed mod
    p^N.  Past v* each stratum is one fixed set of cosets, shrinking by
    q^(1/2) (s = 0) or q (s != 0) per unit of w.
    """
    if s == 0:
        w0 = 2 * N
    else:
        t = int(val_p(s, cfg.p))
        w0 = max(t + 1, N - (-t // 2) + 1)
    return max(N, w0 - min(val_p(chi, cfg.p), N))


@lru_cache(maxsize=1 << 14)
def _cell_integral(cfg: FieldConfig, s: Rat, rule: OrbitLabel,
                   cell: Tuple[Rat, Rat, Rat], N: int) -> Tuple[Rat, int, str]:
    """Exact integral of one product cell: head sum plus closed-form tail.

    Past v* = _tail_start, S(v+2) = rho S(v) with rho = q^-j, j = 1
    (nilpotent) or 2 (split), or rho = 0 (elliptic), so the tail is
    B0/(1 - rho) with B0 = S(v*) + S(v*+1); the next block B1 re-checks rho.
    The strata are int counts over one power q^-K, so the check is an int
    equality and the value is (head (q^j - 1) + B0 q^j) / (q^K (q^j - 1)), or
    (head + B0) / q^K: an int when it divides, else the one Fraction.
    Memoised: a pure function of exact, value-hashed arguments, and the
    suites integrate the same cells against many X.
    """
    alpha, beta, chi = cell
    p = cfg.p
    if val_p(beta, p) < N:
        c, k = _bounded_cell_value(cfg, s, rule, alpha, beta, chi, N)
        return _fraction(p, c, k), N, "finite"
    v_star = _tail_start(cfg, s, chi, N)
    by_parity = (rule.digits(0, cfg), rule.digits(1, cfg))
    counts, K = _common(p, [_stratum_value(cfg, s, by_parity[v % 2], alpha, chi, N, v)
                            for v in range(N, v_star + 4)])
    head = sum(counts[:-4])
    B0, B1 = counts[-4] + counts[-3], counts[-2] + counts[-1]
    j = {"nil": 1, "split": 2}.get(rule.kind)
    if j is None:  # elliptic: rho = 0
        geometric, num, den = B1 == 0, head + B0, 1
    else:
        qj = p**j
        geometric, num, den = B1 * qj == B0, head * (qj - 1) + B0 * qj, qj - 1
    if not geometric:
        rho = f"q^-{j}" if j else "0"
        raise InvariantViolated(f"strata from v*={v_star} are not geometric with ratio "
                                f"{rho}: {B0}, {B1} (times q^-{K})")
    tail = "0" if B0 == 0 or j is None else "geometric"
    return _fraction(p, num, K, den), v_star, tail


class Orbit(Value):
    """An orbit as the engine integrates it: s = -det, labels and prefactor.

    `rules` holds the label for cells moved from a vertex of even and of
    odd m (see OrbitLabel.moved); for the zero orbit, the point mass at 0,
    both are ZERO_ORBIT.  Built once per X (one classification); the integral
    of every cell then depends on the orbit alone, so suites share one Orbit
    across all the functions they integrate.
    """

    def __init__(self, cfg: FieldConfig, s: Rat, rules: Tuple[OrbitLabel, OrbitLabel],
                 prefactor: Rat):
        self._freeze(cfg=cfg, s=s, rules=rules, prefactor=prefactor)

    @classmethod
    def of(cls, X: Sl2Element) -> "Orbit":
        """The orbit of a regular semisimple X, with |u|^{-1} floored to stay rational."""
        cfg = X.cfg
        label, s = _classify(X)
        if not label.is_regular:
            raise NotRegular("ss_orbital needs a regular semisimple element")
        return cls(cfg, s, (label, label.moved(cfg)), cfg.qpow(int(val_p(s, cfg.p)) // 2))

    @classmethod
    def nilpotent(cls, cfg: FieldConfig, label: OrbitLabel) -> "Orbit":
        """A nilpotent orbit: the s = 0 fiber with b in the label's class."""
        return cls(cfg, 0, (label, label.moved(cfg)), 1)

    def cell_value(self, key: Tuple[Rat, Rat, Rat], n: int,
                   odd: int) -> Tuple[Rat, int, str]:
        """(value, v0, tail) of the base-vertex cell key + p^n sl2(O) moved
        from a vertex with m = odd mod 2, before the prefactor.

        The zero orbit's value is 1 when the cell holds 0, that is when its
        reduced centre is 0.
        """
        if self.rules[odd].kind == "zero":
            return int(not any(key)), 0, "point"
        return _cell_integral(self.cfg, self.s, self.rules[odd], key, n)

    def integrate(self, f: LCFunction) -> IntegralResult:
        """Integral of f over the orbit, one cell value per term of f."""
        total = 0
        v0_max = 0
        tails = set()
        for coeff, key, n, v in f.integration_cells():
            val, v0, tail = self.cell_value(key, n, v.m % 2)
            total += coeff * val
            v0_max = max(v0_max, v0)
            tails.add(tail)
        if self.rules[0].kind == "zero":
            tail_desc = "point"
        else:
            tail_desc = "finite" if tails <= {"finite", "0"} else "geometric"
        return IntegralResult(exact(self.prefactor * total), v0_max, tail_desc)


def ss_orbital(X: Sl2Element, f: LCFunction) -> IntegralResult:
    """Orbital integral of f over the SL2(F)-orbit of a regular semisimple X."""
    return Orbit.of(X).integrate(f)


def nilpotent_orbital(label: OrbitLabel, f: LCFunction) -> IntegralResult:
    """I_Omega(f): point mass at 0 for the zero orbit, chart integral else."""
    return Orbit.nilpotent(f.cfg, label).integrate(f)


def nilpotent_vector(f: LCFunction) -> Dict[OrbitLabel, Rat]:
    """All five nilpotent orbital integrals (I_Omega(f))_Omega of f."""
    return {om: nilpotent_orbital(om, f).value for om in ALL_ORBITS}


# -- brute-force oracle ------------------------------------------------------


def _oracle_rule(target):
    """(s, label) of a nilpotent label or a regular semisimple element."""
    if isinstance(target, OrbitLabel):
        return Fraction(0), target
    label = classify(target)
    if not label.is_regular:
        raise NotRegular("oracle target must be regular or a nilpotent label")
    a, b, c = target.exact_entries()
    return a * a + b * c, label


def _interval_ameas(cfg: FieldConfig, alpha: Rat, N: int, theta: Rat,
                    m_lo: int, m_hi: int) -> list:
    """[meas{a in alpha + p^N O : val(a^2 - theta) >= m} for m in m_lo..m_hi],
    each as (count, k): count q^-k, by one coset subdivision.

    Pure interval logic: a coset (gamma, l) is fully inside for a target
    when both the centre value and every perturbation term reach its
    valuation, fully outside when the centre value is pinned strictly below
    every perturbation, and is subdivided otherwise.  A single target is
    the range m..m.

    It runs on ints.  With a = p^-e a' and
    e = max(0, -N, -val alpha, ceil(-val theta / 2)), alpha and theta are
    p-integral, levels are >= 0 and every valuation above shifts by 2e: the
    targets are M = m + 2e, each branch decision is unchanged and the measure
    gains a factor q^e.  No decision tells valuations >= M_hi apart, so
    centres are ints mod p^M_hi and no level >= M_hi is subdivided.  A
    target M <= 0 takes the whole coset.

    The perturbation 2 gamma p^l d + p^2l d^2 of a coset of level l has
    valuation pi = min(l + val gamma, 2l) (p is odd), here capped at M_hi,
    and pi grows from a coset to its children.  The targets M <= pi are
    decided on the coset itself: inside when M <= val(theta - gamma^2).
    Its parent, of perturbation pi', decided those up to pi', so the coset
    adds its measure to the targets pi' < M <= min(val(theta - gamma^2), pi)
    and is subdivided for the targets above pi when pi < M_hi and p^pi
    divides theta - gamma^2; else it is outside for all of them.  Both
    valuations are read off a gcd with a power of p.
    """
    p = cfg.p
    e = max(0, -N, -val_p(alpha, p), -(val_p(theta, p) // 2) if theta else 0)
    lo, hi = m_lo + 2 * e, m_hi + 2 * e
    if hi <= 0:
        return [(1, N)] * (m_hi - m_lo + 1)
    K = max(hi, N + e)  # every coset level lies in N + e..K
    pw = [p**k for k in range(K + 1)]
    log = {x: k for k, x in enumerate(pw)}
    pH = pw[hi]
    theta = int(mod_pk(theta * p ** (2 * e), p, hi))
    diff = [0] * (hi - lo + 2)  # counts in units of q^-K, as differences over M
    stack = [(int(mod_pk(alpha * p**e, p, hi)), N + e, lo)]  # (gamma, l, least open M)
    while stack:
        gamma, l, first = stack.pop()
        t = min(hi - l, l)
        pert = l + log[math.gcd(gamma, pw[t])] if t > 0 else l + t
        top = min(log[math.gcd(theta - gamma * gamma, pH)], pert)
        if top >= first:
            diff[first - lo] += pw[K - l]
            diff[top - lo + 1] -= pw[K - l]
        if pert < hi and top == pert:
            step, nxt = pw[l], max(lo, pert + 1)
            stack.extend((gamma + i * step, l + 1, nxt) for i in range(p))
    return [(count, K - e) for count in itertools.accumulate(diff[:-1])]


_ORACLE_BUDGET = 60_000  # b-cosets times cells times strata, at most
_ORACLE_WINDOW = 9       # split and nilpotent strata run to N + |val s| + M + 9


def brute_force_cell_oracle(target, f: LCFunction) -> Fraction:
    """Independent stratum-by-stratum evaluation of the chart integral.

    The b-plane is enumerated coset by coset per valuation stratum; the
    a-measure of each quadratic congruence is computed by raw interval
    subdivision (no Hensel branch analysis shared with the engine).  Elliptic
    targets terminate exactly; split and nilpotent targets extend the strata
    by the geometric tail that their last three two-stratum blocks show.  The
    value is exact: past the budget, or with no such tail, GridTooLarge is
    raised instead.

    The enumeration runs on ints.  Cell centres and s, which stratum v reads
    only mod p^(N + v), are cleared once to one p-power denominator D, and
    every b-coset centre b has b p^M an int.  So b matches the cells with
    beta D p^M = b p^M D mod p^(N + M) D, and theta = s - b chi, times
    D p^M, is the int s D p^M - b p^M (chi D).  Stratum v asks for
    val(a^2 - theta) >= N + v.  canonical_cells reduces centres mod p^N,
    so chi = 0 is val chi >= N: then theta = s on every b-coset of every
    stratum, and one subdivision per alpha gives the a-measures of all
    strata at once.  Any other cell reads theta only mod p^(N + v), that is
    the int above mod p^(N + v) D p^M, and its single-target measures are
    memoised per call on (alpha, that residue, v).  Measures and strata
    are int counts over powers of q, so the tail test compares ints, and
    the value is the one Fraction of the call.
    """
    cfg = f.cfg
    p = cfg.p
    s, rule = _oracle_rule(target)
    if rule.kind == "zero":  # direct membership sum at 0
        return f.at_zero()
    N = f.level()
    cells = f.canonical_cells(N)
    if not cells:  # f vanishes identically
        return Fraction(0)
    # every cell lies in p^-M sl2(O)
    M = max(0, *(-min(N, *(val_p(x, p) for x in key)) for key in cells))
    vs = int(val_p(s, p)) if s != 0 else 0
    if rule.kind == "elliptic":
        v_max = max(N, vs + 1 + M) + 1          # strata beyond are empty
    else:
        v_max = N + abs(vs) + M + _ORACLE_WINDOW
    lo = -M
    n_b = max(1, N + M)  # b-digits: decides both b mod p^N and b*chi mod p^(N+v)
    if (p - 1) * p ** (n_b - 1) * (v_max - lo + 1) * len(cells) > _ORACLE_BUDGET:
        raise GridTooLarge("b-coset enumeration exceeds the budget")

    s = mod_pk(s, p, N + v_max)
    D = math.lcm(s.denominator, *(x.denominator for key in cells for x in key))
    DpM = D * p**M
    E = val_p(D, p) + M  # DpM = p^E
    den = math.lcm(*(coeff.denominator for coeff in cells.values()))
    mod_beta = p ** max(0, N + E)
    by_beta: Dict[int, list] = {}
    for (al, be, ch), coeff in cells.items():
        by_beta.setdefault(int(be * DpM) % mod_beta, []).append(
            (al, int(al * D), int(ch * D), int(coeff * den)))
    S = int(s * DpM)
    ranges: Dict[int, list] = {}                # chi = 0: alpha -> measures of strata lo..v_max
    memo: Dict[tuple, Tuple[int, int]] = {}     # chi != 0: (alpha, theta residue, v) -> measure
    rows = []  # per stratum, coeff times measure count by the measure's power k of q^-1
    for v in range(lo, v_max + 1):
        row: Dict[int, int] = {}
        digits = rule.digits(v, cfg)
        if digits:
            mod_theta = p ** max(0, N + v + E)  # theta mod p^(N + v), times p^E
            pv = p ** (v + M)
            for ib in range(p ** (n_b - 1)):
                for d0 in digits:
                    bM = (d0 + p * ib) * pv  # b p^M
                    for al, A, X, C in by_beta.get(bM * D % mod_beta, ()):
                        # a-condition: val(s - a^2 - b*chi) >= N + v
                        if X == 0:
                            am = ranges.get(A)
                            if am is None:
                                am = ranges[A] = _interval_ameas(cfg, al, N, s, N + lo, N + v_max)
                            c, k = am[v - lo]
                        else:
                            R = (S - bM * X) % mod_theta
                            am = memo.get((A, R, v))
                            if am is None:
                                am = memo[A, R, v] = _interval_ameas(
                                    cfg, al, N, Fraction(R, DpM), N + v, N + v)[0]
                            c, k = am
                        if c:
                            row[k] = row.get(k, 0) + C * c
        rows.append(row)
    # stratum v is strata[v - lo] / (den q^(n_b + K)): q^v vol_b sum, vol_b = q^-(v + n_b)
    K = max((k for row in rows for k in row), default=0)
    strata = [sum(c * p ** (K - k) for k, c in row.items()) for row in rows]
    if rule.kind == "elliptic":
        num, dd = sum(strata), 1
    else:
        # observed-block geometric tail over the last six strata, ratio 0,
        # 1/q or 1/q^2: B1 = rho B0 and B2 = rho B1, summed as B0 / (1 - rho)
        B0, B1, B2 = (strata[i] + strata[i + 1] for i in (-6, -4, -2))
        head = sum(strata[:-6])
        if B1 == 0 == B2:
            num, dd = head + B0, 1
        else:
            qj = next((qj for qj in (p, p * p) if B1 * qj == B0 and B2 * qj == B1), None)
            if qj is None:
                raise GridTooLarge(f"strata {v_max - 5}..{v_max} show no geometric tail")
            num, dd = head * (qj - 1) + B0 * qj, qj - 1
    x = vs // 2 - n_b - K  # the prefactor q^floor(val s / 2) over q^(n_b + K)
    return Fraction(num * p ** max(x, 0), dd * den * p ** max(-x, 0))


def tree_oracle_cases(cfg: FieldConfig):
    """(name, X, level, R) cases for the fixed-point-count cross-check."""
    p, e = cfg.p, cfg.eps
    cases = []
    for k, levels in ((0, (0, -1)), (1, (0, 1)), (2, (0, 1, 2))):
        X = Sl2Element.from_rationals(cfg, p**k, 0, 0)
        for n in levels:
            cases.append((f"split-d{k}-n{n}", X, n, (k - n) + 3))
    for k, levels in ((0, (0, -1)), (1, (0, 1))):
        X = rep_elliptic(cfg, e * p ** (2 * k), tag=True)
        for n in levels:
            cases.append((f"unram-d{k}-n{n}", X, n, (k - n) + 3))
    Xf = rep_elliptic(cfg, e * p**2, tag=False)
    cases.append(("unram-d1-F-n0", Xf, 0, 4))
    for j, levels in ((1, (0, -1)), (3, (0, 1))):
        for nm, s in ((f"ramPi-d{j}of2", p**j), (f"ramEpsPi-d{j}of2", e * p**j)):
            X = rep_elliptic(cfg, s, tag=True)
            for n in levels:
                cases.append((f"{nm}-n{n}", X, n, (j + 1) // 2 - n + 3))
    return cases


def tree_oracle_compare(cfg: FieldConfig):
    """Engine vs fixed-point count: one calibration constant per torus type.

    Returns (rows, ok); every case, the first of its torus type included,
    must give engine = constant * count, with the constants (q+1)/q for
    split X, (q-1)/q for unramified X and (q^2-1)/(2q^2) for ramified X: a
    measured fit in closed form until ROADMAP direction P derives it.  Each
    X is classified once, as one Orbit, for all its levels n.
    """
    q = Fraction(cfg.q)
    ramified = (q * q - 1) / (2 * q * q)
    constants = {"split": (q + 1) / q, "unramified": (q - 1) / q,
                 "ramified-Pi": ramified, "ramified-EpsPi": ramified}
    orbits = {}
    rows = []
    ok = True
    for name, X, n, R in tree_oracle_cases(cfg):
        if X not in orbits:
            orbits[X] = Orbit.of(X)
        orbit = orbits[X]
        eng = orbit.integrate(indicator_lattice(cfg, BASE, n)).value
        cnt = tree_count_oracle(cfg, X, n, R)
        kind = orbit.rules[0].torus_kind()
        good = eng == constants[kind] * cnt
        ok = ok and good
        rows.append({"case": name, "torus": kind, "engine": str(eng),
                     "count": str(cnt), "pass": good})
    rows.append({"calibration": {k: str(v) for k, v in sorted(constants.items())}})
    return rows, ok

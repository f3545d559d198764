"""The cell table against two paths that share none of its bookkeeping.

A CellTable reads a family once and returns each member's integral over an
Orbit (integrals) as an int dot product with one value per distinct cell,
over one common denominator.  Its values must equal

* the per-term sum  prefactor * sum_i coeff_i * _cell_integral.__wrapped__,
  each term moved to the base vertex by ad_to_base and integrated against a
  label got by reclassifying Ad(g_v^{-1}) X (or the nilpotent representative),
  with no memo and no OrbitLabel.moved();
* the refinement path: ss_orbital / nilpotent_orbital of f.canonicalize(),
  whose standard cells all sit at the base vertex.

ss_orbital and nilpotent_orbital keep their (value, v0, tail) per term, also
when two terms of a function cancel.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from germlab import (ALL_ORBITS, CellTable, CosetCell, FieldConfig, LCFunction,
                     Orbit, OrbitLabel, Sl2Element, ZERO_ORBIT, classify,
                     nilpotent_orbital, random_conjugate,
                     rep_elliptic, rep_nilpotent, ss_orbital)
from germlab.orbital import _cell_integral
from germlab.padic import mod_pk, val_p
from germlab.tree import BASE, ad_to_base, ball, distance

CFGS = {p: FieldConfig(p) for p in (3, 5)}

# canonicalize() splits a coset at distance d below level N into q^(3d)
# standard cells, so p=5 stays within distance 1 (p=3 reaches distance 2)
VERTICES = {3: ball(CFGS[3], BASE, 2), 5: ball(CFGS[5], BASE, 1)}


def regular_elements(cfg):
    """Split and elliptic X of every torus type and both norm tags, with conjugates."""
    p, e = cfg.p, cfg.eps
    reps = [Sl2Element(cfg, p, 0, 0), Sl2Element(cfg, 1, 0, 0),
            rep_elliptic(cfg, e * p**2, tag=True), rep_elliptic(cfg, e, tag=False),
            rep_elliptic(cfg, p, tag=True), rep_elliptic(cfg, p, tag=False),
            rep_elliptic(cfg, e * p, tag=True), rep_elliptic(cfg, e * p**3, tag=False)]
    return reps + [random_conjugate(X, seed) for seed, X in enumerate(reps)]


XS = {p: regular_elements(cfg) for p, cfg in CFGS.items()}


@st.composite
def families(draw):
    """(cfg, X, functions): 1-3 functions over a shared set of 1-4 cells.

    Cells sit at vertices of odd and even m; terms repeat cells within and
    across functions, and a function may carry a cancelling pair c, -c on
    one cell.
    """
    p = draw(st.sampled_from((3, 5)))
    cfg = CFGS[p]
    N = draw(st.integers(0, 2))
    entry = st.builds(Fraction, st.integers(-p * p, p * p), st.sampled_from((1, p)))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.sampled_from(VERTICES[p]))
        Y = Sl2Element(cfg, draw(entry), draw(entry), draw(entry))
        cells.append(CosetCell(Y, v, N - distance(cfg, BASE, v)))
    # composite and p-power denominators exercise the table's lcm clearing
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.sampled_from((1, 2, 3, 4, 6, 7, p, p * p)))
    functions = []
    for _ in range(draw(st.integers(1, 3))):
        terms = [(draw(coeff), draw(st.sampled_from(cells)))
                 for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            c, cell = draw(coeff), draw(st.sampled_from(cells))
            terms += [(c, cell), (-c, cell)]
        functions.append(LCFunction(cfg, terms))
    return cfg, draw(st.sampled_from(XS[p])), functions


def per_term(target, f):
    """(value, v0, tail) of I_target(f), one unmemoised cell integral per term."""
    cfg = f.cfg
    p = cfg.p
    if target == ZERO_ORBIT:
        zero = Sl2Element.zero(cfg)
        return sum((c for c, cell in f.terms if cell.contains(zero)), Fraction(0)), 0, "point"
    if isinstance(target, OrbitLabel):
        s, prefactor, Y = Fraction(0), Fraction(1), rep_nilpotent(cfg, target)
    else:
        a, b, c = target.exact_entries()
        s = a * a + b * c
        prefactor, Y = cfg.qpow(int(val_p(s, p)) // 2), target
    total, v0_max, tails = Fraction(0), 0, set()
    for coeff, cell in f.terms:
        v, n = cell.vertex, cell.level
        key = tuple(mod_pk(e, p, n) for e in ad_to_base(cfg, v, *cell.center.exact_entries()))
        moved = Sl2Element(cfg, *ad_to_base(cfg, v, *Y.exact_entries()))
        val, v0, tail = _cell_integral.__wrapped__(
            cfg, s, classify(moved), key, n)
        total += coeff * val
        v0_max = max(v0_max, v0)
        tails.add(tail)
    return (prefactor * total, v0_max,
            "finite" if tails <= {"finite", "0"} else "geometric")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(families())
def test_table_matches_the_per_term_sum_and_refinement(case):
    cfg, X, functions = case
    table = CellTable(functions)
    # refining costs up to q^(3d) cells per term: the first function only
    refined = functions[0].canonicalize()
    targets = [(X, Orbit.of(X), ss_orbital)]
    targets += [(om, Orbit.nilpotent(cfg, om), nilpotent_orbital) for om in ALL_ORBITS]
    for target, orbit, single in targets:
        want = [per_term(target, f) for f in functions]
        assert table.integrals(orbit) == [w[0] for w in want], target
        for f, w in zip(functions, want):
            res = single(target, f)
            assert (res.value, res.v0, res.tail) == w, (target, f.terms)
        assert single(target, refined).value == want[0][0], (target, functions[0].terms)


def test_nilpotent_rows_are_the_nilpotent_vectors():
    cfg = CFGS[5]
    functions = [LCFunction(cfg, [(Fraction(1), CosetCell(Y, BASE, n))])
                 for Y in (Sl2Element.zero(cfg), rep_nilpotent(cfg, ALL_ORBITS[3]))
                 for n in (0, 2)]
    rows = CellTable(functions).nilpotent_rows()
    assert rows == [tuple(nilpotent_orbital(om, f).value for om in ALL_ORBITS)
                    for f in functions]
    assert CellTable([]).nilpotent_rows() == []


def test_a_cancelled_cell_is_still_integrated():
    # the table drops the cell from the member's vector but keeps its column
    # and evaluates it, so its tail re-check runs; ss_orbital still reports
    # its v0
    cfg = CFGS[5]
    far = CosetCell(Sl2Element.zero(cfg), BASE, 3)
    ball0 = CosetCell(Sl2Element.zero(cfg), BASE, 0)
    f = LCFunction(cfg, [(Fraction(1), ball0), (Fraction(2), far), (Fraction(-2), far)])
    table = CellTable([f])
    (_, vec), = table.vectors
    assert [j for j, _ in vec] == [0] and len(table.cells) == 2
    X = Sl2Element(cfg, 1, 0, 0)
    _cell_integral.cache_clear()
    assert table.integrals(Orbit.of(X)) == [ss_orbital(X, LCFunction(cfg, [(1, ball0)])).value]
    assert _cell_integral.cache_info().misses == 2
    assert ss_orbital(X, f).v0 == per_term(X, f)[1] > ss_orbital(X, LCFunction(cfg, [(1, ball0)])).v0

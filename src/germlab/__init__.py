"""Exact p-adic orbital integrals and germ expansions for sl2(Q_p), p odd.

Everything is computed in exact rational arithmetic: every value is an int
when it is an integer and a Fraction otherwise (padic.exact, padic.ratio),
`padic` reads its p-adic data (valuation, digits, square class, norm tags),
integrals are stratified coset sums with certified geometric tails, and
germ tables come from exact linear algebra.
"""

from .errors import (BallTooSmall, GermlabError, GridTooLarge,
                     InconsistentSystem, InvariantViolated, NotRegular,
                     PoolDeficient, RankDeficient, SpecMismatch)
from .padic import FieldConfig, SquareClass, hilbert_symbol, legendre, val_p
from .sl2 import (ALL_ORBITS, GroupElement, OrbitLabel, REG_EPS,
                  REG_EPSPI, REG_ONE, REG_PI, Sl2Element, ZERO_ORBIT, ad,
                  classify, depth, in_g_nil_r, random_conjugate, random_sl2,
                  rep_elliptic, rep_nilpotent)
from .tree import (BASE, TreeVertex, act, ball, depth_via_tree, distance,
                   make_vertex, neighbors, tree_count_oracle)
from .lcfunc import (CosetCell, LCFunction, h_combination, indicator,
                     indicator_lattice, is_invariant_under, lcfunction_from_json,
                     lcfunction_to_json, unit_ball)
from .orbital import (IntegralResult, Orbit, brute_force_cell_oracle,
                      fingerprint, nilpotent_orbital, nilpotent_vector,
                      ss_orbital)
from .germs import (CSV_HEADER, CellTable, ExpansionReport, GermBasis,
                    closed_form_germs, construct_Hr_Omega, default_basis,
                    default_pool, expansion_rhs, extract_germs, extract_germs_auto,
                    homogeneity_extend, kernel_combinations, reports_to_csv,
                    verify_claim, verify_theorem)

__version__ = "0.1.0"

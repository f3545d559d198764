"""Exact p-adic orbital integrals and germ expansions for sl2(Q_p), p odd.

Everything is computed in exact rational arithmetic: matrix entries are
Fractions whose p-adic data (valuation, digits, square class, norm tags)
`padic` reads, integrals are stratified coset sums with certified
geometric tails, and germ tables come from exact linear algebra.
"""

from .errors import (BallTooSmall, GermlabError, GridTooLarge,
                     InconsistentSystem, InvariantViolated, NotRegular,
                     OutsideDomain, PoolDeficient, RankDeficient, SpecMismatch,
                     TailUnstable)
from .padic import (FieldConfig, QuadExtDescriptor, SquareClass,
                    hilbert_symbol, legendre, val_p)
from .sl2 import (ALL_ORBITS, DEEP, DIM_NILPOTENT_CONE, Deep, ElementClass,
                  GroupElement, OrbitLabel, REG_EPS, REG_EPSPI, REG_ONE,
                  REG_PI, Sl2Element, ZERO_ORBIT, ad, cayley, cayley_inv,
                  classify, depth, in_g_nil_r, in_g_r, is_top_nilpotent,
                  random_conjugate, random_sl2, rep_elliptic, rep_nilpotent,
                  rep_split, standard_representative)
from .tree import (BASE, LatticeDescriptor, TreeVertex, act, ball,
                   depth_via_tree, distance, make_vertex, mp_lattice,
                   neighbors, tree_count_oracle)
from .lcfunc import (CosetCell, LCFunction, depth_r_family, h_combination,
                     indicator, indicator_lattice, is_invariant_under,
                     lcfunction_from_json, lcfunction_to_json,
                     phi_pullback_support, unit_ball)
from .orbital import (BClassRule, IntegralResult, Normalization, OracleResult,
                      brute_force_cell_oracle, nilpotent_orbital,
                      nilpotent_vector, ss_orbital)
from .germs import (CSV_HEADER, ExpansionReport, GermTable, construct_Hr_Omega,
                    default_basis, default_pool, extract_germs,
                    extract_germs_auto, homogeneity_extend,
                    kernel_combinations, reports_to_csv, reports_to_json,
                    verify_claim, verify_scaling, verify_theorem)

__version__ = "0.1.0"

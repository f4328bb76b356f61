"""Exact tame-symbol calculus over the rationals.

Multiplicative wedge classes of rational functions, tame symbols and
residues at places of Q(t) and at divisors of the product of two
projective lines, the graded surface-curve-point differential, a
truncated weight-two polylogarithm complex, the cubical higher-Chow
comparison map, and a constructive reciprocity homotopy. All arithmetic
is exact; nothing here uses floating point.
"""

from .atoms import (FIELD_VARS, AtomRegistry, BiAtom, MultVec, PrimeAtom,
                    UniAtom, atom_str, constant_class, mult_vec, one_minus)
from .chow import (CubeCurve, PointCycle, WCheckReport, admissible_check,
                   cube_boundary, w_commutes_check, w_map, w_map_curve,
                   w_map_point)
from .dsl import (parse_bifrac, parse_cycle, parse_divisor, parse_element,
                  parse_gamma, parse_place, parse_ratfunc, parse_wedge)
from .errors import (CoordinateIdenticallyFace, DegenerateArgument,
                     DegreeMismatch, Inconclusive, MixedFields, NonLinearAtom,
                     NonSplitResidue, NotAdmissible, NotDistinct,
                     NotStrictlyRegular, OneMinusOfOne, ParseError,
                     TameSymError, TooManyDigits, UnsupportedDivisorClass)
from .expressions import INF, BiFrac, RatFunc
from .gamma import (GammaSub, b2_normalize, cross_ratio, delta, five_term,
                    gamma_add, gamma_scale, gamma_str, gamma_term, tot_gamma,
                    ts_gamma)
from .homotopy import (DecompResult, HomotopySubReport, HomotopyTopReport,
                       decompose, h_map, homotopy_check_sub,
                       homotopy_check_top)
from .lambda_complex import (ChainGroup, LambdaElem, ParshinReport,
                             blowup_as_curve, bs_vanishing_check,
                             d_squared_check, differential, lambda_str,
                             parshin_check, totaro_element, totaro_wedge)
from .places import (INFINITY, ExceptionalCurve, FinRat, Graph, Infinity,
                     IrredPlace, LineInf, Place1, SurfDivisor,
                     classify_atom_divisor, defining_bipoly, tame_symbol,
                     weil_sum)
from .polynomials import BiPoly, UniPoly, bipoly_str, poly_str
from .snc import SncProblem, SncReport, snc_check
from .suite import run_criterion, run_suite, suite_report
from .wedges import (Wedge, nonconstant_count, retag, wedge_add, wedge_concat,
                     wedge_equal, wedge_monomial, wedge_of, wedge_scale,
                     wedge_str, wedge_sub)

__version__ = "0.1.0"

"""Exact compilation of polynomials into commutative read-once oblivious ABPs.

The pipeline: sparse rational polynomials -> derivative-span basis ->
apolar quotient (normal set + multiplication tables) -> branching
programs (commutative ROABP, set-multilinear ABP, diagonal ROABP from a
Waring decomposition), with Nisan prefix-cut width measurement and exact
verification of every artifact.
"""

from .abp import (Abp, KindCheck, Layer, NisanCutReport, check_kind, eval_abp,
                  expand_abp, nisan_width, nisan_widths, permute_order)
from .apolar import (QuotientStructure, apolar_member, multiplication_tables,
                     normal_set, quotient, reduce_mod_apolar)
from .construct import (WaringDecomposition, build_commro, build_commro_general,
                        build_diagro_from_waring, build_smabp, waring_expand,
                        waring_of_monomial)
from .detspecial import (det2_golden, det_mult_tables, det_normal_set,
                         det_polynomial, det_variables, palindrome,
                         perm_polynomial)
from .errors import DEFAULT_ENTRY_CAP, DEFAULT_TERM_CAP, CapExceeded
from .linalg import (PolyMatrix, QMatrix, commute, inverse,
                     minimal_polynomial, polymat_mul, rank)
from .partials import DerivBasis, derivative_basis, dpd, pairing
from .poly import (Mono, Poly, PolyParseError, Rational, deglex_key,
                   mono_factorial, mono_str, monomials_of_degree,
                   monomials_upto, parse_poly)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Quotient structure of the apolar ideal, via exact linear algebra.

The apolar ideal of f collects every polynomial h whose derivative
operator annihilates f.  For nonzero f its quotient ring is finite
dimensional with dimension equal to the derivative-span dimension of f,
and a polynomial lies in the ideal exactly when its pairing against a
derivative basis of f vanishes.  That makes the whole quotient
computable with rank/solve alone, no general Groebner machinery:

* the normal set is found greedily over monomials in ascending deg-lex,
  keeping a monomial iff its pairing vector against the basis grows the
  rank (a monomial is a leading monomial of the ideal exactly when its
  vector depends on those of smaller monomials);
* that elimination is kept, and a residue is one solve against it: the
  input's pairing vector (a combination of the stored columns) written
  over the normal-set columns;
* the per-variable multiplication tables are the residues of t_l * m_i
  written over the normal set.

Monomials are packed keys here (poly.MonoPacking): the scan runs in
their integer order, and t_l * m is the key of m plus a constant.  The
pairing columns have integer entries, taken from the derivative basis's
integer rows; only the tuple normal set and the tables leave the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .linalg import Echelon, QMatrix
from .partials import DerivBasis, derivative_basis
from .poly import Mono, Poly, mono_factorial


@dataclass(frozen=True)
class QuotientStructure:
    """Normal set and multiplication tables of f's apolar ideal.

    normal_set is ascending in deg-lex and always starts at the constant
    monomial 1; tables (once filled) hold one w x w matrix per variable,
    representing multiplication by that variable on the quotient ring.
    """

    basis: DerivBasis
    normal_set: tuple[Mono, ...]
    tables: tuple[QMatrix, ...] | None = None
    # the normal set's pairing columns, eliminated once; added row i is column m_i
    _echelon: Echelon = field(repr=False, compare=False, default=None)
    # {packed m: {j: <x^m, L * g_j>}} for each monomial m of the basis support, zeros
    # left out (L is the basis scale, the same for every column)
    _columns: dict[int, dict[int, int]] = field(repr=False, compare=False, default=None)
    # the packed keys of normal_set
    _keys: tuple[int, ...] = field(repr=False, compare=False, default=())

    @property
    def dimension(self) -> int:
        return len(self.normal_set)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.basis.source.vars


def normal_set(b: DerivBasis) -> QuotientStructure:
    """Greedy normal-set selection for the apolar ideal of a homogeneous source.

    The monomials of the basis support are scanned in deg-lex order (the
    integer order of their packed keys) and kept iff their pairing
    column against the derivative basis increases the rank; exactly
    w = dim(b) monomials get selected, their columns independent, and
    the elimination that chose them is kept for every later residue
    solve.  Any other monomial pairs to the zero vector against every
    basis element, so it could never be selected.  The columns pair
    against the basis's integer rows, a common multiple L of the basis,
    which scales every column alike and so changes no choice and no
    solve.  The choice depends only on the span of b, not on its basis
    order.
    """
    f = b.source
    if not f.is_homogeneous():
        raise ValueError("normal set requires a homogeneous polynomial; "
                         "route general inputs through the homogeneous components")
    w, unpack = b.dimension, b.packing.unpack
    # <x^m, L * g_j> = m! * (L * coeff_{g_j}(m)): one pass over the integer rows
    factorials = {k: mono_factorial(unpack(k)) for k in b.keys}
    columns: dict[int, dict[int, int]] = {k: {} for k in b.keys}
    for j, row in enumerate(b.rows):
        for key, coeff in row.items():
            columns[key][j] = factorials[key] * coeff
    keys: list[int] = []
    echelon = Echelon()
    for key in b.keys:
        if echelon.add(columns[key]):
            keys.append(key)
            if len(keys) == w:
                break
    if len(keys) != w:
        raise AssertionError("normal set selection did not reach full dimension")
    return QuotientStructure(basis=b, normal_set=tuple(map(unpack, keys)), _echelon=echelon,
                             _columns=columns, _keys=tuple(keys))


def reduce_mod_apolar(g: Poly, q: QuotientStructure) -> Poly:
    """The unique residue of g supported on the normal set.

    The residue shares g's pairing vector against the derivative basis,
    so it falls out of one solve against the normal set's columns; the
    difference g - residue lies in the apolar ideal.
    """
    coeffs = residue_coefficients(g, q)
    return Poly(q.vars, {m: c for m, c in zip(q.normal_set, coeffs)})


def residue_coefficients(g: Poly, q: QuotientStructure) -> list[Fraction]:
    """Coefficient vector of reduce_mod_apolar(g) over the normal set.

    c is the combination of the normal set's pairing columns that sums
    to g's pairing vector: sum_i c_i <m_i, g_j> = <g, g_j> for every j.
    That vector is itself sum_m coeff_g(m) * (column of x^m), so it is
    built from the stored columns (which pair against L * g_j, a scaling
    the solve does not see).  A monomial outside the basis support has
    no column and pairs to zero; one above deg f is skipped before it is
    packed, since its exponents need not fit the packing's fields.
    """
    b = q.basis
    if g.arity != b.source.arity:
        raise ValueError(f"arity mismatch: {g.arity} vs {b.source.arity}")
    degree = b.source.total_degree()
    vector: dict[int, Fraction] = {}
    for mono, coeff in g.terms.items():
        if sum(mono) <= degree:
            for j, x in q._columns.get(b.packing.pack(mono), {}).items():
                vector[j] = vector.get(j, 0) + coeff * x
    solution = q._echelon.solve(vector)
    return [solution.get(i, Fraction(0)) for i in range(q.dimension)]


def multiplication_tables(q: QuotientStructure) -> QuotientStructure:
    """Fill the per-variable multiplication tables.

    Row i of table l is the residue of t_l * m_i written over the normal
    set: the solve of t_l * m_i's pairing column against the normal
    set's columns (an empty row when t_l * m_i is outside the basis
    support, since it then lies in the apolar ideal).
    """
    w, packing = q.dimension, q.basis.packing
    tables = []
    for var in range(packing.arity):
        step = packing.step(var)
        rows = [q._echelon.solve_scaled(q._columns.get(key + step, {})) for key in q._keys]
        tables.append(QMatrix.from_rows(w, rows))
    return replace(q, tables=tuple(tables))


def quotient(f: Poly, max_width: int | None = None) -> QuotientStructure:
    """Normal set plus tables for a homogeneous nonzero f; max_width as in derivative_basis."""
    return multiplication_tables(normal_set(derivative_basis(f, max_width)))


def apolar_member(h: Poly, f: Poly) -> bool:
    """True iff h's derivative operator annihilates f identically.

    Computed directly by differentiating f term by term of h, so it is
    an oracle independent of the residue machinery above.
    """
    if h.arity != f.arity:
        raise ValueError(f"arity mismatch: {h.arity} vs {f.arity}")
    acc = Poly.zero(f.vars)
    for mono, coeff in h.terms.items():
        acc = acc + f.derive(mono).scale(coeff)
    return acc.is_zero()

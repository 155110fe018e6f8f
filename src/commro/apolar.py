"""Quotient structure of the apolar ideal, read off one reduced echelon form.

The apolar ideal Ann(f) collects every polynomial h whose derivative
operator annihilates f.  For every f, homogeneous or not, its quotient
ring R/Ann(f), R the polynomial ring, is finite dimensional with
dimension equal to the derivative-span dimension of f (Macaulay's
inverse systems), and a polynomial lies in the ideal exactly when its
pairing against a derivative basis of f vanishes; for f = 0 the ideal
is everything and the quotient is empty.  The pairing <x^m, g> is m! * coeff_g(m), the
entry at m of g in divided powers, so the rows of the closure's echelon
form (partials.derivative_basis) are the transposed pairing columns:
column m of that matrix is x^m's pairing vector.  Its reduced echelon
form, pivoting on the smallest key, gives the whole quotient with no
further elimination:

* the pivots are the columns that grow the rank in ascending deg-lex,
  i.e. the greedy normal set (a monomial is a leading monomial of the
  ideal exactly when its column depends on those of smaller monomials);
* reduced row i at key k, divided by its pivot entry, is the
  coefficient of column k over normal-set column m_i, so a residue is a
  sum of such entries, one per term;
* row i of the table of variable l is the residue of t_l * m_i: column
  key(m_i) + step(l) of the reduced form.

Monomials are packed keys here (poly.MonoPacking); only the tuple
normal set and the tables leave the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .linalg import QMatrix
from .partials import DerivBasis, derivative_basis
from .poly import Mono, Poly


@dataclass(frozen=True)
class QuotientStructure:
    """Normal set and multiplication tables of f's apolar ideal.

    normal_set is ascending in deg-lex and starts at the constant
    monomial 1 unless f = 0, whose normal set is empty; tables (once
    filled) hold one w x w matrix per variable, representing
    multiplication by that variable on the quotient ring.
    """

    basis: DerivBasis
    normal_set: tuple[Mono, ...]
    tables: tuple[QMatrix, ...] | None = None
    # the reduced echelon form of the closure's rows, {packed m_i: int row}, ascending
    _reduced: dict[int, dict[int, int]] = field(repr=False, compare=False, default=None)

    @property
    def dimension(self) -> int:
        return len(self.normal_set)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.basis.source.vars


def normal_set(b: DerivBasis) -> QuotientStructure:
    """Greedy normal-set selection for the apolar ideal of any source.

    The normal set is the pivots of the reduced echelon form of the
    closure's rows: the monomials of the basis support whose pairing
    column grows the rank when scanned in deg-lex order.  Deg-lex is a
    monomial order, so these are the monomials that lead no element of
    the ideal, for a non-homogeneous source too.  Exactly w = dim(b)
    monomials get selected, their columns independent; any other
    monomial pairs to the zero vector against every basis element, so
    it could never be selected.  The choice depends only on the span of
    b, not on its basis order or scale.
    """
    reduced = b.echelon.reduced()
    return QuotientStructure(basis=b, normal_set=tuple(map(b.packing.unpack, reduced)),
                             _reduced=reduced)


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
    That vector is sum_m coeff_g(m) * (column of x^m), so c_i is the sum
    of coeff_g(m) times reduced row i at m, over its pivot entry.  A
    monomial outside the basis support has no column and pairs to zero;
    one above deg f is skipped before it is packed, since its exponents
    need not fit the packing's fields.
    """
    b = q.basis
    if g.arity != b.source.arity:
        raise ValueError(f"arity mismatch: {g.arity} vs {b.source.arity}")
    degree = b.source.total_degree()
    terms = [(b.packing.pack(mono), coeff) for mono, coeff in g.terms.items()
             if sum(mono) <= degree]
    return [sum((coeff * Fraction(row[key], row[pivot]) for key, coeff in terms if key in row),
                Fraction(0)) for pivot, row in q._reduced.items()]


def multiplication_tables(q: QuotientStructure) -> QuotientStructure:
    """Fill the per-variable multiplication tables.

    Row i of table l is the residue of t_l * m_i written over the normal
    set: column key(m_i) + step(l) of the reduced echelon form (an empty
    row when t_l * m_i is outside the basis support, since it then lies
    in the apolar ideal).  The reduced rows are brought to one
    denominator, the lcm of their pivot entries, and transposed once.
    """
    w, packing = q.dimension, q.basis.packing
    den = lcm(*[row[pivot] for pivot, row in q._reduced.items()])
    columns: dict[int, dict[int, int]] = {}
    for i, (pivot, row) in enumerate(q._reduced.items()):
        a = den // row[pivot]
        for key, x in row.items():
            columns.setdefault(key, {})[i] = a * x
    tables = []
    for var in range(packing.arity):
        step = packing.step(var)
        tables.append(QMatrix.sparse(w, w, [columns.get(key + step, {}) for key in q._reduced],
                                     den))
    return replace(q, tables=tuple(tables))


def quotient(f: Poly, max_width: int | None = None) -> QuotientStructure:
    """Normal set plus tables of R/Ann(f) for any f; max_width as in derivative_basis."""
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

"""Derivative spans and the derivative-operator pairing.

The central measure is the dimension of the span of *all* partial
derivatives of a polynomial (all orders, the polynomial itself
included).  `derivative_basis` materializes an explicit basis of that
span by breadth-first closure under single-variable derivatives, and
`pairing` implements the bilinear form

    <g, h> = sum_e coeff_g(e) * e! * coeff_h(e)

which is the value at 0 of the derivative operator of g applied to h
(symmetric in g and h).  Everything downstream of the apolar quotient
construction is driven by these two primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Echelon, QMatrix
from .poly import Mono, Poly, deglex_key, mono_factorial, monomials_of_degree


@dataclass(frozen=True)
class DerivBasis:
    """Ordered basis g_1, ..., g_w of the derivative span of `source`.

    g_1 is always the source polynomial itself; the rest follow in
    breadth-first discovery order (derivative order, then deg-lex of the
    differentiating monomial).  `monomials` fixes the column order of
    `matrix`, whose rows are the basis coefficient vectors.
    """

    source: Poly
    basis: tuple[Poly, ...]
    monomials: tuple[Mono, ...]
    matrix: QMatrix

    @property
    def dimension(self) -> int:
        return len(self.basis)


def derivative_basis(f: Poly) -> DerivBasis:
    """Basis of the span of all partial derivatives of f (f must be nonzero).

    Breadth-first closure: each level differentiates by all monomials of
    the next order (ascending deg-lex) and keeps a derivative iff it is
    independent of everything kept so far.  Degrees strictly drop along
    levels, so the loop terminates; it also stops early as soon as a
    whole level contributes nothing new.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no derivative basis")
    echelon = Echelon()
    echelon.add(f.terms)
    basis = [f]
    for order in range(1, f.total_degree() + 1):
        grew = False
        for mono in monomials_of_degree(f.arity, order):
            g = f.derive(mono)
            if g.is_zero():
                continue
            if echelon.add(g.terms):
                basis.append(g)
                grew = True
        if not grew:
            break
    columns = sorted({m for g in basis for m in g.terms}, key=deglex_key)
    matrix = QMatrix([[g.coeff(m) for m in columns] for g in basis])
    return DerivBasis(source=f, basis=tuple(basis), monomials=tuple(columns), matrix=matrix)


def dpd(f: Poly) -> int:
    """Dimension of the span of all partial derivatives; 0 for the zero polynomial."""
    if f.is_zero():
        return 0
    return derivative_basis(f).dimension


def pairing(g: Poly, h: Poly) -> Fraction:
    """The symmetric form sum_e coeff_g(e) * e! * coeff_h(e)."""
    if g.arity != h.arity:
        raise ValueError(f"arity mismatch: {g.arity} vs {h.arity}")
    small, large = (g.terms, h.terms) if len(g.terms) <= len(h.terms) else (h.terms, g.terms)
    total = Fraction(0)
    for mono, coeff in small.items():
        other = large.get(mono)
        if other is not None:
            total += coeff * mono_factorial(mono) * other
    return total


def eval_vector(mono: Mono, b: DerivBasis) -> list[Fraction]:
    """Pairing of the monomial x^mono with each basis element, in basis order.

    Entry i equals e! * coeff_{g_i}(x^e), the value at 0 of g_i's
    derivative operator applied to the monomial.
    """
    mono = tuple(mono)
    if len(mono) != b.source.arity:
        raise ValueError(f"arity mismatch: {len(mono)} vs {b.source.arity}")
    e_fact = mono_factorial(mono)
    return [e_fact * g.coeff(mono) for g in b.basis]

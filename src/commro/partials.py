"""Derivative spans and the derivative-operator pairing.

The central measure is the dimension of the span of *all* partial
derivatives of a polynomial (all orders, the polynomial itself
included).  `derivative_basis` finds a basis of that span by
breadth-first closure under single-variable derivatives, and `pairing`
implements the bilinear form

    <g, h> = sum_e coeff_g(e) * e! * coeff_h(e)

which is the value at 0 of the derivative operator of g applied to h
(symmetric in g and h).  A polynomial lies in the apolar ideal of f
exactly when it pairs to zero with every basis element; every f has
that ideal, and the zero polynomial's basis is empty.  The closure
runs on packed monomial keys (poly.MonoPacking) and integer
coefficients in divided powers: a row holds m! * coeff_g(m) at m,
times some scale, so the entry at m is the pairing <x^m, g> times that
scale, and d/dx_i is a contraction that changes no coefficient.  The
basis keeps the multi-index of each kept derivative and the closure's
echelon form, whose reduced form apolar reads the whole quotient from;
`pairing` on Polys is the reference the tests check the quotient
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import CapExceeded
from .linalg import Echelon
from .poly import MonoPacking, Poly, mono_factorial


@dataclass(frozen=True)
class DerivBasis:
    """Ordered basis g_1, ..., g_w of the derivative span of `source`.

    g_i is the derivative of `source` by the multi-index a_i, kept as
    the packed key multi_indices[i] under `packing`.  g_1 is the source
    polynomial itself (a_1 = 0) unless it is zero, whose basis is empty;
    the rest follow in the order the breadth-first closure kept them
    (level by level, each kept element differentiated by the variables
    occurring in it, in index order).  `echelon` is the closure's
    elimination of the g_i, written in divided powers (g at monomial m
    is m! * coeff_g(m)) and scaled to integers.
    """

    source: Poly
    multi_indices: tuple[int, ...]
    packing: MonoPacking = field(repr=False, compare=False)
    echelon: Echelon = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.multi_indices)

    @cached_property
    def basis(self) -> tuple[Poly, ...]:
        """The g_i as exact Polys, each derived from the source; built on first read."""
        return tuple(self.source.derive(self.packing.unpack(a)) for a in self.multi_indices)


def derivative_basis(f: Poly, max_width: int | None = None) -> DerivBasis:
    """Basis of the span of all partial derivatives of f; empty for f = 0.

    Breadth-first closure under single-variable derivatives: level 0 is
    [f] if f is nonzero, and level k+1 keeps each d/dx_i of a level-k
    element, i in index order, iff it is independent of everything kept
    so far.  Only the x_i that occur in the element are tried, since the
    other derivatives are zero, and each level's candidates are derived
    one at a time as the elimination takes them.  Every derivative of a
    kept element lies in the kept span, so that span is closed under
    each d/dx_i and is the whole derivative span.  Degrees drop along
    levels, so the loop ends.  Each kept row is d^a f for a multi-index
    a, carried as a packed key (the candidate d/dx_i of it has a +
    step(i)); a candidate whose a was already tried in its level is that
    same row, kept or rejected, so it would be rejected and is skipped
    before it is derived.

    The closure runs on integer rows keyed by packed monomials, in
    divided powers (Macaulay's inverse systems): the seed holds m! *
    L * coeff_f(m) at m, L the lcm of f's denominators, divided by its
    content.  There d/dx_i is a contraction, which moves each term
    containing x_i down one step and changes no coefficient.  Scaling
    changes no independence test.  Once the span exceeds max_width
    dimensions, CapExceeded (naming --max-width) is raised; f of degree
    d has d + 1 derivatives of distinct degrees, so a degree of at least
    max_width is refused before any m! is formed.
    """
    degree = f.total_degree()
    if max_width is not None and degree >= max_width:
        raise CapExceeded(f"derivative span has more than {max_width} dimensions",
                          flag="--max-width")
    packing = MonoPacking(f.arity, degree)
    _, terms = f.integer_terms()
    seed = {packing.pack(m): mono_factorial(m) * c for m, c in terms.items()}
    content = gcd(*seed.values())
    seed = {k: c // content for k, c in seed.items()}
    echelon = Echelon()
    level = [(0, seed)] if echelon.add(seed) else []
    multi_indices: list[int] = []
    while level:
        multi_indices.extend(a for a, _ in level)
        # a derivative by a variable the row lacks is zero and adds nothing
        candidates = ((a + packing.step(i), row, i) for a, row in level
                      for i in packing.occurring(row))
        level, tried = [], set()
        for a, row, i in candidates:
            if a in tried:
                continue
            tried.add(a)
            row = packing.derive(row, i)
            if echelon.add(row):
                if max_width is not None and echelon.rank > max_width:
                    raise CapExceeded(f"derivative span has more than {max_width} dimensions",
                                      flag="--max-width")
                level.append((a, row))
    return DerivBasis(source=f, multi_indices=tuple(multi_indices), packing=packing,
                      echelon=echelon)


def dpd(f: Poly) -> int:
    """Dimension of the span of all partial derivatives; 0 for the zero polynomial."""
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

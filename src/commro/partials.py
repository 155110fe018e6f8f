"""Derivative spans and the derivative-operator pairing.

The central measure is the dimension of the span of *all* partial
derivatives of a polynomial (all orders, the polynomial itself
included).  `derivative_basis` materializes an explicit basis of that
span by breadth-first closure under single-variable derivatives, and
`pairing` implements the bilinear form

    <g, h> = sum_e coeff_g(e) * e! * coeff_h(e)

which is the value at 0 of the derivative operator of g applied to h
(symmetric in g and h).  A polynomial lies in the apolar ideal of f
exactly when it pairs to zero with every basis element.  The closure
runs on packed monomial keys (poly.MonoPacking) and integer
coefficients: f is scaled by the lcm of its denominators first, and
the basis is kept as those integer rows; the quotient stages read
nothing else.  apolar.normal_set builds its pairing columns from those
rows itself, so `pairing` on Polys is the reference the tests check
the quotient against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import CapExceeded
from .linalg import Echelon
from .poly import MonoPacking, Poly, mono_factorial


@dataclass(frozen=True)
class DerivBasis:
    """Ordered basis g_1, ..., g_w of the derivative span of `source`.

    g_1 is always the source polynomial itself; the rest follow in the
    order the breadth-first closure kept them (level by level, each kept
    element differentiated by x_1, ..., x_r in turn).  Row i is g_i
    scaled by `scale` (the lcm of the source's denominators) as
    {packed key: int}; `keys` is the union support of the rows,
    ascending (integer order is deg-lex), under `packing`.
    """

    source: Poly
    rows: tuple[dict[int, int], ...]
    scale: int
    keys: tuple[int, ...]
    packing: MonoPacking = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[Poly, ...]:
        """The g_i as exact Polys, the rows divided by scale; built on first read."""
        monos = {k: self.packing.unpack(k) for k in self.keys}
        return tuple(Poly.sparse(self.source.vars,
                                 {monos[k]: Fraction(c, self.scale) for k, c in row.items()})
                     for row in self.rows)


def derivative_basis(f: Poly, max_width: int | None = None) -> DerivBasis:
    """Basis of the span of all partial derivatives of f (f must be nonzero).

    Breadth-first closure under single-variable derivatives: level 0 is
    [f], and level k+1 keeps each d/dx_i of a level-k element, i in index
    order, iff it is independent of everything kept so far.  Every
    derivative of a kept element lies in the kept span, so that span is
    closed under each d/dx_i and is the whole derivative span.  Degrees
    drop along levels, so the loop ends.  The closure runs on L * f, L
    the lcm of f's denominators, as integer rows keyed by packed
    monomials: a derivative visits only the terms containing x_i, and
    the independence test reduces only by the pivots its terms reach.
    Scaling changes no independence test, and the basis keeps the rows,
    L * g_i.  Once the span exceeds max_width dimensions, CapExceeded
    (naming --max-width) is raised.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no derivative basis")
    scale = lcm(*(c.denominator for c in f.terms.values()))
    packing = MonoPacking(f.arity, f.total_degree())
    echelon = Echelon()
    rows: list[dict[int, int]] = []
    candidates = [{packing.pack(m): c.numerator * (scale // c.denominator)
                   for m, c in f.terms.items()}]
    while candidates:
        level = []
        for row in candidates:
            if echelon.add(row):
                if max_width is not None and echelon.rank > max_width:
                    raise CapExceeded(f"derivative span has more than {max_width} dimensions",
                                      flag="--max-width")
                level.append(row)
        rows.extend(level)
        candidates = [packing.derive(row, i) for row in level for i in range(f.arity)]
    keys = tuple(sorted({k for row in rows for k in row}))
    return DerivBasis(source=f, rows=tuple(rows), scale=scale, keys=keys, packing=packing)


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

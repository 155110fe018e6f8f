"""Branching-program constructions from derivative spans.

Four builders live here:

* build_commro: a commutative ROABP for a homogeneous polynomial whose
  width equals the derivative-span dimension.  The layer for variable
  x_l is the truncated exponential sum I + A_l x_l + A_l^2 x_l^2 / 2! +
  ... of the apolar multiplication table A_l, cut at the individual
  degree of x_l (higher powers vanish because the table is nilpotent).
  The left boundary selects the normal-set position of the monomial 1;
  the right boundary has closed form v_j = e_j! * coeff_f(m_j) over the
  normal-set monomials m_j = t^{e_j}.

* build_commro_general: the same layers for arbitrary nonzero input,
  built from block-diagonal tables with one block per nonzero
  homogeneous component (a constant's quotient is 1x1 with zero
  tables); the boundary vectors concatenate the blocks'.

* build_smabp: for a set-multilinear polynomial, one *linear* layer per
  partition part, sum of A_k x_k over the part's variables, same tables
  and boundary vectors.

* build_diagro_from_waring: a diagonal ROABP from a Waring
  decomposition.  For a degree-d term c * l(x)^d, the power l^d / d! is
  the z^d coefficient of prod_j exp_d(a_j x_j z), a polynomial in z of
  degree at most nd, read off its values at the nodes 1..nd+1 by row d
  of the inverse Vandermonde matrix; each node occupies one diagonal
  slot and the weights of that row fold into u.  Its layers are
  build_commro's truncated exponentials, cut at d, over the diagonal
  tables T_l = diag(a_(i,l) z) with one slot per term i and node z:
  Saxena's duality trick is the commutative construction over tables
  that are diagonal rather than nilpotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .abp import Abp, Layer
from .apolar import QuotientStructure, quotient
from .errors import CapExceeded
from .linalg import QMatrix
from .poly import Poly, mono_factorial

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class WaringDecomposition:
    """A sum of scaled d-th powers of linear forms: sum_i c_i * l_i(x)^d."""

    degree: int
    terms: tuple[tuple[int | Fraction, tuple[int | Fraction, ...]], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1; constants do not need a decomposition")
        if not self.terms:
            raise ValueError("empty decomposition")
        arities = {len(form) for _, form in self.terms}
        if len(arities) != 1:
            raise ValueError("linear forms of mixed arity")
        for _, form in self.terms:
            if all(a == 0 for a in form):
                raise ValueError("zero linear form")

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])


def waring_expand(w: WaringDecomposition, vars: Sequence[str]) -> Poly:
    """Brute-force expansion sum_i c_i * l_i(x)^d as a polynomial."""
    vars = tuple(vars)
    if len(vars) != w.arity:
        raise ValueError("variable list does not match the decomposition arity")
    total = Poly.zero(vars)
    for coeff, form in w.terms:
        linear = Poly(vars, {tuple(int(j == i) for j in range(w.arity)): a
                             for i, a in enumerate(form)})
        total = total + (linear ** w.degree).scale(coeff)
    return total


def _closed_form_v(q: QuotientStructure, f: Poly) -> list[Fraction]:
    """v_j = e_j! * coeff_f(m_j) over the normal-set monomials m_j = t^(e_j).

    v is the derivative operator of f, as a linear functional on
    residues, evaluated on each normal-set monomial.  It is read off f's
    own term dict: v_j = e_j! * c when c * x^(m_j) is a term of f, and
    the shared zero when m_j is not one of f's monomials.
    """
    terms = f.terms
    return [mono_factorial(m) * terms[m] if m in terms else _ZERO for m in q.normal_set]


def _block_diagonal(blocks: Sequence[QMatrix]) -> QMatrix:
    if len(blocks) == 1:
        return blocks[0]
    den = math.lcm(*[block.den for block in blocks])
    entries: list[dict[int, int]] = []
    for block in blocks:
        offset, scale = len(entries), den // block.den
        entries.extend({offset + j: x * scale for j, x in row.items()} for row in block.entries)
    return QMatrix.sparse(len(entries), len(entries), entries, den)


def _quotient_program(f: Poly, max_width: int | None) -> tuple[
        tuple[QMatrix, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Block-diagonal tables, u and v: one block per nonzero homogeneous component of f.

    A block is the component's apolar quotient with u = e_0 and the
    closed-form v; a constant's quotient is 1x1 with zero tables.  Each
    component's closure is capped by what the blocks before it leave of
    max_width, so a summed width above max_width raises CapExceeded.  The
    zero polynomial has no component, and no program: it is a ValueError.
    """
    if f.is_zero():
        raise ValueError("cannot build a branching program for the zero polynomial")
    quotients, u, v = [], [], []
    for fk in f.components_by_degree().values():
        try:
            q = quotient(fk, None if max_width is None else max_width - len(u))
        except CapExceeded:
            raise CapExceeded(f"program width exceeds {max_width}", flag="--max-width") from None
        quotients.append(q)
        u += [_ONE, *[_ZERO] * (q.dimension - 1)]
        v += _closed_form_v(q, fk)
    tables = tuple(_block_diagonal([q.tables[var] for q in quotients]) for var in range(f.arity))
    return tables, tuple(u), tuple(v)


def _exponential_layers(tables: Sequence[QMatrix], degrees: Sequence[int]) -> list[Layer]:
    """Layer l = I + T_l x_l + T_l^2 x_l^2 / 2! + ... + T_l^(d_l) x_l^(d_l) / d_l!.

    A_1 is the table itself and A_k = A_(k-1).times(T_l, k), the product
    A_(k-1) T_l / k that check_kind also tests them by.  Every layer
    holds the same identity object as its A_0.
    """
    identity = QMatrix.identity(tables[0].rows) if tables else None
    layers = []
    for var, (table, d) in enumerate(zip(tables, degrees)):
        terms = [(var, 0, identity), (var, 1, table)][:d + 1]
        for k in range(2, d + 1):
            terms.append((var, k, terms[-1][2].times(table, k)))
        layers.append(Layer(terms))
    return layers


def build_commro(f: Poly, max_width: int | None = None) -> Abp:
    """Commutative ROABP of width equal to f's derivative-span dimension.

    f must be nonzero and homogeneous; the computed polynomial equals f
    exactly and all coefficient matrices commute pairwise.  A width
    above max_width raises CapExceeded (naming --max-width).
    """
    if not f.is_homogeneous():
        raise ValueError("homogeneous input required; use build_commro_general")
    return build_commro_general(f, max_width)


def build_commro_general(f: Poly, max_width: int | None = None) -> Abp:
    """Commutative ROABP for arbitrary nonzero f: the direct sum of its components'.

    The tables are block-diagonal, one block per nonzero homogeneous
    component in ascending degree; each block is nilpotent past its
    component's degrees, so one truncated exponential at f's individual
    degrees builds every block's layers.  Width is the sum of the
    components' derivative-span dimensions, at most (d+1)^2 dpd(f);
    a width above max_width raises CapExceeded (naming --max-width), and
    the zero polynomial is a ValueError (_quotient_program refuses it).
    """
    tables, u, v = _quotient_program(f, max_width)
    layers = _exponential_layers(tables, [f.individual_degree(var) for var in range(f.arity)])
    for layer, table in zip(layers, tables):
        # T^(d+1) = d! A_d T (A_0 = I): the table is nilpotent past the
        # individual degree d, so everything truncated away is exactly zero
        if not (layer.terms[-1][2] @ table).is_zero():
            raise AssertionError("multiplication table not nilpotent at the individual degree")
    return Abp(kind="commutative", vars=f.vars, width=len(u), u=u, v=v, layers=tuple(layers))


def _validate_set_multilinear(f: Poly, partition: Sequence[Sequence[int]]) -> None:
    seen: set[int] = set()
    for part in partition:
        pset = set(part)
        if not pset:
            raise ValueError("empty partition part")
        if pset & seen:
            raise ValueError("partition parts overlap")
        seen |= pset
    if seen != set(range(f.arity)):
        raise ValueError("partition does not cover the variables exactly")
    for mono in f.terms:
        for part in partition:
            picked = sum(mono[i] for i in part)
            if picked != 1:
                bad = Poly.monomial(f.vars, mono)
                raise ValueError(
                    f"not set-multilinear: monomial {bad} takes {picked} variables "
                    f"from part {sorted(part)}"
                )


def build_smabp(f: Poly, partition: Sequence[Sequence[int]],
                max_width: int | None = None) -> Abp:
    """Commutative set-multilinear ABP with one linear layer per part.

    Layer j is sum of A_k x_k over the variables k of part j, built from
    the same apolar multiplication tables as the read-once construction;
    width equals the derivative-span dimension of f, capped by max_width.
    A partition that does not split f's variables into disjoint nonempty
    parts, or an f that is not set-multilinear in it, is a ValueError, and
    so is the zero polynomial (_quotient_program refuses it).
    """
    _validate_set_multilinear(f, partition)
    tables, u, v = _quotient_program(f, max_width)
    layers = [Layer([(var, 1, tables[var]) for var in part]) for part in partition]
    return Abp(kind="set_multilinear", vars=f.vars, width=len(u), u=u, v=v, layers=tuple(layers))


def build_diagro_from_waring(w: WaringDecomposition, vars: Sequence[str],
                             max_width: int | None = None,
                             max_entries: int | None = None) -> Abp:
    """Diagonal ROABP computing the expansion of a Waring decomposition.

    Each decomposition term contributes a block of nd+1 diagonal slots,
    one per interpolation node; slot i of layer j holds the truncated
    exponential univariate exp_d(a_j x_j z_i).  Width is exactly
    (number of terms) * (nd + 1); a width above max_width raises
    CapExceeded (naming --max-width), and more than max_entries diagonal
    entries in the n * d layer powers above 0 raise CapExceeded (naming
    --max-entries), both before any weight is computed.
    """
    vars = tuple(vars)
    if len(vars) != w.arity:
        raise ValueError(f"got {len(vars)} variable names for the decomposition's "
                         f"{w.arity} variables")
    n, d = w.arity, w.degree
    t = n * d + 1
    width = len(w.terms) * t
    if max_width is not None and width > max_width:
        raise CapExceeded(f"diagonal program needs width {width}, cap is {max_width}",
                          flag="--max-width")
    if max_entries is not None and n * d * width > max_entries:
        raise CapExceeded(f"diagonal program stores {n * d * width} layer entries, "
                          f"cap is {max_entries}", flag="--max-entries")
    # p(z) = sum_k c_k z^k takes the values V c at the nodes, V[i][k] = z_i^k,
    # so c_d = sum_i inverse(V)[d, i] * p(z_i)
    nodes = range(1, t + 1)
    weights = _inverse_vandermonde_row(nodes, d)
    d_fact = math.factorial(d)
    u = tuple(coeff * d_fact * wt for coeff, _ in w.terms for wt in weights)

    tables = [QMatrix.diagonal([form[var] * z for _, form in w.terms for z in nodes])
              for var in range(n)]
    layers = _exponential_layers(tables, [d] * n)
    return Abp(kind="diagonal", vars=vars, width=width, u=u, v=(Fraction(1),) * width,
               layers=tuple(layers))


def _inverse_vandermonde_row(nodes: Sequence[int], d: int) -> list[Fraction]:
    """Row d of the inverse of the Vandermonde matrix V[i][k] = z_i^k over distinct int nodes.

    Entry i is the z^d coefficient of the Lagrange basis polynomial
    L_i(z) = prod_{j != i} (z - z_j) / (z_i - z_j).  Its numerator is
    M(z) / (z - z_i) for the master polynomial M(z) = prod_j (z - z_j),
    found by synthetic division from the top coefficient down to z^d, so
    the row costs O(t^2) int operations for t nodes, not an inversion.
    """
    master = [1]  # coefficients of M, lowest degree first
    for z in nodes:
        master = [a - z * b for a, b in zip([0, *master], [*master, 0])]
    row = []
    for zi in nodes:
        # quotient coefficients q_(k-1) = m_k + z_i q_k, from q_(t-1) = m_t = 1
        q = 1
        for k in range(len(master) - 2, d, -1):
            q = master[k] + zi * q
        row.append(Fraction(q, math.prod(zi - z for z in nodes if z != zi)))
    return row


def waring_of_monomial(n: int) -> WaringDecomposition:
    """The 2^(n-1)-term sign decomposition of x_1 x_2 ... x_n.

    x1...xn = 1/(2^(n-1) n!) * sum over sign patterns e of
    (prod e) * (x1 + e_2 x2 + ... + e_n xn)^n; the expansion is verified
    by brute force before the decomposition is returned.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    scale = Fraction(1, 2 ** (n - 1) * math.factorial(n))
    terms = []
    for bits in range(2 ** (n - 1)):
        signs = [1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(n - 1)]
        terms.append((scale * math.prod(signs), tuple(Fraction(s) for s in signs)))
    decomposition = WaringDecomposition(degree=n, terms=tuple(terms))
    vars = tuple(f"x{i + 1}" for i in range(n))
    expected = Poly.monomial(vars, (1,) * n)
    if waring_expand(decomposition, vars) != expected:
        raise RuntimeError("sign decomposition failed its expansion check")
    return decomposition

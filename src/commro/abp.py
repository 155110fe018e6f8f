"""Read-once oblivious branching programs and their structured variants.

An Abp is the sandwich u^T * M_1 * M_2 * ... * M_k * v where every
layer M is a matrix polynomial.  For the read-once kinds ("general",
"commutative", "diagonal") each layer reads a single variable,

    M(x) = A_0 + A_1 x + A_2 x^2 + ... ,

with one layer per variable; for "set_multilinear" each layer reads one
part of a declared variable partition and is linear with no constant
term,

    M = A_{j,1} x_{j,1} + A_{j,2} x_{j,2} + ... .

Layers are stored in multiplication order.  Only stored matrices
exist; absent powers are zero semantically.

This module also measures a polynomial against Nisan's
characterization: the ranks of its coefficient matrices over the
prefix cuts of a variable order give the exact minimal ROABP width and
size in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DEFAULT_TERM_CAP, CapExceeded
from .linalg import Echelon, QMatrix, commute, sparse_vec_mat
from .poly import MonoPacking, Poly, split_point, variable_names

KINDS = ("general", "commutative", "diagonal", "set_multilinear")
ROABP_KINDS = ("general", "commutative", "diagonal")


@dataclass(frozen=True)
class Layer:
    """One matrix-polynomial factor: a sum of matrix * x_var^power terms.

    Read-once layers carry one variable with powers 0..d; set-multilinear
    layers carry several variables, each at power 1.
    """

    terms: tuple[tuple[int, int, QMatrix], ...]  # (var index, power, matrix)

    def __init__(self, terms: Iterable[tuple[int, int, QMatrix]]):
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: (t[0], t[1]))))

    def variables(self) -> set[int]:
        """Variables this layer is attached to (power-0 terms count)."""
        return {var for var, _, _ in self.terms}


@dataclass(frozen=True)
class Abp:
    """A branching program: declared kind, boundary vectors, layers in multiplication order.

    The entries of u and v are ints or Fractions, as the builders and
    the `.abp` reader give them; an int and the equal Fraction compare
    equal, so two programs that differ only so are equal.  The identity
    and the boundary rows are made once per program, on first use.

    The constructor refuses, with a ValueError, every value that `.abp`
    v1 cannot state, so every program it accepts writes a file that
    reads back as an equal program:

    * a kind not in KINDS;
    * vars that poly.variable_names refuses: none, a repeated name, or
      a name that is not an identifier;
    * a width below 1, or a u or v whose length is not the width;
    * no layer, a layer with no term, or a layer with two terms of one
      variable and power;
    * a term whose variable index is out of range, whose power is
      negative or whose matrix is not width x width;
    * a read-once layer (general, commutative, diagonal) that reads more
      than one variable, or a set-multilinear term whose power is not 1;
    * a variable read by more than one layer.
    """

    kind: str
    vars: tuple[str, ...]
    width: int
    u: tuple[int | Fraction, ...]
    v: tuple[int | Fraction, ...]
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        variable_names(self.vars)
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if len(self.u) != self.width or len(self.v) != self.width:
            raise ValueError("boundary vector length differs from width")
        if not self.layers:
            raise ValueError("program has no layer")
        seen: set[int] = set()
        for number, layer in enumerate(self.layers, 1):
            for var, power, mat in layer.terms:
                if not (0 <= var < len(self.vars)):
                    raise ValueError(f"variable index {var} out of range")
                if power < 0:
                    raise ValueError("negative power")
                if mat.rows != self.width or mat.cols != self.width:
                    raise ValueError("coefficient matrix does not match width")
            read = layer.variables()
            if not read:
                raise ValueError(f"layer {number} has no term")
            # the terms are sorted, so two of one (var, power) are neighbours
            for (var, power, _), twin in zip(layer.terms, layer.terms[1:]):
                if twin[:2] == (var, power):
                    raise ValueError(f"layer has two terms of {self.vars[var]!r} at power {power}")
            if self.kind in ROABP_KINDS and len(read) > 1:
                raise ValueError("read-once layer reads more than one variable")
            if self.kind == "set_multilinear":
                if any(power != 1 for _, power, _ in layer.terms):
                    raise ValueError("set-multilinear layers must be linear with no constant term")
            if read & seen:
                raise ValueError("variable read by more than one layer")
            seen |= read

    def coefficient_matrices(self) -> list[QMatrix]:
        return [mat for layer in self.layers for _, _, mat in layer.terms]

    @cached_property
    def boundary_rows(self) -> tuple[QMatrix, QMatrix]:
        """u and v as 1 x width matrices (an int row over one denominator each), made once."""
        return tuple(QMatrix.rational(1, self.width, [{j: x for j, x in enumerate(vec) if x}])
                     for vec in (self.u, self.v))

    @cached_property
    def identity(self) -> QMatrix:
        """The width x width identity, whose int rows _sweep and check_kind compare against."""
        return QMatrix.identity(self.width)


def _sweep(abp: Abp, row: dict, den: int,
           power: Callable[[int, int], tuple[object, int]]) -> Iterator[tuple[dict, int]]:
    """Yield (r, d) with r / d = (row / den) * M_1 * ... * M_i after each layer in order.

    Row entries are ints or Polys, and d is a positive int: the running
    denominator of the whole program.  power(var, k) is x_var^k as
    (numerator, positive int denominator), the numerator in the row's
    ring.  A layer's terms are brought to the lcm L of their
    denominators, so each term is one int (or Poly) scale of its
    matrix's int rows and the layer multiplies d by L.  A first term
    whose int rows are I's (the power 0 of every built layer, or I / den)
    is the scaled row itself, and a matrix row that is empty is skipped,
    so each layer costs the number of stored nonzeros its other matrices
    hold in the row's support.  I's rows are Abp.identity's, made once
    per program, not once per sweep.
    """
    identity = abp.identity.entries
    for layer in abp.layers:
        terms = []
        for var, k, mat in layer.terms:
            num, d = power(var, k)
            if num:
                terms.append((num, d * mat.den, mat.entries))
        common = lcm(*[d for _, d, _ in terms])
        out: dict = {}
        for t, (num, d, entries) in enumerate(terms):
            scale = num * (common // d)
            if not t and entries == identity:
                # later layers usually hold these same rows, compared in one step
                identity, out = entries, {i: x * scale for i, x in row.items()}
                continue
            for i, x in row.items():
                if source := entries[i]:
                    xs = x * scale
                    for j, a in source.items():
                        y = xs * a
                        out[j] = out[j] + y if j in out else y
        row = {j: y for j, y in out.items() if y}
        den *= common
        yield row, den


def eval_abp(abp: Abp, point: Sequence[Fraction | int]) -> Fraction:
    """Exact value u^T * (product of specialized layers in order) * v, swept in ints.

    Each coordinate is read as its numerator and denominator
    (poly.split_point: an int or a Fraction as it is, so an int point
    such as verify's costs no conversion).  u and v enter as int rows
    over the lcm of their denominators, made once per program
    (Abp.boundary_rows), so the value is one Fraction built at the end.
    """
    nums, dens = split_point(point)
    if len(nums) != len(abp.vars):
        raise ValueError(f"point has {len(nums)} coordinates, expected {len(abp.vars)}")
    u, v = abp.boundary_rows
    (row,), (v_row,), den = u.entries, v.entries, u.den
    for row, den in _sweep(abp, row, den, lambda var, k: (nums[var] ** k, dens[var] ** k)):
        pass
    return Fraction(sum(x * v_row[j] for j, x in row.items() if j in v_row), den * v.den)


def expand_abp(abp: Abp, max_terms: int = DEFAULT_TERM_CAP) -> Poly:
    """The exact polynomial computed by the program, via symbolic products."""
    arity = len(abp.vars)

    def power(var: int, k: int) -> tuple[Poly, int]:
        return Poly.monomial(abp.vars, tuple(k if i == var else 0 for i in range(arity))), 1

    row = {i: Poly.constant(abp.vars, x) for i, x in enumerate(abp.u) if x}
    den = 1
    for row, den in _sweep(abp, row, den, power):
        total = sum(len(p.terms) for p in row.values())
        if total > max_terms:
            raise CapExceeded(
                f"symbolic expansion reached {total} intermediate terms, cap is {max_terms}",
                flag="--max-terms",
            )
    out = Poly.zero(abp.vars)
    for j, p in row.items():
        if abp.v[j]:
            out = out + p.scale(abp.v[j])
    return out.scale(Fraction(1, den))


def permute_order(abp: Abp, new_order: Sequence[int]) -> Abp:
    """Same layers and boundary; layer new_order[k] is multiplied k-th."""
    new_order = tuple(new_order)
    if sorted(new_order) != list(range(len(abp.layers))):
        raise ValueError("not a valid permutation of the layers")
    return replace(abp, layers=tuple(abp.layers[i] for i in new_order))


@dataclass(frozen=True)
class KindCheck:
    """What check_kind checked; true iff the declared invariant holds.

    For the commuting kinds, each matrix other than I and the objects met
    before is a power step or one of the basis matrices that form pairs.
    """

    ok: bool
    matrices: int     # coefficient matrices inspected
    pairs: int        # basis pairs the packed products check; all were when ok
    products: int     # packed products commute(m, P) that check them; all were made when ok
    power_steps: int  # matrices A_k = A_(k-1) A_1 / k, one product each, outside the basis

    def __bool__(self) -> bool:
        return self.ok


# most bits of packed digits in an entry of a packed sum, by measurement: 1024 to 4096
# ran alike on det4, det5 and random-small, and 8192 was slower on rational input
_PACK_BITS = 2048


def check_kind(abp: Abp) -> KindCheck:
    """Verify the structural invariant of the declared kind, exactly.

    commutative / set_multilinear: all coefficient matrices commute
    pairwise; diagonal: all matrices diagonal; general: always true.

    Each matrix, taken in multiplication order, is one of four things:
    I (every built layer's power 0), an object met before, a power step,
    or a basis matrix.  The layer of a commutative program is usually an
    exponential, I + T x + T^2 x^2 / 2! + ..., and a matrix A_k (k >= 2)
    is a power step when its variable's A_1 and A_(k-1) came before it
    and A_k = A_(k-1) A_1 / k, the product that forms the layers
    (_is_power_step tests that exactly, row by row).  The basis matrices,
    S, must commute pair by pair.  This is exact and an iff: by induction
    every matrix lies in the algebra generated by I and S, as I and S do,
    an object met before is a matrix before it and a power step is a
    product of two matrices before it.  If S commutes pairwise, that
    algebra is commutative, so all the matrices commute; if they all do,
    so does S.

    The pairs of S are checked in packed products (Kronecker
    substitution).  With E_a the int rows of S's matrices, top the
    largest |entry| of any of them and w the width, every entry of a
    commutator [E_m, E_a] is a sum of 2w products of two entries, so it
    lies strictly between -z and z for z = 2^slot > 2 * w * top^2.  A
    matrix m is then commuted with P = sum_a z^a E_a over a group of the
    matrices before it: [E_m, P] = sum_a z^a [E_m, E_a] has each entry
    written in base z with digits below z in size, so it is zero iff
    every [E_m, E_a] is.  Long packed entries cost more bit work than the
    pairs they replace, so a group holds at most _PACK_BITS // slot
    matrices; wide entries (slot > _PACK_BITS) give groups of one matrix,
    which are the pairs themselves.
    """
    if abp.kind == "general":
        return KindCheck(True, 0, 0, 0, 0)
    mats = abp.coefficient_matrices()
    if abp.kind == "diagonal":
        return KindCheck(all(m.is_diagonal() for m in mats), len(mats), 0, 0, 0)
    identity = abp.identity
    before: dict[tuple[int, int], QMatrix] = {}  # (var, power) -> a matrix met already
    met: set[int] = set()  # ids of the matrices met already, all alive in abp
    basis, steps = [], 0
    for layer in abp.layers:
        for var, k, m in layer.terms:
            if id(m) not in met and m != identity:
                if (k >= 2 and (var, 1) in before and (var, k - 1) in before
                        and _is_power_step(m, before[var, k - 1], before[var, 1], k)):
                    steps += 1
                else:
                    basis.append(m)
            before[var, k] = m
            met.add(id(m))
    # int rows hold only nonzeros: a basis of zero matrices gives top 1, not a zero slot
    top = max((abs(x) for m in basis for row in m.entries for x in row.values()), default=1)
    slot = (2 * abp.width * top * top).bit_length()
    size = max(1, _PACK_BITS // slot)
    packed: list[QMatrix] = []  # the groups' sums P; a group's first matrix stands for itself
    ok, products = True, 0
    for i, m in enumerate(basis):
        products += len(packed)
        ok = ok and all(commute(m, p) for p in packed)
        if i % size:
            packed[-1] = _pack(packed[-1], m, 1 << (slot * (i % size)))
        else:
            packed.append(m)
    return KindCheck(ok, len(mats), len(basis) * (len(basis) - 1) // 2, products, steps)


def _is_power_step(m: QMatrix, prev: QMatrix, first: QMatrix, k: int) -> bool:
    """Whether m = prev @ first / k, compared row by row in ints.

    With E the int rows and d the denominators, that holds iff
    d_m * (E_prev E_first)[i] == (d_prev * d_first * k) * E_m[i] for every
    row i; a product row holds no zeros, so two rows with as many entries
    agree iff each product entry matches.  The first entry that differs
    ends the test, and no product is normalised.
    """
    den, scale = m.den, prev.den * first.den * k
    for row, target in zip(prev.entries, m.entries):
        product = sparse_vec_mat(row, first) if row else row
        if len(product) != len(target):
            return False
        for j, x in product.items():
            if den * x != scale * target.get(j, 0):
                return False
    return True


def _pack(p: QMatrix, m: QMatrix, scale: int) -> QMatrix:
    """The int rows of p plus scale times m's, sharing p's rows where m's are empty.

    scale exceeds every |entry| of p, so no entry cancels; the
    denominators play no part, as commute compares int rows.
    """
    rows = []
    for rp, rm in zip(p.entries, m.entries):
        if rm:
            rp = dict(rp)
            for j, x in rm.items():
                rp[j] = rp.get(j, 0) + scale * x
        rows.append(rp)
    return QMatrix.sparse(p.rows, p.cols, rows)


# ---------------------------------------------------------------------------
# Nisan prefix-cut ranks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NisanCutReport:
    """Prefix-cut ranks for one variable order; width = max, size = sum."""

    order: tuple[int, ...]
    cut_ranks: tuple[int, ...]

    @property
    def width(self) -> int:
        return max(self.cut_ranks)

    @property
    def size(self) -> int:
        return sum(self.cut_ranks)


def nisan_width(f: Poly, order: Sequence[int]) -> NisanCutReport:
    """Exact minimal ROABP width/size of f in the given variable order.

    Computes the rank of every prefix-cut coefficient matrix: rows are
    indexed by the exponents of the prefix variables, columns by those
    of the rest, and entry (m, m') is the coefficient of m * m' in f.
    Each cut is gathered from f's support, one sparse row per prefix
    exponent that occurs; zero rows and columns add no rank, so the
    dense matrix over every exponent is never built.  A matrix has the
    rank of its transpose, so when fewer suffix exponents occur than
    prefix ones the rows are keyed by the suffix instead, and Echelon
    gets one row per label of the smaller side.  The rows hold
    the integer coefficients of L * f, L the lcm of f's denominators,
    which have the same ranks.  Each term is packed once
    (poly.MonoPacking, exponent fields only); a cut's prefix is the
    OR of its variables' fields, and it splits a key into its row and
    column label with two ANDs.  The labels differ from exponent
    tuples, but a rank does not depend on how rows and columns are
    labelled.
    """
    return next(nisan_widths(f, [order]))


def nisan_widths(f: Poly, orders: Iterable[Sequence[int]]) -> Iterator[NisanCutReport]:
    """nisan_width(f, order) for each order in turn, f packed once.

    A cut's rank depends only on its set of prefix variables, so each
    distinct set is ranked once, however many orders share it.  A cut's
    rows are built on the prefix labels, and built again on the suffix
    labels only when the union of their column labels is smaller: on a
    cut whose two sides are alike that costs one set union.
    """
    packing = MonoPacking(f.arity, f.total_degree())
    # the degree field dropped, a key is its exponent fields alone
    terms = {packing.pack(m) & (packing.top - 1): c for m, c in f.integer_terms()[1].items()}
    ranks: dict[int, int] = {}  # prefix mask -> rank of its cut
    for order in orders:
        order = tuple(order)
        if sorted(order) != list(range(f.arity)):
            raise ValueError("order must list every variable exactly once")
        cut_ranks, prefix = [], 0
        for i in order:
            prefix |= packing.field(i)
            if prefix not in ranks:
                rows = _cut_rows(terms, prefix, ~prefix)
                # the column labels are the suffix labels; rank M = rank M^T
                if len(set().union(*rows.values())) < len(rows):
                    rows = _cut_rows(terms, ~prefix, prefix)
                echelon = Echelon()
                for row in rows.values():
                    echelon.add(row)
                ranks[prefix] = echelon.rank
            cut_ranks.append(ranks[prefix])
        yield NisanCutReport(order=order, cut_ranks=tuple(cut_ranks))


def _cut_rows(terms: dict[int, int], row_mask: int, column_mask: int) -> dict[int, dict[int, int]]:
    """A cut's matrix as sparse rows: the masks split each key into its row and column label."""
    rows: dict[int, dict[int, int]] = {}
    for key, coeff in terms.items():
        rows.setdefault(key & row_mask, {})[key & column_mask] = coeff
    return rows

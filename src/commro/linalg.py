"""Exact linear algebra over the rationals.

QMatrix stores its entries as integers over one positive denominator:
one {column: nonzero int} dict per row, plus den, kept with gcd(den,
entries) = 1 so that equal matrices are stored alike.  A product
a.times(b, k) = a @ b / k multiplies the denominators and k, and a sum
takes their lcm, so matrix arithmetic builds no Fraction; data, [i, j]
and the text writers give the Fractions back.  PolyMatrix is a dense
matrix with Poly entries, kept for the printed det2 layers
(detspecial.det2_golden) and their product.  Every elimination in the
package runs through one kernel, Echelon: an incremental echelon form
over sparse rows keyed by any sortable column key (ints for vectors,
packed monomials, exponent tuples), pivoting on each row's smallest key.
It reduces a row by the row's own keys, so a row pays for the pivots it
meets, not for every stored row.  It takes integer rows only and
eliminates fraction-free, so no elimination step builds a Fraction; a
caller that holds rationals brings them to integers once, where it holds
them.  Echelon has three parts: add, which works on a copy of each row
it takes, rank and reduced(), one back-substitution that gives the
reduced row echelon form.  QMatrix rows go to it as they are; rank is
the rank of m's rows, and inverse and minimal_polynomial read the
reduced form of augmented rows.  The product, the sum and sparse_vec_mat
reuse its integer row update (_axpy).  Arithmetic is exact, so no result
depends on the pivot choice; rank sees only stored nonzeros, so it takes
no size cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import Poly

_ZERO = Fraction(0)


class QMatrix:
    """Immutable sparse matrix of exact rationals: integer rows over one denominator.

    Entry (i, j) is entries[i].get(j, 0) / den.  entries holds one
    {column: nonzero int} dict per row and den is a positive int with
    gcd(den, every entry) = 1, so two equal matrices have equal entries
    and den.
    """

    __slots__ = ("rows", "cols", "entries", "den")

    def __init__(self, data: Iterable[Iterable[Fraction | int]]):
        dense = [tuple(row) for row in data]
        cols = len(dense[0]) if dense else 0
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged rows")
        m = QMatrix.rational(len(dense), cols, [{j: Fraction(x) for j, x in enumerate(row) if x}
                                                for row in dense])
        self.rows, self.cols, self.entries, self.den = m.rows, m.cols, m.entries, m.den

    @classmethod
    def sparse(cls, rows: int, cols: int, entries: Iterable[dict[int, int]],
               den: int = 1) -> QMatrix:
        """The matrix entries / den, from row dicts of nonzero ints and a positive den.

        The common factor of den and the entries is divided out.  Dicts
        that need no division become the matrix's storage, so the caller
        must not change them afterwards.
        """
        entries = tuple(entries)
        if den != 1 and not any(entries):
            den = 1
        g = den
        for row in entries:
            if g == 1:
                break
            if row:
                g = gcd(g, *row.values())
        if g != 1:
            entries = tuple(_exact_div(row, g) for row in entries)
            den //= g
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries, m.den = rows, cols, entries, den
        return m

    @classmethod
    def rational(cls, rows: int, cols: int,
                 entries: Sequence[dict[int, int | Fraction]]) -> QMatrix:
        """The matrix of row dicts whose values are nonzero ints and Fractions.

        The rows are brought to ints over the lcm of the denominators, in
        new dicts.  A caller whose rows are all ints already hands them to
        sparse instead, as the `.abp` reader does with an integral block.
        """
        den = lcm(*[x.denominator for row in entries for x in row.values()])
        return cls.sparse(rows, cols, (
            {j: x.numerator * (den // x.denominator) for j, x in row.items()} if row else row
            for row in entries
        ), den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> QMatrix:
        return cls.sparse(rows, cols, ({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls.sparse(n, n, ({i: 1} for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> QMatrix:
        n = len(values)
        return cls.rational(n, n, [{i: x} if x else {} for i, x in enumerate(values)])

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense row-major view of Fractions, for tests and the benchmark."""
        den = self.den
        return tuple(tuple(Fraction(row[j], den) if j in row else _ZERO for j in range(self.cols))
                     for row in self.entries)

    def flat(self) -> dict[int, int]:
        """The stored int entries keyed by row-major position i * cols + j (den times the matrix)."""
        return {i * self.cols + j: x for i, row in enumerate(self.entries) for j, x in row.items()}

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return Fraction(self.entries[i].get(j, 0), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.den, self.entries)
                == (other.rows, other.cols, other.den, other.entries))

    __hash__ = None

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_diagonal(self) -> bool:
        return all(j == i for i, row in enumerate(self.entries) for j in row)

    def __add__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = []
        for ra, rb in zip(self.entries, other.entries):
            row = {j: x * a for j, x in ra.items()}
            _axpy(row, b, rb)
            out.append(row)
        return QMatrix.sparse(self.rows, self.cols, out, den)

    def times(self, other: QMatrix, k: int) -> QMatrix:
        """self @ other / k for a positive int k, normalised once.

        The int rows of self times those of other, over the denominator
        self.den * other.den * k; an empty row of self stays empty.  One
        such product forms every exponential layer power, A_k = A_(k-1) T
        / k.
        """
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return QMatrix.sparse(self.rows, other.cols,
                              (sparse_vec_mat(row, other) if row else row for row in self.entries),
                              self.den * other.den * k)

    def __matmul__(self, other: QMatrix) -> QMatrix:
        return self.times(other, 1)


def sparse_vec_mat(row: dict[int, int], m: QMatrix) -> dict[int, int]:
    """Sparse row {index: nonzero} times m's stored int rows (so den times row @ m).

    An empty row of m adds nothing, so it costs no row update: the
    product pays for the stored nonzeros of the rows it meets.
    """
    acc: dict[int, int] = {}
    entries = m.entries
    for k, a in row.items():
        if source := entries[k]:
            _axpy(acc, a, source)
    return acc


def vec_mat(vec: Sequence[Fraction], m: QMatrix) -> list[Fraction]:
    """Dense row vector times matrix; skips zero entries of the vector."""
    if len(vec) != m.rows:
        raise ValueError("dimension mismatch")
    row = QMatrix.rational(1, m.rows, [{k: a for k, a in enumerate(vec) if a}])
    return list((row @ m).data[0])


class Echelon:
    """Incremental exact echelon form over sparse rows, computed on integers.

    A row is a mapping {column key: nonzero int}, and keys may be any
    mutually sortable values; a caller with rational entries scales them
    to integers first, which changes no rank.  Each stored row pivots on
    its smallest key and is kept as ints divided by their content, with
    a positive pivot entry.

    add reduces a row by repeatedly eliminating its smallest key that is
    a stored pivot, until no such key is left.  A stored row's keys all
    lie at or above its pivot, so each elimination only changes larger
    keys and the pivots are met in ascending order; stored pivots the
    row never reaches cost nothing.  A pivot p that divides the entry w
    to eliminate (always so for p = 1, the usual case for 0/+-1 data)
    costs one integer row update; otherwise the row is first scaled by
    p / gcd(p, w), and its content is divided out afterwards.

    reduced() back-substitutes once, from the largest pivot down, so
    each stored row becomes zero at every other pivot: row / row[pivot]
    is then the row of the reduced row echelon form.
    """

    def __init__(self):
        self.rank = 0
        self._rows: dict = {}  # pivot -> int row

    def add(self, row) -> bool:
        """Store the reduced row iff it is independent of the rows stored so far.

        The row is copied on entry, so the caller's row is never changed
        and never stored.
        """
        work, rows = dict(row), self._rows
        while hits := rows.keys() & work.keys():
            pivot = min(hits)
            _eliminate(work, pivot, rows[pivot])
        if not work:
            return False
        pivot = min(work)
        content = gcd(*work.values())
        if work[pivot] < 0:
            content = -content
        rows[pivot] = work if content == 1 else _exact_div(work, content)
        self.rank += 1
        return True

    def reduced(self) -> dict:
        """{pivot: int row} in ascending pivot order, each row zero at every other pivot.

        The stored rows are replaced by these, so add keeps working; the
        caller must not change them.
        """
        done: dict = {}
        for pivot in sorted(self._rows, reverse=True):
            work = self._rows[pivot]
            # the larger pivots' rows are reduced already, so clearing one adds no pivot
            if hits := work.keys() & done.keys():
                work = dict(work)
                for key in hits:
                    _eliminate(work, key, done[key])
                content = gcd(*work.values())
                if content != 1:
                    work = _exact_div(work, content)
            done[pivot] = work
        self._rows = dict(reversed(done.items()))
        return dict(self._rows)


def _exact_div(row: dict, d: int) -> dict:
    """The int row divided by d, which divides every entry."""
    return {k: x // d for k, x in row.items()}


def _eliminate(work: dict, key, prow: dict) -> None:
    """Clear work[key] with prow in place, fraction-free (prow[key] > 0).

    work becomes (p / g) * work - (w / g) * prow for p = prow[key], w =
    work[key] and g = gcd(p, w); when p does not divide w, the content
    of the result is divided out.
    """
    w, p = work[key], prow[key]
    g = gcd(p, w)
    if g != p:
        m = p // g
        for k in work:
            work[k] *= m
    _axpy(work, -(w // g), prow)
    if g != p and (content := gcd(*work.values())) > 1:
        for k in work:
            work[k] //= content


def _axpy(target: dict, a: int, source: dict) -> None:
    """target += a * source on sparse int rows, dropping entries that cancel."""
    for k, x in source.items():
        acc = target.get(k, 0) + a * x
        if acc:
            target[k] = acc
        else:
            target.pop(k, None)


def rank(m: QMatrix) -> int:
    """Exact rank."""
    echelon = Echelon()
    for row in m.entries:
        echelon.add(row)
    return echelon.rank


def inverse(m: QMatrix) -> QMatrix | None:
    """Exact inverse, or None when m is singular (m must be square).

    The reduced echelon form of [den * m | I] is [I | (den * m)^-1] when
    every pivot lies in the first block.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    echelon = Echelon()
    for i, row in enumerate(m.entries):
        echelon.add({**row, n + i: 1})
    reduced = echelon.reduced()
    if any(pivot >= n for pivot in reduced):
        return None
    return QMatrix.rational(n, n, [{k - n: Fraction(x * m.den, row[pivot])
                                    for k, x in row.items() if k >= n}
                                   for pivot, row in reduced.items()])


def commute(a: QMatrix, b: QMatrix) -> bool:
    """True iff a @ b == b @ a exactly (both square, equal dimension).

    Both products have the denominator a.den * b.den, so their int rows
    are compared as they come, row by row up to the first that differs.
    Row i of both products is formed in one dict, which adds a's row i
    times b's int rows and subtracts b's row i times a's; the rows agree
    iff every entry of it is zero.  Row i of a @ b is empty when a's row
    i is, and likewise for b @ a, so a pair of empty rows costs nothing,
    and an empty row of the other operand adds nothing.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("dimension mismatch")
    ea, eb = a.entries, b.entries
    for ra, rb in zip(ea, eb):
        if ra or rb:
            acc: dict[int, int] = {}
            for k, x in ra.items():
                if source := eb[k]:
                    for j, y in source.items():
                        acc[j] = acc.get(j, 0) + x * y
            for k, x in rb.items():
                if source := ea[k]:
                    for j, y in source.items():
                        acc[j] = acc.get(j, 0) - x * y
            if any(acc.values()):
                return False
    return True


def minimal_polynomial(m: QMatrix) -> Poly:
    """Monic least-degree univariate p (in the variable t) with p(m) = 0.

    The rows [den_j * m^j | tag j] (flat() is den_j * m^j, the tags
    after every flat key) are added for j = 0, 1, ... until one pivots
    on its tag: then I, m, ..., m^k first depend linearly, and the one
    reduced row with no flat part has tag entries c_j with sum_j c_j *
    den_j * m^j = 0.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    tag = m.rows * m.cols
    echelon, dens = Echelon(), []
    power = QMatrix.identity(m.rows)
    while True:
        echelon.add({**power.flat(), tag + len(dens): 1})
        dens.append(power.den)
        # the new row pivots on its tag exactly when its flat part reduced to zero
        if max(echelon._rows) >= tag:
            break
        power = power @ m
    # every key of the relation is a tag: its flat part is zero
    relation = next(row for pivot, row in echelon.reduced().items() if pivot >= tag)
    lead = relation[tag + len(dens) - 1] * dens[-1]
    return Poly(("t",), {(j - tag,): Fraction(c * dens[j - tag], lead)
                         for j, c in relation.items()})


class PolyMatrix:
    """Immutable dense matrix with Poly entries sharing one variable ring."""

    __slots__ = ("rows", "cols", "vars", "data")

    def __init__(self, vars: Iterable[str], data: Iterable[Iterable[Poly]]):
        self.vars = tuple(vars)
        self.data: tuple[tuple[Poly, ...], ...] = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for p in row:
                if p.vars != self.vars:
                    raise ValueError("entry over a different variable ring")

    @classmethod
    def identity(cls, vars: Iterable[str], n: int) -> PolyMatrix:
        vars = tuple(vars)
        one, zero = Poly.constant(vars, 1), Poly.zero(vars)
        return cls(vars, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, index: tuple[int, int]) -> Poly:
        return self.data[index[0]][index[1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.vars == other.vars and self.data == other.data

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over {self.vars})"


def polymat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact symbolic matrix product."""
    if a.vars != b.vars:
        raise ValueError("variable ring mismatch")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    zero = Poly.zero(a.vars)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                p = a.data[i][k]
                q = b.data[k][j]
                if p and q:
                    acc = acc + p * q
            row.append(acc)
        out.append(row)
    return PolyMatrix(a.vars, out)

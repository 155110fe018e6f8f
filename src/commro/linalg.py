"""Exact linear algebra over the rationals.

QMatrix stores only its nonzero entries, one {column: Fraction} dict
per row; PolyMatrix is a dense matrix with Poly entries, kept for the
printed det2 layers (detspecial.det2_golden) and their product.  Every
elimination in the package runs through one kernel, Echelon: an
incremental echelon form over sparse rows keyed by any sortable column
key (ints for vectors, packed monomials, exponent tuples).  It reduces
a row by the row's own keys, so a row pays for the pivots it meets, not
for every stored row.  It eliminates on integer rows (fraction-free): a
row enters scaled by the lcm of its denominators, so no elimination
step builds a Fraction, and only Echelon.solve's results are Fractions.
QMatrix rows go to it as they are; rank, inverse and
minimal_polynomial are short calls on it, and the matrix product, the
sum and sparse_vec_mat reuse its row update (_axpy) on Fractions.
Arithmetic is exact, so no result depends on the pivot choice; rank
sees only stored nonzeros, so it takes no size cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import Poly

_ZERO = Fraction(0)


class QMatrix:
    """Immutable sparse matrix of exact rationals.

    entries holds one {column: nonzero Fraction} dict per row; zeros are
    never stored, so two equal matrices have equal entries.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: Iterable[Iterable[Fraction | int]]):
        dense = [tuple(row) for row in data]
        self.rows = len(dense)
        self.cols = len(dense[0]) if dense else 0
        if any(len(row) != self.cols for row in dense):
            raise ValueError("ragged rows")
        self.entries: tuple[dict[int, Fraction], ...] = tuple(
            {j: Fraction(x) for j, x in enumerate(row) if x} for row in dense
        )

    @classmethod
    def sparse(cls, rows: int, cols: int, entries: Iterable[dict[int, Fraction]]) -> QMatrix:
        """Wrap row dicts whose values are already nonzero Fractions, without copying.

        The dicts become the matrix's storage, so the caller must not
        change them afterwards.
        """
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, tuple(entries)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> QMatrix:
        return cls.sparse(rows, cols, ({} for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls.sparse(n, n, ({i: Fraction(1)} for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> QMatrix:
        n = len(values)
        return cls.sparse(n, n, ({i: Fraction(x)} if x else {} for i, x in enumerate(values)))

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense row-major view, for tests."""
        return tuple(tuple(row.get(j, _ZERO) for j in range(self.cols)) for row in self.entries)

    def flat(self) -> dict[int, Fraction]:
        """The stored entries keyed by row-major position i * cols + j."""
        return {i * self.cols + j: x for i, row in enumerate(self.entries) for j, x in row.items()}

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self.entries[i].get(j, _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    __hash__ = None

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_diagonal(self) -> bool:
        return all(j == i for i, row in enumerate(self.entries) for j in row)

    def scale(self, factor: Fraction | int) -> QMatrix:
        factor = Fraction(factor)
        if not factor:
            return QMatrix.zeros(self.rows, self.cols)
        return QMatrix.sparse(self.rows, self.cols, (
            {j: x * factor for j, x in row.items()} for row in self.entries
        ))

    def __add__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        out = []
        for a, b in zip(self.entries, other.entries):
            row = dict(a)
            _axpy(row, 1, b)
            out.append(row)
        return QMatrix.sparse(self.rows, self.cols, out)

    def __matmul__(self, other: QMatrix) -> QMatrix:
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return QMatrix.sparse(self.rows, other.cols,
                              (sparse_vec_mat(row, other) if row else {} for row in self.entries))


def sparse_vec_mat(row: dict[int, Fraction], m: QMatrix) -> dict[int, Fraction]:
    """Sparse row {index: nonzero} times matrix, as a sparse row of nonzeros."""
    acc: dict[int, Fraction] = {}
    for k, a in row.items():
        _axpy(acc, a, m.entries[k])
    return acc


def vec_mat(vec: Sequence[Fraction], m: QMatrix) -> list[Fraction]:
    """Dense row vector times matrix; skips zero entries of the vector."""
    if len(vec) != m.rows:
        raise ValueError("dimension mismatch")
    acc = sparse_vec_mat({k: a for k, a in enumerate(vec) if a}, m)
    return [acc.get(j, _ZERO) for j in range(m.cols)]


class Echelon:
    """Incremental exact echelon form over sparse rows, computed on integers.

    A row is a mapping {column key: rational}; zero entries are ignored
    and keys may be any mutually sortable values.  Each stored row
    pivots on its largest key and carries its combination of the rows
    added so far (numbered 0, 1, ... in the order add accepted them).
    Both are stored as ints, divided by their joint content and with a
    positive pivot entry; the row equals that combination of added rows.

    A row is reduced by repeatedly eliminating its largest key that is a
    stored pivot, until no such key is left.  A stored row's keys all lie
    at or below its pivot, so each elimination only changes smaller keys
    and the pivots are met in descending order; stored pivots the row
    never reaches cost nothing.  The row enters scaled by the lcm s of
    its denominators, and the reduction keeps s * row = work + sum_i
    comb[i] * added_i in ints.  A pivot p that divides the entry w to
    eliminate (always so for p = 1, the usual case for 0/+-1 data) costs
    one integer row update; otherwise work, comb and s are first scaled
    by p / gcd(p, w), and their content is divided out afterwards.
    solve divides by s once, at the end.
    """

    def __init__(self):
        self.rank = 0
        self._rows: dict = {}  # pivot -> (int row, {added index: int coeff})

    def _reduce(self, row) -> tuple[dict, dict, int]:
        # returns (work, comb, s) with s * row = work + sum_i comb[i] * added_i,
        # all ints, s > 0, and no key of work a stored pivot
        items = [(k, x) for k, x in row.items() if x]
        s = lcm(*[x.denominator for _, x in items])
        work = {k: x.numerator * (s // x.denominator) for k, x in items}
        comb: dict[int, int] = {}
        rows = self._rows
        while pivots := rows.keys() & work.keys():
            pivot = max(pivots)
            prow, pcomb = rows[pivot]
            w, p = work[pivot], prow[pivot]
            g = gcd(p, w)
            if g != p:
                m = p // g
                s *= m
                for k in work:
                    work[k] *= m
                for i in comb:
                    comb[i] *= m
            _axpy(work, -(w // g), prow)
            _axpy(comb, w // g, pcomb)
            if g != p:
                content = gcd(s, *work.values(), *comb.values())
                if content != 1:
                    s //= content
                    work, comb = _exact_div(work, content), _exact_div(comb, content)
        return work, comb, s

    def add(self, row) -> bool:
        """Store the row iff it is independent of the rows stored so far."""
        work, comb, s = self._reduce(row)
        if not work:
            return False
        # work = s * added_rank - sum_i comb[i] * added_i
        comb = {i: -c for i, c in comb.items()}
        comb[self.rank] = s
        pivot = max(work)
        content = gcd(*work.values(), *comb.values())
        if work[pivot] < 0:
            content = -content
        if content != 1:
            work, comb = _exact_div(work, content), _exact_div(comb, content)
        self._rows[pivot] = (work, comb)
        self.rank += 1
        return True

    def solve(self, row) -> dict[int, Fraction] | None:
        """{added-row index: coeff} summing to the row, or None if it is independent."""
        work, comb, s = self._reduce(row)
        return None if work else {i: Fraction(c, s) for i, c in comb.items()}


def _exact_div(row: dict, d: int) -> dict:
    """The int row divided by d, which divides every entry."""
    return {k: x // d for k, x in row.items()}


def _axpy(target: dict, a: Fraction | int, source: dict) -> None:
    """target += a * source on sparse rows (Fractions or ints), dropping entries that cancel."""
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

    Row j of the inverse is the combination of m's rows that gives the
    unit vector e_j.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    echelon = Echelon()
    if not all(echelon.add(row) for row in m.entries):
        return None
    return QMatrix.sparse(m.rows, m.rows, (echelon.solve({j: 1}) for j in range(m.rows)))


def commute(a: QMatrix, b: QMatrix) -> bool:
    """True iff a @ b == b @ a exactly (both square, equal dimension)."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("dimension mismatch")
    return a @ b == b @ a


def minimal_polynomial(m: QMatrix) -> Poly:
    """Monic least-degree univariate p (in the variable t) with p(m) = 0.

    Found as the first linear dependence among I, m, m^2, ... in the
    flattened w^2-dimensional coordinate space.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    echelon = Echelon()
    power = QMatrix.identity(m.rows)
    k = 0
    while True:
        flat = power.flat()
        if not echelon.add(flat):
            # I, m, ..., m^(k-1) were all added, so index j is the power j
            terms = {(j,): -c for j, c in echelon.solve(flat).items()}
            terms[(k,)] = Fraction(1)
            return Poly(("t",), terms)
        power = power @ m
        k += 1


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

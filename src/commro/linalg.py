"""Exact linear algebra over the rationals.

QMatrix is a dense row-major matrix of Fraction entries; PolyMatrix is
the same shape with Poly entries (used to expand branching programs
symbolically).  Every elimination in the package runs through one
kernel, Echelon: an incremental echelon form over sparse rows keyed by
any sortable column key (ints for vectors, exponent tuples for
monomials).  rank, solve, inverse and minimal_polynomial are short calls
on it.  Arithmetic is exact, so no result depends on the pivot choice.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DEFAULT_ENTRY_CAP, CapExceeded
from .poly import Poly


class QMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Fraction | int]]):
        self.data: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(x) for x in row) for row in data
        )
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> QMatrix:
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> QMatrix:
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        return self.data[index[0]][index[1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.data == other.data

    __hash__ = None

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_diagonal(self) -> bool:
        return all(
            x == 0
            for i, row in enumerate(self.data)
            for j, x in enumerate(row)
            if i != j
        )

    def transpose(self) -> QMatrix:
        return QMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def scale(self, factor: Fraction | int) -> QMatrix:
        factor = Fraction(factor)
        return QMatrix([[x * factor for x in row] for row in self.data])

    def __add__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return QMatrix([
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ])

    def __matmul__(self, other: QMatrix) -> QMatrix:
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            acc = out[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        return QMatrix(out)

    def power(self, n: int) -> QMatrix:
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        out = QMatrix.identity(self.rows)
        for _ in range(n):
            out = out @ self
        return out


def vec_mat(vec: Sequence[Fraction], m: QMatrix) -> list[Fraction]:
    """Row vector times matrix; skips zero entries of the vector."""
    if len(vec) != m.rows:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * m.cols
    for k, a in enumerate(vec):
        if a == 0:
            continue
        row = m.data[k]
        for j, b in enumerate(row):
            if b:
                out[j] += a * b
    return out


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))


class Echelon:
    """Incremental exact echelon form over sparse rows.

    A row is a mapping {column key: rational}; zero entries are ignored
    and keys may be any mutually sortable values.  Each stored row
    pivots on its largest key, is scaled to pivot coefficient 1, and
    carries its combination of the rows added so far (numbered 0, 1, ...
    in the order add accepted them).
    """

    def __init__(self):
        self.rank = 0
        self._pivots: list = []  # ascending
        self._rows: dict = {}    # pivot -> (scaled row, {added index: coeff})

    def _reduce(self, row) -> tuple[dict, dict]:
        # returns (rest, comb) with row = rest + sum_i comb[i] * added_i,
        # and no key of rest is a stored pivot
        work = {k: x for k, x in row.items() if x}
        comb: dict[int, Fraction] = {}
        for pivot in reversed(self._pivots):
            f = work.get(pivot)
            if f is None:
                continue
            prow, pcomb = self._rows[pivot]
            _axpy(work, -f, prow)
            _axpy(comb, f, pcomb)
        return work, comb

    def add(self, row) -> bool:
        """Store the row iff it is independent of the rows stored so far."""
        work, comb = self._reduce(row)
        if not work:
            return False
        pivot = max(work)
        scale = 1 / Fraction(work[pivot])
        combination = {i: -c * scale for i, c in comb.items()}
        combination[self.rank] = scale
        self._rows[pivot] = ({k: x * scale for k, x in work.items()}, combination)
        bisect.insort(self._pivots, pivot)
        self.rank += 1
        return True

    def solve(self, row) -> dict[int, Fraction] | None:
        """{added-row index: coeff} summing to the row, or None if it is independent."""
        work, comb = self._reduce(row)
        return None if work else comb


def _axpy(target: dict, a: Fraction, source: dict) -> None:
    """target += a * source on sparse rows, dropping entries that cancel."""
    for k, x in source.items():
        acc = target.get(k, 0) + a * x
        if acc:
            target[k] = acc
        else:
            target.pop(k, None)


def _check_entry_cap(rows: int, cols: int, max_entries: int) -> None:
    if rows * cols > max_entries:
        raise CapExceeded(
            f"matrix of {rows}x{cols} = {rows * cols} entries exceeds the cap of {max_entries}",
            flag="--max-entries",
        )


def rank(m: QMatrix, max_entries: int = DEFAULT_ENTRY_CAP) -> int:
    """Exact rank."""
    _check_entry_cap(m.rows, m.cols, max_entries)
    echelon = Echelon()
    for row in m.data:
        echelon.add(dict(enumerate(row)))
    return echelon.rank


def solve(m: QMatrix, b: Sequence[Fraction | int],
          max_entries: int = DEFAULT_ENTRY_CAP) -> list[Fraction] | None:
    """Some exact solution x of m @ x = b, or None if the system is inconsistent.

    b is written over a basis of m's columns; the other unknowns are 0.
    """
    _check_entry_cap(m.rows, m.cols + 1, max_entries)
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    echelon = Echelon()
    basic = [j for j, col in enumerate(m.transpose().data) if echelon.add(dict(enumerate(col)))]
    comb = echelon.solve(dict(enumerate(b)))
    if comb is None:
        return None
    x = [Fraction(0)] * m.cols
    for i, c in comb.items():
        x[basic[i]] = c
    return x


def inverse(m: QMatrix) -> QMatrix | None:
    """Exact inverse, or None when m is singular (m must be square).

    Row j of the inverse is the combination of m's rows that gives the
    unit vector e_j.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    echelon = Echelon()
    if not all(echelon.add(dict(enumerate(row))) for row in m.data):
        return None
    combs = [echelon.solve({j: 1}) for j in range(m.rows)]
    return QMatrix([[comb.get(i, 0) for i in range(m.rows)] for comb in combs])


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
        flat = dict(enumerate(x for row in power.data for x in row))
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

    @classmethod
    def from_qmatrix(cls, vars: Iterable[str], m: QMatrix) -> PolyMatrix:
        vars = tuple(vars)
        return cls(vars, [[Poly.constant(vars, x) for x in row] for row in m.data])

    def __getitem__(self, index: tuple[int, int]) -> Poly:
        return self.data[index[0]][index[1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.vars == other.vars and self.data == other.data

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over {self.vars})"

    def specialize(self, point: Sequence[Fraction | int]) -> QMatrix:
        return QMatrix([[p.eval(point) for p in row] for row in self.data])


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

"""Exact linear algebra over the rationals.

QMatrix stores its entries as integers over one positive denominator:
one {column: nonzero int} dict per row, plus den, kept with gcd(den,
entries) = 1 so that equal matrices are stored alike.  A product
multiplies the denominators, a sum takes their lcm and scale changes
the denominator (and the entries only by a numerator other than 1), so
matrix arithmetic builds no Fraction; data, [i, j] and the text writers
give the Fractions back.  PolyMatrix is a dense matrix with Poly
entries, kept for the printed det2 layers (detspecial.det2_golden) and
their product.  Every elimination in the package runs through one
kernel, Echelon: an incremental echelon form over sparse rows keyed by
any sortable column key (ints for vectors, packed monomials, exponent
tuples).  It reduces a row by the row's own keys, so a row pays for the
pivots it meets, not for every stored row.  It eliminates on integer
rows (fraction-free): a row enters scaled by the lcm of its
denominators, so no elimination step builds a Fraction, and only
Echelon.solve's results are Fractions.  QMatrix rows go to it as they
are; rank, inverse and minimal_polynomial are short calls on it, and
the product, the sum and sparse_vec_mat reuse its integer row update
(_axpy).  Arithmetic is exact, so no result depends on the pivot
choice; rank sees only stored nonzeros, so it takes no size cap.
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
        """The matrix of row dicts whose values are nonzero ints and Fractions."""
        den = lcm(*[x.denominator for row in entries for x in row.values()])
        return cls.sparse(rows, cols, (
            {j: x.numerator * (den // x.denominator) for j, x in row.items()} if row else row
            for row in entries
        ), den)

    @classmethod
    def from_rows(cls, cols: int, rows: Sequence[tuple[dict[int, int], int]]) -> QMatrix:
        """The matrix whose row i is rows[i][0] / rows[i][1] (nonzero ints, positive int)."""
        den = lcm(*[s for _, s in rows])
        return cls.sparse(len(rows), cols, (
            row if s == den else {j: x * (den // s) for j, x in row.items()} for row, s in rows
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

    def scale(self, factor: Fraction | int) -> QMatrix:
        factor = Fraction(factor)
        if not factor:
            return QMatrix.zeros(self.rows, self.cols)
        p = factor.numerator
        entries = self.entries if p == 1 else (
            {j: x * p for j, x in row.items()} for row in self.entries)
        return QMatrix.sparse(self.rows, self.cols, entries, self.den * factor.denominator)

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

    def __matmul__(self, other: QMatrix) -> QMatrix:
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        return QMatrix.sparse(self.rows, other.cols, _product_rows(self, other),
                              self.den * other.den)


def _product_rows(a: QMatrix, b: QMatrix) -> tuple[dict[int, int], ...]:
    """The int rows of a.den * b.den * (a @ b), before the common factor is divided out."""
    return tuple(sparse_vec_mat(row, b) if row else {} for row in a.entries)


def sparse_vec_mat(row: dict[int, int], m: QMatrix) -> dict[int, int]:
    """Sparse row {index: nonzero} times m's stored int rows (so den times row @ m)."""
    acc: dict[int, int] = {}
    for k, a in row.items():
        _axpy(acc, a, m.entries[k])
    return acc


def vec_mat(vec: Sequence[Fraction], m: QMatrix) -> list[Fraction]:
    """Dense row vector times matrix; skips zero entries of the vector."""
    if len(vec) != m.rows:
        raise ValueError("dimension mismatch")
    acc = sparse_vec_mat({k: a for k, a in enumerate(vec) if a}, m)
    return [Fraction(acc.get(j, 0)) / m.den for j in range(m.cols)]


def int_row(row) -> tuple[dict, int]:
    """(r, s) with s > 0 the lcm of the row's denominators and r = s * row, zeros left out.

    A row of ints, the common case, is only copied without its zeros.
    """
    for x in row.values():
        if type(x) is not int:
            s = lcm(*[x.denominator for x in row.values()])
            return {k: x.numerator * (s // x.denominator) for k, x in row.items() if x}, s
    return {k: x for k, x in row.items() if x}, 1


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
        work, s = int_row(row)
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
        solution = self.solve_scaled(row)
        return None if solution is None else {i: Fraction(c, solution[1])
                                              for i, c in solution[0].items()}

    def solve_scaled(self, row) -> tuple[dict[int, int], int] | None:
        """(comb, s), s > 0, with s * row = sum_i comb[i] * added_i in ints; None if independent."""
        work, comb, s = self._reduce(row)
        return None if work else (comb, s)


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
    # the stored rows are den * m, so the combinations give (den * m)^-1
    return QMatrix.from_rows(m.rows, [echelon.solve_scaled({j: 1})
                                      for j in range(m.rows)]).scale(m.den)


def commute(a: QMatrix, b: QMatrix) -> bool:
    """True iff a @ b == b @ a exactly (both square, equal dimension).

    Both products have the denominator a.den * b.den, so their int rows
    are compared as they come.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("dimension mismatch")
    return _product_rows(a, b) == _product_rows(b, a)


def minimal_polynomial(m: QMatrix) -> Poly:
    """Monic least-degree univariate p (in the variable t) with p(m) = 0.

    Found as the first linear dependence among I, m, m^2, ... in the
    flattened w^2-dimensional coordinate space.  flat() is den * m^j, so
    each coefficient is rescaled by the two powers' denominators.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    echelon = Echelon()
    power = QMatrix.identity(m.rows)
    dens: list[int] = []
    while True:
        flat = power.flat()
        if not echelon.add(flat):
            # I, m, ..., m^(k-1) were all added, so index j is the power j
            k = len(dens)
            terms = {(j,): -c * Fraction(dens[j], power.den)
                     for j, c in echelon.solve(flat).items()}
            terms[(k,)] = Fraction(1)
            return Poly(("t",), terms)
        dens.append(power.den)
        power = power @ m


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

"""Determinant and permanent generators plus closed-form determinant oracles.

The derivative span of the n x n symbolic determinant is spanned by the
determinants of its square minors, its apolar ideal is generated by the
permanents of 2 x 2 minors together with the quadratic monomials
dividing no determinant term, and under deg-lex (row-major variable
chain) the normal set consists of the anti-diagonal monomials of all
minors.  That yields closed-form multiplication tables: multiplying the
anti-diagonal of the (S, T) minor by x_{i,j} lands, up to sign, on the
anti-diagonal of the (S + i, T + j) minor.

The closed forms are oracles, not a build path: the test suite checks
the generic quotient pipeline against them entrywise.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .linalg import PolyMatrix, QMatrix
from .poly import Mono, Poly, deglex_key


def det_variables(n: int) -> tuple[str, ...]:
    """Row-major variable names x1_1, x1_2, ..., xn_n."""
    return tuple(f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1))


def _var_index(n: int, i: int, j: int) -> int:
    return (i - 1) * n + (j - 1)


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _permutation_expansion(n: int, signed: bool) -> Poly:
    """Sum over the permutations p of (sign(p) if signed else 1) * x1_p(1) * ... * xn_p(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    terms = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mono = [0] * (n * n)
        for i, j in enumerate(perm, start=1):
            mono[_var_index(n, i, j)] = 1
        terms[tuple(mono)] = _perm_sign(perm) if signed else 1
    return Poly.sparse(det_variables(n), terms)


def det_polynomial(n: int) -> Poly:
    """The n^2-variable determinant via signed permutation expansion."""
    return _permutation_expansion(n, signed=True)


def perm_polynomial(n: int) -> Poly:
    """The n^2-variable permanent: the determinant expansion without signs."""
    return _permutation_expansion(n, signed=False)


def palindrome(n: int) -> Poly:
    """(x1 + y1)(x2 + y2)...(xn + yn), expanded over vars x1..xn, y1..yn.

    Each of the 2^n terms picks x_i or y_i from the i-th factor.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    vars = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"y{i}" for i in range(1, n + 1))
    return Poly.sparse(vars, {tuple(1 - y for y in picks) + picks: 1
                              for picks in itertools.product((0, 1), repeat=n)})


# ---------------------------------------------------------------------------
# anti-diagonal normal set and sign-formula tables
# ---------------------------------------------------------------------------

def _minors(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (S, T) row and column index sets of every square minor, by size, the empty one first."""
    for k in range(n + 1):
        yield from itertools.product(itertools.combinations(range(1, n + 1), k), repeat=2)


def _anti_diagonal_pairs(s: tuple[int, ...], t: tuple[int, ...]) -> list[tuple[int, int]]:
    """Row/column pairs of the anti-diagonal of the (s, t) minor."""
    k = len(s)
    return [(s[a], t[k - 1 - a]) for a in range(k)]


def _pairs_to_mono(n: int, pairs: list[tuple[int, int]]) -> Mono:
    mono = [0] * (n * n)
    for i, j in pairs:
        mono[_var_index(n, i, j)] += 1
    return tuple(mono)


def _pairs_sign(pairs: list[tuple[int, int]]) -> int:
    """Sign of the permutation a monomial of pairwise-distinct rows/cols encodes.

    Rows and columns are relabeled by rank, giving a permutation of
    {1..k} whose parity this returns.
    """
    rows = sorted(i for i, _ in pairs)
    cols = sorted(j for _, j in pairs)
    row_rank = {r: a for a, r in enumerate(rows)}
    col_rank = {c: a for a, c in enumerate(cols)}
    perm = [0] * len(pairs)
    for i, j in pairs:
        perm[row_rank[i]] = col_rank[j]
    return _perm_sign(tuple(perm))


def det_normal_set(n: int) -> list[Mono]:
    """Anti-diagonal monomials of all square minors, ascending deg-lex.

    C(2n, n) monomials in total, the constant monomial included (the
    empty minor).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return sorted((_pairs_to_mono(n, _anti_diagonal_pairs(s, t)) for s, t in _minors(n)),
                  key=deglex_key)


def det_mult_tables(n: int) -> list[QMatrix]:
    """Closed-form multiplication tables of the determinant's apolar ideal.

    One C(2n,n)-dimensional table per variable x_{i,j}, in row-major
    variable order.  Row (S, T) is zero when i is in S or j is in T;
    otherwise it carries a single signed 1 at the anti-diagonal monomial
    of the (S + i, T + j) minor.  Must agree entrywise with the generic
    quotient pipeline applied to det_polynomial(n); det_normal_set
    refuses n < 1.
    """
    normal = det_normal_set(n)
    position = {mono: idx for idx, mono in enumerate(normal)}
    width = len(normal)
    tables = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries: list[dict[int, int]] = [{} for _ in range(width)]
            for s, t in _minors(n):
                if i in s or j in t:
                    continue
                base = _anti_diagonal_pairs(s, t)
                row = position[_pairs_to_mono(n, base)]
                s2 = tuple(sorted(s + (i,)))
                t2 = tuple(sorted(t + (j,)))
                target_pairs = _anti_diagonal_pairs(s2, t2)
                col = position[_pairs_to_mono(n, target_pairs)]
                sign = _pairs_sign(target_pairs) * _pairs_sign(base + [(i, j)])
                entries[row] = {col: sign}
            tables.append(QMatrix.sparse(width, width, entries))
    return tables


def det2_golden() -> list[PolyMatrix]:
    """The four 6x6 layer matrices of the width-6 program for the 2x2 determinant.

    Rows and columns follow the basis (1, x1_1, x1_2, x2_1, x2_2,
    -x1_2*x2_1) of the apolar quotient, whose last element is x1_1*x2_2
    there; matrix k is I + D A_k D * x_k for the multiplication table A_k
    of variable x_k over the normal set and D = diag(1, 1, 1, 1, 1, -1),
    written out explicitly as golden data.  Their product in any order
    carries Det2 at (1, 6).
    """
    vars = det_variables(2)
    # (variable, off-diagonal entries as (row, col, coefficient), 1-indexed)
    data = [
        ("x1_1", [(1, 2, 1), (5, 6, 1)]),
        ("x1_2", [(1, 3, 1), (4, 6, -1)]),
        ("x2_1", [(1, 4, 1), (3, 6, -1)]),
        ("x2_2", [(1, 5, 1), (2, 6, 1)]),
    ]
    matrices = []
    for name, entries in data:
        var = vars.index(name)
        rows = [[Poly.constant(vars, 1) if i == j else Poly.zero(vars) for j in range(6)]
                for i in range(6)]
        for r, c, coeff in entries:
            rows[r - 1][c - 1] = Poly.variable(vars, var).scale(coeff)
        matrices.append(PolyMatrix(vars, rows))
    return matrices

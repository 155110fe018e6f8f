"""Expected results computed without the compiler under test.

Widths come from closed forms for the structured inputs and, for the
random inputs, from the sympy rank of the all-partials coefficient
matrix (recorded once in goldens.json by record_goldens.py, because
sympy is slow to import and the ranks never change).  Nisan cut ranks
are small enough to compute on every run with the exact elimination
below.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Terms = dict[tuple[int, ...], int]


def closed_form_width(gen: tuple[str, ...] | None) -> int | None:
    """Width of every program built from the output of `commro gen ...`.

    det_n, perm_n: C(2n, n); palindrome_n: 2^n; the diagonal program of
    the 2^(n-1)-term Waring decomposition of x1...xn: terms * (n*n + 1).
    None for inputs that do not come from `commro gen`.
    """
    if gen is None:
        return None
    what, n = gen[1], int(gen[2])
    if what in ("det", "perm"):
        return math.comb(2 * n, n)
    if what == "palindrome":
        return 2 ** n
    if what == "monomial-waring":
        return 2 ** (n - 1) * (n * n + 1)
    raise ValueError(f"no closed form for {what}")


def rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = Fraction(rows[i][c]) / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def nisan_cut_ranks(terms: Terms, arity: int) -> list[int]:
    """Ranks of the prefix-cut coefficient matrices in the identity order.

    Rows are the distinct prefix exponents in the support, columns the
    distinct suffix exponents; zero rows and columns add no rank.
    """
    ranks = []
    for cut in range(1, arity + 1):
        entries = {(m[:cut], m[cut:]): c for m, c in terms.items()}
        row_keys = sorted({r for r, _ in entries})
        col_keys = sorted({c for _, c in entries})
        ranks.append(rank([[Fraction(entries.get((r, c), 0)) for c in col_keys]
                           for r in row_keys]))
    return ranks


def partial_derivatives(terms: Terms) -> list[Terms]:
    """Every nonzero iterated partial derivative, f itself included."""
    orders = {a for m in terms for a in itertools.product(*(range(e + 1) for e in m))}
    out = []
    for a in sorted(orders):
        g = {}
        for m, c in terms.items():
            if all(e >= k for e, k in zip(m, a)):
                g[tuple(e - k for e, k in zip(m, a))] = c * math.prod(
                    math.perm(e, k) for e, k in zip(m, a))
        out.append(g)
    return out


def dpd_by_sympy(terms: Terms) -> int:
    """Width of the block-diagonal program: the sum over nonzero homogeneous
    components of the rank of their all-partials coefficient matrix, plus
    1 for a constant term."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    total = 0
    for degree in sorted({sum(m) for m in terms}):
        component = {m: c for m, c in terms.items() if sum(m) == degree}
        if degree == 0:
            total += 1
            continue
        partials = partial_derivatives(component)
        columns = sorted({m for g in partials for m in g})
        matrix = [[g.get(m, 0) for m in columns] for g in partials]
        total += DomainMatrix.from_list(matrix, QQ).rank()
    return total

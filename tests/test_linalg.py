import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from commro import (Poly, PolyMatrix, QMatrix, commute, inverse,
                    minimal_polynomial, parse_poly, polymat_mul, rank)
from commro.detspecial import det2_golden, det_polynomial
from commro.abp import _pack
from commro.linalg import Echelon, vec_mat

from helpers import (SMALL, WIDE_RATIONALS, all_pairs_commute, dense_product, random_point,
                     random_poly, scaled, sympy_fraction, sympy_minimal_polynomial)

# the worked 5x5 multiplication table with minimal polynomial
# t^5 - 10 t^4 - 7 t^3 + 2 t^2 - 3
SHIFT5 = QMatrix([
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [3, 0, -2, 7, 10],
])


def random_qmatrix(rng, rows, cols, bound=9):
    return QMatrix([[Fraction(rng.randint(-bound, bound)) for _ in range(cols)]
                    for _ in range(rows)])


def test_rank_examples():
    assert rank(QMatrix.identity(4)) == 4
    assert rank(QMatrix.zeros(3, 5)) == 0
    # invertible: its minimal polynomial has nonzero constant term -3
    assert rank(SHIFT5) == 5


def test_rank_transpose_invariant():
    rng = random.Random(3)
    for _ in range(15):
        m = random_qmatrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(QMatrix(zip(*m.data)))


def test_inverse_round_trip():
    rng = random.Random(11)
    found = 0
    while found < 10:
        m = random_qmatrix(rng, 4, 4)
        inv = inverse(m)
        if inv is None:
            continue
        assert m @ inv == QMatrix.identity(4)
        found += 1


def test_commute_examples():
    rng = random.Random(2)
    a = random_qmatrix(rng, 3, 3)
    assert commute(QMatrix.identity(3), a)
    up = QMatrix([[0, 1], [0, 0]])
    down = QMatrix([[0, 0], [1, 0]])
    assert not commute(up, down)
    d1 = QMatrix.diagonal([1, 2, 3])
    d2 = QMatrix.diagonal([-5, 0, 7])
    assert commute(d1, d2)
    # the products differ only in a row where the first operand's row is empty,
    # both ways round
    proj, lower = QMatrix([[1, 0], [0, 0]]), QMatrix([[0, 0], [1, 0]])
    assert not commute(proj, lower) and not commute(lower, proj)
    with pytest.raises(ValueError):
        commute(QMatrix.identity(2), QMatrix.identity(3))


@st.composite
def commuting_candidates(draw, entry) -> tuple[QMatrix, QMatrix]:
    """(a, b): a with rows left empty at random, b a polynomial in a or drawn alike.

    A polynomial in a commutes with it, and may keep rows empty where a's
    are not, or the other way round; a drawn b usually does not commute.
    """
    n = draw(st.integers(1, 5))

    def sparse() -> QMatrix:
        return QMatrix([[draw(entry) if draw(st.booleans()) else 0 for _ in range(n)]
                        if draw(st.booleans()) else [0] * n for _ in range(n)])

    a = sparse()
    if draw(st.booleans()):
        return a, sparse()
    b = QMatrix.zeros(n, n)
    for power in (QMatrix.identity(n), a, a @ a):
        if draw(st.booleans()):
            b = b + scaled(power, draw(entry))
    return a, b


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([SMALL, WIDE_RATIONALS]).flatmap(commuting_candidates))
def test_commute_matches_dense_fraction_products(pair):
    a, b = pair
    assert commute(a, b) == commute(b, a) == all_pairs_commute([a, b])


def test_commute_finds_a_difference_in_the_last_row_only():
    # a = e_(n-1) r^T: a @ b has only a last row, r^T b; b @ a has row i
    # b[i][n-1] r^T, zero above the last row since b's last column is zero
    # there, while b's rows above are not empty
    n = 4
    a = QMatrix([[0] * n] * (n - 1) + [[Fraction(1, 2), -3, 0, 5]])
    b = QMatrix([[1, 2, 0, 0], [0, Fraction(-7, 3), 4, 0], [9, 0, 1, 0], [1, 1, 1, 2]])
    ab, ba = dense_product(a, b), dense_product(b, a)
    assert ab[:-1] == ba[:-1] and ab[-1] != ba[-1]
    assert not commute(a, b) and not commute(b, a)
    assert not all_pairs_commute([a, b])
    # with r = e_(n-1) a left eigenvector of b for b's corner entry, the last
    # rows agree too
    corner = QMatrix([[0] * n] * (n - 1) + [[0, 0, 0, 1]])
    b = QMatrix([*b.data[:-1], [0, 0, 0, 2]])
    assert commute(corner, b) and commute(b, corner) and all_pairs_commute([corner, b])


def test_commute_returns_at_the_first_row_that_differs():
    # a's second row names column n, which no row of b has: reading it would
    # raise, so a False from the first row must come before it
    n = 3
    a = QMatrix.sparse(n, n, [{0: 1}, {n: 1}, {}])
    b = QMatrix.sparse(n, n, [{1: 1}, {}, {}])
    assert not commute(a, b)
    with pytest.raises(IndexError):
        commute(a, QMatrix.identity(n))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([SMALL, WIDE_RATIONALS]).flatmap(
    lambda entry: st.tuples(commuting_candidates(entry), commuting_candidates(entry))), st.data())
def test_commute_with_a_packed_sum_is_commute_with_every_summand(pairs, data):
    # _pack's sum P = sum_a z^a E_a of int rows: m commutes with P iff it
    # commutes with every summand, when z = 2^slot exceeds 2 n top^2 as in
    # check_kind
    (m, e1), (_, e2) = pairs
    n = m.rows
    if e2.rows != n:
        e2 = QMatrix.identity(n)
    summands = [e1, e2, data.draw(st.sampled_from([m, e1, QMatrix.identity(n)]))]
    top = max([1] + [abs(x) for e in [m, *summands] for x in e.flat().values()])
    slot = (2 * n * top * top).bit_length()
    packed = summands[0]
    for i, e in enumerate(summands[1:], 1):
        packed = _pack(packed, e, 1 << (slot * i))
    assert commute(m, packed) == all_pairs_commute([m, packed]) == all(
        all_pairs_commute([m, e]) for e in summands)


def test_minimal_polynomial_examples():
    t = ("t",)
    assert minimal_polynomial(QMatrix.identity(3)) == parse_poly("t - 1", t)
    assert minimal_polynomial(QMatrix.zeros(2, 2)) == parse_poly("t", t)
    assert minimal_polynomial(SHIFT5) == parse_poly("t^5 - 10*t^4 - 7*t^3 + 2*t^2 - 3", t)


def test_minimal_polynomial_annihilates():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_qmatrix(rng, n, n, bound=3)
        p = minimal_polynomial(m)
        assert p.total_degree() <= n
        assert p.coeff((p.total_degree(),)) == 1  # monic
        total = QMatrix.zeros(n, n)
        power = QMatrix.identity(n)
        for k in range(p.total_degree() + 1):
            total = total + scaled(power, p.coeff((k,)))
            power = power @ m
        assert total.is_zero()


def test_polymat_mul_examples():
    vars = ("x1", "x2")
    x1 = Poly.variable(vars, 0)
    x2 = Poly.variable(vars, 1)
    m = PolyMatrix(vars, [[x1, x2], [x2, x1]])
    assert polymat_mul(PolyMatrix.identity(vars, 2), m) == m
    prod = polymat_mul(PolyMatrix(vars, [[x1]]), PolyMatrix(vars, [[x2]]))
    assert prod[0, 0] == x1 * x2


def test_polymat_mul_golden_product():
    # the four golden layers multiply, in the printed order, to a matrix
    # whose (1,6) entry is the 2x2 determinant: they are printed over the
    # basis element -x1_2*x2_1, which is x1_1*x2_2 in the apolar quotient
    golden = det2_golden()
    prod = golden[0]
    for m in golden[1:]:
        prod = polymat_mul(prod, m)
    assert prod[0, 5] == det_polynomial(2)


def test_polymat_specialization_homomorphism():
    rng = random.Random(31)
    vars = ("x1", "x2", "x3")
    for _ in range(10):
        a = PolyMatrix(vars, [[random_poly(rng, 3, 2, 3, homogeneous=False)
                               for _ in range(2)] for _ in range(2)])
        b = PolyMatrix(vars, [[random_poly(rng, 3, 2, 3, homogeneous=False)
                               for _ in range(2)] for _ in range(2)])
        point = random_point(rng, 3, bound=40)

        def at(m: PolyMatrix) -> QMatrix:
            return QMatrix([[p.eval(point) for p in row] for row in m.data])

        assert at(polymat_mul(a, b)) == at(a) @ at(b)


def test_dot_and_vec_mat():
    m = QMatrix([[1, 2], [3, 4]])
    assert vec_mat([Fraction(1), Fraction(1)], m) == [4, 6]


# mostly zeros, so sparse rows, empty rows and cancellation all occur
ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))


# wide rationals, zeros still common
WIDE_ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), WIDE_RATIONALS)


def dense_lists(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def qmatrix_operands(draw, entry=ENTRY):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    a = draw(dense_lists(rows, inner, entry))
    b = draw(st.one_of(st.just([list(row) for row in a]), dense_lists(rows, inner, entry)))
    c = draw(dense_lists(inner, cols, entry))
    return a, b, c, draw(st.integers(1, 7))


def as_tuples(lists):
    return tuple(tuple(row) for row in lists)


def in_normal_form(m):
    """Int rows of nonzeros inside the shape, over a positive den sharing no factor with them."""
    values = [x for row in m.entries for x in row.values()]
    return (len(m.entries) == m.rows and type(m.den) is int and m.den > 0
            and all(type(x) is int and x for x in values)
            and all(0 <= j < m.cols for row in m.entries for j in row)
            and math.gcd(m.den, *values) == 1)


def check_against_nested_lists(a, b, c, divisor):
    # the oracle is plain nested lists of Fractions; every result must also
    # be in normal form, since == compares the stored rows and den
    rows, inner, cols = len(a), len(c), len(c[0])
    ma, mb, mc = QMatrix(a), QMatrix(b), QMatrix(c)
    product = [[sum((a[i][k] * c[k][j] for k in range(inner)), Fraction(0))
                for j in range(cols)] for i in range(rows)]
    total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    divided = [[x / divisor for x in row] for row in product]
    for result, expected in ((ma @ mc, product), (ma.times(mc, divisor), divided),
                             (ma + mb, total), (ma, a)):
        assert in_normal_form(result)
        assert result.is_zero() <= (result.den == 1)
        assert result.data == as_tuples(expected)
        assert all(type(x) is Fraction for row in result.data for x in row)
        assert (result.rows, result.cols) == (len(expected), len(expected[0]))
        assert result == QMatrix(expected)
        width = len(expected[0])
        assert {k: Fraction(x, result.den) for k, x in result.flat().items()} == {
            i * width + j: x for i, row in enumerate(expected) for j, x in enumerate(row) if x}
    assert ma @ mc == ma.times(mc, 1)
    cancelled = ma + scaled(ma, -1)
    assert in_normal_form(cancelled) and cancelled == QMatrix.zeros(rows, inner)
    assert cancelled.den == 1
    assert ma.is_zero() == all(x == 0 for row in a for x in row)
    assert ma.is_diagonal() == all(a[i][j] == 0 for i in range(rows)
                                   for j in range(inner) if i != j)
    assert all(ma[i, j] == a[i][j] and type(ma[i, j]) is Fraction
               for i in range(rows) for j in range(inner))
    assert (ma == mb) == (a == b)
    # sparse divides out a common factor of den and the rows
    den = math.lcm(*(x.denominator for row in a for x in row))
    ints = [{j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in a]
    assert QMatrix.sparse(rows, inner, ints, den) == ma
    assert QMatrix.sparse(rows, inner, [{j: 6 * x for j, x in row.items()} for row in ints],
                          6 * den) == ma


@settings(max_examples=100, deadline=None)
@given(qmatrix_operands())
def test_qmatrix_operations_match_nested_lists(operands):
    check_against_nested_lists(*operands)


@settings(max_examples=100, deadline=None)
@given(qmatrix_operands(WIDE_ENTRY))
def test_qmatrix_operations_on_wide_rationals(operands):
    check_against_nested_lists(*operands)


KEY_SETS = {
    "int": list(range(7)),
    "tuple": sorted(itertools.product(range(3), repeat=2)),  # exponent tuples
}


NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


# denominators up to 10^6 and numerators up to 10^18, so stored pivots are
# rarely 1 and the integer rows carry wide common denominators
WIDE = WIDE_RATIONALS


@st.composite
def echelon_rows(draw, keys, coeffs=NONZERO):
    # fresh sparse rows (explicit zeros included) mixed with combinations of
    # earlier rows, so dependent rows and cancellation both occur
    keys = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            row: dict = {}
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                a = draw(coeffs)
                for k, x in earlier.items():
                    row[k] = row.get(k, Fraction(0)) + a * x
        else:
            row = draw(st.dictionaries(st.sampled_from(keys),
                                       st.one_of(st.just(Fraction(0)), coeffs),
                                       min_size=1, max_size=len(keys)))
        rows.append(row)
    return rows


def sympy_rank(rows: list[dict], columns: list) -> int:
    if not rows or not columns:
        return 0
    return DomainMatrix.from_list([[row.get(k, Fraction(0)) for k in columns] for row in rows],
                                  QQ).rank()


def sympy_rref(rows: list[dict], columns: list) -> list[dict]:
    """The nonzero rows of sympy's reduced row echelon form, columns in the given order."""
    if not rows or not columns:
        return []
    reduced, pivots = DomainMatrix.from_list(
        [[row.get(k, Fraction(0)) for k in columns] for row in rows], QQ).rref()
    table = reduced.to_list()
    return [{k: sympy_fraction(x) for k, x in zip(columns, table[r]) if x}
            for r in range(len(pivots))]


def check_reduced_form(reduced: dict, rows: list[dict]) -> None:
    """Pivots ascending, each row of content 1 with a positive pivot entry, and
    the rows divided by their pivot entries equal to sympy's rref."""
    assert list(reduced) == sorted(reduced)
    for pivot, row in reduced.items():
        assert min(row) == pivot and row[pivot] > 0
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
    divided = [{k: Fraction(x, row[pivot]) for k, x in row.items()}
               for pivot, row in reduced.items()]
    assert divided == sympy_rref(rows, sorted({k for row in rows for k in row}))


def scaled_to_ints(row: dict) -> dict:
    """The rational row times the lcm of its denominators, zeros dropped: a row Echelon takes.

    Scaling a row changes neither the rank nor the reduced form, so sympy
    still gets the rational rows.
    """
    s = math.lcm(*[x.denominator for x in row.values()])
    return {k: int(x * s) for k, x in row.items() if x}


@pytest.mark.parametrize("key_kind", sorted(KEY_SETS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_add_matches_sympy_rank_growth(key_kind, data):
    # add accepts a row exactly when the rank grows; a reduced() call between
    # adds leaves an echelon form that later adds keep extending
    coeffs = data.draw(st.sampled_from([NONZERO, WIDE]))
    rows = data.draw(echelon_rows(KEY_SETS[key_kind], coeffs=coeffs))
    columns = sorted({k for row in rows for k in row})
    ranks = [sympy_rank(rows[:i], columns) for i in range(len(rows) + 1)]
    echelon, added = Echelon(), []
    for i, row in enumerate(rows):
        ints = scaled_to_ints(row)
        added.append((ints, dict(ints)))
        assert echelon.add(ints) == (ranks[i + 1] > ranks[i])
        assert echelon.rank == ranks[i + 1]
        if data.draw(st.booleans()):
            check_reduced_form(echelon.reduced(), rows[:i + 1])
        # no caller's row is changed
        assert all(ints == before for ints, before in added)


def test_echelon_add_keeps_the_callers_rows():
    # a row nothing eliminates in (content 1, positive pivot) is stored as a
    # copy too, so changing any caller's row after add changes nothing
    echelon = Echelon()
    kept, met, negative, dependent = {0: 1, 2: 3}, {0: 2, 1: 4}, {3: -3, 4: 6}, {0: 1, 1: 2}
    rows = [kept, met, negative, dependent]
    copies = [dict(row) for row in rows]
    assert [echelon.add(row) for row in rows] == [True, True, True, False]
    assert rows == copies
    assert not {id(row) for row in echelon._rows.values()} & {id(row) for row in rows}
    for row in rows:
        row.clear()
    kept[1] = 1
    assert echelon.rank == 3
    assert echelon.reduced() == {0: {0: 1, 2: 3}, 1: {1: 2, 2: -3}, 3: {3: 1, 4: -2}}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0, 0, 1, -2, 3]), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rank_leaves_the_matrix_unchanged(data):
    m = QMatrix(data)
    rows = [dict(row) for row in m.entries]
    assert rank(m) == DomainMatrix.from_list(data, QQ).rank()
    assert [dict(row) for row in m.entries] == rows and m == QMatrix(data)


@pytest.mark.parametrize("key_kind", sorted(KEY_SETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_echelon_on_wide_rationals_matches_sympy(key_kind, data):
    rows = data.draw(echelon_rows(KEY_SETS[key_kind], coeffs=WIDE))
    echelon = Echelon()
    for row in rows:
        echelon.add(scaled_to_ints(row))
    reduced = echelon.reduced()
    check_reduced_form(reduced, rows)
    assert len(reduced) == echelon.rank
    assert echelon.reduced() == reduced  # a second call finds nothing left to clear


@st.composite
def wide_square(draw):
    # dense, sparse, or a*I + u v^T (minimal polynomial of degree <= 2)
    n = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([WIDE, st.one_of(st.just(Fraction(0)), WIDE)]))
    kind = draw(st.sampled_from(["entries", "rank-one update"]))
    if kind == "entries":
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    a = draw(WIDE)
    u = [draw(entry) for _ in range(n)]
    v = [draw(entry) for _ in range(n)]
    return [[(a if i == j else 0) + u[i] * v[j] for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(wide_square())
def test_inverse_and_minimal_polynomial_on_wide_rationals_match_sympy(data):
    n = len(data)
    m, dm = QMatrix(data), DomainMatrix.from_list(data, QQ)
    if dm.rank() == n:
        expected = [[sympy_fraction(x) for x in row] for row in dm.inv().to_list()]
        assert inverse(m).data == as_tuples(expected)
    else:
        assert inverse(m) is None
    p = minimal_polynomial(m)
    degree = p.total_degree()
    assert [p.coeff((k,)) for k in range(degree, -1, -1)] == sympy_minimal_polynomial(data)

import itertools
import math
import random
from fractions import Fraction

from commro import (Poly, deglex_key, derivative_basis, dpd, mono_str, normal_set,
                    parse_poly, quotient)
from commro.detspecial import (det2_golden, det_mult_tables, det_normal_set,
                               det_polynomial, det_variables, palindrome,
                               perm_polynomial)
from commro.linalg import polymat_mul

from helpers import cofactor_det, span_rank


def test_det_small():
    assert det_polynomial(1) == Poly.monomial(("x1_1",), (1,))
    det2 = det_polynomial(2)
    assert det2 == parse_poly("x1_1*x2_2 - x1_2*x2_1", det_variables(2))


def test_det3_against_cofactor_oracle():
    det3 = det_polynomial(3)
    assert len(det3.terms) == 6
    assert set(det3.terms.values()) == {Fraction(1), Fraction(-1)}
    rng = random.Random(11)
    for _ in range(10):
        m = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        flat = [x for row in m for x in row]
        assert det3.eval(flat) == cofactor_det(m)


def test_perm_small():
    assert perm_polynomial(1) == Poly.monomial(("x1_1",), (1,))
    assert perm_polynomial(2) == parse_poly("x1_1*x2_2 + x1_2*x2_1", det_variables(2))
    perm3 = perm_polynomial(3)
    assert len(perm3.terms) == 6
    assert set(perm3.terms.values()) == {Fraction(1)}


def test_palindrome_examples():
    p1 = palindrome(1)
    assert p1 == parse_poly("x1 + y1", ("x1", "y1"))
    assert len(palindrome(2).terms) == 4
    p3 = palindrome(3)
    assert len(p3.terms) == 8
    assert all(sum(m) == 3 for m in p3.terms)


def test_palindrome_is_the_product_of_its_factors():
    for n in range(1, 9):
        pal = palindrome(n)
        product = Poly.constant(pal.vars, 1)
        for i in range(n):
            product = product * (Poly.variable(pal.vars, i) + Poly.variable(pal.vars, n + i))
        assert pal == product


def test_det_normal_set_small():
    assert det_normal_set(1) == [(0,), (1,)]
    names = [mono_str(m, det_variables(2)) for m in det_normal_set(2)]
    assert names == ["1", "x1_1", "x1_2", "x2_1", "x2_2", "x1_2*x2_1"]


def test_det_normal_set_counts():
    for n in (1, 2, 3, 4):
        assert len(det_normal_set(n)) == math.comb(2 * n, n)


def test_det_normal_set_matches_generic():
    for n in (1, 2, 3, 4, 5):
        generic = normal_set(derivative_basis(det_polynomial(n)))
        assert det_normal_set(n) == list(generic.normal_set)


def test_det_mult_tables_n1():
    (table,) = det_mult_tables(1)
    assert table.data == ((0, 1), (0, 0))


def test_det_mult_tables_match_generic():
    # the generic pipeline is the source of truth for the sign convention;
    # at n = 5 (w = 252) the closed forms check the elimination entrywise
    for n in (1, 2, 3, 4, 5):
        fast = det_mult_tables(n)
        generic = quotient(det_polynomial(n))
        assert list(fast) == list(generic.tables)


def test_det2_golden_entries_as_printed():
    golden = det2_golden()
    vars = det_variables(2)
    x11 = Poly.variable(vars, 0)
    x22 = Poly.variable(vars, 3)
    # over the basis element -x1_2*x2_1 the negative entries sit at x1_2, x2_1
    assert golden[0][4, 5] == x11
    assert golden[3][1, 5] == x22
    assert golden[1][3, 5] == -Poly.variable(vars, 1)
    assert golden[2][2, 5] == -Poly.variable(vars, 2)
    for m in golden:
        for i in range(6):
            assert m[i, i] == Poly.constant(vars, 1)


def test_det2_golden_is_identity_plus_table():
    golden = det2_golden()
    vars = det_variables(2)
    # golden = I + D A_k D x_k, D = diag(1, 1, 1, 1, 1, -1)
    d = [1, 1, 1, 1, 1, -1]
    for var, (table, printed) in enumerate(zip(det_mult_tables(2), golden)):
        x = Poly.variable(vars, var)
        for i in range(6):
            for j in range(6):
                expected = x.scale(d[i] * table[i, j] * d[j])
                if i == j:
                    expected = expected + Poly.constant(vars, 1)
                assert printed[i, j] == expected


def test_det2_golden_product_all_orders():
    golden = det2_golden()
    det2 = det_polynomial(2)
    reference = None
    for order in itertools.permutations(range(4)):
        prod = golden[order[0]]
        for idx in order[1:]:
            prod = polymat_mul(prod, golden[idx])
        if reference is None:
            reference = prod
            # the product carries Det2 at the (1,6) slot: the last basis
            # element -x1_2*x2_1 is x1_1*x2_2 in the apolar quotient
            assert prod[0, 5] == det2
        else:
            assert prod == reference


def test_minor_determinants_span_derivative_space():
    for n in (2, 3):
        det = det_polynomial(n)
        vars = det.vars
        basis = list(derivative_basis(det).basis)
        minors = []
        for k in range(n + 1):
            for rows in itertools.combinations(range(1, n + 1), k):
                for cols in itertools.combinations(range(1, n + 1), k):
                    if k == 0:
                        minors.append(Poly.constant(vars, 1))
                        continue
                    terms = {}
                    for perm in itertools.permutations(range(k)):
                        sign = 1
                        for a in range(k):
                            for b in range(a + 1, k):
                                if perm[a] > perm[b]:
                                    sign = -sign
                        mono = [0] * (n * n)
                        for a in range(k):
                            i, j = rows[a], cols[perm[a]]
                            mono[(i - 1) * n + (j - 1)] += 1
                        terms[tuple(mono)] = Fraction(sign)
                    minors.append(Poly(vars, terms))
        w = len(basis)
        assert len(minors) == w
        assert span_rank(minors) == w
        assert span_rank(minors + basis) == w  # same span, both directions


def test_anti_diagonals_avoid_minor_permanent_leading_monomials():
    for n in (2, 3):
        vars = det_variables(n)
        normal = det_normal_set(n)
        leading = []
        for a, b in itertools.combinations(range(1, n + 1), 2):
            for c, d in itertools.combinations(range(1, n + 1), 2):
                diag = [0] * (n * n)
                diag[(a - 1) * n + (c - 1)] += 1
                diag[(b - 1) * n + (d - 1)] += 1
                anti = [0] * (n * n)
                anti[(a - 1) * n + (d - 1)] += 1
                anti[(b - 1) * n + (c - 1)] += 1
                # the diagonal product is the deg-lex larger of the two
                assert deglex_key(tuple(diag)) > deglex_key(tuple(anti))
                leading.append(tuple(diag))
        for mono in normal:
            for lm in leading:
                assert not all(x <= y for x, y in zip(lm, mono))  # lm does not divide it


def test_dpd_of_determinant():
    for n in (1, 2, 3):
        assert dpd(det_polynomial(n)) == math.comb(2 * n, n)

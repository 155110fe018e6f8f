import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from commro import Poly, derivative_basis, dpd, monomials_upto, pairing, parse_poly
from commro.detspecial import det_polynomial, palindrome, perm_polynomial
from commro.poly import MonoPacking, mono_factorial

from helpers import (brute_dpd, dilate, random_poly, reference_derivative_basis, span_rank,
                     wide_rational_polys)

V2 = ("x1", "x2")


def test_bases_compare_by_source_and_rows():
    f = parse_poly("1/3*x1^2*x2 + 2*x2^3", V2)
    assert derivative_basis(f) == derivative_basis(parse_poly("2*x2^3 + 1/3*x1^2*x2", V2))
    assert derivative_basis(f) != derivative_basis(f.scale(2))


def test_basis_of_x1x2():
    f = parse_poly("x1*x2", V2)
    b = derivative_basis(f)
    assert b.dimension == 4
    # closure order: f, then its derivatives by x1 (giving x2) and by x2
    # (giving x1), then d/dx2 of x2 (giving 1)
    assert list(b.basis) == [f, Poly.variable(V2, 1), Poly.variable(V2, 0),
                             Poly.constant(V2, 1)]
    assert b.basis[0] == b.source


def test_univariate_power_dimension():
    for d in (1, 3, 5):
        f = parse_poly(f"x^{d}", ("x",))
        assert dpd(f) == d + 1


def test_determinant_dimension():
    assert dpd(det_polynomial(2)) == 6   # C(4, 2)
    assert dpd(det_polynomial(3)) == 20  # C(6, 3)


def test_dpd_degenerate_cases():
    assert dpd(Poly.zero(V2)) == 0
    assert dpd(Poly.constant(V2, 7)) == 1
    zero = derivative_basis(Poly.zero(V2))
    assert zero.dimension == 0 and zero.basis == ()


def test_dpd_matches_brute_force():
    rng = random.Random(41)
    for _ in range(20):
        f = random_poly(rng, 3, 3, 6, homogeneous=False)
        assert dpd(f) == brute_dpd(f)


def test_dpd_of_monomial_is_product_of_exponents_plus_one():
    rng = random.Random(43)
    for _ in range(15):
        mono = tuple(rng.randint(0, 3) for _ in range(3))
        f = Poly.monomial(("x1", "x2", "x3"), mono)
        expected = 1
        for e in mono:
            expected *= e + 1
        assert dpd(f) == expected == brute_dpd(f)


def test_pairing_examples():
    f = parse_poly("x1*x2", V2)
    assert pairing(f, f) == 1
    assert pairing(parse_poly("x1^2", V2), f) == 0
    det2 = det_polynomial(2)
    assert pairing(det2, det2) == 2


def test_pairing_counts_factorials():
    f = parse_poly("x1^2*x2", V2)
    assert pairing(f, f) == 2  # e! = 2! * 1!


def test_pairing_symmetry():
    rng = random.Random(47)
    for _ in range(25):
        g = random_poly(rng, 3, 3, 5, homogeneous=False)
        h = random_poly(rng, 3, 3, 5, homogeneous=False)
        assert pairing(g, h) == pairing(h, g)


def test_pairing_arity_mismatch():
    with pytest.raises(ValueError):
        pairing(Poly.variable(V2, 0), Poly.variable(("x",), 0))


def test_eval_vector_examples():
    # the pairing of a monomial with each basis element, in basis order
    b = derivative_basis(parse_poly("x1*x2", V2))

    def vector(mono):
        return [pairing(Poly.monomial(V2, mono), g) for g in b.basis]

    # basis order is (x1x2, x2, x1, 1)
    assert vector((0, 0)) == [0, 0, 0, 1]
    assert vector((1, 1)) == [1, 0, 0, 0]
    assert vector((2, 0)) == [0, 0, 0, 0]


def test_dpd_invariant_under_dilation():
    rng = random.Random(53)
    for _ in range(10):
        f = random_poly(rng, 3, 3, 6, homogeneous=False)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert dpd(dilate(f, alpha)) == dpd(f)


def test_component_dimension_bound():
    rng = random.Random(59)
    for _ in range(10):
        f = random_poly(rng, 3, 3, 8, homogeneous=False)
        d = f.total_degree()
        for h in f.homogeneous_components():
            if not h.is_zero():
                assert dpd(h) <= (d + 1) * dpd(f)


def test_basis_is_closed_under_derivatives():
    rng = random.Random(61)
    for _ in range(10):
        f = random_poly(rng, 3, 3, 6)
        b = derivative_basis(f)
        base_rank = span_rank(list(b.basis))
        assert base_rank == b.dimension
        extended = list(b.basis)
        for g in b.basis:
            for var in range(f.arity):
                shift = tuple(1 if k == var else 0 for k in range(f.arity))
                dg = g.derive(shift)
                if not dg.is_zero():
                    extended.append(dg)
        assert span_rank(extended) == base_rank


def test_closure_spans_every_monomial_derivative():
    rng = random.Random(67)
    corpus = [det_polynomial(3), perm_polynomial(3), palindrome(4)]
    corpus += [random_poly(rng, rng.randint(2, 4), rng.randint(2, 4), 6) for _ in range(10)]
    for f in corpus:
        derivatives = [f.derive(m) for m in monomials_upto(f.arity, f.total_degree())]
        assert derivative_basis(f).dimension == span_rank([g for g in derivatives if g])


def test_closure_uses_only_single_variable_derivatives(monkeypatch):
    # a fall-back to the multi-index derivative fails here, with no timing budget
    calls = []
    multi_index = Poly.derive

    def counted(self, mono):
        calls.append(mono)
        return multi_index(self, mono)

    monkeypatch.setattr(Poly, "derive", counted)
    assert derivative_basis(det_polynomial(4)).dimension == 70
    assert derivative_basis(palindrome(5)).dimension == 32
    assert calls == []
    det_polynomial(2).derive((1, 0, 0, 0))
    assert len(calls) == 1


def assert_closure_matches_the_reference(f):
    b = derivative_basis(f)
    rows, scale, echelon = reference_derivative_basis(f)
    packing = MonoPacking(f.arity, f.total_degree())
    assert list(b.basis) == [
        Poly.sparse(f.vars, {packing.unpack(k): c / (scale * mono_factorial(packing.unpack(k)))
                             for k, c in row.items()}) for row in rows]
    assert list(b.echelon.reduced().items()) == list(echelon.reduced().items())


@settings(max_examples=40, deadline=None)
@given(wide_rational_polys())
def test_closure_of_rational_input_matches_the_reference(f):
    assert_closure_matches_the_reference(f)


def test_closure_of_non_homogeneous_input_matches_the_reference():
    rng = random.Random(23)
    for _ in range(60):
        assert_closure_matches_the_reference(
            random_poly(rng, rng.randint(1, 5), rng.randint(0, 5), 8, homogeneous=False))


def test_closure_derives_no_row_by_a_variable_it_lacks(monkeypatch):
    # det4 has 16 variables and only 4 in each term, so most derivatives
    # of its rows are zero; none of them may be formed.  Nor is a second
    # candidate with a multi-index its level already tried (det4 reaches
    # d^2/dx_a dx_b from d/dx_a and from d/dx_b): it is the same row
    empty = []
    derive = MonoPacking.derive

    def counted(self, row, index):
        out = derive(self, row, index)
        empty.append(not out)
        return out

    monkeypatch.setattr(MonoPacking, "derive", counted)
    assert derivative_basis(det_polynomial(4)).dimension == 70
    assert len(empty) == 178
    assert derivative_basis(palindrome(5)).dimension == 32
    assert len(empty) == 178 + 111
    assert not any(empty)


@settings(max_examples=40, deadline=None)
@given(wide_rational_polys())
def test_basis_of_rational_input_is_exact(f):
    # the closure runs on f scaled to integers; the basis must still be
    # f's own derivatives, with their exact rational coefficients
    b = derivative_basis(f)
    assert b.basis[0] == f
    bounds = [range(f.individual_degree(i) + 1) for i in range(f.arity)]
    derivatives = [f.derive(e) for e in itertools.product(*bounds)]
    assert all(g in derivatives for g in b.basis)
    assert b.dimension == brute_dpd(f)

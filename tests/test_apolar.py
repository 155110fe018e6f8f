import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from commro import (Poly, QMatrix, apolar_member, commute, derivative_basis,
                    dpd, minimal_polynomial, multiplication_tables, normal_set, pairing,
                    parse_poly, quotient, reduce_mod_apolar)
from commro.apolar import residue_coefficients
from commro.detspecial import det_polynomial, palindrome, perm_polynomial

from helpers import (ColumnScanQuotient, brute_dpd, companion_matrix, poly_at_matrices,
                     random_poly, residue_by_pairing, wide_rational_polys)

V2 = ("x1", "x2")


def minor_permanent(n: int, rows: tuple[int, int], cols: tuple[int, int]) -> Poly:
    """Permanent of a 2x2 minor of the n x n symbolic matrix."""
    vars = det_polynomial(n).vars
    (a, b), (c, d) = rows, cols
    idx = lambda i, j: (i - 1) * n + (j - 1)
    m1 = [0] * (n * n)
    m1[idx(a, c)] += 1
    m1[idx(b, d)] += 1
    m2 = [0] * (n * n)
    m2[idx(a, d)] += 1
    m2[idx(b, c)] += 1
    return Poly(vars, {tuple(m1): Fraction(1), tuple(m2): Fraction(1)})


def test_normal_set_x1x2():
    q = normal_set(derivative_basis(parse_poly("x1*x2", V2)))
    assert q.normal_set == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_normal_set_univariate_power():
    d = 4
    q = normal_set(derivative_basis(parse_poly(f"x^{d}", ("x",))))
    assert q.normal_set == tuple((k,) for k in range(d + 1))


def test_normal_set_det2():
    det2 = det_polynomial(2)
    q = normal_set(derivative_basis(det2))
    names = ["1", "x1_1", "x1_2", "x2_1", "x2_2", "x1_2*x2_1"]
    from commro import mono_str
    assert [mono_str(m, det2.vars) for m in q.normal_set] == names


def test_quotient_of_non_homogeneous_input():
    # R/Ann(f) exists for every f: no homogeneous component is split off
    rng = random.Random(29)
    seen = 0
    while seen < 120:
        f = random_poly(rng, rng.randint(1, 3), rng.randint(1, 4), 6, homogeneous=False)
        if f.is_homogeneous():
            continue
        seen += 1
        q = quotient(f)
        assert q.dimension == brute_dpd(f)
        assert q.normal_set[0] == (0,) * f.arity
        for a, b in itertools.combinations(q.tables, 2):
            assert commute(a, b)
        for var, table in enumerate(q.tables):
            for i, mono in enumerate(q.normal_set):
                shifted = tuple(e + (k == var) for k, e in enumerate(mono))
                residue = Poly(f.vars, {m: x for m, x in zip(q.normal_set, table.data[i])})
                assert apolar_member(Poly.monomial(f.vars, shifted) - residue, f)


def test_normal_set_structure_invariants():
    rng = random.Random(71)
    for _ in range(8):
        f = random_poly(rng, 3, rng.randint(1, 3), 6)
        q = normal_set(derivative_basis(f))
        w = q.dimension
        assert w == dpd(f)
        assert q.normal_set[0] == (0,) * f.arity
        # downward closed under divisibility
        selected = set(q.normal_set)
        for mono in selected:
            for var in range(f.arity):
                if mono[var]:
                    lower = tuple(e - 1 if k == var else e for k, e in enumerate(mono))
                    assert lower in selected
        # the normal set's pairing vectors are independent
        from commro import rank
        vectors = [[pairing(Poly.monomial(f.vars, m), g) for g in q.basis.basis]
                   for m in q.normal_set]
        assert rank(QMatrix(vectors)) == w


def test_reduce_idempotent_on_normal_span():
    rng = random.Random(73)
    f = parse_poly("x1*x2", V2)
    q = normal_set(derivative_basis(f))
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in q.normal_set]
        g = Poly(f.vars, {m: c for m, c in zip(q.normal_set, coeffs)})
        assert reduce_mod_apolar(g, q) == g


def test_reduce_examples():
    f = parse_poly("x1*x2", V2)
    q = normal_set(derivative_basis(f))
    assert reduce_mod_apolar(parse_poly("x1^2", V2), q).is_zero()

    for n in (2, 3):
        det = det_polynomial(n)
        q = normal_set(derivative_basis(det))
        for rows in itertools.combinations(range(1, n + 1), 2):
            for cols in itertools.combinations(range(1, n + 1), 2):
                assert reduce_mod_apolar(minor_permanent(n, rows, cols), q).is_zero()


def test_reduce_difference_lands_in_ideal():
    rng = random.Random(79)
    f = det_polynomial(2)
    q = normal_set(derivative_basis(f))
    for _ in range(10):
        g = random_poly(rng, 4, 2, 6, homogeneous=False)
        g = Poly(f.vars, g.terms)  # move to the det variable names
        residue = reduce_mod_apolar(g, q)
        member = g - residue
        assert apolar_member(member, f)
        # anything in the ideal of a nonzero polynomial has no constant term
        assert member.coeff((0,) * 4) == 0


def test_tables_x1x2():
    q = quotient(parse_poly("x1*x2", V2))
    # normal set (1, t1, t2, t1t2): multiplying by t1 maps
    # 1 -> t1, t1 -> 0, t2 -> t1t2, t1t2 -> 0
    expected = QMatrix([
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ])
    assert q.tables[0] == expected


def test_tables_univariate_power_shift():
    d = 4
    q = quotient(parse_poly(f"x^{d}", ("x",)))
    shift = QMatrix([[1 if j == i + 1 else 0 for j in range(d + 1)] for i in range(d + 1)])
    assert q.tables[0] == shift


def test_tables_commute_and_nilpotent():
    rng = random.Random(83)
    for _ in range(6):
        f = random_poly(rng, 3, rng.randint(1, 3), 5)
        q = quotient(f)
        for a, b in itertools.combinations(q.tables, 2):
            assert commute(a, b)
        for var, table in enumerate(q.tables):
            power = table
            for _ in range(f.individual_degree(var)):
                power = power @ table
            assert power.is_zero()


def test_table_rows_match_residues_of_shifted_monomials():
    # the tables come from pairing columns; residue_coefficients pairs t_l * m_i
    # against every basis element, so it is an independent route to each row
    rng = random.Random(107)
    corpus = [det_polynomial(3), perm_polynomial(3), palindrome(4)]
    corpus += [random_poly(rng, rng.randint(2, 4), rng.randint(2, 4), 6) for _ in range(10)]
    for f in corpus:
        q = quotient(f)
        for var, table in enumerate(q.tables):
            shift = tuple(int(k == var) for k in range(f.arity))
            for i, mono in enumerate(q.normal_set):
                product = Poly.monomial(f.vars, tuple(e + s for e, s in zip(mono, shift)))
                assert list(table.data[i]) == residue_coefficients(product, q)


def test_first_row_property():
    rng = random.Random(89)
    f = det_polynomial(2)
    q = quotient(f)
    for _ in range(20):
        g = random_poly(rng, 4, 2, 5, homogeneous=False)
        g = Poly(f.vars, g.terms)
        evaluated = poly_at_matrices(g, list(q.tables))
        residue = reduce_mod_apolar(g, q)
        assert list(evaluated.data[0]) == [residue.coeff(m) for m in q.normal_set]


def test_reduce_zero_iff_member():
    rng = random.Random(97)
    f = random_poly(rng, 3, 2, 5)
    q = normal_set(derivative_basis(f))
    seen_member = seen_nonmember = False
    for _ in range(60):
        h = random_poly(rng, 3, 3, 5, homogeneous=False)
        is_zero = reduce_mod_apolar(h, q).is_zero()
        assert is_zero == apolar_member(h, f)
        seen_member |= is_zero
        seen_nonmember |= not is_zero
    assert seen_nonmember  # the sample must exercise both directions
    # force a member if sampling found none: anything of degree > deg f
    if not seen_member:
        h = Poly.monomial(f.vars, (f.total_degree() + 1, 0, 0))
        assert apolar_member(h, f) and reduce_mod_apolar(h, q).is_zero()


def test_univariate_table_examples():
    t = ("t",)
    for text in ("t^2", "t^2 - 1", "t^5 - 10*t^4 - 7*t^3 + 2*t^2 - 3"):
        p = parse_poly(text, t)
        assert minimal_polynomial(QMatrix(companion_matrix(p))) == p


def test_univariate_table_minimal_polynomial_random():
    rng = random.Random(101)
    t = ("t",)
    for _ in range(10):
        d = rng.randint(1, 5)
        terms = {(k,): Fraction(rng.randint(-5, 5)) for k in range(d)}
        terms[(d,)] = Fraction(rng.choice([1, 2, -3]))
        p = Poly(t, terms)
        lead = p.coeff((d,))
        assert minimal_polynomial(QMatrix(companion_matrix(p))) == p.scale(Fraction(1) / lead)


def test_apolar_member_examples():
    f = random_poly(random.Random(103), 3, 3, 4)
    d = f.total_degree()
    for var in range(3):
        high = tuple(d + 1 if k == var else 0 for k in range(3))
        assert apolar_member(Poly.monomial(f.vars, high), f)
    assert not apolar_member(f, f)
    det3 = det_polynomial(3)
    assert apolar_member(minor_permanent(3, (1, 2), (2, 3)), det3)


def test_normal_set_size_counts_quotient_dimension():
    for n in (1, 2, 3):
        det = det_polynomial(n)
        q = normal_set(derivative_basis(det))
        import math
        assert q.dimension == math.comb(2 * n, n)


@settings(max_examples=40, deadline=None)
@given(wide_rational_polys())
def test_quotient_of_rational_input(f):
    # the quotient depends only on the derivative span, which scaling by
    # the lcm of the denominators leaves alone; table rows must still be
    # the residues of t_l * m_i, which pair against the rational basis
    q = quotient(f)
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    integral = quotient(f.scale(scale))
    assert q.normal_set == integral.normal_set
    assert q.tables == integral.tables
    for var, table in enumerate(q.tables):
        shift = tuple(int(k == var) for k in range(f.arity))
        for i, mono in enumerate(q.normal_set):
            product = Poly.monomial(f.vars, tuple(e + s for e, s in zip(mono, shift)))
            assert list(table.data[i]) == residue_coefficients(product, q)


@st.composite
def residue_cases(draw, max_degree=3):
    """A quotient and a g mixing support monomials, other monomials of
    degree up to deg f + 1, and monomials with one exponent too wide for
    a packed field (at least 2^bits)."""
    f = draw(wide_rational_polys(max_degree))
    q = normal_set(derivative_basis(f))
    d, r = f.total_degree(), f.arity
    support = sorted({m for g in q.basis.basis for m in g.terms})
    low = st.tuples(*[st.integers(0, d + 1)] * r)
    field = 1 << (d.bit_length() + 1)
    wide = st.builds(lambda m, var, e: m[:var] + (e,) + m[var + 1:],
                     low, st.integers(0, r - 1), st.integers(field, 4 * field))
    monos = draw(st.lists(st.sampled_from(support), min_size=1, max_size=4))
    monos += draw(st.lists(st.one_of(low, wide), max_size=4))
    coeffs = st.builds(Fraction, st.integers(-10 ** 18, 10 ** 18).filter(bool),
                       st.integers(1, 10 ** 6))
    return q, Poly(f.vars, {m: draw(coeffs) for m in monos})


@settings(max_examples=150, deadline=None)
@given(residue_cases())
def test_residues_match_the_pairing_oracle(case):
    q, g = case
    assert residue_coefficients(g, q) == residue_by_pairing(g, q)


@settings(max_examples=60, deadline=None)
@given(residue_cases(max_degree=5))
def test_quotient_matches_the_column_scan_oracle(case):
    # exponents up to 5, where the divided powers and the per-pivot
    # denominators of the reduced form differ most from the pairing
    # columns' own arithmetic
    q, g = case
    q = multiplication_tables(q)
    oracle = ColumnScanQuotient(q.basis)
    assert list(q.normal_set) == oracle.normal_set
    for table, rows in zip(q.tables, oracle.tables):
        assert [list(row) for row in table.data] == rows
    assert residue_coefficients(g, q) == oracle.residue(g)

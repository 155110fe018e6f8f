import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Symbol
from sympy import Poly as SympyPoly

from commro import (Poly, PolyParseError, deglex_key, mono_factorial,
                    monomials_of_degree, monomials_upto, parse_poly)
from commro.detspecial import det_polynomial
from commro.poly import MonoPacking

from helpers import (WIDE_RATIONALS, random_poly, random_point, reference_parse_poly,
                     sympy_fraction, wide_rational_polys)

V3 = ("x1", "x2", "x3")
V2 = ("x1", "x2")


def test_parse_basic():
    p = parse_poly("x1*x2^2 - 3/2*x3", V3)
    assert p.arity == 3
    assert p.terms == {(1, 2, 0): Fraction(1), (0, 0, 1): Fraction(-3, 2)}


def test_parse_zero():
    assert parse_poly("0", ("x1",)).is_zero()


def test_parse_det2():
    vars = ("x1_1", "x1_2", "x2_1", "x2_2")
    assert parse_poly("x1_1*x2_2 - x1_2*x2_1", vars) == det_polynomial(2)


def test_parse_leading_sign_and_fractions():
    p = parse_poly("-x1 + 5/3", V2)
    assert p.coeff((1, 0)) == -1
    assert p.coeff((0, 0)) == Fraction(5, 3)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + ^2", V2)
    assert err.value.pos == 5
    with pytest.raises(PolyParseError, match="unknown variable 'y'"):
        parse_poly("x1*y", V2)
    with pytest.raises(PolyParseError, match="denominator"):
        parse_poly("1/0", V2)


# every message and position is pinned: the position is the offending token's start
MALFORMED = [
    ("x1 + ^2", "expected a term", 5),
    ("x1*y", "unknown variable 'y'", 3),
    ("1/0", "expected a positive denominator", 2),
    ("1/00", "expected a positive denominator", 2),
    ("1/x1", "expected a positive denominator", 2),
    ("2/-3", "expected a positive denominator", 2),
    ("1/", "expected a positive denominator", 2),
    ("x1^", "expected an exponent", 3),
    ("x1^y", "expected an exponent", 3),
    ("x1^-2", "expected an exponent", 3),
    ("3*", "expected a variable", 2),
    ("x1*", "expected a variable", 3),
    ("x1**2", "expected a variable", 3),
    ("x1 x2", "expected '+', '-' or end of input, got 'x2'", 3),
    ("3 4", "expected '+', '-' or end of input, got '4'", 2),
    ("2x1", "expected '+', '-' or end of input, got 'x1'", 1),
    ("x1^2^3", "expected '+', '-' or end of input, got '^'", 4),
    ("1/2/3", "expected '+', '-' or end of input, got '/'", 3),
    ("x1/2", "expected '+', '-' or end of input, got '/'", 2),
    ("x1 + $", "unexpected character '$'", 5),
    ("", "expected a term", 0),
    ("+", "expected a term", 1),
    ("-", "expected a term", 1),
    ("*x1", "expected a term", 0),
    ("x1 +", "expected a term", 4),
    ("x1 - - x2", "expected a term", 5),
    ("  x1 ^ 2 * x2 +", "expected a term", 15),
]


@pytest.mark.parametrize("text, message, pos", MALFORMED)
def test_parse_error_positions_are_unchanged(text, message, pos):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, V2)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} (at position {pos})"


SOUP = st.sampled_from(["x1", "x2", "0", "3", "12", "+", "-", "*", "/", "^", " ", "\n"])
FACTOR = st.sampled_from(["x1", "x2", "x1^3", "x2^0", "x2^12"])


@st.composite
def poly_texts(draw) -> str:
    """A token soup, mostly malformed, or a well-formed sum; either may hold one stray '$'."""
    if draw(st.booleans()):
        pieces = draw(st.lists(SOUP, max_size=14))
    else:
        pieces = [draw(st.sampled_from(["", "-", "+ "]))]
        for t in range(draw(st.integers(1, 5))):
            if t:
                pieces.append(draw(st.sampled_from([" + ", " - ", "\n+ ", "-"])))
            coeff = draw(st.sampled_from(["", "2", "0", "12", "1/2", "7/3", "3/0"]))
            factors = draw(st.lists(FACTOR, min_size=0 if coeff else 1, max_size=3))
            pieces.append("*".join([coeff] * bool(coeff) + factors))
    if draw(st.integers(0, 3)) == 3:
        pieces.insert(draw(st.integers(0, len(pieces))), "$")
    return "".join(pieces)


@settings(max_examples=400, deadline=None)
@given(poly_texts())
def test_parse_poly_agrees_with_the_token_at_a_time_reader(text):
    # the same Poly with the same int or Fraction coefficients, or the same message and position
    try:
        expected = reference_parse_poly(text, V2)
    except PolyParseError as err:
        with pytest.raises(PolyParseError) as got:
            parse_poly(text, V2)
        assert (str(got.value), got.value.pos) == (str(err), err.pos)
        return
    parsed = parse_poly(text, V2)
    assert parsed == expected
    assert [type(c) for c in parsed.terms.values()] == [type(c) for c in expected.terms.values()]


def test_parse_cancelling_terms():
    assert parse_poly("x1 - x1", V2).terms == {}
    assert parse_poly("1/2*x1 + 1/2*x1", V2) == Poly.variable(V2, 0)
    assert parse_poly("0*x1", V2).terms == {}
    assert parse_poly("0*x1 + x2 - 3/4 + 3/4", V2) == Poly.variable(V2, 1)
    # a cancelled monomial leaves no zero entry behind, whatever its order
    assert parse_poly("x1*x2 + x2*x1 - 2*x1*x2 + x2^2", V2).terms == {(0, 2): 1}


@pytest.mark.parametrize("make, message", [
    (lambda: parse_poly("x^2", ("x", "x")), "variable 'x' is declared twice"),
    (lambda: parse_poly("a^2", ("a", "b c")), "variable name 'b c' is not an identifier"),
    (lambda: parse_poly("1", ()), "empty variable list"),
    (lambda: Poly(("x", "x"), {}), "variable 'x' is declared twice"),
    (lambda: Poly(("a", "b c"), {(2, 0): 1}), "variable name 'b c' is not an identifier"),
])
def test_parse_poly_and_poly_refuse_what_variable_names_refuses(make, message):
    # the name rule owns every polynomial value made from outside input
    with pytest.raises(ValueError, match=message):
        make()


def test_parse_keeps_integer_coefficients_as_ints():
    p = parse_poly("3*x1 - 4/2*x2 + 5/3", V2)
    assert p.terms == {(1, 0): 3, (0, 1): -2, (0, 0): Fraction(5, 3)}
    assert type(p.terms[(1, 0)]) is int


def test_print_round_trip_fixed():
    for text in ("x1_1*x2_2 - x1_2*x2_1", "0", "-3/2*x1 + x2 - 1", "x1^4"):
        vars = ("x1_1", "x1_2", "x2_1", "x2_2") if "_" in text else V2
        p = parse_poly(text, vars)
        assert parse_poly(str(p), vars) == p


def test_print_round_trip_random():
    rng = random.Random(101)
    for _ in range(50):
        p = random_poly(rng, 3, 4, 6, homogeneous=False)
        assert parse_poly(str(p), p.vars) == p


def test_det2_prints_as_expected():
    assert str(det_polynomial(2)) == "x1_1*x2_2 - x1_2*x2_1"


def test_add_cancellation():
    x1 = Poly.variable(V2, 0)
    assert (x1 + (-x1)).is_zero()


def test_mul_difference_of_squares():
    x1, x2 = Poly.variable(V2, 0), Poly.variable(V2, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_scale_det2():
    p = det_polynomial(2).scale(Fraction(1, 4))
    assert set(p.terms.values()) == {Fraction(1, 4), Fraction(-1, 4)}


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.variable(V2, 0) + Poly.variable(V3, 0)


def test_derive_power_rule():
    f = parse_poly("x1^2*x2", V2)
    assert f.derive((1, 0)) == parse_poly("2*x1*x2", V2)


def test_derive_full_multilinear():
    f = parse_poly("x1*x2", V2)
    assert f.derive((1, 1)) == Poly.constant(V2, 1)


def test_derive_det2():
    det2 = det_polynomial(2)
    # termwise: d/dx1_1 (x1_1*x2_2 - x1_2*x2_1) = x2_2
    assert det2.derive((1, 0, 0, 0)) == Poly.variable(det2.vars, 3)


def test_derive_identity_monomial():
    f = parse_poly("x1^2 + x2", V2)
    assert f.derive((0, 0)) == f


def test_derivatives_commute():
    rng = random.Random(7)
    for _ in range(25):
        f = random_poly(rng, 3, 4, 6, homogeneous=False)
        m1 = tuple(rng.randint(0, 2) for _ in range(3))
        m2 = tuple(rng.randint(0, 2) for _ in range(3))
        combined = tuple(a + b for a, b in zip(m1, m2))
        assert f.derive(m1).derive(m2) == f.derive(combined)


@st.composite
def polys(draw):
    # exponents up to 4 and a possible constant term; a variable that no
    # term contains gives a zero derivative
    arity = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, 4)] * arity)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(monos, coeffs, max_size=6))
    return Poly(tuple(f"x{i + 1}" for i in range(arity)), terms)


def to_sympy(f: Poly) -> SympyPoly:
    return SympyPoly.from_dict({m: QQ(c.numerator, c.denominator) for m, c in f.terms.items()},
                               [Symbol(v) for v in f.vars], domain=QQ)


def sympy_terms(p: SympyPoly) -> dict:
    return {m: sympy_fraction(c) for m, c in p.terms() if c}


@st.composite
def arithmetic_cases(draw):
    """Two polynomials on one ring, a rational factor, a power and a derivative index."""
    f = draw(wide_rational_polys())
    g = draw(wide_rational_polys().filter(lambda g: g.vars == f.vars))
    # a term of f with a negated coefficient makes a sum cancel
    mono, coeff = draw(st.sampled_from(sorted(f.terms.items())))
    g = Poly(g.vars, {**g.terms, mono: -coeff})
    factor = draw(st.one_of(st.just(0), WIDE_RATIONALS))
    index = draw(st.tuples(*[st.integers(0, 3)] * f.arity))
    return f, g, factor, draw(st.integers(0, 3)), index


@settings(max_examples=100, deadline=None)
@given(arithmetic_cases())
def test_arithmetic_matches_sympy(case):
    f, g, factor, power, index = case
    sf, sg = to_sympy(f), to_sympy(g)
    results = [
        (f + g, sf + sg),
        (f - g, sf - sg),
        (-f, -sf),
        (f * g, sf * sg),
        ((f + g) * (f - g), sf ** 2 - sg ** 2),  # the cross terms cancel
        (f ** power, sf ** power),
        (f.scale(factor), sf * QQ(factor.numerator, factor.denominator)),
        (f.derive(index), sf.diff(*[(Symbol(v), k) for v, k in zip(f.vars, index)])),
    ]
    for ours, theirs in results:
        assert ours.vars == f.vars
        assert all(ours.terms.values()), "a zero coefficient is stored"
        assert ours.terms == sympy_terms(theirs)
    assert (f - f).is_zero() and f - g + g == f


def test_scale_reads_a_float_factor_exactly():
    f = parse_poly("x1 + 3*x2", V2)
    assert f.scale(0.1) == f.scale(Fraction(0.1)) != f.scale(Fraction(1, 10))
    assert f.scale(0.0).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys())
def test_derive_var_matches_multi_index_derive(f):
    # d/dx_i by the power rule, term by term, against derive at the unit index
    for i in range(f.arity):
        unit = tuple(int(k == i) for k in range(f.arity))
        g = f.derive(unit)
        assert g.terms == {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                           for m, c in f.terms.items() if m[i]}
        assert g.vars == f.vars


def test_eval_examples():
    assert parse_poly("x1*x2", V2).eval([2, 3]) == 6
    det2 = det_polynomial(2)
    assert det2.eval([1, 0, 0, 1]) == 1
    assert det2.eval([1, 2, 3, 4]) == -2


def test_eval_is_multiplicative():
    rng = random.Random(13)
    for _ in range(20):
        a = random_poly(rng, 3, 3, 5, homogeneous=False)
        b = random_poly(rng, 3, 3, 5, homogeneous=False)
        point = random_point(rng, 3, bound=50)
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)


def fraction_eval(f: Poly, point) -> Fraction:
    """f at point, one Fraction power and product per factor."""
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        value = Fraction(coeff)
        for p, e in zip(point, mono):
            value *= Fraction(p) ** e
        total += value
    return total


def test_eval_matches_fraction_reference_on_seeded_corpus():
    rng = random.Random(2024)
    coords = [0, 1, -1, Fraction(-3, 7), Fraction(5, 2), 10 ** 6, -(10 ** 6)]
    for trial in range(60):
        arity = rng.randint(1, 4)
        vars = tuple(f"x{i + 1}" for i in range(arity))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 5) for _ in range(arity))
            terms[mono] = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4))
        if trial % 3 == 0:
            terms[(0,) * arity] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = Poly(vars, terms)
        for _ in range(3):
            point = [rng.choice(coords) if rng.random() < 0.4 else
                     Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
                     for _ in range(arity)]
            value = f.eval(point)
            assert type(value) is Fraction and value == fraction_eval(f, point)


def test_eval_edge_cases():
    assert Poly.zero(V2).eval([3, Fraction(1, 2)]) == 0
    assert Poly.constant(V2, Fraction(-7, 3)).eval([0, 0]) == Fraction(-7, 3)
    assert parse_poly("x1^2*x2 - 1/2", V2).eval([0, Fraction(-5, 3)]) == Fraction(-1, 2)
    f = parse_poly("x1^4096*x2 + 1", V2)
    assert f.eval([10 ** 6, -1]) == 1 - 10 ** (6 * 4096)
    g = parse_poly("x1^4096 + x2", V2)
    assert g.eval([Fraction(10 ** 6, 7), 3]) == Fraction(10 ** (6 * 4096), 7 ** 4096) + 3
    with pytest.raises(ValueError, match="arity"):
        f.eval([1])


@settings(max_examples=150, deadline=None)
@given(polys().flatmap(lambda f: st.tuples(st.just(f), st.lists(
    st.fractions(max_denominator=10 ** 6), min_size=f.arity, max_size=f.arity))))
def test_eval_matches_fraction_reference(case):
    f, point = case
    assert f.eval(point) == fraction_eval(f, point)


def test_homogeneous_components():
    f = parse_poly("x1^2 + x1 + 1", ("x1",))
    assert f.homogeneous_components() == [
        Poly.constant(("x1",), 1),
        Poly.variable(("x1",), 0),
        parse_poly("x1^2", ("x1",)),
    ]
    det2 = det_polynomial(2)
    comps = det2.homogeneous_components()
    assert comps[0].is_zero() and comps[1].is_zero() and comps[2] == det2
    assert Poly.zero(V2).homogeneous_components() == []


def test_components_by_degree_keeps_only_the_degrees_that_occur():
    f = parse_poly("x1^2*x2 - 3/4*x2^3 + 5 + x1", V2)
    parts = f.components_by_degree()
    assert list(parts) == [0, 1, 3]
    assert parts == {d: g for d, g in enumerate(f.homogeneous_components()) if g}
    assert parse_poly("x1^3000000", V2).components_by_degree() == {
        3000000: Poly.monomial(V2, (3000000, 0))}
    assert Poly.zero(V2).components_by_degree() == {}


def test_components_sum_to_poly():
    rng = random.Random(17)
    for _ in range(20):
        f = random_poly(rng, 3, 4, 8, homogeneous=False)
        total = Poly.zero(f.vars)
        for comp in f.homogeneous_components():
            total = total + comp
        assert total == f


def test_deglex_basics():
    assert deglex_key((0, 0)) < deglex_key((1, 0))  # 1 is least
    assert deglex_key((1, 0)) < deglex_key((0, 1))  # t1 < t2


def test_deglex_degree_two_order():
    # ascending: t1^2 < t1*t2 < t2^2
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert deglex_key((0, 2)) > deglex_key((1, 1))


def test_deglex_total_order_and_divisibility():
    # exhaustive up to degree 4, arity 3
    monos = list(monomials_upto(3, 4))
    keys = [deglex_key(m) for m in monos]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert monos[0] == (0, 0, 0)
    for a in monos:
        for b in monos:
            if all(x <= y for x, y in zip(a, b)):  # a divides b
                assert deglex_key(a) <= deglex_key(b)


@st.composite
def packed_monomials(draw, count):
    # a packing for degree d and monomials whose exponents reach d and
    # d + 1, the largest value a field must hold (guard bit included)
    arity, d = draw(st.integers(1, 5)), draw(st.integers(0, 9))
    exponent = st.one_of(st.integers(0, d + 1), st.sampled_from([d, d + 1]))
    monos = [draw(st.tuples(*[exponent] * arity)) for _ in range(count)]
    return MonoPacking(arity, d), d, monos


@settings(max_examples=200, deadline=None)
@given(packed_monomials(2))
def test_packing_round_trips_and_keeps_deglex_order(case):
    packing, _, (a, b) = case
    assert packing.unpack(packing.pack(a)) == a
    assert packing.unpack(packing.pack(b)) == b
    ka, kb = packing.pack(a), packing.pack(b)
    assert (ka < kb) == (deglex_key(a) < deglex_key(b))
    assert (ka == kb) == (a == b)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_packed_derivative_matches_derive_var(f):
    # in divided powers (m! * coeff at m), d/dx_i is a contraction: the
    # packed derivative keeps every coefficient and must equal Poly.derive
    # at the unit index, written in divided powers
    packing = MonoPacking(f.arity, max(f.total_degree(), 0))

    def divided_powers(g: Poly) -> dict:
        return {packing.pack(m): mono_factorial(m) * c for m, c in g.terms.items()}

    row = divided_powers(f)
    for i in range(f.arity):
        unit = tuple(int(k == i) for k in range(f.arity))
        assert packing.derive(row, i) == divided_powers(f.derive(unit))


@settings(max_examples=100, deadline=None)
@given(packed_monomials(1))
def test_packed_shift_matches_mono_mul(case):
    packing, d, (mono,) = case
    mono = tuple(min(e, d) for e in mono)  # a field reaches d + 1 only after the shift
    for l in range(packing.arity):
        unit = tuple(int(k == l) for k in range(packing.arity))
        shifted = tuple(e + u for e, u in zip(mono, unit))
        assert packing.pack(mono) + packing.step(l) == packing.pack(shifted)

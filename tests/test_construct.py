import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commro import (CapExceeded, Poly, QMatrix, WaringDecomposition, build_commro,
                    build_commro_general, build_diagro_from_waring, build_smabp,
                    check_kind, dpd, eval_abp, expand_abp, inverse, parse_poly, quotient,
                    waring_expand, waring_of_monomial)
from commro import construct
from commro.construct import _inverse_vandermonde_row
from commro.detspecial import det2_golden, det_polynomial
from commro.partials import DerivBasis
from commro.poly import mono_factorial
from commro.textio import format_waring_file, parse_waring_file

from helpers import (SMALL, WIDE_RATIONALS, boundary_vector_by_solve, cofactor_det, random_poly,
                     scaled)

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")


def test_commro_x1x2():
    f = parse_poly("x1*x2", V2)
    abp = build_commro(f)
    assert abp.width == 4
    assert abp.u == (1, 0, 0, 0)
    assert abp.v == (0, 0, 0, 1)
    assert expand_abp(abp) == f
    assert check_kind(abp)


def test_builders_never_read_the_poly_basis(monkeypatch):
    # the quotient stages run on the basis's integer rows; the exact Poly
    # basis is built only when something reads it
    def refuse(self):
        raise AssertionError("DerivBasis.basis read while building")

    monkeypatch.setattr(DerivBasis, "basis", property(refuse))
    det4 = det_polynomial(4)
    assert build_commro_general(det4).width == 70
    f = parse_poly("1/3*x1^2*x2 - 5/7*x1 + 1/2", V2)
    assert expand_abp(build_commro_general(f)) == f
    det2 = det_polynomial(2)
    assert expand_abp(build_smabp(det2, [[0, 1], [2, 3]])) == det2


def test_layers_share_one_identity_and_the_quotient_tables(monkeypatch):
    # every layer's power 0 is one identity object, and a homogeneous f's
    # power-1 matrices are its quotient's tables, not block-diagonal copies
    quotients = []
    real = construct.quotient

    def recorded(f, max_width=None):
        quotients.append(real(f, max_width))
        return quotients[-1]

    monkeypatch.setattr(construct, "quotient", recorded)
    abp = build_commro_general(det_polynomial(3))
    (q,) = quotients
    assert all(layer.terms[1][2] is q.tables[var] for var, layer in enumerate(abp.layers))
    programs = [abp, build_commro_general(parse_poly("x1^2*x2 + 3*x1 - 1/2", V2)),
                build_diagro_from_waring(waring_of_monomial(3), V3)]
    for program in programs:
        identities = {id(mat) for layer in program.layers for _, k, mat in layer.terms if k == 0}
        assert len(identities) == 1
        assert program.layers[0].terms[0][2] == QMatrix.identity(program.width)


def test_commro_univariate_power():
    for d in (1, 2, 4):
        f = parse_poly(f"x^{d}", ("x",))
        abp = build_commro(f)
        assert abp.width == d + 1
        assert len(abp.layers) == 1
        assert expand_abp(abp) == f
        # v selects the top monomial scaled by d!
        assert abp.v == tuple([0] * d + [math.factorial(d)])


def test_commro_det2_matches_golden_layers():
    det2 = det_polynomial(2)
    abp = build_commro(det2)
    assert abp.width == 6
    # layer k holds I at power 0 and A_k at power 1; the golden matrices are
    # over -x1_2*x2_1 for the normal set's x1_2*x2_1, so D A_k D, with
    # D = diag(1, 1, 1, 1, 1, -1), must match the coefficient of x_k^power
    # in the golden matrix entries, and the golden entries hold no other monomial
    d = [1, 1, 1, 1, 1, -1]
    for var, (layer, expected) in enumerate(zip(abp.layers, det2_golden())):
        monos = [tuple(power if k == var else 0 for k in range(4)) for power in (0, 1)]
        assert [(v, power) for v, power, _ in layer.terms] == [(var, 0), (var, 1)]
        for (_, _, mat), mono in zip(layer.terms, monos):
            assert mat.data == tuple(tuple(d[i] * expected[i, j].coeff(mono) * d[j]
                                           for j in range(6)) for i in range(6))
        assert all(set(expected[i, j].terms) <= set(monos) for i in range(6) for j in range(6))
    assert expand_abp(abp) == det2
    # the output coefficient sits at the last normal-set slot, with the
    # sign that makes u^T (prod M) v equal the determinant exactly
    assert abp.u == (1, 0, 0, 0, 0, 0)
    assert abp.v == (0, 0, 0, 0, 0, -1)


def test_commro_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_commro(parse_poly("x1*x2 + x1", V2))
    # every builder of the apolar quotient refuses the zero polynomial alike
    zero = "^cannot build a branching program for the zero polynomial$"
    with pytest.raises(ValueError, match=zero):
        build_commro(Poly.zero(V2))
    with pytest.raises(ValueError, match=zero):
        build_commro_general(Poly.zero(V2))
    with pytest.raises(ValueError, match=zero):
        build_smabp(Poly.zero(V2), [[0], [1]])


def test_commro_width_equals_dpd():
    rng = random.Random(211)
    for _ in range(10):
        f = random_poly(rng, rng.randint(2, 4), rng.randint(1, 3), 6)
        abp = build_commro(f)
        assert abp.width == dpd(f)
        assert expand_abp(abp) == f
        assert check_kind(abp)


def test_closed_form_v_matches_linear_solve():
    rng = random.Random(223)
    for _ in range(8):
        f = random_poly(rng, 3, rng.randint(1, 3), 5)
        abp = build_commro(f)
        solved = boundary_vector_by_solve(abp, f)
        assert solved is not None
        assert tuple(solved) == abp.v


def _rational_polys(seed: int, count: int) -> list[Poly]:
    """Seeded non-homogeneous polys in 3 variables with p/q coefficients, degree up to 4."""
    rng = random.Random(seed)
    polys = []
    for _ in range(count):
        f = random_poly(rng, 3, 4, 7, homogeneous=False)
        polys.append(Poly(f.vars, {m: c / rng.randint(1, 6) for m, c in f.terms.items()}))
    return polys


def test_layer_powers_are_the_scaled_products_of_the_table():
    # A_k = (A_(k-1) @ T) / k at every power of every layer, for rational,
    # non-homogeneous input and for the diagonal builder's tables
    polys = _rational_polys(613, 10) + [parse_poly("x1^3*x2 - 5/6*x1^2 + 7/4", V2)]
    assert sum(f.max_individual_degree() >= 2 for f in polys) >= 8
    assert sum(not f.is_homogeneous() for f in polys) >= 8
    programs = [build_commro_general(f) for f in polys]
    programs.append(build_diagro_from_waring(WaringDecomposition(3, ((Fraction(2, 3), (1, -2)),
                                                                     (-1, (Fraction(1, 2), 3)))),
                                             V2))
    checked = 0
    for abp in programs:
        for layer in abp.layers:
            mats = [mat for _, _, mat in layer.terms]
            for k in range(2, len(mats)):
                assert mats[k] == scaled(mats[k - 1] @ mats[1], Fraction(1, k))
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("tamper", [
    lambda tables: tables[0] + tables[1],  # nilpotent, but its square 2 T1 T2 is not zero
    lambda tables: tables[0] + QMatrix.identity(tables[0].rows),  # not nilpotent at all
], ids=["T1+T2", "T1+I"])
def test_a_table_not_nilpotent_at_the_individual_degree_fails_the_build(monkeypatch, tamper):
    # x1*x2 has individual degrees 1, so each table must square to zero
    built = construct._quotient_program

    def tampered(f, max_width):
        tables, u, v = built(f, max_width)
        return (tamper(tables), *tables[1:]), u, v

    monkeypatch.setattr(construct, "_quotient_program", tampered)
    with pytest.raises(AssertionError, match="^multiplication table not nilpotent"):
        build_commro_general(parse_poly("x1*x2", V2))


def test_v_is_the_scaled_coefficient_at_each_normal_monomial():
    # v_j = e_j! * coeff_f(m_j), block by block over the nonzero components
    polys = _rational_polys(617, 10) + [parse_poly("x1^3*x2 - 5/6*x1^2 + 7/4", V2)]
    assert any(c.denominator != 1 for f in polys for c in f.terms.values())
    for f in polys:
        expected = [mono_factorial(m) * fk.coeff(m)
                    for fk in f.components_by_degree().values()
                    for m in quotient(fk).normal_set]
        v = build_commro_general(f).v
        assert v == tuple(expected)
        assert all(type(x) is type(y) for x, y in zip(v, expected))


def test_general_is_identity_on_homogeneous():
    f = parse_poly("x1*x2", V2)
    assert build_commro_general(f) == build_commro(f)


def test_constant_polynomial_builds():
    f = Poly.constant(V2, Fraction(5, 3))
    for abp in (build_commro(f), build_commro_general(f)):
        assert abp.width == 1
        assert expand_abp(abp) == f


def test_general_x1x2_plus_one():
    f = parse_poly("x1*x2 + 1", V2)
    abp = build_commro_general(f)
    assert abp.width == 5  # 1x1 constant block + width-4 block
    assert expand_abp(abp) == f
    assert check_kind(abp)


def test_general_x_squared_plus_x():
    f = parse_poly("x^2 + x", ("x",))
    abp = build_commro_general(f)
    # blocks of width 2 (degree 1) and 3 (degree 2), ascending degree
    assert abp.width == 5
    assert dpd(f) == 3  # {x^2+x, 2x+1, 2}
    assert abp.width <= (f.total_degree() + 1) ** 2 * dpd(f)
    assert expand_abp(abp) == f


def test_general_bound_and_expansion_random():
    rng = random.Random(227)
    for _ in range(10):
        f = random_poly(rng, 3, 3, 8, homogeneous=False)
        abp = build_commro_general(f)
        d = f.total_degree()
        assert abp.width <= (d + 1) ** 2 * dpd(f)
        assert expand_abp(abp) == f
        assert check_kind(abp)


def test_general_is_the_direct_sum_of_the_component_programs():
    rng = random.Random(409)
    polys = [random_poly(rng, 3, 4, 8, homogeneous=False) for _ in range(12)]
    polys += [Poly.constant(V2, Fraction(5, 3)), parse_poly("x1*x2 + 1", V2)]
    assert sum(not f.is_homogeneous() for f in polys) >= 10
    for f in polys:
        blocks = [build_commro(fk) for fk in f.homogeneous_components() if not fk.is_zero()]
        starts = [sum(b.width for b in blocks[:k]) for k in range(len(blocks))]
        abp = build_commro_general(f)
        assert abp.width == sum(b.width for b in blocks)
        assert abp.u == tuple(x for b in blocks for x in b.u)
        assert abp.v == tuple(x for b in blocks for x in b.v)
        for var, layer in enumerate(abp.layers):
            assert [p for _, p, _ in layer.terms] == list(range(f.individual_degree(var) + 1))
            for _, power, mat in layer.terms:
                for k, (bk, sk) in enumerate(zip(blocks, starts)):
                    rows = mat.data[sk:sk + bk.width]
                    # block k's own layer stops at deg_var f_k; past it the block is zero
                    own = {p: m for _, p, m in bk.layers[var].terms}
                    for j, (bj, sj) in enumerate(zip(blocks, starts)):
                        got = tuple(row[sj:sj + bj.width] for row in rows)
                        if j == k and power in own:
                            assert got == own[power].data
                        else:
                            assert not any(x for row in got for x in row)


def test_smabp_two_singletons():
    vars = ("x1", "y1")
    f = parse_poly("x1*y1", vars)
    abp = build_smabp(f, [[0], [1]])
    assert abp.width == 4
    assert abp.kind == "set_multilinear"
    assert expand_abp(abp) == f
    # layers are linear: no constant matrices at all
    for layer in abp.layers:
        assert all(power == 1 for _, power, _ in layer.terms)


def test_smabp_det2_row_partition():
    det2 = det_polynomial(2)
    abp = build_smabp(det2, [[0, 1], [2, 3]])
    assert abp.width == 6
    assert expand_abp(abp) == det2
    assert check_kind(abp)
    # each layer is sum of A_k x_k over its row, tables from the quotient
    q = quotient(det2)
    for part, layer in zip(([0, 1], [2, 3]), abp.layers):
        assert [(var, power) for var, power, _ in layer.terms] == [(v, 1) for v in part]
        for var, _, mat in layer.terms:
            assert mat == q.tables[var]


def test_smabp_three_variable_monomial():
    vars = ("x1", "y1", "z1")
    f = Poly.monomial(vars, (1, 1, 1))
    abp = build_smabp(f, [[0], [1], [2]])
    assert abp.width == 8 == dpd(f)
    assert expand_abp(abp) == f


def test_smabp_det3_evaluates_determinants():
    det3 = det_polynomial(3)
    abp = build_smabp(det3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert abp.width == 20
    rng = random.Random(229)
    for _ in range(5):
        matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
        flat = [x for row in matrix for x in row]
        assert eval_abp(abp, flat) == cofactor_det(matrix)


def test_smabp_det4_evaluates_determinants():
    det4 = det_polynomial(4)
    abp = build_smabp(det4, [[i * 4 + j for j in range(4)] for i in range(4)])
    assert abp.width == 70
    rng = random.Random(233)
    for _ in range(3):
        matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)]
        flat = [x for row in matrix for x in row]
        assert eval_abp(abp, flat) == cofactor_det(matrix)


def test_smabp_partition_violation_names_offender():
    # x2*x3 takes no variable from the part {x1}
    f = parse_poly("x1*x2 + x2*x3", V3)
    with pytest.raises(ValueError, match=r"x2\*x3"):
        build_smabp(f, [[0], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        build_smabp(parse_poly("x1*x2", V2), [[0]])
    with pytest.raises(ValueError, match="^empty partition part$"):
        build_smabp(parse_poly("x1*x2*x3", V3), [[0], [], [1], [2]])


def test_diagro_single_variable_power():
    w = WaringDecomposition(degree=3, terms=((Fraction(1), (Fraction(1),)),))
    abp = build_diagro_from_waring(w, ("x1",))
    assert expand_abp(abp) == parse_poly("x1^3", ("x1",))
    assert check_kind(abp)


def test_diagro_two_term_square():
    w = WaringDecomposition(degree=2, terms=(
        (Fraction(1, 4), (Fraction(1), Fraction(1))),
        (Fraction(-1, 4), (Fraction(1), Fraction(-1))),
    ))
    abp = build_diagro_from_waring(w, V2)
    assert expand_abp(abp) == parse_poly("x1*x2", V2)
    assert abp.width == 2 * (2 * 2 + 1)


def test_max_width_caps_the_summed_width_of_the_components(monkeypatch):
    # the closure of a*b gets what c's 2 dimensions leave of the cap, so at
    # a cap of 4 it is refused by its degree before it runs
    caps = []
    real = construct.quotient

    def recorded(f, max_width=None):
        caps.append(max_width)
        return real(f, max_width)

    monkeypatch.setattr(construct, "quotient", recorded)
    f = parse_poly("a*b + c", ("a", "b", "c"))
    for cap in (4, 5):
        caps.clear()
        with pytest.raises(CapExceeded, match=f"program width exceeds {cap}$") as refused:
            build_commro_general(f, max_width=cap)
        assert refused.value.flag == "--max-width"
        assert caps == [cap, cap - 2]
    caps.clear()
    assert build_commro_general(f, max_width=6) == build_commro_general(f)
    assert caps == [6, 4, None, None]


def test_diagro_monomial_x1x2x3():
    w = waring_of_monomial(3)
    abp = build_diagro_from_waring(w, V3)
    assert abp.width <= 4 * (3 * 3 + 1) == 40
    assert abp.kind == "diagonal" and check_kind(abp)
    assert expand_abp(abp) == Poly.monomial(V3, (1, 1, 1))
    assert build_diagro_from_waring(w, V3, max_width=40) == abp
    with pytest.raises(CapExceeded) as cap:
        build_diagro_from_waring(w, V3, max_width=39)
    assert cap.value.flag == "--max-width"


def test_diagro_weights_are_row_d_of_the_inverse_vandermonde_matrix():
    node_sets = [range(1, t + 1) for t in range(1, 41)] + [(-3, 0, 2, 5, 7), (4, -1)]
    for nodes in node_sets:
        t = len(nodes)
        inv = inverse(QMatrix.sparse(t, t, [{k: z ** k for k in range(t) if z ** k}
                                            for z in nodes]))
        for d in range(t):
            assert _inverse_vandermonde_row(nodes, d) == [inv[d, i] for i in range(t)]


@st.composite
def waring_decompositions(draw) -> WaringDecomposition:
    """n <= 3, d <= 4 and r <= 3, entries SMALL or WIDE_RATIONALS, zero coordinates allowed."""
    entry = draw(st.sampled_from([SMALL, WIDE_RATIONALS]))
    coordinate = entry | st.just(Fraction(0))
    n = draw(st.integers(1, 3))
    form = st.tuples(*[coordinate] * n).filter(any)
    terms = draw(st.lists(st.tuples(entry, form), min_size=1, max_size=3))
    return WaringDecomposition(degree=draw(st.integers(1, 4)), terms=tuple(terms))


@settings(max_examples=120, deadline=None)
@given(waring_decompositions())
def test_diagro_layers_are_exponentials_and_expand_to_the_waring_sum(w):
    assert parse_waring_file(format_waring_file(w)) == w
    vars = tuple(f"x{i + 1}" for i in range(w.arity))
    abp = build_diagro_from_waring(w, vars)
    assert expand_abp(abp) == waring_expand(w, vars)
    for layer in abp.layers:
        a = {k: mat for _, k, mat in layer.terms}
        assert sorted(a) == list(range(w.degree + 1))
        for k in range(2, w.degree + 1):
            assert scaled(a[k], k) == a[k - 1] @ a[1]


def test_diagro_rejects_degenerate_input():
    with pytest.raises(ValueError):
        WaringDecomposition(degree=0, terms=((Fraction(1), (Fraction(1),)),))
    with pytest.raises(ValueError):
        WaringDecomposition(degree=2, terms=())
    with pytest.raises(ValueError):
        WaringDecomposition(degree=2, terms=((Fraction(1), (Fraction(0), Fraction(0))),))
    with pytest.raises(ValueError, match="^linear forms of mixed arity$"):
        WaringDecomposition(degree=2, terms=((Fraction(1), (Fraction(1), Fraction(2))),
                                             (Fraction(1), (Fraction(3),))))


def test_waring_of_monomial_small():
    w1 = waring_of_monomial(1)
    assert w1.terms == ((Fraction(1), (Fraction(1),)),)
    w2 = waring_of_monomial(2)
    assert set(w2.terms) == {
        (Fraction(1, 4), (Fraction(1), Fraction(1))),
        (Fraction(-1, 4), (Fraction(1), Fraction(-1))),
    }
    for n in (1, 2, 3, 4):
        w = waring_of_monomial(n)
        assert len(w.terms) == 2 ** (n - 1)
        vars = tuple(f"x{i+1}" for i in range(n))
        assert waring_expand(w, vars) == Poly.monomial(vars, (1,) * n)


def test_layers_commute_across_constructions():
    det2 = det_polynomial(2)
    commro = build_commro(det2)
    smabp = build_smabp(det2, [[0, 1], [2, 3]])
    # every pair drawn from both artifacts commutes (same quotient tables)
    mats = commro.coefficient_matrices() + smabp.coefficient_matrices()
    from commro import commute
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert commute(mats[i], mats[j])

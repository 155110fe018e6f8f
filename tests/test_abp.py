import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commro import (Abp, CapExceeded, Layer, Poly, QMatrix, check_kind, commute,
                    dpd, eval_abp, expand_abp, nisan_width, parse_poly,
                    permute_order)
from commro import abp as abp_module
from commro.cli import run
from commro.construct import build_commro, build_commro_general, build_smabp
from commro.linalg import Echelon
from commro.poly import split_point
from commro.detspecial import det_polynomial, palindrome
from commro.textio import parse_abp

from helpers import (SMALL, WIDE_RATIONALS, all_pairs_commute, built_programs, dense_eval_abp,
                     dense_expand_abp, dense_nisan_rank, flattened_kind_check, random_point,
                     random_poly, rational_commutative_programs, scaled, var_names,
                     wide_rational_polys)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus as bench_corpus  # noqa: E402

FLAT = QMatrix.flat

V2 = ("x1", "x2")


def width_one_chain() -> Abp:
    # (1 + x1)(1 + x2) as a width-1 program
    one = QMatrix([[1]])
    layers = (Layer([(0, 0, one), (0, 1, one)]),
              Layer([(1, 0, one), (1, 1, one)]))
    return Abp(kind="commutative", vars=V2, width=1,
               u=(Fraction(1),), v=(Fraction(1),), layers=layers)


def shift_pair() -> Abp:
    # deliberately non-commutative two-layer program
    ident = QMatrix.identity(2)
    up = QMatrix([[0, 1], [0, 0]])
    down = QMatrix([[0, 0], [1, 0]])
    layers = (Layer([(0, 0, ident), (0, 1, up)]),
              Layer([(1, 0, ident), (1, 1, down)]))
    return Abp(kind="general", vars=V2, width=2,
               u=(Fraction(1), Fraction(0)), v=(Fraction(1), Fraction(0)),
               layers=layers)


def test_eval_width_one_chain():
    abp = width_one_chain()
    for p1, p2 in ((0, 0), (2, 3), (-1, 5)):
        assert eval_abp(abp, [p1, p2]) == (1 + p1) * (1 + p2)


def test_eval_det2_program():
    abp = build_commro(det_polynomial(2))
    assert eval_abp(abp, [1, 0, 0, 1]) == 1
    assert eval_abp(abp, [1, 2, 3, 4]) == -2


def test_eval_arity_check():
    with pytest.raises(ValueError):
        eval_abp(width_one_chain(), [1])


def test_expand_examples():
    assert expand_abp(width_one_chain()) == parse_poly("x1*x2 + x1 + x2 + 1", V2)
    det2 = det_polynomial(2)
    assert expand_abp(build_commro(det2)) == det2
    f = parse_poly("x1*x2", V2)
    assert expand_abp(build_commro(f)) == f


def test_expand_cap():
    with pytest.raises(CapExceeded):
        expand_abp(build_commro(det_polynomial(2)), max_terms=3)


def test_permute_identity_and_reversal():
    abp = build_commro(det_polynomial(2))
    identity = tuple(range(len(abp.layers)))
    assert permute_order(abp, identity) == abp
    reverse = permute_order(abp, tuple(reversed(identity)))
    assert expand_abp(reverse) == expand_abp(abp)


def test_permute_non_commutative_pair():
    abp = shift_pair()
    # expanded by hand: u^T (I + up x1)(I + down x2) v picks up up@down = E11
    assert expand_abp(abp) == parse_poly("x1*x2 + 1", V2)
    swapped = permute_order(abp, (1, 0))
    assert expand_abp(swapped) == parse_poly("1", V2)
    with pytest.raises(ValueError):
        permute_order(abp, (0, 0))


def test_check_kind():
    diag_layers = (Layer([(0, 1, QMatrix.diagonal([1, 2]))]),
                   Layer([(1, 1, QMatrix.diagonal([3, 4]))]))
    diag = Abp(kind="diagonal", vars=V2, width=2,
               u=(Fraction(1), Fraction(1)), v=(Fraction(1), Fraction(1)),
               layers=diag_layers)
    assert check_kind(diag)
    as_comm = Abp(kind="commutative", vars=V2, width=2, u=diag.u, v=diag.v,
                  layers=diag_layers)
    assert check_kind(as_comm)
    # zero matrices hold no entry to size the packing by, and still join the basis
    zeros = replace(as_comm, layers=tuple(Layer([(l, 1, QMatrix.zeros(2, 2))]) for l in (0, 1)))
    assert check_kind(zeros).pairs == 1

    assert check_kind(build_commro(det_polynomial(2)))

    bad = Abp(kind="commutative", vars=V2, width=2,
              u=(Fraction(1), Fraction(0)), v=(Fraction(1), Fraction(0)),
              layers=shift_pair().layers)
    assert not check_kind(bad)
    assert check_kind(shift_pair())  # kind "general" has no constraint


@st.composite
def matrix_families(draw, entry=st.integers(-3, 3), max_n=4, max_count=6):
    """Square matrices that commute by construction, optionally with one entry perturbed.

    Families: polynomials in one random matrix, scalar multiples of I,
    diagonal matrices, and one random matrix repeated (with scalar
    multiples and I mixed in).
    """
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(1, max_count))

    def dense():
        return QMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])

    family = draw(st.sampled_from(["polynomial", "scalar", "diagonal", "repeated"]))
    ident = QMatrix.identity(n)
    if family == "polynomial":
        base = dense()
        mats = []
        for _ in range(count):
            acc, power = QMatrix.zeros(n, n), ident
            for _ in range(draw(st.integers(0, 3)) + 1):
                acc = acc + scaled(power, draw(entry))
                power = power @ base
            mats.append(acc)
    elif family == "scalar":
        mats = [scaled(ident, draw(entry)) for _ in range(count)]
    elif family == "diagonal":
        mats = [QMatrix.diagonal([draw(entry) for _ in range(n)]) for _ in range(count)]
    else:
        base = dense()
        mats = [draw(st.sampled_from([base, base, scaled(base, 2), ident])) for _ in range(count)]
    if draw(st.booleans()):
        k, i, j = (draw(st.integers(0, bound - 1)) for bound in (count, n, n))
        bump = QMatrix.sparse(n, n, ({j: draw(st.sampled_from([-2, -1, 1, 3]))}
                                     if r == i else {} for r in range(n)))
        mats[k] = mats[k] + bump
    return mats


@st.composite
def exponential_layers(draw):
    """Layers [I, T, T^2/2!, ..., T^d/d!], one per variable, with at most one power tampered.

    The T are polynomials in one base matrix, so that they commute, or
    drawn apart.  A tampered power gets one entry bumped, or is replaced
    by a polynomial in the base (which commutes with the T when they are
    polynomials in the base) or by a matrix drawn apart.
    """
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    ident = QMatrix.identity(n)

    def dense():
        return QMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])

    base = dense()

    def in_base():
        acc, power = QMatrix.zeros(n, n), ident
        for _ in range(draw(st.integers(1, 3))):
            acc = acc + scaled(power, draw(entry))
            power = power @ base
        return acc

    common = draw(st.booleans())
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        t = in_base() if common else dense()
        powers = [ident]
        for k in range(1, draw(st.integers(1, 4)) + 1):
            powers.append(scaled(powers[-1] @ t, Fraction(1, k)))
        layers.append(powers)
    tamper = draw(st.sampled_from(["none", "bump", "in-base", "apart"]))
    if tamper != "none":
        powers = draw(st.sampled_from(layers))
        k = draw(st.integers(1, len(powers) - 1))
        if tamper == "bump":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            powers[k] = powers[k] + QMatrix.sparse(n, n, ({j: draw(st.sampled_from([-1, 1, 3]))}
                                                         if r == i else {} for r in range(n)))
        else:
            powers[k] = in_base() if tamper == "in-base" else dense()
    return layers


@st.composite
def reshaped_layers(draw):
    """Exponential layers with one matrix object shared, I at a power >= 1 or I / 3 as a power 0.

    A shared object replaces a power >= 1 of one layer by a matrix of
    another (or the same) layer; I at a power >= 1 is a new object, equal
    to the shared power 0 but not it.
    """
    layers = draw(exponential_layers())
    n = layers[0][0].rows
    at = draw(st.integers(0, len(layers) - 1))
    how = draw(st.sampled_from(["share", "identity", "third"]))
    if how == "share":
        source = draw(st.sampled_from(layers))
        k = draw(st.integers(1, len(layers[at]) - 1))
        layers[at][k] = source[draw(st.integers(0, len(source) - 1))]
    elif how == "identity":
        layers[at][draw(st.integers(1, len(layers[at]) - 1))] = QMatrix.identity(n)
    else:
        layers[at][0] = scaled(QMatrix.identity(n), Fraction(1, 3))
    return layers


def _single_power_layers(mats):
    return [[None, m] for m in mats]


def _cancelling_family(scale: int, spare: bool) -> list[QMatrix]:
    """E0, E1, A with [E0, E1] = 0 and [A, E1] != 0 but [A, E0 + 2 * E1] = 0.

    scale multiplies E0, so E0 and E1 cancel under the base 2 * scale; spare
    adds a 1 x 1 block, read by a first matrix that commutes with the rest.
    """
    e0 = [[-scale, 0, 0], [0, 0, scale], [0, scale, 0]]
    e1 = [[-1, 0, 0], [0, -1, -1], [0, -1, -1]]
    a = [[1, 0, 0], [-1, -1, -1], [-1, -1, -1]]
    if not spare:
        return [QMatrix(m) for m in (e0, e1, a)]
    grown = [QMatrix([[0] * 4] * 3 + [[0, 0, 0, 1]])]
    return grown + [QMatrix([row + [0] for row in m] + [[0] * 4]) for m in (e0, e1, a)]


# Packed under too small a base, these non-commuting families pass: the first
# (top 1, w 3; bound 2 * 3 * 1 = 6, z = 8) cancels under z = 2, the base the bound
# would give without its factor 2 * w; the second (top 8, w 4; z = 1024) cancels
# under z = 16, the base its first basis matrix alone (top 1) would give.
CANCELLING = [_cancelling_family(1, False), _cancelling_family(8, True)]

# entries of 300 to 400 bits pack at most 3 matrices to a group, so a family of
# more than 4 fills more than one group
HUGE = st.integers(2 ** 300, 2 ** 400).map(lambda x: x if x % 3 else -x)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(st.one_of(matrix_families(), matrix_families(WIDE_RATIONALS),
                                     matrix_families(HUGE, max_n=8, max_count=10))
                           .map(_single_power_layers),
                           st.sampled_from(["commutative", "set_multilinear"])),
                 st.tuples(st.one_of(exponential_layers(), reshaped_layers()),
                           st.just("commutative"))))
@example((_single_power_layers(CANCELLING[0]), "commutative"))
@example((_single_power_layers(CANCELLING[1]), "set_multilinear"))
def test_check_kind_agrees_with_all_pairs_oracle(layers_and_kind):
    # layers[l][k] is the matrix of x_l^k (None: no such term)
    layers, kind = layers_and_kind
    n = next(m for m in layers[0] if m is not None).rows
    abp = Abp(kind=kind, vars=tuple(f"x{l}" for l in range(len(layers))), width=n,
              u=(Fraction(1),) * n, v=(Fraction(1),) * n,
              layers=tuple(Layer([(l, k, m) for k, m in enumerate(powers) if m is not None])
                           for l, powers in enumerate(layers)))
    mats = abp.coefficient_matrices()
    report = check_kind(abp)
    assert bool(report) == all_pairs_commute(mats)
    assert report == flattened_kind_check(abp)
    assert report.matrices == len(mats)
    # the basis, every distinct object other than I less the power steps, is checked
    # pair by pair, each matrix by one packed product per group of the matrices before it
    identity = QMatrix.identity(n)
    multiplied = len({id(m) for m in mats if m != identity}) - report.power_steps
    assert report.pairs == multiplied * (multiplied - 1) // 2
    assert any(report.products == sum(-(-i // size) for i in range(multiplied))
               for size in range(1, multiplied + 2))
    # a power step has a power of 2 or more, and an untouched exponential layer
    # leaves at most its T, and its power 0 when that is not I, to multiply
    assert report.power_steps <= sum(max(len(powers) - 2, 0) for powers in layers)
    if all(m is None or m == scaled(powers[1] @ powers[k - 1], Fraction(1, k))
           for powers in layers for k, m in enumerate(powers) if k >= 2):
        assert multiplied <= sum(1 + (powers[0] not in (None, identity)) for powers in layers)


@pytest.mark.parametrize("seed", [1, 11])
@pytest.mark.parametrize("workload", ["det4", "palindrome", "random-small"])
def test_check_kind_on_the_benchmark_corpora_matches_flattening(tmp_path, capsys, workload,
                                                                seed):
    # the verify kind line is written from the KindCheck alone, so equal
    # reports give byte-identical lines
    corpus = bench_corpus.make_corpus(workload, seed, tmp_path, run)
    checked = 0
    for op in corpus.ops:
        if op.command == "build":
            assert run(list(op.argv)) == 0
            program = parse_abp(op.artifact.read_text())
            if program.kind in ("commutative", "set_multilinear"):
                assert check_kind(program) == flattened_kind_check(program)
                checked += 1
    assert checked >= 3


def test_check_kind_skips_every_identity_and_every_object_met_before(monkeypatch):
    program = build_commro(det_polynomial(3))
    expected = flattened_kind_check(program)
    calls = []
    monkeypatch.setattr(abp_module, "commute", lambda a, b: calls.append(a) or commute(a, b))
    report = check_kind(program)
    assert report == expected
    # det3's tables are linear and fit one group: each matrix other than I joins the
    # basis once, in multiplication order, and all but the first is commuted once
    identity = QMatrix.identity(program.width)
    distinct = {id(m): m for m in program.coefficient_matrices() if m != identity}
    assert report.power_steps == 0 and report.pairs == len(distinct) * (len(distinct) - 1) // 2
    assert [id(m) for m in calls] == list(distinct)[1:]
    assert len(distinct) < len(program.coefficient_matrices()) - 1


@pytest.mark.parametrize("name", ["det4", "palindrome-smabp", "random-small"])
def test_check_kind_builds_no_echelon_and_flattens_no_matrix(monkeypatch, name):
    if name == "det4":
        program = build_commro(det_polynomial(4))
    elif name == "palindrome-smabp":
        f = palindrome(4)
        program = build_smabp(f, [[i, i + 4] for i in range(4)])
    else:
        program = build_commro_general(random_poly(random.Random(1), 3, 4, 6, homogeneous=False))
    expected = flattened_kind_check(program)
    used = []
    monkeypatch.setattr(QMatrix, "flat", lambda m: used.append("flat") or FLAT(m))
    monkeypatch.setattr(abp_module, "Echelon", lambda: used.append("Echelon") or Echelon())
    assert check_kind(program) == expected and used == []


def test_check_kind_packs_the_basis_pairs(monkeypatch):
    calls = []
    monkeypatch.setattr(abp_module, "commute", lambda a, b: calls.append(a) or commute(a, b))
    # det4's 16 tables have 0/+-1 entries and fit one group: each is commuted
    # with the packed sum of the tables before it, 15 products for 120 pairs
    report = check_kind(build_commro(det_polynomial(4)))
    assert report and (report.pairs, report.products, len(calls)) == (120, 15, 15)
    # 8 diagonal matrices with 400-bit entries (slot 2 * 400 + 5 bits) fill more than one
    # group: all 8 join the basis, though one lies in the span of I and the other 7, and
    # need more products than one each, fewer than pairs
    rng = random.Random(3)
    mats = [QMatrix.diagonal([rng.randrange(2 ** 399, 2 ** 400) for _ in range(8)])
            for _ in range(8)]
    layers = tuple(Layer([(l, 1, m)]) for l, m in enumerate(mats))
    program = Abp(kind="commutative", vars=tuple(f"x{l}" for l in range(8)), width=8,
                  u=(Fraction(1),) * 8, v=(Fraction(1),) * 8, layers=layers)
    report = check_kind(program)
    assert report and report.pairs == 28
    assert 7 < report.products < 28


def _with_power(abp: Abp, var: int, k: int, m: QMatrix) -> Abp:
    """abp with the power k of var's layer replaced by m."""
    return replace(abp, layers=tuple(
        Layer([(v, j, m if (v, j) == (var, k) else a) for v, j, a in layer.terms])
        for layer in abp.layers))


def test_check_kind_counts_a_power_step_only_for_the_layer_product():
    # x1 and x2 have individual degree 2, and both A_2 are power steps
    abp = build_commro(parse_poly("x1^2*x2 + x2^2*x3", ("x1", "x2", "x3")))
    report = check_kind(abp)
    assert report and report.power_steps == 2
    a_2 = abp.layers[0].terms[2][2]
    # A_2 + 3 I commutes with everything but is no product: it joins the pairs
    shifted = check_kind(_with_power(abp, 0, 2, a_2 + scaled(QMatrix.identity(abp.width), 3)))
    assert shifted and shifted.power_steps == report.power_steps - 1
    assert shifted.pairs > report.pairs
    # one entry bumped, A_2 no longer commutes with the tables
    i = next(i for i, row in enumerate(a_2.entries) if row)
    bump = QMatrix.sparse(abp.width, abp.width, ({i: 1} if r == i else {}
                                                  for r in range(abp.width)))
    bumped = _with_power(abp, 0, 2, a_2 + bump)
    assert not all_pairs_commute(bumped.coefficient_matrices())
    assert not check_kind(bumped)


def test_check_kind_counts_the_power_steps_of_rational_tables():
    # tables over den 2, 98 and 81 give their powers other denominators
    polys = [parse_poly(text, V) for text, V in (
        ("x1^2*x2^2 + x1*x2*x3^2", ("x1", "x2", "x3")),
        ("1/3*x1^2*x2 - 5/7*x1*x2^2 + 1/2*x2^3", V2),
        ("2/3*x1^2*x2^2 + 1/5*x1^3*x2", V2))]
    for f in polys:
        abp = build_commro(f)
        assert any(m.den != 1 for m in abp.coefficient_matrices())
        report = check_kind(abp)
        assert report and report.power_steps >= 3
        assert report == flattened_kind_check(abp)


def test_abp_validation():
    one = QMatrix([[1]])
    with pytest.raises(ValueError, match="kind"):
        Abp(kind="mystery", vars=V2, width=1, u=(Fraction(1),), v=(Fraction(1),),
            layers=(Layer([(0, 0, one)]), Layer([(1, 0, one)])))
    with pytest.raises(ValueError, match="more than one layer"):
        Abp(kind="general", vars=V2, width=1, u=(Fraction(1),), v=(Fraction(1),),
            layers=(Layer([(0, 1, one)]), Layer([(0, 1, one)])))


_ONE, _TWO = QMatrix([[1]]), QMatrix.identity(2)


@pytest.mark.parametrize("kind, layers, message", [
    ("general", [[(2, 1, _ONE)]], "variable index 2 out of range"),
    ("general", [[(0, -1, _ONE)]], "negative power"),
    ("commutative", [[(0, 1, _TWO)]], "coefficient matrix does not match width"),
    ("commutative", [[(0, 1, _ONE), (1, 1, _ONE)]],
     "read-once layer reads more than one variable"),
    ("set_multilinear", [[(0, 0, _ONE), (0, 1, _ONE)], [(1, 1, _ONE)]],
     "set-multilinear layers must be linear with no constant term"),
    ("general", [], "program has no layer"),
    ("general", [[(0, 1, _ONE)], []], "layer 2 has no term"),
    ("diagonal", [[(1, 0, _ONE), (1, 2, _ONE), (1, 2, _ONE)]],
     "layer has two terms of 'x2' at power 2"),
    ("set_multilinear", [[(0, 1, _ONE), (1, 1, _ONE), (0, 1, _ONE)]],
     "layer has two terms of 'x1' at power 1"),
], ids=["var-out-of-range", "negative-power", "wrong-size", "commutative-two-vars",
        "set-multilinear-power-0", "no-layer", "empty-layer", "repeated-power",
        "set-multilinear-repeated-variable"])
def test_abp_rejects_each_broken_invariant(kind, layers, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Abp(kind=kind, vars=V2, width=1, u=(Fraction(1),), v=(Fraction(1),),
            layers=tuple(Layer(terms) for terms in layers))


@pytest.mark.parametrize("vars, width, message", [
    ((), 1, "empty variable list"),
    (("x1", "x2", "x1"), 1, "variable 'x1' is declared twice"),
    (("x1", "a b"), 1, r"variable name 'a b' is not an identifier \[A-Za-z\]\[A-Za-z0-9_\]\*"),
    (("x1", "2x"), 1, "variable name '2x' is not an identifier"),
    (("x1", "\u03be"), 1, "variable name '\u03be' is not an identifier"),
    (V2, 0, "width must be positive, got 0"),
    (V2, -1, "width must be positive, got -1"),
], ids=["no-names", "repeated-name", "blank-in-name", "leading-digit", "not-ascii", "width-0",
        "width-negative"])
def test_abp_refuses_names_and_widths_abp_v1_cannot_state(vars, width, message):
    # the names and the width are checked before any layer is looked at
    with pytest.raises(ValueError, match=f"^{message}"):
        Abp(kind="general", vars=vars, width=width, u=(1,) * width, v=(1,) * width, layers=())


def test_nisan_width_rejects_an_order_that_repeats_a_variable():
    with pytest.raises(ValueError, match="^order must list every variable exactly once$"):
        nisan_width(parse_poly("x1*x2", V2), (0, 0))


def test_nisan_matrix_examples():
    # x1*x2 over {x1} | {x2}: the dense matrix [[0, 0], [0, 1]]
    f = parse_poly("x1*x2", V2)
    assert dense_nisan_rank(f, [0]) == nisan_width(f, (0, 1)).cut_ranks[0] == 1
    assert dense_nisan_rank(Poly.zero(V2), [0]) == 0

    # the {x1,y1} | {x2,y2} cut splits the two product factors, so the
    # matrix is an outer product of the factor coefficient vectors: rank 1
    pal2 = palindrome(2)
    assert dense_nisan_rank(pal2, [0, 2]) == nisan_width(pal2, (0, 2, 1, 3)).cut_ranks[1] == 1
    # prefix cut {x1} of the interleaved order, by contrast, has rank 2
    assert dense_nisan_rank(pal2, [0]) == nisan_width(pal2, (0, 2, 1, 3)).cut_ranks[0] == 2


def test_nisan_width_examples():
    f = parse_poly("x1*x2", V2)
    report = nisan_width(f, (0, 1))
    assert report.cut_ranks == (1, 1)
    assert report.width == 1 and report.size == 2

    pal3 = palindrome(3)
    interleaved = (0, 3, 1, 4, 2, 5)  # x1,y1,x2,y2,x3,y3
    separated = (0, 1, 2, 3, 4, 5)    # x1,x2,x3,y1,y2,y3
    assert nisan_width(pal3, interleaved).width == 2
    assert nisan_width(pal3, separated).width == 8

    assert nisan_width(Poly.zero(V2), (1, 0)).cut_ranks == (0, 0)


def test_nisan_width_cut_ranks_match_dense_matrix():
    # the dense coefficient matrix is the oracle for every sparse cut rank
    pal3 = palindrome(3)
    rng = random.Random(19)
    cases = [(pal3, (0, 3, 1, 4, 2, 5)), (pal3, (0, 1, 2, 3, 4, 5)),
             (det_polynomial(3), tuple(range(9)))]
    for _ in range(6):
        f = random_poly(rng, 4, rng.randint(1, 3), 7, homogeneous=False)
        order = list(range(4))
        rng.shuffle(order)
        cases.append((f, tuple(order)))
    for f, order in cases:
        expected = tuple(dense_nisan_rank(f, order[:i]) for i in range(1, f.arity + 1))
        assert nisan_width(f, order).cut_ranks == expected


@pytest.mark.parametrize("f, adds", [(palindrome(6), 189), (det_polynomial(4), 97)],
                         ids=["palindrome6", "det4"])
def test_nisan_width_ranks_each_cut_on_its_side_with_fewer_labels(monkeypatch, f, adds):
    # one Echelon.add per label of the smaller side: 510 and 238 adds when
    # every cut was ranked on its prefix labels; palindrome 6 adds exactly
    # the sum of its ranks
    calls = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, row: calls.append(row) or add(self, row))
    order = tuple(range(f.arity))
    report = nisan_width(f, order)
    assert len(calls) == adds
    assert report.cut_ranks == tuple(dense_nisan_rank(f, order[:i])
                                     for i in range(1, f.arity + 1))


@st.composite
def rational_nisan_inputs(draw) -> Poly:
    """A wide rational polynomial, a random one with each coefficient divided by a
    drawn q, g * h for wide rational g and h in disjoint variables (a cut between
    g's and h's variables has rank 1 at the exact coefficients only), or terms of a
    total degree d where d.bit_length() steps, among them a pure power x_i^d, mixed
    with low-degree terms and a constant: the packed key's fields are sized by d."""
    kind = draw(st.sampled_from(["wide", "random", "product", "boundary"]))
    if kind == "wide":
        return draw(wide_rational_polys())
    if kind == "boundary":
        arity, d = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3, 4, 7, 8, 15, 16]))

        def term(degree: int) -> tuple[int, ...]:
            indices = draw(st.lists(st.integers(0, arity - 1), min_size=degree,
                                    max_size=degree))
            return tuple(indices.count(k) for k in range(arity))

        power = draw(st.integers(0, arity - 1))
        monos = [tuple(d if k == power else 0 for k in range(arity)), (0,) * arity]
        monos += [term(d) for _ in range(draw(st.integers(0, 2)))]
        monos += [term(draw(st.integers(1, min(d - 1, 2))))
                  for _ in range(draw(st.integers(0, 3)) if d > 1 else 0)]
        return Poly(var_names(arity), {m: draw(WIDE_RATIONALS) for m in monos})
    if kind == "product":
        g, h = draw(wide_rational_polys(2)), draw(wide_rational_polys(2))
        return Poly(var_names(g.arity + h.arity), {a + b: c * d for a, c in g.terms.items()
                                                   for b, d in h.terms.items()})
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = random_poly(rng, 4, rng.randint(1, 3), 7, homogeneous=False)
    return Poly(f.vars, {m: c / draw(st.integers(1, 10 ** 6)) for m, c in f.terms.items()})


@settings(max_examples=60, deadline=None)
@given(rational_nisan_inputs(), WIDE_RATIONALS, st.data())
def test_nisan_cuts_of_rational_coefficients_match_dense_matrix(f, scale, data):
    # the cuts are ranked on f's coefficients brought to integers; the ranks
    # are f's own, and scaling f by p/q changes none of them
    order = tuple(data.draw(st.permutations(range(f.arity))))
    expected = tuple(dense_nisan_rank(f, order[:i]) for i in range(1, f.arity + 1))
    assert nisan_width(f, order).cut_ranks == expected
    assert nisan_width(f.scale(scale), order).cut_ranks == expected


def test_nisan_rank_symmetric_in_the_partition():
    # the cut s | t is the |s|-th prefix cut of the order s + t and the
    # |t|-th of t + s
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(rng, 4, 2, 6, homogeneous=False)
        s = rng.sample(range(4), rng.randint(1, 3))
        t = [i for i in range(4) if i not in s]
        rank_st = nisan_width(f, s + t).cut_ranks[len(s) - 1]
        assert rank_st == nisan_width(f, t + s).cut_ranks[len(t) - 1] == dense_nisan_rank(f, s)


def test_nisan_width_bounded_by_dpd_exhaustive():
    rng = random.Random(11)
    for _ in range(6):
        f = random_poly(rng, 3, rng.randint(1, 3), 6, homogeneous=False)
        bound = dpd(f)
        for perm in itertools.permutations(range(3)):
            assert nisan_width(f, perm).width <= bound


def test_expand_matches_eval():
    rng = random.Random(13)
    for _ in range(5):
        f = random_poly(rng, 3, 2, 5)
        abp = build_commro(f)
        expanded = expand_abp(abp)
        for _ in range(5):
            point = random_point(rng, 3, bound=100)
            assert expanded.eval(point) == eval_abp(abp, point) == dense_eval_abp(abp, point)


@settings(max_examples=100, deadline=None)
@given(rational_commutative_programs(),
       st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=50), min_size=3,
                max_size=3))
def test_eval_at_rational_points_matches_expansion(abp, coords):
    point = coords[:len(abp.vars)]
    assert check_kind(abp)
    value = eval_abp(abp, point)
    assert type(value) is Fraction
    assert value == expand_abp(abp).eval(point) == dense_eval_abp(abp, point)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([WIDE_RATIONALS, SMALL]).flatmap(rational_commutative_programs),
       st.data())
def test_eval_with_wide_rational_boundary_matches_dense_fractions(abp, data):
    # u and v mix zeros, ints and wide p/q entries; the point is integer or rational
    entry = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction), WIDE_RATIONALS)
    vector = st.lists(entry, min_size=abp.width, max_size=abp.width).map(tuple)
    abp = replace(abp, u=data.draw(vector), v=data.draw(vector))
    coordinate = st.one_of(st.integers(-10 ** 6, 10 ** 6), WIDE_RATIONALS, SMALL)
    point = data.draw(st.lists(coordinate, min_size=len(abp.vars), max_size=len(abp.vars)))
    value = eval_abp(abp, point)
    assert type(value) is Fraction
    assert value == dense_eval_abp(abp, point)


@settings(max_examples=60, deadline=None)
@given(built_programs(), st.data())
def test_int_coordinates_evaluate_as_the_equal_fractions(built, data):
    # verify's points are ints, read as they are; the equal Fractions give the
    # same value in eval_abp and in Poly.eval, and so does expand_abp's polynomial
    f, abp = built
    ints = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=f.arity,
                              max_size=f.arity))
    fractions = [Fraction(x) for x in ints]
    value = eval_abp(abp, ints)
    assert type(value) is Fraction and type(f.eval(ints)) is Fraction
    assert value == eval_abp(abp, fractions) == f.eval(ints) == f.eval(fractions)
    assert value == expand_abp(abp).eval(fractions)


def test_a_coordinate_of_another_type_goes_through_fraction():
    # a float, a string or a bool is read by Fraction(), as before; only int
    # and Fraction coordinates skip it
    f = parse_poly("x1^2*x2 - 3*x2*x3 + 1/2", ("x1", "x2", "x3"))
    abp = build_commro_general(f)
    exact = [Fraction(1, 2), Fraction(-3, 4), Fraction(1)]
    for point in ([0.5, "-3/4", True], [Fraction(1, 2), -0.75, 1]):
        assert eval_abp(abp, point) == f.eval(point) == f.eval(exact) == eval_abp(abp, exact)
    assert split_point([3, Fraction(-6, 4), 0.25, "2/6"]) == ([3, -3, 1, 1], [1, 2, 4, 3])


@st.composite
def sweep_programs(draw):
    """General programs whose layers hold I shared, I unshared, I / den, I past the first term.

    Every other matrix has rows left empty at random, and a layer may
    have no power 0 at all.
    """
    n, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    shared = QMatrix.identity(n)

    def sparse():
        return QMatrix([[draw(entry) for _ in range(n)] if draw(st.booleans()) else [0] * n
                        for _ in range(n)])

    layers = []
    for var in range(count):
        powers = {k: sparse() for k in range(1, draw(st.integers(1, 3)) + 1)}
        how = draw(st.sampled_from(["shared", "unshared", "over-den", "later", "none"]))
        if how == "shared":
            powers[0] = shared
        elif how == "unshared":
            powers[0] = QMatrix.identity(n)
        elif how == "over-den":
            powers[0] = scaled(shared, Fraction(1, draw(st.integers(2, 5))))
        elif how == "later":
            powers[0] = sparse()
            powers[draw(st.integers(1, len(powers) - 1))] = shared
        layers.append(Layer([(var, k, m) for k, m in powers.items()]))
    vector = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n)
    return Abp(kind="general", vars=var_names(count), width=n, u=tuple(draw(vector)),
               v=tuple(draw(vector)), layers=tuple(layers))


@settings(max_examples=150, deadline=None)
@given(sweep_programs(), st.data())
def test_sweep_matches_the_dense_references(abp, data):
    # zero coordinates drop a layer's powers >= 1, so I may come first only then
    coordinate = st.one_of(st.integers(-3, 3), st.fractions(-5, 5, max_denominator=7))
    point = data.draw(st.lists(coordinate, min_size=len(abp.vars), max_size=len(abp.vars)))
    assert eval_abp(abp, point) == dense_eval_abp(abp, point)
    assert expand_abp(abp) == dense_expand_abp(abp)


def test_any_order_evaluation():
    rng = random.Random(17)
    f = random_poly(rng, 3, 2, 5)
    abp = build_commro(f)
    k = len(abp.layers)
    for _ in range(5):
        perm = list(range(k))
        rng.shuffle(perm)
        shuffled = permute_order(abp, perm)
        for _ in range(5):
            point = random_point(rng, 3, bound=100)
            assert eval_abp(shuffled, point) == f.eval(point)

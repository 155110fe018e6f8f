import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commro import (Abp, Layer, Poly, QMatrix, WaringDecomposition, build_commro,
                    build_commro_general, build_diagro_from_waring,
                    build_smabp, check_kind, eval_abp, expand_abp, parse_poly,
                    permute_order, rank, waring_of_monomial)
from commro.detspecial import det_polynomial, palindrome
from commro.textio import (_block_text, _rational, format_abp, format_matrix, format_poly_file,
                           format_waring_file, parse_abp, parse_poly_file,
                           parse_waring_file)

from helpers import (SMALL, WIDE_RATIONALS, built_programs, edited_abp_texts,
                     flattened_kind_check, random_poly, rational_commutative_programs,
                     reference_parse_abp, reference_row_lines)


def test_poly_file_round_trip():
    f = parse_poly("x1*x2^2 - 3/2*x3", ("x1", "x2", "x3"))
    assert parse_poly_file(format_poly_file(f)) == f


@st.composite
def wide_sparse_polys(draw) -> Poly:
    """Polynomials of mixed degree, a constant term allowed, with wide p/q coefficients."""
    arity = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, 6)] * arity)
    coeffs = st.one_of(WIDE_RATIONALS, st.integers(-9, 9).map(Fraction))
    terms = draw(st.dictionaries(monos, coeffs, max_size=8))
    return Poly(tuple(f"v{i}" for i in range(arity)), terms)


@settings(max_examples=150, deadline=None)
@given(wide_sparse_polys())
def test_poly_file_round_trip_on_wide_rationals(f):
    text = format_poly_file(f)
    parsed = parse_poly_file(text)
    assert parsed == f
    assert format_poly_file(parsed) == text


def test_poly_file_headerless_needs_default():
    with pytest.raises(ValueError, match="vars"):
        parse_poly_file("x1 + x2")
    f = parse_poly_file("x1 + x2", default_vars=("x1", "x2"))
    assert f == parse_poly("x1 + x2", ("x1", "x2"))


def test_poly_file_multiline_body():
    text = "vars: x1 x2\nx1*x2\n + x1\n"
    assert parse_poly_file(text) == parse_poly("x1*x2 + x1", ("x1", "x2"))


def test_matrix_round_trip():
    m = QMatrix([[Fraction(1, 2), 3], [-4, Fraction(0)]])
    header, *rows = format_matrix(m).splitlines()
    assert header == "2 2"
    assert QMatrix([[Fraction(x) for x in row.split()] for row in rows]) == m


def test_waring_round_trip():
    w = waring_of_monomial(3)
    again = parse_waring_file(format_waring_file(w))
    assert again == w
    with pytest.raises(ValueError):
        parse_waring_file("not a waring file")


def test_abp_round_trip_commro():
    abp = build_commro(det_polynomial(2))
    assert parse_abp(format_abp(abp)) == abp


def test_abp_round_trip_with_nontrivial_order():
    abp = permute_order(build_commro(det_polynomial(2)), (3, 1, 0, 2))
    again = parse_abp(format_abp(abp))
    assert again == abp


def test_abp_round_trip_general_sum():
    f = parse_poly("x1*x2 + x1 + 2", ("x1", "x2"))
    abp = build_commro_general(f)
    again = parse_abp(format_abp(abp))
    assert again == abp
    assert expand_abp(again) == f


def test_abp_round_trip_smabp():
    det2 = det_polynomial(2)
    abp = build_smabp(det2, [[0, 1], [2, 3]])
    text = format_abp(abp)
    assert "order: x1_1,x1_2|x2_1,x2_2" in text
    again = parse_abp(text)
    assert again == abp
    assert expand_abp(again) == det2


def test_abp_round_trip_smabp_permuted():
    det2 = det_polynomial(2)
    abp = permute_order(build_smabp(det2, [[0, 1], [2, 3]]), (1, 0))
    again = parse_abp(format_abp(abp))
    assert again == abp


def test_abp_round_trip_diagro():
    w = WaringDecomposition(degree=2, terms=(
        (Fraction(1, 4), (Fraction(1), Fraction(1))),
        (Fraction(-1, 4), (Fraction(1), Fraction(-1))),
    ))
    abp = build_diagro_from_waring(w, ("x1", "x2"))
    assert parse_abp(format_abp(abp)) == abp


def test_abp_round_trip_random_corpus():
    rng = random.Random(303)
    for _ in range(5):
        f = random_poly(rng, 3, rng.randint(1, 3), 5, homogeneous=False)
        abp = build_commro_general(f)
        assert parse_abp(format_abp(abp)) == abp


def test_format_abp_reproduces_its_text_with_dense_rows():
    # rows are written from the stored nonzeros; they must read as the dense rows
    rng = random.Random(404)
    programs = [build_commro(det_polynomial(3)), build_commro(palindrome(4))]
    programs += [build_commro_general(random_poly(rng, 3, rng.randint(1, 3), 5, homogeneous=False))
                 for _ in range(5)]
    for abp in programs:
        text = format_abp(abp)
        assert format_abp(parse_abp(text)) == text
        dense = [" ".join(str(x) for x in row) for layer in abp.layers
                 for _, _, mat in layer.terms for row in mat.data]
        assert [line for line in text.splitlines()[7:] if not line.startswith("layer ")] == dense
    m = QMatrix([[0, Fraction(-1, 3), 0], [0, 0, 0]])
    assert format_matrix(m) == "2 3\n0 -1/3 0\n0 0 0\n"


def test_format_abp_writes_a_shared_matrix_as_equal_copies():
    # a matrix object held by several blocks is formatted once; the text
    # must be that of equal but distinct copies, and block by block that
    # of the token writer
    rng = random.Random(31)
    vars = ("a", "b", "c")
    identity, m = QMatrix.identity(3), QMatrix.rational(3, 3, [{0: Fraction(1, 2)}, {},
                                                               {1: 3, 2: Fraction(-7, 4)}])
    handmade = Abp(kind="general", vars=vars, width=3, u=(1, 0, 0), v=(0, 1, 1),
                   layers=(Layer([(0, 0, identity), (0, 1, m)]),
                           Layer([(1, 0, identity), (1, 1, m), (1, 2, m)]),
                           Layer([(2, 3, m)])))
    programs = [handmade, build_commro(det_polynomial(3)),
                build_commro_general(random_poly(rng, 3, 3, 6, homogeneous=False)),
                build_diagro_from_waring(waring_of_monomial(3), vars)]
    for abp in programs:
        mats = abp.coefficient_matrices()
        assert len({id(mat) for mat in mats}) < len(mats)
        copies = Abp(kind=abp.kind, vars=abp.vars, width=abp.width, u=abp.u, v=abp.v,
                     layers=tuple(Layer([(var, k, QMatrix.sparse(mat.rows, mat.cols,
                                                                 map(dict, mat.entries), mat.den))
                                         for var, k, mat in layer.terms])
                                  for layer in abp.layers))
        assert copies == abp
        assert len({id(mat) for mat in copies.coefficient_matrices()}) == len(mats)
        text = format_abp(abp)
        assert text == format_abp(copies)
        blocks = [line for layer in abp.layers for var, k, mat in layer.terms
                  for line in (f"layer {abp.vars[var]} power {k}", *reference_row_lines(mat))]
        assert text.splitlines()[7:] == blocks


# one matrix over den 1 with a negative entry, one over den 12 whose
# entries -2/12 and 9/12 share a factor with den
MIXED_DEN_PROGRAM = Abp(kind="commutative", vars=("x", "y"), width=2, u=(1, 0), v=(0, 1),
                        layers=(Layer([(0, 0, QMatrix.identity(2)),
                                       (0, 1, QMatrix([[2, -1], [0, 2]]))]),
                                Layer([(1, 1, QMatrix.sparse(2, 2, [{0: -2, 1: 9}, {1: 5}],
                                                             12))])))


def test_the_mixed_den_program_covers_signs_shared_factors_and_den_1():
    mats = MIXED_DEN_PROGRAM.coefficient_matrices()
    entries = [(x, mat.den) for mat in mats for row in mat.entries for x in row.values()]
    assert any(den == 1 and x < 0 for x, den in entries)
    assert any(den != 1 and x < 0 and math.gcd(x, den) > 1 for x, den in entries)
    assert any(den != 1 and x > 0 and 1 < math.gcd(x, den) < den for x, den in entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([WIDE_RATIONALS, SMALL]).flatmap(rational_commutative_programs))
@example(MIXED_DEN_PROGRAM)
def test_abp_text_round_trip_on_wide_rationals(abp):
    # the writer prints each stored int over the matrix's den as the Fraction
    # it stands for: each block is reference_row_lines of its matrix, and the
    # text is that of the dense Fraction rows
    text = format_abp(abp)
    assert parse_abp(text) == abp
    assert format_abp(parse_abp(text)) == text
    blocks = [line for layer in abp.layers for var, k, mat in layer.terms
              for line in (f"layer {abp.vars[var]} power {k}", *reference_row_lines(mat))]
    assert text.splitlines()[7:] == blocks
    dense = [" ".join(str(x) for x in row) for layer in abp.layers
             for _, _, mat in layer.terms for row in mat.data]
    assert [line for line in text.splitlines()[7:] if not line.startswith("layer ")] == dense


@settings(max_examples=60, deadline=None)
@given(built_programs())
def test_built_programs_read_back_with_u_and_v_as_the_token_reader_gives(built):
    # u and v read as ints where the writer wrote an int and as Fractions
    # where it wrote p/q, each equal to the built entry; the text is unchanged
    _, abp = built
    text = format_abp(abp)
    parsed = parse_abp(text)
    assert parsed == abp
    assert len(parsed.u) == len(abp.u) and len(parsed.v) == len(abp.v)
    for read, made in zip(parsed.u + parsed.v, abp.u + abp.v):
        assert read == made
        assert type(read) is (int if Fraction(made).denominator == 1 else Fraction)
    assert format_abp(parsed) == text


# a token _rational reads as a Fraction: the writer's p/q, and spellings of
# ints that only Fraction reads (`4/2` is Fraction(2), `1e3` Fraction(1000))
ODD_TOKENS = st.one_of(SMALL.filter(lambda x: x.denominator > 1).map(str),
                       WIDE_RATIONALS.filter(lambda x: x.denominator > 1).map(str),
                       st.sampled_from(["4/2", "-9/3", "1e3", "1.5", "-0.25"]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_block_of_int_lines_and_one_odd_line_reads_as_rational_gives(data):
    # the int lines are met in an all-int block too, before or after the mixed
    # one, so the mixed block reuses memoised int lines or leaves its own
    width = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.lists(st.integers(-9, 9) | st.integers(-10 ** 20, 10 ** 20),
                                        min_size=width, max_size=width),
                               min_size=width, max_size=width))
    at, column = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, width - 1))
    odd = [row[:] for row in cells]
    odd[at][column] = data.draw(ODD_TOKENS)
    integral, mixed = ([" ".join(map(str, row)) for row in rows] for rows in (cells, odd))
    blocks = [integral, mixed] if data.draw(st.booleans()) else [mixed, integral]
    header = ["abp v1", "kind: general", f"width: {width}", "vars: x", "order: x",
              "u: " + " ".join(["1"] * width), "v: " + " ".join(["1"] * width)]
    text = "\n".join(header + [line for k, block in enumerate(blocks)
                               for line in (f"layer x power {k}", *block)]) + "\n"
    expected = {id(block): QMatrix.rational(width, width, [
        {j: Fraction(t) for j, t in enumerate(line.split()) if Fraction(t)} for line in block])
        for block in blocks}
    read = [mat for _, _, mat in parse_abp(text).layers[0].terms]
    assert read == [expected[id(block)] for block in blocks]
    int_block = read[blocks.index(integral)]
    assert int_block == QMatrix.sparse(width, width, [
        {j: x for j, x in enumerate(row) if x} for row in cells])
    assert int_block.den == 1


def test_abp_rejects_malformed():
    with pytest.raises(ValueError, match="abp v1"):
        parse_abp("nope\n")
    abp = build_commro(parse_poly("x1*x2", ("x1", "x2")))
    text = format_abp(abp).replace("width: 4\n", "")
    with pytest.raises(ValueError, match="width"):
        parse_abp(text)


@st.composite
def sparse_matrices(draw) -> QMatrix:
    """Up to 7x7, empty rows allowed, entries ints, small p/q or wide rationals."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    value = st.one_of(st.integers(-10 ** 20, 10 ** 20).filter(bool).map(Fraction),
                      SMALL.filter(bool), WIDE_RATIONALS)
    return QMatrix.rational(rows, cols, [draw(st.dictionaries(st.integers(0, cols - 1), value,
                                                              max_size=cols))
                                         for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example(QMatrix([[Fraction(5, 3)]]))
@example(QMatrix([[0]]))
@example(QMatrix([[Fraction(-1, 2), 0, 0], [0, 0, 0], [0, 0, 7]]))
@example(QMatrix([[0, 0, Fraction(10 ** 18 + 1, 999_983)], [0, 0, 0], [3, 0, 0]]))
def test_row_writer_matches_the_token_writer(m):
    assert _block_text(m) == "".join(line + "\n" for line in reference_row_lines(m))


@pytest.mark.parametrize("token", [
    "-3/2", "+3/4", "-0/5", "03/4", "3/4/5", "+-3/4", "\u0663/4", "1_0/3", "4/2", "-6/0", "7/00",
    "1/0", "1/-2", "1/+2", "1/_2", "nan", "12", "-0", "1.5", "9" * 4301 + "/7", "7/" + "9" * 4301,
])
def test_rational_gives_what_fraction_gives(token):
    # the same value, or the same message; a zero denominator has one of its own
    try:
        expected = Fraction(token)
    except ZeroDivisionError:
        expected = f"rational {token!r} has a zero denominator"
    except ValueError as bad:
        expected = str(bad)
    try:
        got = _rational(token)
    except ValueError as bad:
        got = str(bad)
    assert got == expected and isinstance(got, str) == isinstance(expected, str)


def _read(parse, text):
    try:
        return parse(text)
    except ValueError as bad:
        return f"ValueError: {bad}"


X1X2_ABP = format_abp(build_commro(parse_poly("x1*x2", ("x1", "x2"))))


@settings(max_examples=200, deadline=None)
@given(edited_abp_texts())
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n00  1 0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 1  0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 \t1 0 0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 1\t/2 0 0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 1\xa0/2 0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n 0 1 0 0 "))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 1/-2 0 0"))
@example(X1X2_ABP.replace("power 1\n0 1 0 0", "power 1\n0 -0/7 +3/06 \u0663/\u0664"))
# a character outside the rows that is not ASCII, or a tab in a header line
@example(X1X2_ABP.replace("vars: x1 x2", "vars: x1 x2 \u03be"))
@example(X1X2_ABP.replace("order: x1,x2", "order:\tx1,x2").replace("power 1\n0 1 0 0",
                                                                  "power 1\n0 1/2 0 0"))
# a width of 0 or below, spelled as the token edits spell it
@example(X1X2_ABP.replace("width: 4", "width: -01"))
@example(X1X2_ABP.replace("width: 4", "width: 00"))
def test_reader_matches_the_token_reader(text):
    # the same program, or a ValueError with the same message
    assert _read(parse_abp, text) == _read(reference_parse_abp, text)


@st.composite
def repeated_row_texts(draw) -> str:
    """A program built from a few distinct rows, some blocks repeated whole, some lines respelled.

    A respelled line reads as the same row as the writer's line, or, with
    one token too many, as a malformed one.
    """
    width = draw(st.integers(1, 4))
    entry = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-7, 3), 10 ** 20 + 1])
    pool = [{}] + [draw(st.dictionaries(st.integers(0, width - 1), entry, min_size=1))
                   for _ in range(draw(st.integers(1, 3)))]
    blocks, layers = [], []
    for var in range(draw(st.integers(1, 3))):
        terms = []
        for power in range(draw(st.integers(1, 3))):
            if blocks and draw(st.booleans()):
                mat = draw(st.sampled_from(blocks))
            else:
                mat = QMatrix.rational(width, width,
                                       [dict(draw(st.sampled_from(pool))) for _ in range(width)])
            blocks.append(mat)
            terms.append((var, power, mat))
        layers.append(Layer(terms))
    abp = Abp(kind="general", vars=tuple(f"x{k}" for k in range(len(layers))), width=width,
              u=(Fraction(1),) * width, v=(Fraction(1),) * width, layers=tuple(layers))
    lines = format_abp(abp).splitlines()
    rows = [k for k, line in enumerate(lines) if k > 6 and not line.startswith("layer")]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.sampled_from(rows))
        respell = draw(st.sampled_from(["double", "lead", "zeros", "extra"]))
        line = lines[at]
        lines[at] = {"double": line.replace(" ", "  ", 1), "lead": " " + line,
                     "zeros": " ".join("00" if t == "0" else t for t in line.split(" ")),
                     "extra": line + " 0"}[respell]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(repeated_row_texts())
def test_reader_matches_the_token_reader_on_repeated_rows(text):
    # equal lines are read once and share one row dict; respelled ones read alike
    assert _read(parse_abp, text) == _read(reference_parse_abp, text)


def test_shared_rows_are_left_unchanged_by_the_checks():
    f = random_poly(random.Random(5), 3, 4, 6, homogeneous=False)
    texts = [format_abp(build_commro(det_polynomial(3))), format_abp(build_commro_general(f))]
    for text in texts:
        abp = parse_abp(text)
        rows = [row for m in abp.coefficient_matrices() for row in m.entries if row]
        # the tables repeat rows, and equal lines share one dict
        assert len({id(row) for row in rows}) < len(rows)
        assert check_kind(abp)
        eval_abp(abp, [Fraction(k + 2, 3) for k in range(len(abp.vars))])
        for m in abp.coefficient_matrices():
            rank(m)
        assert abp == parse_abp(text)


def _power0_headers(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("layer ")
            and line.endswith(" power 0")]


def _edit_block(text: str, header: str, edit) -> str:
    """The text with each row line of the block under header passed through edit(k, line)."""
    lines = text.splitlines()
    at = lines.index(header) + 1
    width = int(next(line for line in lines if line.startswith("width:")).split()[1])
    lines[at:at + width] = [edit(k, line) for k, line in enumerate(lines[at:at + width])]
    return "\n".join(lines) + "\n"


def test_reader_reads_every_canonical_identity_block_as_one_object():
    for program in (build_commro(det_polynomial(3)), build_commro(palindrome(5))):
        text = format_abp(program)
        parsed = parse_abp(text)
        power0 = [mat for layer in parsed.layers for _, k, mat in layer.terms if k == 0]
        assert len(power0) == len(parsed.layers) == len(_power0_headers(text)) > 1
        assert len({id(mat) for mat in power0}) == 1
        assert power0[0] == QMatrix.identity(parsed.width)
        assert parsed == program == reference_parse_abp(text)


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("respell", [lambda k, line: "  " + line.replace(" ", "\t"),
                                     lambda k, line: line.replace(" ", "   ") + " \t "],
                         ids=["tabs", "runs-of-spaces"])
def test_identity_with_other_whitespace_reads_as_an_equal_program(which, respell):
    program = build_commro(det_polynomial(3))
    text = format_abp(program)
    text = _edit_block(text, _power0_headers(text)[which], respell)
    assert parse_abp(text) == program == reference_parse_abp(text)


@pytest.mark.parametrize("entry", [(8, 8, "2"), (0, 3, "1"), (4, 4, "1/2")],
                         ids=["diagonal", "off-diagonal", "rational"])
def test_a_block_one_entry_off_the_identity_reads_as_its_own_matrix(entry):
    i, j, token = entry
    program = build_commro(det_polynomial(3))
    text = format_abp(program)
    header = _power0_headers(text)[1]

    def edit(k, line):
        tokens = line.split(" ")
        if k == i:
            tokens[j] = token
        return " ".join(tokens)

    parsed = parse_abp(_edit_block(text, header, edit))
    assert parsed == reference_parse_abp(_edit_block(text, header, edit))
    power0 = [mat for layer in parsed.layers for _, k, mat in layer.terms if k == 0]
    identity = QMatrix.identity(parsed.width)
    assert power0[1] != identity and power0[1][i, j] == Fraction(token)
    assert len({id(mat) for mat in power0}) == 2
    assert power0[0] == identity and all(mat is power0[0] for mat in power0[2:])


# x and y read the same tables: I, T and T^2/2 for T = [[0, 1/2, 0], [0, 0, 1/2], [0, 0, 0]]
TWIN_BLOCKS_ABP = """abp v1
kind: commutative
width: 3
vars: x y
order: x,y
u: 1 0 0
v: 0 0 1
layer x power 0
1 0 0
0 1 0
0 0 1
layer x power 1
0 1/2 0
0 0 1/2
0 0 0
layer x power 2
0 0 1/8
0 0 0
0 0 0
layer y power 0
1 0 0
0 1 0
0 0 1
layer y power 1
0 1/2 0
0 0 1/2
0 0 0
layer y power 2
0 0 1/8
0 0 0
0 0 0
"""


def test_blocks_with_the_same_lines_read_as_one_matrix_object():
    parsed = parse_abp(TWIN_BLOCKS_ABP)
    x, y = ([mat for _, _, mat in layer.terms] for layer in parsed.layers)
    assert all(a is b for a, b in zip(x, y)) and len({id(mat) for mat in x}) == 3
    assert parsed == reference_parse_abp(TWIN_BLOCKS_ABP)
    assert check_kind(parsed) == flattened_kind_check(parsed)
    assert format_abp(parsed) == TWIN_BLOCKS_ABP


@pytest.mark.parametrize("power, edit", [
    (1, lambda k, line: line.replace("1/2", "2/4") if k == 0 else line),
    (2, lambda k, line: "\t" + line.replace(" ", "  ") + " "),
],
                         ids=["2/4", "blanks"])
def test_equal_blocks_written_differently_read_as_equal_separate_objects(power, edit):
    text = _edit_block(TWIN_BLOCKS_ABP, f"layer y power {power}", edit)
    assert text != TWIN_BLOCKS_ABP
    parsed = parse_abp(text)
    x, y = ([mat for _, _, mat in layer.terms] for layer in parsed.layers)
    assert x == y and parsed == parse_abp(TWIN_BLOCKS_ABP) == reference_parse_abp(text)
    assert [a is b for a, b in zip(x, y)] == [k != power for k in range(3)]
    assert check_kind(parsed) == flattened_kind_check(parsed)

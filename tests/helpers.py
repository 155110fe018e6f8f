"""Shared corpus generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own pipeline:
brute_dpd enumerates every derivative directly, cofactor_det expands a
numeric determinant recursively, poly_at_matrices substitutes matrices
into a polynomial the long way, dense_eval_abp and dense_expand_abp
evaluate and expand a program from the dense view of its matrices
alone, dense_product multiplies two matrices from their Fractions,
all_pairs_commute multiplies every pair of matrices so, both ways, and scaled multiplies a matrix by a scalar from its dense
Fractions.  flattened_kind_check is check_kind without its packing:
every basis pair is multiplied both ways, and the packed products are
counted, not formed.  Ranks and
solves come from sympy, not from the library's own elimination kernel:
span_rank, dense_nisan_rank (the dense coefficient matrix over a
variable bipartition, which nisan_width never builds),
boundary_vector_by_solve (v from the symbolic row u^T * M_1 * ... * M_k
and f), residue_by_pairing (a residue from the pairing of Polys,
without the quotient's reduced echelon form) and ColumnScanQuotient
(the normal set, tables and residues by a greedy scan of pairing
columns and one solve per row).  sympy_minimal_polynomial factors the
characteristic polynomial, and companion_matrix gives a matrix with a
known minimal polynomial.  reference_derivative_basis is the derivative
closure without its shortcuts: every kept row is differentiated by every
variable, zero derivatives included, one whole level at a time.
reference_parse_abp and reference_row_lines are the `.abp` v1 reader
and row writer that split every row of every block into tokens and
write every zero cell by cell, kept as oracles
for textio's codec, which reads each distinct row line once and sets a
row's nonzeros into one shared zero row; edited_abp_texts draws program
texts with respaced, respelled, cut or inserted text for both readers
and the CLI.  reference_parse_poly is the polynomial reader that makes
each token a (kind, value, position) triple one regex match at a time,
kept as the oracle for parse_poly's one-pass tokenizer.  built_programs
draws a polynomial with the program the library builds for it: rational
tables, a non-homogeneous direct sum or a diagonal build.  wide_rational_polys draws homogeneous input
with wide rational coefficients, of degree up to max_degree, for the
integer-row closure and quotient, and rational_commutative_programs
draws commutative programs with rational (or wide rational) entries
for the integer-row evaluation and writers.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st
from sympy import QQ, Symbol
from sympy import Poly as SympyPoly
from sympy.polys.matrices import DomainMatrix

from commro import (Abp, Layer, Poly, QMatrix, WaringDecomposition, build_commro_general,
                    build_diagro_from_waring, deglex_key, monomials_of_degree, pairing,
                    waring_expand)
from commro.abp import _PACK_BITS, KindCheck
from commro.linalg import Echelon
from commro.poly import _TOKEN_RE, MonoPacking, PolyParseError, mono_factorial
from commro.textio import _rational, _variables, format_abp


def scaled(m: QMatrix, factor) -> QMatrix:
    """factor * m, from the Fractions of m.data, so no library product is involved."""
    return QMatrix([[x * factor for x in row] for row in m.data])


def var_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def random_poly(rng: random.Random, nvars: int, degree: int, max_terms: int,
                homogeneous: bool = True) -> Poly:
    """Random nonzero polynomial with small integer coefficients."""
    vars = var_names(nvars)
    if homogeneous:
        pool = monomials_of_degree(nvars, degree)
    else:
        pool = [m for d in range(degree + 1) for m in monomials_of_degree(nvars, d)]
    chosen = rng.sample(pool, min(rng.randint(1, max_terms), len(pool)))
    terms = {}
    for mono in chosen:
        coeff = rng.randint(-9, 9)
        terms[mono] = Fraction(coeff if coeff else 1)
    p = Poly(vars, terms)
    if p.is_zero():
        p = Poly.monomial(vars, chosen[0])
    return p


# nonzero rationals with numerators up to 10^18 and denominators up to 10^6
WIDE_RATIONALS = st.builds(Fraction, st.integers(-10 ** 18, 10 ** 18).filter(bool),
                           st.integers(1, 10 ** 6))


@st.composite
def wide_rational_polys(draw, max_degree: int = 3) -> Poly:
    """Nonzero homogeneous polynomial, numerators to 10^18, denominators to 10^6."""
    nvars, degree = draw(st.integers(1, 3)), draw(st.integers(1, max_degree))
    pool = monomials_of_degree(nvars, degree)
    monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return Poly(var_names(nvars), {m: draw(WIDE_RATIONALS) for m in monos})


# rationals in [-5, 5] with denominators up to 7
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def rational_commutative_programs(draw, entry=SMALL) -> Abp:
    """Commutative program with entries drawn from entry: every matrix is a
    polynomial in one random matrix M, and each layer has powers up to 4."""
    n, arity = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = QMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    powers = [QMatrix.identity(n)]
    for _ in range(2):
        powers.append(powers[-1] @ base)
    layers = []
    for var in range(arity):
        terms = []
        for k in range(draw(st.integers(0, 4)) + 1):
            mat = QMatrix.zeros(n, n)
            for power in powers:
                mat = mat + scaled(power, draw(entry))
            terms.append((var, k, mat))
        layers.append(Layer(terms))
    vector = st.tuples(*[entry] * n)
    return Abp(kind="commutative", vars=var_names(arity), width=n,
               u=draw(vector), v=draw(vector), layers=tuple(layers))


@st.composite
def built_programs(draw) -> tuple[Poly, Abp]:
    """(f, the program the library builds for f), built one of three ways.

    "tables": build_commro_general of a homogeneous f with wide rational
    coefficients, whose tables and v hold p/q entries; "direct sum": of
    a non-homogeneous f with small rational coefficients, one block per
    homogeneous component; "diagonal": build_diagro_from_waring of a
    drawn decomposition with small rational entries, f its expansion.
    """
    how = draw(st.sampled_from(["tables", "direct sum", "diagonal"]))
    if how == "tables":
        f = draw(wide_rational_polys())
        return f, build_commro_general(f)
    nonzero = SMALL.filter(bool)
    if how == "direct sum":
        nvars = draw(st.integers(1, 3))
        pool = [m for d in range(4) for m in monomials_of_degree(nvars, d)]
        monos = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique=True)
                     .filter(lambda ms: len({sum(m) for m in ms}) > 1))
        f = Poly(var_names(nvars), {m: draw(nonzero) for m in monos})
        return f, build_commro_general(f)
    arity, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    form = st.lists(SMALL, min_size=arity, max_size=arity).filter(any).map(tuple)
    w = WaringDecomposition(degree=degree, terms=tuple(draw(st.lists(
        st.tuples(nonzero, form), min_size=1, max_size=3))))
    return waring_expand(w, var_names(arity)), build_diagro_from_waring(w, var_names(arity))


# whitespace the reader must treat as split() does, and token spellings
# other than the writer's
SPACINGS = ["  ", "   ", "\t", " \t ", "\xa0", " \u3000", "\x1f"]
SPELLINGS = ["00", "-0", "0/5", "+3", "1_000", "1e400", "-7/2", "1/-2", "\u0663", "1/0",
             "0/0", "3/06", "+0/1", "1\t/2", "\u0663/\u0664"]


@st.composite
def edited_abp_texts(draw, abp: Abp | None = None) -> str:
    """The text of abp, or of a drawn program, with some spaces, tokens and lines changed."""
    if abp is None:
        abp = draw(st.sampled_from([WIDE_RATIONALS, SMALL]).flatmap(rational_commutative_programs))
    lines = format_abp(abp).splitlines()
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        edit = draw(st.sampled_from(["spacing", "token", "lead", "trail", "blank", "drop",
                                     "insert"]))
        spaces = [k for k, c in enumerate(line) if c == " "]
        if edit == "spacing" and spaces:
            k = draw(st.sampled_from(spaces))
            lines[at] = line[:k] + draw(st.sampled_from(SPACINGS)) + line[k + 1:]
        elif edit == "token":
            tokens = line.split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(SPELLINGS))
            lines[at] = " ".join(tokens)
        elif edit == "lead":
            lines[at] = draw(st.sampled_from(SPACINGS)) + line
        elif edit == "trail":
            lines[at] = line + draw(st.sampled_from(SPACINGS))
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "drop" and spaces:
            lines[at] = line[:draw(st.sampled_from(spaces))]
        elif edit == "insert":
            k = draw(st.integers(0, len(line)))
            lines[at] = line[:k] + draw(st.sampled_from(SPACINGS + SPELLINGS)) + line[k:]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


def random_point(rng: random.Random, arity: int, bound: int = 10 ** 6) -> list[Fraction]:
    return [Fraction(rng.randint(-bound, bound)) for _ in range(arity)]


def dilate(f: Poly, alpha: Fraction) -> Poly:
    """f(alpha * x): scales each term by alpha^degree."""
    return Poly(f.vars, {m: c * alpha ** sum(m) for m, c in f.terms.items()})


def brute_dpd(f: Poly) -> int:
    """Derivative-span dimension by differentiating with *every* sub-exponent."""
    if f.is_zero():
        return 0
    bounds = [f.individual_degree(i) for i in range(f.arity)]
    derivatives = []
    for e in itertools.product(*(range(b + 1) for b in bounds)):
        g = f.derive(e)
        if not g.is_zero():
            derivatives.append(g)
    return span_rank(derivatives)


def reference_derivative_basis(f: Poly) -> tuple[list[dict[int, int]], Fraction, Echelon]:
    """(rows, scale, echelon) of the closure that tries every variable on every kept row.

    The seed is f in divided powers, scaled to integers and divided by
    its content, as derivative_basis seeds it; each level is a list of
    every d/dx_i of every row kept at the level before, i in index order.
    """
    packing = MonoPacking(f.arity, f.total_degree())
    lcd, terms = f.integer_terms()
    seed = {packing.pack(m): mono_factorial(m) * c for m, c in terms.items()}
    content = math.gcd(*seed.values())
    echelon, rows = Echelon(), []
    candidates = [{k: c // content for k, c in seed.items()}]
    while candidates:
        level = [row for row in candidates if echelon.add(row)]
        rows += level
        candidates = [packing.derive(row, i) for row in level for i in range(f.arity)]
    return rows, Fraction(lcd, content), echelon


def cofactor_det(matrix: list[list[Fraction]]) -> Fraction:
    """Recursive cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * cofactor_det(minor)
    return total


def poly_at_matrices(g: Poly, mats: list[QMatrix]) -> QMatrix:
    """Substitute one square matrix per variable into g."""
    n = mats[0].rows
    powers: dict[tuple[int, int], QMatrix] = {}

    def power(var: int, k: int) -> QMatrix:
        if (var, k) not in powers:
            powers[(var, k)] = QMatrix.identity(n) if k == 0 else power(var, k - 1) @ mats[var]
        return powers[(var, k)]

    total = QMatrix.zeros(n, n)
    for mono, coeff in g.terms.items():
        term = QMatrix.identity(n)
        for var, e in enumerate(mono):
            if e:
                term = term @ power(var, e)
        total = total + scaled(term, coeff)
    return total


def dense_eval_abp(abp, point) -> Fraction:
    """u^T * M_1(point) * ... * M_k(point) * v, each layer built densely from mat.data."""
    w = abp.width
    row = list(abp.u)
    for abp_layer in abp.layers:
        layer = [[Fraction(0)] * w for _ in range(w)]
        for var, power, mat in abp_layer.terms:
            scale = Fraction(point[var]) ** power
            for i, mat_row in enumerate(mat.data):
                for j, x in enumerate(mat_row):
                    layer[i][j] += x * scale
        row = [sum((row[k] * layer[k][j] for k in range(w)), Fraction(0)) for j in range(w)]
    return sum((x * y for x, y in zip(row, abp.v)), Fraction(0))


def dense_expand_abp(abp) -> Poly:
    """u^T * M_1 * ... * M_k * v as a Poly, each layer a dense matrix of Polys from mat.data."""
    w, vars = abp.width, abp.vars
    zero = Poly.zero(vars)
    row = [Poly.constant(vars, x) for x in abp.u]
    for abp_layer in abp.layers:
        layer = [[zero] * w for _ in range(w)]
        for var, power, mat in abp_layer.terms:
            mono = Poly.monomial(vars, tuple(power if i == var else 0 for i in range(len(vars))))
            for i, mat_row in enumerate(mat.data):
                for j, x in enumerate(mat_row):
                    layer[i][j] = layer[i][j] + mono.scale(x)
        row = [sum((row[k] * layer[k][j] for k in range(w)), zero) for j in range(w)]
    return sum((p.scale(x) for p, x in zip(row, abp.v)), zero)


def flattened_kind_check(abp) -> KindCheck:
    """check_kind's report on a commutative or set-multilinear program, recomputed the long way.

    In multiplication order, every coefficient matrix that is neither I
    nor an object met before is a power step, tested by a product and a
    scale, or joins the basis; the pairs and the packed products are
    counted by check_kind's documented rules, and ok is whether every
    pair of the basis commutes, each pair multiplied both ways.
    """
    identity, before, met, basis, steps = QMatrix.identity(abp.width), {}, set(), [], 0
    for layer in abp.layers:
        for var, k, m in layer.terms:
            if id(m) not in met and m != identity:
                if (k >= 2 and (var, 1) in before and (var, k - 1) in before
                        and scaled(m, k) == before[var, k - 1] @ before[var, 1]):
                    steps += 1
                else:
                    basis.append(m)
            before[var, k] = m
            met.add(id(m))
    top = max([1] + [abs(x) for m in basis for x in m.flat().values()])
    size = max(1, _PACK_BITS // (2 * abp.width * top * top).bit_length())
    ok = all(a @ b == b @ a for a, b in itertools.combinations(basis, 2))
    return KindCheck(ok, len(abp.coefficient_matrices()),
                     len(basis) * (len(basis) - 1) // 2,
                     sum(-(-i // size) for i in range(len(basis))), steps)


def dense_product(a: QMatrix, b: QMatrix) -> list[list[Fraction]]:
    """a @ b as dense rows of Fractions, summed from a.data and b.data."""
    a, b = a.data, b.data
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def all_pairs_commute(mats: list[QMatrix]) -> bool:
    """Every pair of square matrices commutes, by dense products of .data."""
    return all(dense_product(a, b) == dense_product(b, a)
               for a, b in itertools.combinations(mats, 2))


def span_rank(polys: list[Poly]) -> int:
    """Rank of the coefficient matrix of a polynomial family."""
    columns = sorted({m for p in polys for m in p.terms}, key=deglex_key)
    if not columns:
        return 0
    return DomainMatrix.from_list([[p.coeff(m) for m in columns] for p in polys], QQ).rank()


def dense_nisan_rank(f: Poly, s) -> int:
    """Rank of f's coefficient matrix over the bipartition (s, complement).

    Rows and columns are every exponent tuple of individual degree at
    most d (f's largest exponent) over the two variable groups; entry
    (m, m') is the coefficient of m * m' in f.  Each term of f sets its
    one entry, the rest are zero, and sympy's sparse DomainMatrix
    computes the rank, so no zero is converted one by one.
    """
    s = sorted(set(s))
    t = [i for i in range(f.arity) if i not in s]
    d = f.max_individual_degree()
    rows = {r: i for i, r in enumerate(itertools.product(range(d + 1), repeat=len(s)))}
    cols = {c: j for j, c in enumerate(itertools.product(range(d + 1), repeat=len(t)))}
    entries: dict[int, dict[int, object]] = {}
    for mono, c in f.terms.items():
        c = Fraction(c)
        entries.setdefault(rows[tuple(mono[i] for i in s)], {})[
            cols[tuple(mono[i] for i in t)]] = QQ(c.numerator, c.denominator)
    return DomainMatrix(entries, (len(rows), len(cols)), QQ).rank()


def boundary_vector_by_solve(abp, f: Poly) -> list[Fraction] | None:
    """Some v with u^T * M_1 * ... * M_k * v = f, or None if there is none.

    The symbolic row u^T * M_1 * ... * M_k is multiplied out with Poly
    arithmetic from the dense view of each layer; its entries are matched
    against f, one equation per monomial, and sympy's rref solves the
    system with the free unknowns at 0.
    """
    vars, w = abp.vars, abp.width
    row = [Poly.constant(vars, x) for x in abp.u]
    for layer in abp.layers:
        out = [Poly.zero(vars)] * w
        for var, power, mat in layer.terms:
            x = Poly.monomial(vars, tuple(power if i == var else 0 for i in range(len(vars))))
            for i, mat_row in enumerate(mat.data):
                for j, a in enumerate(mat_row):
                    if a and row[i]:
                        out[j] = out[j] + row[i] * x * a
        row = out
    monos = sorted({m for p in row for m in p.terms} | set(f.terms))
    augmented = DomainMatrix.from_list([[p.coeff(m) for p in row] + [f.coeff(m)]
                                        for m in monos], QQ)
    reduced, pivots = augmented.rref()
    if w in pivots:
        return None
    table = reduced.to_list()
    v = [Fraction(0)] * w
    for r, c in enumerate(pivots):
        v[c] = sympy_fraction(table[r][w])
    return v


def companion_matrix(p: Poly) -> list[list[Fraction]]:
    """Multiplication by t on Q[t]/<p>, for univariate p of degree >= 1.

    Row i holds t^(i+1) mod p over 1, t, ..., t^(d-1): a shift for
    i < d - 1, and the negated low coefficients of p made monic in the
    last row.  Its minimal polynomial is p made monic.
    """
    d = p.total_degree()
    lead = p.coeff((d,))
    rows = [[Fraction(int(j == i + 1)) for j in range(d)] for i in range(d - 1)]
    rows.append([-p.coeff((j,)) / lead for j in range(d)])
    return rows


def residue_by_pairing(g: Poly, q) -> list[Fraction]:
    """The c with sum_i c_i <m_i, g_j> = <g, g_j> for every basis element g_j.

    Pairs Polys with the library's pairing over q.basis.basis and solves
    the w x w system with sympy; the normal-set columns are independent,
    so the solution is unique.
    """
    basis = q.basis.basis
    monos = [Poly.monomial(g.vars, m) for m in q.normal_set]
    system = DomainMatrix.from_list([[pairing(m, gj) for m in monos] for gj in basis], QQ)
    rhs = DomainMatrix.from_list([[pairing(g, gj)] for gj in basis], QQ)
    return [sympy_fraction(x) for x in system.lu_solve(rhs).to_Matrix()]


class ColumnScanQuotient:
    """The apolar quotient by a greedy scan of pairing columns plus solves.

    Column m is x^m's pairing vector against the Poly basis b.basis.  The
    monomials of the basis support are scanned in ascending deg-lex, and
    m joins the normal set iff its column grows the rank (sympy's).  A
    residue solves the normal set's columns against the pairing vector
    of g, and row i of table l is the residue of t_l * m_i; sympy's
    lu_solve does the solves.  Neither the reduced echelon form nor
    divided powers are used.
    """

    def __init__(self, b):
        self.basis = b.basis
        vars = b.source.vars
        support = sorted({m for g in self.basis for m in g.terms}, key=deglex_key)
        self.normal_set: list[tuple[int, ...]] = []
        columns: list[list[Fraction]] = []
        for mono in support:
            column = self.column(Poly.monomial(vars, mono))
            if DomainMatrix.from_list(columns + [column], QQ).rank() > len(columns):
                columns.append(column)
                self.normal_set.append(mono)
        self.system = DomainMatrix.from_list(columns, QQ).transpose()
        self.tables = []
        for var in range(len(vars)):
            shift = tuple(int(k == var) for k in range(len(vars)))
            self.tables.append([self.residue(Poly.monomial(vars, tuple(
                e + s for e, s in zip(mono, shift)))) for mono in self.normal_set])

    def column(self, g: Poly) -> list[Fraction]:
        return [pairing(g, gj) for gj in self.basis]

    def residue(self, g: Poly) -> list[Fraction]:
        rhs = DomainMatrix.from_list([[x] for x in self.column(g)], QQ)
        return [sympy_fraction(x) for x in self.system.lu_solve(rhs).to_Matrix()]


def sympy_fraction(x) -> Fraction:
    """A sympy rational (domain element or expression) as a Fraction."""
    q = QQ.convert(x)
    return Fraction(int(q.numerator), int(q.denominator))


def sympy_minimal_polynomial(data: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients, highest degree first, of the monic minimal polynomial.

    Computed by sympy: the least divisor of the factored characteristic
    polynomial that annihilates the matrix.  Each irreducible factor's
    exponent is lowered while the product still annihilates, but not
    below 1, since both polynomials have the same irreducible factors;
    the annihilating divisors are exactly the multiples of the minimal one.
    """
    m = DomainMatrix.from_list(data, QQ)
    t = Symbol("t")
    factors = [[SympyPoly(f, t, domain=QQ), k] for f, k in m.charpoly_factor_list()]

    def product() -> SympyPoly:
        out = SympyPoly(1, t, domain=QQ)
        for f, k in factors:
            out *= f ** k
        return out.monic()

    for entry in factors:
        while entry[1] > 1:
            entry[1] -= 1
            coeffs = [QQ.convert(c) for c in product().all_coeffs()]
            if not m.eval_poly(coeffs).is_zero_matrix:
                entry[1] += 1
                break
    return [sympy_fraction(c) for c in product().all_coeffs()]


# ---------------------------------------------------------------------------
# the `.abp` v1 codec token by token
# ---------------------------------------------------------------------------

def _entry(token: str) -> int | Fraction:
    try:
        return int(token)
    except ValueError:
        return _rational(token)


def reference_row_lines(m: QMatrix) -> list[str]:
    """One line of space-separated rationals per row, written from the stored nonzeros."""
    den, lines = m.den, []
    for row in m.entries:
        cells = ["0"] * m.cols
        for j, x in row.items():
            cells[j] = str(x) if den == 1 else str(Fraction(x, den))
        lines.append(" ".join(cells))
    return lines


def reference_parse_abp(text: str) -> Abp:
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "abp v1":
        raise ValueError("not an abp v1 file")

    header_keys = ("kind", "width", "vars", "order", "u", "v")
    headers: dict[str, str] = {}
    at = 1
    while at < len(lines) and not lines[at].startswith("layer "):
        key, colon, value = lines[at].partition(":")
        key = key.strip()
        if not colon or key not in header_keys:
            raise ValueError(f"unexpected abp header line {lines[at]!r}")
        if key in headers:
            raise ValueError(f"repeated abp header line {lines[at]!r}")
        headers[key] = value.strip()
        at += 1
    for required in header_keys:
        if required not in headers:
            raise ValueError(f"abp file lacks the {required!r} header")

    kind = headers["kind"]
    width = int(headers["width"])
    if width < 1:
        raise ValueError(f"abp width must be positive, got {width}")
    vars = _variables(headers["vars"].split())
    index = {name: i for i, name in enumerate(vars)}
    u = tuple(_rational(x) for x in headers["u"].split())
    v = tuple(_rational(x) for x in headers["v"].split())

    # layer blocks, grouped by variable
    blocks: dict[int, list[tuple[int, QMatrix]]] = {}
    while at < len(lines):
        header = lines[at]
        parts = header.split()
        if len(parts) != 4 or parts[0] != "layer" or parts[2] != "power":
            raise ValueError(f"malformed layer header {header!r}")
        name, power = parts[1], int(parts[3])
        if name not in index:
            raise ValueError(f"layer for unknown variable {name!r}")
        var = index[name]
        if any(p == power for p, _ in blocks.get(var, [])):
            raise ValueError(f"repeated layer block {header!r}")
        at += 1
        rows = []
        for i in range(width):
            if at >= len(lines):
                raise ValueError("truncated layer block")
            tokens = lines[at].split()
            if len(tokens) != width:
                raise ValueError(f"row {i + 1} of {header!r} has {len(tokens)} entries, "
                                 f"expected {width}")
            # layer rows are mostly zeros, and many rows are nothing else: build
            # the sparse row without parsing them
            if tokens.count("0") == width:
                rows.append({})
            else:
                rows.append({j: x for j, tok in enumerate(tokens)
                             if tok != "0" and (x := _entry(tok))})
            at += 1
        blocks.setdefault(var, []).append((power, QMatrix.rational(width, width, rows)))

    group_texts = headers["order"].split("|") if kind == "set_multilinear" \
        else headers["order"].split(",")
    order_groups: list[list[int]] = []
    for group in group_texts:
        names = [name.strip() for name in group.split(",") if name.strip()]
        if not names:
            raise ValueError("empty group in order header")
        try:
            order_groups.append([index[name] for name in names])
        except KeyError as bad:
            raise ValueError(f"order header names unknown variable {bad.args[0]!r}") from None
    ordered = {var for group in order_groups for var in group}
    for var, powers in blocks.items():
        if var not in ordered:
            raise ValueError(f"layer block 'layer {vars[var]} power {powers[0][0]}' "
                             "is for a variable the order header does not list")

    # one layer per group, in multiplication order; a variable listed twice
    # gives both its layers its blocks, which Abp rejects
    layers = tuple(Layer([(var, power, mat) for var in group
                          for power, mat in blocks.get(var, [])])
                   for group in order_groups)
    return Abp(kind=kind, vars=vars, width=width, u=u, v=v, layers=layers)


# ---------------------------------------------------------------------------
# polynomial text token at a time
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN_KINDS = (None, "num", "ident", "op")


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex  # the one alternative that matched
        if group == 4:
            raise PolyParseError(f"unexpected character {m[4]!r}", m.start())
        tokens.append((_REFERENCE_TOKEN_KINDS[group], m[group], m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def reference_parse_poly(text: str, var_order) -> Poly:
    """parse_poly with every token a (kind, value, position) triple made one match at a time."""
    vars = tuple(var_order)
    index = {name: i for i, name in enumerate(vars)}
    tokens = _reference_tokenize(text)
    terms: dict = {}
    # only op tokens have the values + - * / ^, and the end token is ""
    kind, value, at = tokens[0]
    pos = 1 if kind == "op" and value in "+-" else 0
    sign = -1 if pos and value == "-" else 1
    while True:
        coeff, mono = 1, [0] * len(vars)
        kind, value, at = tokens[pos]
        if kind == "num":
            coeff = int(value)
            pos += 1
            if tokens[pos][1] == "/":
                kind, value, at = tokens[pos + 1]
                if kind != "num" or int(value) == 0:
                    raise PolyParseError("expected a positive denominator", at)
                coeff = Fraction(coeff, int(value))
                pos += 2
            more = tokens[pos][1] == "*"
            pos += more
        elif kind == "ident":
            more = True
        else:
            raise PolyParseError("expected a term", at)
        while more:  # one factor `var` or `var^nat`, then a '*' or not
            kind, value, at = tokens[pos]
            if kind != "ident":
                raise PolyParseError("expected a variable", at)
            var = index.get(value)
            if var is None:
                raise PolyParseError(f"unknown variable {value!r}", at)
            pos += 1
            if tokens[pos][1] == "^":
                kind, value, at = tokens[pos + 1]
                if kind != "num":
                    raise PolyParseError("expected an exponent", at)
                mono[var] += int(value)
                pos += 2
            else:
                mono[var] += 1
            more = tokens[pos][1] == "*"
            pos += more
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        kind, value, at = tokens[pos]
        if kind == "end":
            break
        if value not in ("+", "-"):
            raise PolyParseError(f"expected '+', '-' or end of input, got {value!r}", at)
        sign = -1 if value == "-" else 1
        pos += 1
    return Poly.sparse(vars, {mono: c for mono, c in terms.items() if c})

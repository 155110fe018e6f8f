"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  Monomials are dense exponent tuples, one entry per
variable of the ambient ring; the ring itself is fixed by an ordered
tuple of variable names.  Coefficients are exact rationals, ints or
`fractions.Fraction` values, so every operation here is exact and no
rounding ever happens.

Parsing and evaluation run in ints.  `parse_poly` reads the tokens in
one regex findall, keeps integer coefficients as ints and builds a
Fraction only for a `p/q`.
`Poly.integer_terms` gives L * f in ints, L the lcm of the coefficient
denominators; evaluation, the derivative closure and the Nisan cuts
start from it.  `Poly.eval` splits the point into integer numerators
and denominators (split_point, which reads an int or a Fraction as it
is) and sums integer terms over one common denominator, so it builds a
single Fraction, the value.

Monomials are compared in the degree-lexicographic order ("deg-lex"):
first by total degree, ties broken lexicographically with the *last*
declared variable most significant.  The declared variable tuple thus
reads as an ascending chain v1 < v2 < ... < vr, the constant monomial
1 is the least monomial, and the order refines divisibility.

MonoPacking packs the monomials of a bounded degree into single ints
whose integer order is that deg-lex order, with multiplication by a
variable as one addition on the key and differentiation of a row in
divided powers as one subtraction; the derivative-span and quotient
stages run on such keys.

All values are immutable after construction and safe to share across
threads; arithmetic returns new objects.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import reduce
from operator import add, ge, getitem, itemgetter, or_, sub
from typing import Iterable, Iterator, Mapping

Rational = Fraction
Mono = tuple[int, ...]


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the message and the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message, self.pos = message, pos


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def deglex_key(mono: Mono) -> tuple:
    """Sort key realizing the deg-lex order (ascending)."""
    return (sum(mono), *mono[::-1])


def mono_factorial(mono: Mono) -> int:
    """Product of factorials of the exponents (e1! * e2! * ... * er!)."""
    return math.prod(map(math.factorial, mono))


class MonoPacking:
    """Monomials of arity r and total degree <= d packed into one int each.

    A key holds the total degree in its top field, then e_r, ..., e_1
    down to the lowest field; every field is d.bit_length() + 1 bits wide
    (the packed exponent vectors of Monagan and Pearce, CASC 2007).  The
    fields are compared most significant first, so integer order on keys
    is exactly the deg-lex order.  The extra guard bit lets a field hold
    d + 1, so multiplying a degree-d monomial by a variable stays exact.
    Multiplying by x_i adds step(i) to the key; d/dx_i on a row in
    divided powers subtracts it.
    """

    __slots__ = ("arity", "bits", "mask", "top")

    def __init__(self, arity: int, degree: int):
        self.arity = arity
        self.bits = degree.bit_length() + 1
        self.mask = (1 << self.bits) - 1
        self.top = 1 << (arity * self.bits)

    def pack(self, mono: Mono) -> int:
        key = sum(mono)
        for e in reversed(mono):
            key = key << self.bits | e
        return key

    def unpack(self, key: int) -> Mono:
        mask = self.mask
        return tuple([key >> s & mask for s in range(0, self.arity * self.bits, self.bits)])

    def step(self, index: int) -> int:
        """What multiplying by x_index adds to a key: one in the degree and in e_index."""
        return self.top | 1 << (index * self.bits)

    def field(self, index: int) -> int:
        """The bits of e_index in a key."""
        return self.mask << (index * self.bits)

    def occurring(self, row: dict[int, int]) -> list[int]:
        """The indices of the variables that occur in some key of the row.

        An OR over the keys holds in each exponent field the OR of that
        field over the row, which is nonzero iff the variable occurs.
        """
        keys, bits, mask = reduce(or_, row, 0), self.bits, self.mask
        return [i for i in range(self.arity) if keys >> i * bits & mask]

    def derive(self, row: dict[int, int], index: int) -> dict[int, int]:
        """d/dx_index of a packed row in divided powers: a contraction.

        The row holds m! * coeff(m) at key m, so the derivative moves
        each term containing x_index down one step and keeps its
        coefficient; terms free of x_index drop out.  Distinct keys stay
        distinct, so the result needs no merging.
        """
        field, step = self.field(index), self.step(index)
        return {k - step: c for k, c in row.items() if k & field}


def mono_str(mono: Mono, var_names: tuple[str, ...]) -> str:
    """Render a bare monomial, e.g. (1, 0, 2) -> 'x1*x3^2'; () exponents -> '1'."""
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in itertools.compress(zip(var_names, mono), mono)]) or "1"


def monomials_of_degree(arity: int, degree: int) -> list[Mono]:
    """All monomials of the given total degree, ascending deg-lex.

    Stars and bars: arity - 1 bars among degree + arity - 1 slots cut
    the stars into the exponents.
    """
    if arity == 0:
        return [()] if degree == 0 else []
    slots = degree + arity - 1
    return sorted((tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                   for bars in itertools.combinations(range(slots), arity - 1)),
                  key=deglex_key)


def monomials_upto(arity: int, degree: int) -> Iterator[Mono]:
    """All monomials of total degree <= degree, ascending deg-lex."""
    for d in range(degree + 1):
        yield from monomials_of_degree(arity, d)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def split_point(point: Iterable) -> tuple[list[int], list[int]]:
    """The int numerators and positive int denominators of a point's coordinates.

    An int or a Fraction coordinate is read as it is; one of any other
    type (a float, a string, a numpy integer) goes through Fraction()
    first.
    """
    point = [p if type(p) is int or type(p) is Fraction else Fraction(p) for p in point]
    return [p.numerator for p in point], [p.denominator for p in point]


class Poly:
    """Immutable sparse polynomial over exact rational (int or Fraction) coefficients.

    `vars` fixes both the arity and the deg-lex variable chain.  The
    term map never stores zero coefficients, and every exponent tuple
    has length equal to the arity.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[Mono, Fraction | int] = ()):
        self.vars: tuple[str, ...] = tuple(vars)
        arity = len(self.vars)
        clean: dict[Mono, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != arity:
                raise ValueError(f"monomial {mono} has arity {len(mono)}, expected {arity}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            coeff = Fraction(coeff)
            if coeff:
                acc = clean.get(mono, Fraction(0)) + coeff
                if acc:
                    clean[mono] = acc
                else:
                    clean.pop(mono, None)
        self.terms: dict[Mono, Fraction] = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def sparse(cls, vars: tuple[str, ...], terms: dict[Mono, Fraction]) -> Poly:
        """Wrap a term dict that is already clean, without copying or checking.

        The keys must be exponent tuples of arity len(vars) and the values
        nonzero ints or Fractions; the dict becomes the polynomial's storage, so
        the caller must not change it afterwards.
        """
        p = cls.__new__(cls)
        p.vars, p.terms = vars, terms
        return p

    @classmethod
    def zero(cls, vars: Iterable[str]) -> Poly:
        return cls(vars)

    @classmethod
    def constant(cls, vars: Iterable[str], value: Fraction | int) -> Poly:
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def variable(cls, vars: Iterable[str], index: int) -> Poly:
        vars = tuple(vars)
        mono = [0] * len(vars)
        mono[index] = 1
        return cls(vars, {tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, vars: Iterable[str], mono: Mono, coeff: Fraction | int = 1) -> Poly:
        return cls(vars, {tuple(mono): Fraction(coeff)})

    # -- basic queries -------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def individual_degree(self, index: int) -> int:
        """Largest exponent of the index-th variable; 0 for the zero polynomial."""
        return max((m[index] for m in self.terms), default=0)

    def max_individual_degree(self) -> int:
        return max((max(m) for m in self.terms if m), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def integer_terms(self) -> tuple[int, dict[Mono, int]]:
        """(L, {m: L * c}) with L the lcm of the coefficient denominators: L * self in ints."""
        lcd = math.lcm(*[c.denominator for c in self.terms.values()])
        return lcd, {m: c.numerator * (lcd // c.denominator) for m, c in self.terms.items()}

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: Poly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"arity/variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: Poly) -> Poly:
        self._check_ring(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return Poly.sparse(self.vars, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return Poly.sparse(self.vars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Poly | Fraction | int) -> Poly:
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        self._check_ring(other)
        out: dict[Mono, Fraction | int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(map(add, ma, mb))
                out[mono] = out.get(mono, 0) + ca * cb
        return Poly.sparse(self.vars, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, factor: Fraction | int) -> Poly:
        factor = Fraction(factor)
        terms = {m: c * factor for m, c in self.terms.items()} if factor else {}
        return Poly.sparse(self.vars, terms)

    # -- calculus and evaluation ---------------------------------------------

    def derive(self, mono: Mono) -> Poly:
        """Iterated exact partial derivative with respect to x^mono.

        derive(f, (0,...,0)) is f itself; the result may be zero.  A term
        x^e with e >= mono becomes x^(e - mono) times the falling
        factorials perm(e_i, m_i); e -> e - mono is one-to-one, so no two
        terms merge.
        """
        mono = tuple(mono)
        if len(mono) != self.arity:
            raise ValueError(f"arity mismatch: {len(mono)} vs {self.arity}")
        return Poly.sparse(self.vars, {
            tuple(map(sub, e, mono)): c * math.prod(map(math.perm, e, mono))
            for e, c in self.terms.items() if all(map(ge, e, mono))})

    def eval(self, point: Iterable[Fraction | int]) -> Fraction:
        """Exact value at a rational point, summed in ints over one denominator.

        With x_i = n_i / d_i, E_i the largest exponent of x_i and L the
        lcm of the coefficient denominators, the value is the sum of the
        int terms c * L * prod n_i^e_i * d_i^(E_i - e_i) over
        L * prod d_i^E_i.  The factor n_i^e * d_i^(E_i - e) is formed
        once for each exponent e of x_i that occurs, never for the
        others up to E_i.  n_i and d_i come from split_point: an int or a
        Fraction coordinate is read as it is (an int has d_i = 1), any
        other goes through Fraction().
        """
        nums, dens = split_point(point)
        if len(nums) != self.arity:
            raise ValueError(f"arity mismatch: point has {len(nums)} coordinates, expected {self.arity}")
        if not self.terms:
            return Fraction(0)
        den, terms = self.integer_terms()
        factors = []
        for exponents, n, d in zip(zip(*terms), nums, dens):
            exponents = set(exponents)
            top = max(exponents)
            den *= d ** top
            factors.append({e: n ** e * d ** (top - e) for e in exponents})
        total = 0
        for mono, c in terms.items():
            total += math.prod(map(getitem, factors, mono), start=c)
        return Fraction(total, den)

    def components_by_degree(self) -> dict[int, Poly]:
        """The nonzero homogeneous components, keyed by degree in ascending order.

        Only the degrees that occur get a component: x^d has one, not d + 1.
        """
        buckets: dict[int, dict[Mono, Fraction]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(sum(mono), {})[mono] = coeff
        return {d: Poly.sparse(self.vars, buckets[d]) for d in sorted(buckets)}

    def homogeneous_components(self) -> list[Poly]:
        """Degree-k slices, indexed 0..deg; empty list for the zero polynomial."""
        parts = self.components_by_degree()
        return [parts.get(d, Poly(self.vars)) for d in range(self.total_degree() + 1)]

    # -- comparison and rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable-looking container; equality only

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono in sorted(self.terms, key=deglex_key, reverse=True):
            coeff = self.terms[mono]
            mag = -coeff if coeff < 0 else coeff
            body = mono_str(mono, self.vars)
            text = str(mag) if body == "1" else body if mag == 1 else f"{mag}*{body}"
            pieces += " - " if coeff < 0 else " + ", text
        pieces[0] = "-" if pieces[0] == " - " else ""  # the first term's sign
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.vars!r}, {self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+\-*/^])|(\S)")
_END = ("", "", "", "")  # the token after the last: no alternative matched


def _error(message: str, text: str, index: int) -> PolyParseError:
    """The error at the index-th token of text, the end if there is none; its position found anew."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), index, None), None)
    return PolyParseError(message, match.start() if match else len(text))


def parse_poly(text: str, var_order: Iterable[str]) -> Poly:
    """Parse polynomial text against an explicit variable order.

    Grammar: terms joined by '+'/'-'; each term is an optional rational
    coefficient and '*'-separated factors `var` or `var^nat`.  A leading
    sign on the first term is accepted.  Coefficients stay ints; only a
    `p/q` builds a Fraction.  Blanks and line breaks between tokens are
    skipped.

    The text is tokenized in one findall, which gives each token as the
    string tuple (num, ident, op, other) of _TOKEN_RE's groups, one of
    them nonempty; a token's position in the text is found only for an
    error, by scanning the tokens again up to its index.
    """
    vars = tuple(var_order)
    index = {name: i for i, name in enumerate(vars)}
    tokens = _TOKEN_RE.findall(text)
    if any(map(itemgetter(3), tokens)):
        at = next(i for i, token in enumerate(tokens) if token[3])
        raise _error(f"unexpected character {tokens[at][3]!r}", text, at)
    end = len(tokens)
    tokens.append(_END)
    terms: dict[Mono, int | Fraction] = {}
    op = tokens[0][2]
    pos = 1 if op == "+" or op == "-" else 0
    sign = -1 if op == "-" else 1
    while True:
        coeff, mono = 1, [0] * len(vars)
        num, ident, _, _ = tokens[pos]
        if num:
            coeff = int(num)
            pos += 1
            if tokens[pos][2] == "/":
                den = tokens[pos + 1][0]
                if not den or int(den) == 0:
                    raise _error("expected a positive denominator", text, pos + 1)
                coeff = Fraction(coeff, int(den))
                pos += 2
            more = tokens[pos][2] == "*"
            pos += more
        elif not ident:
            raise _error("expected a term", text, pos)
        else:
            more = True
        while more:  # one factor `var` or `var^nat`, then a '*' or not
            ident = tokens[pos][1]
            if not ident:
                raise _error("expected a variable", text, pos)
            var = index.get(ident)
            if var is None:
                raise _error(f"unknown variable {ident!r}", text, pos)
            pos += 1
            if tokens[pos][2] == "^":
                power = tokens[pos + 1][0]
                if not power:
                    raise _error("expected an exponent", text, pos + 1)
                mono[var] += int(power)
                pos += 2
            else:
                mono[var] += 1
            more = tokens[pos][2] == "*"
            pos += more
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        if pos == end:
            break
        op = tokens[pos][2]
        if op != "+" and op != "-":
            raise _error(f"expected '+', '-' or end of input, got {''.join(tokens[pos])!r}",
                         text, pos)
        sign = -1 if op == "-" else 1
        pos += 1
    # every exponent tuple has the arity and no negative entry by construction
    return Poly.sparse(vars, {mono: c for mono, c in terms.items() if c})

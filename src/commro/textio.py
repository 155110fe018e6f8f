"""Versioned ASCII file formats: polynomials, matrices, Waring data, ABPs.

Every format is line oriented with bit-exact rationals (`Fraction`
string form), so emitted artifacts are stable golden files.  A matrix
row is written from its ints: an entry x over the denominator den is
`x`, `x/den` or the same with the common factor divided out, as
`str(Fraction(x, den))` would write it.  One token reader, _rational,
reads every rational of an abp row, of the `u:` and `v:` headers and of
a waring term: a token of that `p/q` form is read as two ints, any
other token that int() reads is an int, and only the rest (`1.5`,
`1e3`) go through Fraction's string parser.

polynomial file:   `vars: x1 x2 ...` header, then the expression text
matrix block:      `rows cols` line, then row-major rationals (written by
                   `commro tables`; nothing reads it back)
waring file:       `waring d=<d> n=<n>` header (each field once), lines
                   `c: a1 a2 ... an`
abp file:          `abp v1` magic, `kind:`/`width:`/`vars:`/`order:`/
                   `u:`/`v:` headers once each (a positive width), then
                   `layer <var> power <k>` blocks, each for a variable of
                   the order line and followed by width rows of width
                   rationals.  The order
                   line lists the layers in multiplication order, one
                   layer per group; for set-multilinear programs it
                   groups part variables with '|': `order: a,b|c,d`.

Format v1 writes every zero of a layer row.  An abp row is read as
str.split() reads it, in whatever layout.  The reader reads each
distinct row line and each distinct block once per file: a row line met
again (det4's 1 440 nonzero rows are 123 distinct lines) reuses the dict
read the first time, and a block whose width lines equal an earlier
block's, as text, is that block's QMatrix object, read no further.  So
equal rows of a parsed program share one dict, which nothing changes
afterwards, and every repeated block (each layer's power-0 I, equal
tables) is one matrix.  Nothing is sized by the `width:` header before
a block of that many rows has been read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Sequence

from .abp import Abp, Layer
from .construct import WaringDecomposition
from .linalg import QMatrix
from .poly import Poly, parse_poly


# Fraction() expands an exponent form such as `1e10000000` into a number of
# that many digits; no writer emits exponents, and 4300 is Python's default
# limit on the digits of an int read from text
_MAX_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_RATIO_RE = re.compile(r"([-+]?[0-9]+)/([0-9]+)")


def _rational(token: str) -> int | Fraction:
    """A rational token such as `12`, `-3/4` or `1.5e3`, read exactly.

    A token of the writer's `p/q` form (an optional sign, ASCII digits,
    `/`, ASCII digits) is read as two ints.  Any other token that int()
    reads is that int: int() accepts a subset of Fraction's grammar
    (signs, leading zeros, underscores between digits) with the same
    value.  Only the rest (`1_0/3`, `1.5`, `1e400`) go through
    Fraction's string parser.  Every path gives Fraction(token)'s value
    or message, save that a zero denominator and an exponent beyond
    +-_MAX_EXPONENT are ValueErrors with messages of their own.
    """
    # a zero denominator is left to Fraction(token), which raises on it below
    if "/" in token and (ratio := _RATIO_RE.fullmatch(token)) and ratio[2].strip("0"):
        return Fraction(int(ratio[1]), int(ratio[2]))
    try:
        return int(token)
    except ValueError:
        pass
    exponent = _EXPONENT_RE.search(token)
    if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
        raise ValueError(f"rational {token!r} has an exponent beyond +-{_MAX_EXPONENT}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"rational {token!r} has a zero denominator") from None


def _variables(names: Sequence[str]) -> tuple[str, ...]:
    vars = tuple(names)
    for i, name in enumerate(vars):
        if name in vars[:i]:
            raise ValueError(f"variable {name!r} is declared twice")
    return vars


def parse_groups(text: str, vars: Sequence[str], separator: str,
                 where: str) -> list[list[int]]:
    """Variable groups such as `a,b|c,d` as lists of indices into vars.

    The text splits into groups at separator and each group into names at
    commas, blanks around a name ignored.  An empty group or a name not in
    vars is a ValueError naming where, the text's source (`order header`,
    `--partition`, `--order`).
    """
    index = {name: i for i, name in enumerate(vars)}
    groups = []
    for group in text.split(separator):
        names = [name.strip() for name in group.split(",") if name.strip()]
        if not names:
            raise ValueError(f"empty group in {where}")
        try:
            groups.append([index[name] for name in names])
        except KeyError as bad:
            raise ValueError(f"{where} names unknown variable {bad.args[0]!r}") from None
    return groups


# ---------------------------------------------------------------------------
# polynomial files
# ---------------------------------------------------------------------------

def format_poly_file(p: Poly) -> str:
    return f"vars: {' '.join(p.vars)}\n{p}\n"


def parse_poly_file(text: str, default_vars: Sequence[str] | None = None) -> Poly:
    """Parse a polynomial file; a missing `vars:` header falls back to default_vars."""
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[0].strip().startswith("vars:"):
        vars = _variables(lines[0].strip()[len("vars:"):].split())
        body = " ".join(lines[1:])
    elif default_vars is not None:
        vars = _variables(default_vars)
        body = " ".join(lines)
    else:
        raise ValueError("polynomial file lacks a 'vars:' header and no variable order was given")
    if not vars:
        raise ValueError("empty variable list")
    if not body.strip():
        raise ValueError("polynomial file has no expression")
    return parse_poly(body, vars)


# ---------------------------------------------------------------------------
# matrix blocks
# ---------------------------------------------------------------------------

def _row_lines(m: QMatrix) -> list[str]:
    """One line of space-separated rationals per row: the zero row, stored nonzeros set in.

    Column j of the zero row is its character 2j, so a row is the slices
    of the zero row between its sorted nonzeros, and an empty row is the
    zero row itself.  An entry x over den != 1 is written from ints as
    `x//g` or `x//g/den//g`, g = gcd(x, den): the text of Fraction(x, den).
    """
    den, zero, lines = m.den, " ".join(["0"] * m.cols), []
    for row in m.entries:
        parts, at = [], 0
        for j in sorted(row):
            x = row[j]
            if den != 1:
                g = gcd(x, den)
                x = x // g if g == den else f"{x // g}/{den // g}"
            parts += zero[at:2 * j], str(x)
            at = 2 * j + 1
        lines.append("".join(parts) + zero[at:] if parts else zero)
    return lines


def format_matrix(m: QMatrix) -> str:
    return "\n".join([f"{m.rows} {m.cols}", *_row_lines(m)]) + "\n"


# ---------------------------------------------------------------------------
# Waring files
# ---------------------------------------------------------------------------

def format_waring_file(w: WaringDecomposition) -> str:
    lines = [f"waring d={w.degree} n={w.arity}"]
    for coeff, form in w.terms:
        lines.append(f"{coeff}: {' '.join(str(a) for a in form)}")
    return "\n".join(lines) + "\n"


def parse_waring_file(text: str) -> WaringDecomposition:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("missing 'waring' header")
    magic, *parts = lines[0].split()
    if magic != "waring":
        raise ValueError(f"missing 'waring' header: the file starts with {magic!r}")
    fields = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"waring header field {part!r} is not of the form key=value")
        if key not in ("d", "n"):
            raise ValueError(f"unknown waring header field {part!r}")
        if key in fields:
            raise ValueError(f"repeated waring header field {part!r}")
        fields[key] = value
    try:
        degree, arity = int(fields["d"]), int(fields["n"])
    except KeyError as missing:
        raise ValueError(f"waring header lacks {missing}") from None
    terms = []
    for line in lines[1:]:
        if ":" not in line:
            raise ValueError(f"malformed waring term {line!r}")
        head, tail = line.split(":", 1)
        form = tuple(_rational(tok) for tok in tail.split())
        if len(form) != arity:
            raise ValueError(f"term has {len(form)} coordinates, expected {arity}")
        terms.append((_rational(head.strip()), form))
    return WaringDecomposition(degree=degree, terms=tuple(terms))


# ---------------------------------------------------------------------------
# ABP files
# ---------------------------------------------------------------------------

def format_order(abp: Abp) -> str:
    """The layer order as the `order:` header writes it, e.g. `x2,x3,x1` or `a,b|c,d`."""
    groups = [",".join(abp.vars[var] for var in sorted(layer.variables()))
              for layer in abp.layers]
    separator = "|" if abp.kind == "set_multilinear" else ","
    return separator.join(groups)


def format_abp(abp: Abp) -> str:
    """The v1 text; a matrix object held by several blocks is formatted once."""
    lines = ["abp v1", f"kind: {abp.kind}", f"width: {abp.width}",
             f"vars: {' '.join(abp.vars)}", f"order: {format_order(abp)}"]
    lines.append(f"u: {' '.join(str(x) for x in abp.u)}")
    lines.append(f"v: {' '.join(str(x) for x in abp.v)}")
    # keyed by id: every matrix stays alive in abp for the whole call
    written: dict[int, list[str]] = {}
    for layer in abp.layers:
        for var, power, mat in layer.terms:
            lines.append(f"layer {abp.vars[var]} power {power}")
            if (rows := written.get(id(mat))) is None:
                rows = written[id(mat)] = _row_lines(mat)
            lines.extend(rows)
    return "\n".join(lines) + "\n"


def parse_abp(text: str) -> Abp:
    lines = [line for line in map(str.rstrip, text.splitlines()) if line]
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
    u = tuple(Fraction(_rational(x)) for x in headers["u"].split())
    v = tuple(Fraction(_rational(x)) for x in headers["v"].split())

    # layer blocks, grouped by variable; memo maps a row's line to its dict
    # and mats a block's lines to its matrix
    memo: dict[str, dict[int, int | Fraction]] = {}
    mats: dict[tuple[str, ...], QMatrix] = {}
    blocks: dict[int, list[tuple[int, QMatrix]]] = {}
    while at < len(lines):
        header = lines[at]
        parts = header.split()
        if len(parts) != 4 or parts[0] != "layer" or parts[2] != "power":
            raise ValueError(f"malformed layer header {header!r}")
        name, power = parts[1], int(parts[3])
        if (var := index.get(name)) is None:
            raise ValueError(f"layer for unknown variable {name!r}")
        if any(p == power for p, _ in blocks.get(var, [])):
            raise ValueError(f"repeated layer block {header!r}")
        key = tuple(lines[at + 1:at + 1 + width])
        at += 1 + width
        if (mat := mats.get(key)) is None:
            rows = []
            for i, line in enumerate(key):
                if (row := memo.get(line)) is None:
                    tokens = line.split()
                    if len(tokens) != width:
                        raise ValueError(f"row {i + 1} of {header!r} has {len(tokens)} entries, "
                                         f"expected {width}")
                    row = memo[line] = {j: x for j, t in enumerate(tokens)
                                        if t != "0" and (x := _rational(t))}
                rows.append(row)
            if len(rows) < width:
                raise ValueError("truncated layer block")
            mat = mats[key] = QMatrix.rational(width, width, rows)
        blocks.setdefault(var, []).append((power, mat))

    separator = "|" if kind == "set_multilinear" else ","
    order_groups = parse_groups(headers["order"], vars, separator, "order header")
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

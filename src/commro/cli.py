"""Command-line surface: generate, analyze, build, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors,
3 size cap exceeded (the message names the cap flag to raise).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

from .abp import (NisanCutReport, check_kind, eval_abp, expand_abp, nisan_width, nisan_widths,
                  permute_order)
from .apolar import multiplication_tables, normal_set
from .construct import (build_commro_general, build_diagro_from_waring,
                        build_smabp, waring_of_monomial)
from .detspecial import det_polynomial, palindrome, perm_polynomial
from .errors import DEFAULT_ENTRY_CAP, DEFAULT_TERM_CAP, CapExceeded
from .partials import derivative_basis
from .poly import Poly, mono_str
from .textio import (_variables, format_matrix, format_order, format_poly_file,
                     format_waring_file, parse_abp, parse_groups, parse_poly_file,
                     parse_waring_file, write_abp)

RANDOM_COORD_BOUND = 10 ** 6
# a random coordinate to the power k has about 20k bits; built programs
# have layer powers of at most f's largest exponent
DEFAULT_POWER_CAP = 1 << 12
# far above det7's w = 3432; without a cap, `x^99999999` closes a span of
# 10^8 dimensions whose coefficients grow factorially
DEFAULT_WIDTH_CAP = 1 << 13


def _read(path: str) -> str:
    return Path(path).read_text()


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _vars_flag(text: str) -> tuple[str, ...]:
    """The names of a --vars flag: distinct, each one word."""
    vars = _variables(text.split(","))
    for name in vars:
        if name.split() != [name]:
            raise ValueError(f"--vars name {name!r} is not one word")
    return vars


def _load_poly(path: str, vars_flag: str | None) -> Poly:
    """The polynomial of a file; --vars names a headerless file's variables or repeats its own."""
    default = _vars_flag(vars_flag) if vars_flag else None
    f = parse_poly_file(_read(path), default_vars=default)
    if default is not None and f.vars != default:
        raise ValueError(f"--vars {','.join(default)} differs from the file's "
                         f"'vars: {' '.join(f.vars)}'")
    return f


def _random_point(rng: random.Random, arity: int) -> list[int]:
    """arity int coordinates, uniform in [-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND].

    They are ints, not Fractions: eval_abp and Poly.eval read an int's
    numerator and denominator as they are.
    """
    return [rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(arity)]


def _cmd_dpd(args) -> int:
    basis = derivative_basis(_load_poly(args.poly, args.vars), args.max_width)
    print(basis.dimension)
    if args.basis:
        for g in basis.basis:
            print(g)
    return 0


def _cmd_normal_set(args) -> int:
    f = _load_poly(args.poly, args.vars)
    structure = normal_set(derivative_basis(f, args.max_width))
    for mono in structure.normal_set:
        print(mono_str(mono, f.vars))
    return 0


def _cmd_tables(args) -> int:
    f = _load_poly(args.poly, args.vars)
    structure = normal_set(derivative_basis(f, args.max_width))
    # every table is w x w, so the cap is checked before any is built
    entries = structure.dimension ** 2
    if entries > args.max_entries:
        raise CapExceeded(f"table for {f.vars[0]} has {entries} entries, "
                          f"cap is {args.max_entries}", flag="--max-entries")
    tables = multiplication_tables(structure).tables
    _write_output("".join(f"table {name}\n{format_matrix(table)}"
                          for name, table in zip(f.vars, tables)), args.output)
    return 0


def _waring_vars(vars_flag: str | None, arity: int) -> tuple[str, ...]:
    """The names --vars gives a Waring decomposition's variables, x1..xn without it."""
    if not vars_flag:
        return tuple(f"x{i + 1}" for i in range(arity))
    vars = _vars_flag(vars_flag)
    if len(vars) != arity:
        raise ValueError(f"--vars gives {len(vars)} names for the decomposition's "
                         f"{arity} variables")
    return vars


def _cmd_build(args) -> int:
    if args.partition and args.target != "smabp":
        raise ValueError(f"--partition applies to smabp only, not {args.target}")
    if args.max_entries is not None and args.target != "diagro":
        raise ValueError(f"--max-entries applies to diagro only, not {args.target}")
    if args.target == "diagro":
        w = parse_waring_file(_read(args.input))
        abp = build_diagro_from_waring(w, _waring_vars(args.vars, w.arity), args.max_width,
                                       args.max_entries or DEFAULT_ENTRY_CAP)
    else:
        f = _load_poly(args.input, args.vars)
        if args.target == "commro":
            abp = build_commro_general(f, args.max_width)
        else:
            if not args.partition:
                raise ValueError("smabp requires --partition")
            partition = parse_groups(args.partition, f.vars, "|", "--partition")
            abp = build_smabp(f, partition, args.max_width)
    # opened only now: a build that fails leaves an existing output file as
    # it was; the 1 MiB buffer takes many blocks per write call
    with open(args.output, "w", buffering=1 << 20) as out:
        write_abp(abp, out)
    print(f"wrote {args.output} (kind={abp.kind} width={abp.width})")
    return 0


def _cmd_nisan(args) -> int:
    f = _load_poly(args.poly, args.vars)

    def report(cut: NisanCutReport) -> None:
        names = ",".join(f.vars[i] for i in cut.order)
        ranks = " ".join(str(r) for r in cut.cut_ranks)
        print(f"order: {names} cut-ranks: {ranks} width: {cut.width} size: {cut.size}")

    if args.order:
        report(nisan_width(f, [var for (var,) in parse_groups(args.order, f.vars, ",", "--order")]))
    else:
        if f.arity > 6:
            raise ValueError("--all-orders is limited to 6 variables (720 orders)")
        for cut in nisan_widths(f, itertools.permutations(range(f.arity))):
            report(cut)
    return 0


def _cmd_verify(args) -> int:
    if args.max_terms is not None and not args.expand:
        raise ValueError("--max-terms applies to --expand only")
    if args.max_power is not None and args.expand:
        raise ValueError("--max-power applies to --random-eval only")
    max_power = DEFAULT_POWER_CAP if args.max_power is None else args.max_power
    abp = parse_abp(_read(args.abp))
    if args.random_eval is not None:
        top = max((k for layer in abp.layers for _, k, _ in layer.terms), default=0)
        if top > max_power:
            raise CapExceeded(f"layer power {top} exceeds the random-evaluation cap "
                              f"of {max_power}", flag="--max-power")
    f = _load_poly(args.against, args.vars)
    if args.random_eval is not None and f.max_individual_degree() > max_power:
        raise CapExceeded(f"exponent {f.max_individual_degree()} of the --against polynomial "
                          f"exceeds the random-evaluation cap of {max_power}",
                          flag="--max-power")
    if f.vars != abp.vars:
        print(f"verify FAILED: variable mismatch {f.vars} vs {abp.vars}")
        return 1

    kind = check_kind(abp)
    if not kind:
        print(f"verify FAILED: structural invariant of kind {abp.kind!r} violated")
        return 1
    if abp.kind == "general":
        print("kind general: ok (no invariant to check)")
    elif abp.kind == "diagonal":
        print(f"kind diagonal: ok ({kind.matrices} matrices diagonal)")
    else:
        steps = (f"{kind.power_steps} power steps k*A_k = A_(k-1)*A_1, one product each; "
                 if kind.power_steps else "")
        print(f"kind {abp.kind}: ok ({kind.matrices} matrices; {steps}{kind.pairs} basis pairs "
              f"checked by {kind.products} packed products)")

    # f's value at each seeded point, evaluated once for every layer order
    expected: list[tuple[list[int], Fraction]] = []
    if args.random_eval is not None:
        rng = random.Random(args.seed)
        for _ in range(args.random_eval):
            point = _random_point(rng, f.arity)
            expected.append((point, f.eval(point)))

    def check(program, label: str) -> bool:
        if args.expand:
            computed = expand_abp(program, max_terms=args.max_terms or DEFAULT_TERM_CAP)
            if computed != f:
                print(f"verify FAILED: {label} expansion differs")
                return False
            print(f"{label} expand: ok")
        else:
            for k, (point, value) in enumerate(expected):
                if eval_abp(program, point) != value:
                    print(f"verify FAILED: {label} differs at random point #{k}")
                    return False
            print(f"{label} random-eval: {args.random_eval} points ok (seed={args.seed})")
        return True

    if not check(abp, "program"):
        return 1
    if args.any_order:
        rng = random.Random(args.seed + 1)
        k = len(abp.layers)
        for trial in range(args.any_order):
            perm = list(range(k))
            rng.shuffle(perm)
            program = permute_order(abp, perm)
            if not check(program, f"order-{trial} ({format_order(program)})"):
                return 1
    print("verify OK")
    return 0


def _cmd_gen(args) -> int:
    # n! terms for det and perm, 2^n for palindrome; monomial-waring checks
    # its 2^(n-1) powers by expanding each to its C(2n-1, n) monomials.  The
    # count grows with n, so it is taken at k = 1, 2, ... only until it
    # passes the cap, before any term is built
    what, n = args.what, args.n
    if what in ("det", "perm"):
        counts = itertools.accumulate(range(1, n + 1), operator.mul)
    elif what == "palindrome":
        counts = (2 ** k for k in range(1, n + 1))
    else:  # monomial-waring
        counts = (2 ** (k - 1) * math.comb(2 * k - 1, k) for k in range(1, n + 1))
    for terms in counts:
        if terms > args.max_terms:
            raise CapExceeded(f"gen {what} {n} builds more than {args.max_terms} terms",
                              flag="--max-terms")
    if what == "det":
        text = format_poly_file(det_polynomial(n))
    elif what == "perm":
        text = format_poly_file(perm_polynomial(n))
    elif what == "palindrome":
        text = format_poly_file(palindrome(n))
    else:  # monomial-waring
        text = format_waring_file(waring_of_monomial(n))
    _write_output(text, args.output)
    return 0


def _int_at_least(minimum: int):
    """argparse type for a cap: an int of at least minimum, else usage error 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_POSITIVE = _int_at_least(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="commro",
        description="Compile polynomials into commutative read-once oblivious "
                    "branching programs and verify the artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_vars(p, help="comma-separated variable order for headerless files"):
        p.add_argument("--vars", help=help)

    def add_max_width(p):
        p.add_argument("--max-width", type=_POSITIVE, metavar="W", default=DEFAULT_WIDTH_CAP,
                       help="refuse (exit 3) once the derivative span (for build, the "
                            "program's width) exceeds W (default: %(default)s)")

    p = sub.add_parser("dpd", help="dimension of the span of all partial derivatives")
    p.add_argument("poly")
    p.add_argument("--basis", action="store_true", help="also print the basis polynomials")
    add_max_width(p)
    add_vars(p)
    p.set_defaults(func=_cmd_dpd)

    p = sub.add_parser("normal-set", help="normal set of the apolar ideal")
    p.add_argument("poly")
    add_max_width(p)
    add_vars(p)
    p.set_defaults(func=_cmd_normal_set)

    p = sub.add_parser("tables", help="apolar multiplication tables")
    p.add_argument("poly")
    p.add_argument("-o", "--output")
    p.add_argument("--max-entries", type=_POSITIVE, metavar="N", default=DEFAULT_ENTRY_CAP,
                   help="refuse (exit 3) to write tables of w*w > N entries (default: %(default)s)")
    add_max_width(p)
    add_vars(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("build", help="build a branching program artifact")
    p.add_argument("target", choices=("commro", "smabp", "diagro"))
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--partition", help="variable groups a,b|c,d (smabp only)")
    p.add_argument("--max-entries", type=_POSITIVE, metavar="N",
                   help="refuse (exit 3) to store more than N diagonal entries in the "
                        "layers, n*d*width for degree d in n variables (diagro only; "
                        f"default: {DEFAULT_ENTRY_CAP})")
    add_max_width(p)
    add_vars(p, "comma-separated variable order for headerless .poly files; for diagro, "
                "the names of the .waring file's variables (default: x1,...,xn)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("nisan", help="exact minimal ROABP width per variable order")
    p.add_argument("poly")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", help="comma-separated variable order")
    group.add_argument("--all-orders", action="store_true")
    add_vars(p)
    p.set_defaults(func=_cmd_nisan)

    p = sub.add_parser("verify", help="verify an ABP file against a polynomial")
    p.add_argument("abp")
    p.add_argument("--against", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expand", action="store_true", help="exact symbolic comparison")
    group.add_argument("--random-eval", type=_POSITIVE, metavar="K",
                       help="compare at K seeded random rational points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--any-order", type=_int_at_least(0), metavar="M", default=0,
                   help="also verify M random layer permutations, naming each order")
    p.add_argument("--max-terms", type=_POSITIVE, metavar="N",
                   help="refuse (exit 3) once --expand holds over N terms; --expand only "
                        f"(default: {DEFAULT_TERM_CAP})")
    p.add_argument("--max-power", type=_int_at_least(0), metavar="P",
                   help="refuse (exit 3) to --random-eval when a layer power or an "
                        "exponent of the --against polynomial is above P; --random-eval "
                        f"only (default: {DEFAULT_POWER_CAP})")
    add_vars(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate standard inputs")
    p.add_argument("what", choices=("det", "perm", "palindrome", "monomial-waring"))
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--max-terms", type=_POSITIVE, metavar="N", default=DEFAULT_TERM_CAP,
                   help="refuse (exit 3) to build more than N terms: n! for det "
                        "and perm, 2^n for palindrome, and for monomial-waring the "
                        "2^(n-1)*C(2n-1,n) of its expansion check (default: %(default)s)")
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv: list[str]) -> int:
    # exact numbers of any length are valid input and output; Python's default
    # int <-> str limit of 4300 digits (3.11, 3.10.7) would turn them into exit 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2
    try:
        return args.func(args)
    except CapExceeded as cap:
        print(f"error: {cap} (raise {cap.flag})", file=sys.stderr)
        return 3
    except (ValueError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

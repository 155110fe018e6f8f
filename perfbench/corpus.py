"""Seeded input corpora for the benchmark workloads.

A corpus is a list of input files plus the CLI operations run on them.
The program under test only ever sees the generated `.poly`/`.waring`
files; the benchmark keeps its own term-map copy of every polynomial
(`Input.terms`, exponent tuple -> int) for the independent references.

Structured inputs come from `commro gen`, as a user would make them.
Random inputs are drawn here from the seed, never by the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("det4", "palindrome", "random-small")

# The random-small family has this many members; `--seed` picks member
# seed % RANDOM_CORPORA, so every corpus the benchmark can run has
# recorded golden hashes.
RANDOM_CORPORA = 32

VERIFY_POINTS = 3

COEFFICIENTS = [c for c in range(-9, 10) if c]


@dataclass(frozen=True)
class Input:
    """One generated input file and the benchmark's own copy of its polynomial."""

    name: str
    path: Path
    vars: tuple[str, ...]
    terms: dict[tuple[int, ...], int]
    gen: tuple[str, ...] | None  # `commro gen` argv, or None when written here


@dataclass(frozen=True)
class Op:
    """One CLI call; `artifact` is the .abp a build writes or a verify reads."""

    command: str  # "build", "verify" or "nisan"
    label: str  # command plus target, e.g. "build-smabp"; names the request
    input: Input
    argv: tuple[str, ...]
    artifact: Path | None = None


@dataclass(frozen=True)
class Corpus:
    workload: str
    ops: tuple[Op, ...]


# ---------------------------------------------------------------------------
# the benchmark's own polynomials (independent of commro)
# ---------------------------------------------------------------------------

def _sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def det_terms(n: int, signed: bool = True) -> dict[tuple[int, ...], int]:
    """det_n (or perm_n when unsigned) over row-major variables x1_1..xn_n."""
    terms = {}
    for perm in itertools.permutations(range(n)):
        mono = [0] * (n * n)
        for i, j in enumerate(perm):
            mono[i * n + j] = 1
        terms[tuple(mono)] = _sign(perm) if signed else 1
    return terms


def det_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1))


def palindrome_terms(n: int) -> dict[tuple[int, ...], int]:
    """(x1 + y1)...(xn + yn) over x1..xn, y1..yn."""
    terms = {}
    for picks in itertools.product((0, 1), repeat=n):
        mono = [0] * (2 * n)
        for i, pick in enumerate(picks):
            mono[i + pick * n] = 1
        terms[tuple(mono)] = 1
    return terms


def palindrome_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(f"y{i}" for i in range(1, n + 1))


def _monomials(arity: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of the given total degree (stars and bars)."""
    slots = arity + degree - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in itertools.combinations(range(slots), arity - 1)]


def random_support(rng: random.Random, arity: int, degree: int, count: int,
                   homogeneous: bool) -> list[tuple[int, ...]]:
    """`count` distinct monomials of total degree at most `degree`.

    A homogeneous draw takes every monomial of exactly `degree`; a
    non-homogeneous one has a term of `degree`, a term of lower degree
    (the constant allowed) and the rest of any degree up to `degree`.
    """
    if homogeneous:
        return rng.sample(_monomials(arity, degree), count)
    top = rng.choice(_monomials(arity, degree))
    low = rng.choice([m for d in range(degree) for m in _monomials(arity, d)])
    rest = [m for d in range(degree + 1) for m in _monomials(arity, d) if m not in (top, low)]
    return [top, low] + rng.sample(rest, count - 2)


def poly_text(vars: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> str:
    """A `.poly` file in the CLI's input format."""
    text = ""
    for mono, coeff in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(vars, mono) if e]
        body = "*".join([str(abs(coeff))] + factors)
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} {body}" if text else body if coeff > 0 else f"-{body}"
    return f"vars: {' '.join(vars)}\n{text}\n"


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _ops_for(inp: Input, seed: int, builds: list[tuple[str, ...]], nisan: bool) -> list[Op]:
    """Each build, then a verify of each artifact, then the Nisan width."""
    poly = inp.path.with_suffix(".poly")
    ops = []
    for target, *extra in builds:
        abp = inp.path.with_name(f"{inp.name}.{target}.abp")
        ops.append(Op("build", f"build-{target}", inp,
                      ("build", target, str(inp.path), "-o", str(abp), *extra), abp))
    for build in list(ops):
        ops.append(Op("verify", f"verify-{build.argv[1]}", inp,
                      ("verify", str(build.artifact), "--against", str(poly),
                       "--random-eval", str(VERIFY_POINTS), "--seed", str(seed)),
                      build.artifact))
    if nisan:
        ops.append(Op("nisan", "nisan", inp, ("nisan", str(poly), "--order", ",".join(inp.vars))))
    return ops


def _random_inputs(directory: Path, corpus_index: int, count: int) -> list[Input]:
    """Input i has 3-6 variables, degree 2-5 and 2/4/6 terms by a fixed
    cycle; every third one is non-homogeneous, so the direct-sum builder
    runs.  The supports are drawn once, the same in every corpus, and
    the corpus seed draws the coefficients in [-9, 9] without 0.  The
    cost of an input hangs on its support (a single 6-variable support
    can take a fifth of the run), so fixing the supports keeps runs with
    different seeds comparable while their files and programs differ."""
    supports = random.Random(0)
    rng = random.Random(corpus_index)
    inputs = []
    for i in range(count):
        arity, degree, terms = 3 + i % 4, 2 + (i // 4) % 4, (2, 4, 6)[(i // 16) % 3]
        support = random_support(supports, arity, degree, terms, homogeneous=i % 3 != 2)
        poly = {m: rng.choice(COEFFICIENTS) for m in support}
        vars = tuple(f"x{k}" for k in range(1, arity + 1))
        inputs.append(Input(f"r{i:02d}", directory / f"r{i:02d}.poly", vars, poly, None))
    return inputs


def _structured(name: str, directory: Path, vars, terms, *gen: str) -> Input:
    suffix = ".waring" if gen[0] == "monomial-waring" else ".poly"
    return Input(name, directory / f"{name}{suffix}", vars, terms, ("gen", *gen))


def inputs_for(workload: str, seed: int, directory: Path) -> list[Input]:
    if workload == "det4":
        return [_structured("det3", directory, det_vars(3), det_terms(3), "det", "3"),
                _structured("perm3", directory, det_vars(3), det_terms(3, signed=False),
                            "perm", "3"),
                _structured("det4", directory, det_vars(4), det_terms(4), "det", "4")]
    if workload == "palindrome":
        return [_structured(f"pal{n}", directory, palindrome_vars(n), palindrome_terms(n),
                            "palindrome", str(n)) for n in (5, 6)]
    if workload == "random-small":
        return _random_inputs(directory, seed % RANDOM_CORPORA, 48) + [
            _structured("mw3", directory, ("x1", "x2", "x3"), {(1, 1, 1): 1},
                        "monomial-waring", "3")]
    if workload == "tiny":  # the self-check's corpus
        return [_structured("det2", directory, det_vars(2), det_terms(2), "det", "2"),
                _structured("pal3", directory, palindrome_vars(3), palindrome_terms(3),
                            "palindrome", "3")] + _random_inputs(directory, seed, 4)
    raise ValueError(f"unknown workload {workload!r}")


def make_corpus(workload: str, seed: int, directory: Path, run_cli) -> Corpus:
    """Write every input file into `directory`; `run_cli` is `commro.cli.run`."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = inputs_for(workload, seed, directory)
    ops: list[Op] = []
    for inp in inputs:
        kind = inp.gen[1] if inp.gen else "random"
        if inp.gen is None:
            inp.path.write_text(poly_text(inp.vars, inp.terms))
        elif run_cli([*inp.gen, "-o", str(inp.path)]) != 0:
            raise RuntimeError(f"commro {' '.join(inp.gen)} failed")
        if kind == "monomial-waring":
            # verify and nisan need the polynomial the Waring data decomposes
            inp.path.with_suffix(".poly").write_text(poly_text(inp.vars, inp.terms))
            ops += _ops_for(inp, seed, [("diagro",)], nisan=False)
        elif kind == "palindrome":
            n = len(inp.vars) // 2
            partition = "|".join(f"x{i},y{i}" for i in range(1, n + 1))
            ops += _ops_for(inp, seed, [("commro",), ("smabp", "--partition", partition)],
                            nisan=True)
        else:
            ops += _ops_for(inp, seed, [("commro",)], nisan=True)
    return Corpus(workload, tuple(ops))

"""Benchmark of the commro CLI: build, verify and nisan on seeded corpora.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload det4 --seed 1 --seconds 30 --trace 0

The CLI is driven in-process through `commro.cli.run(argv)` (imported
from the checkout's `src/`), so interpreter start-up is not timed.
With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics (see timed_run); with `--trace 1` it holds the
per-layer metrics of a traced pass (see spans.py), next to an untraced
pass for the tracing overhead.  End-to-end timings are in reference
seconds: wall time corrected for the host's drifting speed (speed.py).
Every op is checked: exit code 0, a `verify OK` line,
widths and Nisan cut ranks equal to references computed without the
compiler, and `.abp` bytes equal to the golden SHA-256 recorded at the
seed commit (goldens.json).  Work files go to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402

SETUP_REPS = 21
GOLDENS = HERE / "goldens.json"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_cli(src: Path):
    """Import commro afresh from `src` and return its cli module."""
    for key in [k for k in sys.modules if k == "commro" or k.startswith("commro.")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("commro.cli")
    except ImportError as missing:
        raise BenchError(f"cannot import commro from {src}: {missing}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"commro was imported from {cli.__file__}, not from {src}")
    return cli


def set_up(workload: str, seed: int, root: Path, reps: int = SETUP_REPS,
           meter: SpeedMeter | None = None):
    """Import commro, generate the corpus and write its files, `reps` times.

    Returns the last (cli, corpus) and the median set-up seconds, in
    reference seconds when a running `meter` is given.
    """
    src = root / "src"
    if not (src / "commro" / "__init__.py").is_file():
        raise BenchError(f"no commro source tree under {src}")
    directory = root / ".perfbench_work" / f"{workload}-{seed}"
    spans = []
    for _ in range(reps):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        cli = load_cli(src)
        corpus = corpora.make_corpus(workload, seed, directory, cli.run)
        spans.append((start, time.perf_counter()))
    seconds = meter.seconds if meter is not None else lambda start, end: end - start
    return cli, corpus, statistics.median(seconds(*span) for span in spans)


# ---------------------------------------------------------------------------
# one pass over the corpus
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    op: corpora.Op
    code: int
    output: str
    start: float  # perf_counter readings around the call
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_pass(cli, corpus: corpora.Corpus, tracer: Tracer | None = None) -> list[Outcome]:
    outcomes = []
    for op in corpus.ops:
        if tracer is not None:
            tracer.request = f"{corpus.workload}/{op.input.name}/{op.label}"
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.run(list(op.argv))
            except Exception as crash:  # a traceback from the CLI is a failed op
                code = 1
                print(f"uncaught {type(crash).__name__}: {crash}")
        outcomes.append(Outcome(op, code, out.getvalue(), start, time.perf_counter()))
    return outcomes


def totals(outcomes: list[Outcome], seconds=lambda o: o.seconds) -> dict[str, float]:
    out = {"build": 0.0, "verify": 0.0, "nisan": 0.0}
    for o in outcomes:
        out[o.op.command] += seconds(o)
    return out


# ---------------------------------------------------------------------------
# checks against references independent of the compiler
# ---------------------------------------------------------------------------

def golden_key(workload: str, seed: int) -> str:
    if workload == "random-small":
        return f"{workload}/{seed % corpora.RANDOM_CORPORA}"
    if workload == "tiny":
        return f"{workload}/{seed}"
    return workload


def artifact_width(data: bytes) -> int | None:
    """The `width:` header of an emitted .abp; None when missing or malformed."""
    for line in data.decode("ascii", "replace").splitlines():
        if line.startswith("width:"):
            value = line.split(":", 1)[1].strip()
            return int(value) if value.isdigit() else None
    return None


class Checker:
    """Judges each op outcome; `failures` collects one line per failed op."""

    def __init__(self, goldens: dict[str, list]):
        self.goldens = goldens
        self.failures: list[str] = []
        self.attempted = 0
        self.artifacts: dict[str, tuple[int, int]] = {}  # name -> (bytes, width) last seen
        self._cut_ranks: dict[str, list[int]] = {}

    def expected_width(self, op: corpora.Op) -> int | None:
        width = reference.closed_form_width(op.input.gen)
        if width is None:
            width = self.goldens.get(op.artifact.name, (None, None))[1]
        return width

    def problem(self, o: Outcome) -> str | None:
        """Why the op failed, or None when it passed."""
        op = o.op
        if o.code != 0:
            return f"exit code {o.code}: {o.output.strip()[-200:]}"
        if op.command == "verify":
            return None if "verify OK" in o.output.splitlines() else "no 'verify OK' line"
        if op.command == "nisan":
            if op.input.name not in self._cut_ranks:
                self._cut_ranks[op.input.name] = reference.nisan_cut_ranks(
                    op.input.terms, len(op.input.vars))
            expected = self._cut_ranks[op.input.name]
            got = o.output.split("cut-ranks:", 1)[-1].split("width:", 1)[0].split()
            return None if got == [str(r) for r in expected] else \
                f"cut ranks {' '.join(got)} != reference {expected}"
        data = op.artifact.read_bytes() if op.artifact.is_file() else b""
        width = artifact_width(data)
        self.artifacts[op.artifact.name] = (len(data), width or 0)
        expected = self.expected_width(op)
        if width != expected:
            return f"width {width} != reference {expected}"
        golden = self.goldens.get(op.artifact.name, (None, None))[0]
        digest = hashlib.sha256(data).hexdigest()
        if digest != golden:
            return f"sha256 {digest[:12]} != golden {str(golden)[:12]}"
        return None

    def check(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            why = self.problem(o)
            if why is not None:
                self.failures.append(f"{o.op.input.name}/{o.op.label}: {why}")


def load_goldens(workload: str, seed: int) -> dict[str, list]:
    """Artifact name -> [SHA-256, reference width] for this corpus."""
    table = json.loads(GOLDENS.read_text())
    key = golden_key(workload, seed)
    if key not in table:
        raise BenchError(f"goldens.json has no entry {key!r}")
    return table[key]


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

TIMED_LAYERS = ["partials.derivative_basis", "poly.derive", "apolar.normal_set",
                "apolar.multiplication_tables", "linalg.matmul", "linalg.qmatrix_init",
                "linalg.inverse", "linalg.vec_mat", "linalg.rank", "construct.build_commro",
                "construct.build_commro_general", "abp.check_kind", "abp.eval_abp",
                "abp.nisan_width", "textio.parse_abp", "textio.format_abp",
                "textio.parse_poly_file", "poly.eval", "cli.run"]
# The smabp and diagonal builders run on one workload each; as self times
# they would read exactly 0 on every run of the others, so they are counted.
COUNTED_CALLS = ["poly.derive", "linalg.matmul", "linalg.commute", "linalg.qmatrix_init",
                 "linalg.rank", "construct.build_smabp", "construct.build_diagro"]


def candidates_scanned(q, monomials_upto) -> int:
    """Deg-lex position of the last normal-set monomial among the candidates."""
    last = q.normal_set[-1]
    for position, mono in enumerate(monomials_upto(len(q.vars), q.basis.source.total_degree()), 1):
        if mono == last:
            return position
    raise AssertionError("normal-set monomial not among the candidates")


def _nnz(matrices) -> tuple[int, int]:
    return (sum(1 for m in matrices for row in m.data for x in row if x),
            sum(m.rows * m.cols for m in matrices))


def layer_metrics(tracer: Tracer, monomials_upto) -> dict[str, tuple[float, str]]:
    self_times, calls = tracer.self_times(), tracer.calls()
    metrics = {f"{name}_s": (self_times[name], "s") for name in TIMED_LAYERS}
    metrics.update({f"{name}_calls": (calls[name], "count") for name in COUNTED_CALLS})
    counts = dict.fromkeys(["apolar.candidates_scanned", "apolar.table_nnz",
                            "apolar.table_entries", "construct.width", "construct.coeff_nnz",
                            "construct.coeff_entries", "construct.max_coeff_bits"], 0)
    for name, value in tracer.results:
        if name == "apolar.normal_set":
            counts["apolar.candidates_scanned"] += candidates_scanned(value, monomials_upto)
        elif name == "apolar.multiplication_tables":
            nnz, entries = _nnz(value.tables)
            counts["apolar.table_nnz"] += nnz
            counts["apolar.table_entries"] += entries
        else:  # a program returned to the CLI by one of the builders
            nnz, entries = _nnz(value.coefficient_matrices())
            counts["construct.width"] += value.width
            counts["construct.coeff_nnz"] += nnz
            counts["construct.coeff_entries"] += entries
            values = [x for m in value.coefficient_matrices() for row in m.data for x in row]
            bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                       for x in values + list(value.u) + list(value.v))
            counts["construct.max_coeff_bits"] = max(counts["construct.max_coeff_bits"], bits)
    metrics.update({name: (value, "bits" if name.endswith("_bits") else "count")
                    for name, value in counts.items()})
    return metrics


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(cli, corpus, checker: Checker, seconds: float,
              meter: SpeedMeter) -> dict[str, tuple[float, str]]:
    """One pass over every op, then extra rounds while the budget lasts.

    After the pass, the command (build, verify or nisan) with the least
    wall time measured so far gets another round of its own ops, as long
    as that round, judged by its last one, ends within `seconds`.  Each
    command reports the median of its rounds in reference seconds, so
    the short totals rest on many samples instead of one.
    """
    start = time.perf_counter()

    def measure(part: corpora.Corpus) -> list[Outcome]:
        gc.collect()
        outcomes = run_pass(cli, part)
        checker.check(outcomes)
        return outcomes

    first = measure(corpus)
    rounds = {command: [[o for o in first if o.op.command == command]]
              for command in totals(first)}
    parts = {command: replace(corpus, ops=tuple(op for op in corpus.ops if op.command == command))
             for command in rounds}
    wall = {command: [totals(r[0])[command]] for command, r in rounds.items()}
    while True:
        command = min((c for c in rounds if parts[c].ops), key=lambda c: sum(wall[c]))
        if time.perf_counter() - start + wall[command][-1] > seconds:
            break
        rounds[command].append(measure(parts[command]))
        wall[command].append(totals(rounds[command][-1])[command])
    reference = {command: statistics.median(
        totals(r, lambda o: meter.seconds(o.start, o.end))[command] for r in rs)
        for command, rs in rounds.items()}
    for command, rs in rounds.items():
        print(f"  {command}: {len(rs)} rounds, median wall {statistics.median(wall[command]):.6f} s")
    speeds = meter.speeds()
    print(f"  host speed: median {statistics.median(speeds):.4f}, range "
          f"{min(speeds):.4f}-{max(speeds):.4f} of the reference over {len(speeds)} samples")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "build_s": (reference["build"], "s"),
        "verify_s": (reference["verify"], "s"),
        "nisan_s": (reference["nisan"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "abp_bytes": (sum(size for size, _ in checker.artifacts.values()), "bytes"),
        "width_sum": (sum(width for _, width in checker.artifacts.values()), "count"),
    }


def traced_run(cli, corpus, checker: Checker, spans_path: Path) -> dict[str, tuple[float, str]]:
    """An untraced pass, then a traced one; the difference is the overhead."""
    untraced = run_pass(cli, corpus)
    checker.check(untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, corpus, tracer)
    finally:
        tracer.uninstall()
    checker.check(traced)
    tracer.write(spans_path)
    traced_total = sum(o.seconds for o in traced)
    untraced_total = sum(o.seconds for o in untraced)
    metrics = layer_metrics(tracer, sys.modules["commro.poly"].monomials_upto)
    self_sum = sum(tracer.self_times().values())
    if self_sum > traced_total:
        checker.failures.append(f"layer self times {self_sum:.6f} s exceed the traced "
                                f"total {traced_total:.6f} s")
    metrics.update({"trace.traced_total_s": (traced_total, "s"),
                    "trace.untraced_total_s": (untraced_total, "s"),
                    "trace.overhead_s": (traced_total - untraced_total, "s")})
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    goldens = load_goldens(workload, seed)
    checker = Checker(goldens)
    work = root / ".perfbench_work"
    try:
        if trace:
            cli, corpus, _ = set_up(workload, seed, root, reps=1)
            metrics = traced_run(cli, corpus, checker, work / f"spans-{workload}-{seed}.jsonl")
        else:
            with SpeedMeter() as meter:
                cli, corpus, setup_s = set_up(workload, seed, root, meter=meter)
                metrics = timed_run(cli, corpus, checker, seconds, meter)
            metrics["setup_s"] = (setup_s, "s")
            metrics["ok_ratio"] = (1 - len(checker.failures) / checker.attempted, "ratio")
    finally:
        shutil.rmtree(work / f"{workload}-{seed}", ignore_errors=True)
    for line in checker.failures:
        print(f"FAILED {line}")
    print(f"{workload} seed {seed}: failed_ratio {len(checker.failures)}/{checker.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    return {"correct": not checker.failures, "attempted": checker.attempted,
            "failed": len(checker.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as bad:
        print(f"perfbench: {bad}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

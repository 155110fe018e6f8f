"""Alternating A/B timing of two checkouts on one benchmark corpus.

    python tools/ab.py PARENT CHANGE --workload det4 --seed 1,11 --command nisan,verify --rounds 8

PARENT and CHANGE are the roots of two source checkouts.  Each tree's
commro is imported afresh from its `src/` (as perfbench/run.py's
load_cli does), and both stay loaded side by side.  The perfbench
corpus of the workload and seed is written once, into a temporary
directory, and one full pass of the parent writes the `.abp` files
that verify reads; one untimed pass of the command's ops warms the
change.  Then each round runs the ops of the command once
on each side, the side that goes first alternating, and asserts that
every op passed (exit 0, and for verify a `verify OK` line, as
perfbench/run.py's Checker requires) and that both sides printed the
same output (for build, also the same `.abp` bytes); a round whose
sides differ ends the run with a message that names the first op that
differs, by input and label, and its first differing stdout line or
`.abp` byte.
A pass's time is the sum of its ops' seconds, the CLI driven
in-process as perfbench/run.py drives it, in reference seconds: the
rounds run under perfbench's SpeedMeter, which corrects each op's wall
time for the host's drifting speed as run.py's timings are corrected.

--seed takes one seed or a comma list (`1,11`): the corpus is made once
per seed, in the order given.  --command takes one command or a comma
list (`nisan,verify,build`): on each seed's corpus the rounds and the
report are made once per command, in the order given.  After a
command's rounds, one line per round gives both passes in reference and
in wall seconds, and then one JSON line reports them: for each side the median,
the minimum and the interquartile range of its pass seconds and the
rounds it won, in reference seconds and again in wall seconds
(`_wall_s`, `wall_wins`), and the ratio of the medians, change over
parent, in both.  A change is within noise when the gap between the
medians is inside the parent's IQR; it claims a gain when it wins at
least 9 of 10 rounds and the gap is wider than that IQR.  Alternating
pairs keep the comparison fair on a host whose speed drifts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus as corpora  # noqa: E402
from run import Outcome, run_pass  # noqa: E402
from speed import SpeedMeter  # noqa: E402

COMMANDS = ("build", "verify", "nisan")


def load_cli(root: Path):
    """The cli module of the commro under root/src, imported afresh."""
    for key in [k for k in sys.modules if k == "commro" or k.startswith("commro.")]:
        del sys.modules[key]
    src = str(root.resolve() / "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("commro.cli")
    finally:
        sys.path.remove(src)
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"commro was imported from {cli.__file__}, not from {src}")
    return cli


def timed_pass(cli, corpus, where: str) -> tuple[list[Outcome], list]:
    """(outcomes, what the pass printed and wrote) of one pass over the corpus.

    An op that failed ends the run with a message that begins with where.
    """
    gc.collect()
    outcomes = run_pass(cli, corpus)
    for o in outcomes:
        if o.code != 0 or o.op.command == "verify" and "verify OK" not in o.output.splitlines():
            raise SystemExit(f"{where}: {o.op.input.name} {o.op.label} failed (exit {o.code}): "
                             f"{o.output.strip()[-200:]}")
    seen = [(o.code, o.output, o.op.artifact.read_bytes() if o.op.command == "build" else None)
            for o in outcomes]
    return outcomes, seen


def first_difference(outcomes: list[Outcome], parent: list, change: list) -> str:
    """The first op whose output differs between the sides, and where it first differs.

    parent and change are what timed_pass saw of each op on each side:
    the exit code, stdout and, for build, the `.abp` bytes.  Both sides
    exited 0, so an op that differs differs in stdout or in its bytes.
    """
    o, (_, p_out, p_abp), (_, c_out, c_abp) = next(
        (o, p, c) for o, p, c in zip(outcomes, parent, change) if p != c)
    where = f"{o.op.input.name} {o.op.label}"
    for i, (a, b) in enumerate(itertools.zip_longest(p_out.split("\n"), c_out.split("\n"))):
        if a != b:
            return f"{where}, stdout line {i + 1}: parent {a!r}, change {b!r}"
    i = next((i for i, (a, b) in enumerate(zip(p_abp, c_abp)) if a != b),
             min(len(p_abp), len(c_abp)))
    return f"{where}, .abp byte {i}: parent {p_abp[i:i + 1]!r}, change {c_abp[i:i + 1]!r}"


def iqr(times: list[float]) -> float:
    """The interquartile range of the times (inclusive quartiles); 0 for one time."""
    if len(times) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q3 - q1


def summary(seconds: dict[str, list[float]]) -> dict[str, tuple[float, float, float, int]]:
    """Per side (median, minimum, IQR, rounds won) of its pass seconds.

    A tie goes to the parent.
    """
    change_wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    wins = {"parent": len(seconds["parent"]) - change_wins, "change": change_wins}
    return {side: (statistics.median(times), min(times), iqr(times), wins[side])
            for side, times in seconds.items()}


def seeds(text: str) -> list[int]:
    """The seeds of a --seed value: one int, or a comma list such as `1,11`."""
    return [int(part) for part in text.split(",")]


def commands(text: str) -> list[str]:
    """The commands of a --command value: one, or a comma list such as `nisan,verify,build`."""
    names = text.split(",")
    if not set(names) <= set(COMMANDS):
        raise ValueError(text)
    return names


def compare(sides: dict, workload: str, seed: int, names: list[str], rounds: int) -> None:
    """Time the rounds of each command on one seed's corpus, reporting each command in turn."""
    with tempfile.TemporaryDirectory() as directory:
        corpus = corpora.make_corpus(workload, seed, Path(directory), sides["parent"].run)
        run_pass(sides["parent"], corpus)  # writes the .abp files that verify reads
        for command in names:
            ops = [op for op in corpus.ops if op.command == command]
            time_command(sides, corpora.Corpus(corpus.workload, tuple(ops)), seed, command,
                         rounds)


def time_command(sides: dict, corpus, seed: int, command: str, rounds: int) -> None:
    """Time the rounds of the corpus's ops; print a line per round, then the JSON report."""
    run_pass(sides["change"], corpus)  # warms the change as the full pass warmed the parent
    outcomes: dict[str, list[list[Outcome]]] = {side: [] for side in sides}
    with SpeedMeter() as meter:
        for r in range(rounds):
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            passes = {side: timed_pass(sides[side], corpus, f"round {r + 1}, {side}")
                      for side in order}
            if passes["parent"][1] != passes["change"][1]:
                raise SystemExit(f"round {r + 1}: the two sides' output differs at "
                                 f"{first_difference(*passes['parent'], passes['change'][1])}")
            for side in sides:
                outcomes[side].append(passes[side][0])
    seconds = {side: [sum(meter.seconds(o.start, o.end) for o in rs) for rs in outcomes[side]]
               for side in sides}
    wall = {side: [sum(o.seconds for o in rs) for rs in outcomes[side]] for side in sides}
    for r in range(rounds):
        print(f"round {r + 1}: parent {seconds['parent'][r]:.6f} s "
              f"(wall {wall['parent'][r]:.6f} s), change {seconds['change'][r]:.6f} s "
              f"(wall {wall['change'][r]:.6f} s)")
    report = {"workload": corpus.workload, "seed": seed, "command": command,
              "rounds": rounds, "ops": len(corpus.ops)}
    reference, walls = summary(seconds), summary(wall)
    keys = ("median_s", "min_s", "iqr_s", "wins",
            "median_wall_s", "min_wall_s", "iqr_wall_s", "wall_wins")
    for side in sides:
        report[side] = dict(zip(keys, reference[side] + walls[side]))
    report["ratio"] = report["change"]["median_s"] / report["parent"]["median_s"]
    report["wall_ratio"] = report["change"]["median_wall_s"] / report["parent"]["median_wall_s"]
    print(json.dumps(report), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[*corpora.WORKLOADS, "tiny"])
    parser.add_argument("--seed", type=seeds, default=[1])
    parser.add_argument("--command", type=commands, required=True,
                        help=f"one of {', '.join(COMMANDS)}, or a comma list of them")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"parent": load_cli(args.parent), "change": load_cli(args.change)}
    for seed in args.seed:
        compare(sides, args.workload, seed, args.command, args.rounds)
    return 0

if __name__ == "__main__":
    sys.exit(main())

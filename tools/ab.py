"""Alternating A/B timing of two checkouts on one benchmark corpus.

    python tools/ab.py PARENT CHANGE --workload det4 --seed 1 --command verify --rounds 8

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
same output (for build, also the same `.abp` bytes).
A pass's time is the sum of its ops' seconds, the CLI driven
in-process as perfbench/run.py drives it, in reference seconds: the
rounds run under perfbench's SpeedMeter, which corrects each op's wall
time for the host's drifting speed as run.py's timings are corrected.

After the rounds, one line per round gives both passes in reference
and in wall seconds.  The last line is JSON: for each side the median
and the minimum pass seconds and the rounds it won, in reference
seconds and again in wall seconds (`_wall_s`, `wall_wins`), and the
ratio of the medians, change over parent, in both.  Alternating pairs
keep the comparison fair on a host whose speed drifts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus as corpora  # noqa: E402
from run import Outcome, run_pass  # noqa: E402
from speed import SpeedMeter  # noqa: E402


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


def summary(seconds: dict[str, list[float]]) -> dict[str, tuple[float, float, int]]:
    """Per side (median, minimum, rounds won) of its pass seconds; a tie goes to the parent."""
    change_wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    wins = {"parent": len(seconds["parent"]) - change_wins, "change": change_wins}
    return {side: (statistics.median(times), min(times), wins[side])
            for side, times in seconds.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[*corpora.WORKLOADS, "tiny"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--command", required=True, choices=["build", "verify", "nisan"])
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"parent": load_cli(args.parent), "change": load_cli(args.change)}
    with tempfile.TemporaryDirectory() as directory:
        corpus = corpora.make_corpus(args.workload, args.seed, Path(directory),
                                     sides["parent"].run)
        run_pass(sides["parent"], corpus)  # writes the .abp files that verify reads
        ops = [op for op in corpus.ops if op.command == args.command]
        corpus = corpora.Corpus(corpus.workload, tuple(ops))
        run_pass(sides["change"], corpus)  # warms the change as that pass warmed the parent
        outcomes: dict[str, list[list[Outcome]]] = {side: [] for side in sides}
        with SpeedMeter() as meter:
            for r in range(args.rounds):
                order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
                passes = {side: timed_pass(sides[side], corpus, f"round {r + 1}, {side}")
                          for side in order}
                if passes["parent"][1] != passes["change"][1]:
                    raise SystemExit(f"round {r + 1}: the two sides' output differs")
                for side in sides:
                    outcomes[side].append(passes[side][0])
    seconds = {side: [sum(meter.seconds(o.start, o.end) for o in rs) for rs in outcomes[side]]
               for side in sides}
    wall = {side: [sum(o.seconds for o in rs) for rs in outcomes[side]] for side in sides}
    for r in range(args.rounds):
        print(f"round {r + 1}: parent {seconds['parent'][r]:.6f} s "
              f"(wall {wall['parent'][r]:.6f} s), change {seconds['change'][r]:.6f} s "
              f"(wall {wall['change'][r]:.6f} s)")
    report = {"workload": args.workload, "seed": args.seed, "command": args.command,
              "rounds": args.rounds, "ops": len(ops)}
    reference, walls = summary(seconds), summary(wall)
    keys = ("median_s", "min_s", "wins", "median_wall_s", "min_wall_s", "wall_wins")
    for side in sides:
        report[side] = dict(zip(keys, reference[side] + walls[side]))
    report["ratio"] = report["change"]["median_s"] / report["parent"]["median_s"]
    report["wall_ratio"] = report["change"]["median_wall_s"] / report["parent"]["median_wall_s"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
A pass's time is the sum of its ops' wall seconds, the CLI driven
in-process as perfbench/run.py drives it.

The last line is JSON: for each side the median and the minimum pass
seconds and the rounds it won, and the ratio of the medians, change
over parent.  Alternating pairs keep the comparison fair on a host
whose speed drifts.
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
from run import run_pass  # noqa: E402


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


def timed_pass(cli, corpus, where: str) -> tuple[float, list]:
    """(seconds, what the pass printed and wrote) of one pass over the corpus.

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
    return sum(o.seconds for o in outcomes), seen


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
        seconds: dict[str, list[float]] = {side: [] for side in sides}
        wins = dict.fromkeys(sides, 0)
        for r in range(args.rounds):
            order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
            passes = {side: timed_pass(sides[side], corpus, f"round {r + 1}, {side}")
                      for side in order}
            if passes["parent"][1] != passes["change"][1]:
                raise SystemExit(f"round {r + 1}: the two sides' output differs")
            for side in sides:
                seconds[side].append(passes[side][0])
            wins[min(sides, key=lambda side: passes[side][0])] += 1
            print(f"round {r + 1}: parent {passes['parent'][0]:.6f} s, "
                  f"change {passes['change'][0]:.6f} s")
    report = {"workload": args.workload, "seed": args.seed, "command": args.command,
              "rounds": args.rounds, "ops": len(ops)}
    for side in sides:
        report[side] = {"median_s": statistics.median(seconds[side]),
                        "min_s": min(seconds[side]), "wins": wins[side]}
    report["ratio"] = report["change"]["median_s"] / report["parent"]["median_s"]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

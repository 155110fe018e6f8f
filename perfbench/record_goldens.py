"""Record the golden references in goldens.json.

Run once, from the root of a checkout of the commit the goldens belong
to:

    python3 perfbench/record_goldens.py

For every build artifact of every corpus (the det4 and palindrome
corpora, each member of the random-small family, and the self-check's
tiny corpus at seed 0) it stores [SHA-256 of the emitted `.abp`,
expected width], one corpus per line.  Widths of structured inputs have closed forms
(reference.closed_form_width); widths of random inputs are computed
here with sympy (reference.dpd_by_sympy), never by the compiler.  The
recording aborts if an emitted width differs from its reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus as corpora  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def record(workload: str, seed: int, root: Path) -> dict[str, dict]:
    cli, corpus, _ = run.set_up(workload, seed, root, reps=1)
    builds = replace(corpus, ops=tuple(op for op in corpus.ops if op.command == "build"))
    entries = {}
    try:
        for outcome in run.run_pass(cli, builds):
            op = outcome.op
            if outcome.code != 0:
                raise SystemExit(f"{op.argv} exited {outcome.code}: {outcome.output}")
            data = op.artifact.read_bytes()
            width = reference.closed_form_width(op.input.gen)
            if width is None:
                width = reference.dpd_by_sympy(op.input.terms)
            if run.artifact_width(data) != width:
                raise SystemExit(f"{op.artifact.name}: emitted width "
                                 f"{run.artifact_width(data)} != reference {width}")
            entries[op.artifact.name] = [hashlib.sha256(data).hexdigest(), width]
    finally:
        shutil.rmtree(root / ".perfbench_work" / f"{workload}-{seed}", ignore_errors=True)
    return entries


def main() -> None:
    root = Path.cwd()
    goldens = {"det4": record("det4", 0, root), "palindrome": record("palindrome", 0, root)}
    for index in range(corpora.RANDOM_CORPORA):
        goldens[f"random-small/{index}"] = record("random-small", index, root)
        print(f"random-small/{index} recorded", flush=True)
    goldens["tiny/0"] = record("tiny", 0, root)
    write_goldens(goldens)
    print(f"wrote {run.GOLDENS}")


def write_goldens(goldens: dict[str, dict]) -> None:
    lines = [f"{json.dumps(key)}: {json.dumps(entries, sort_keys=True)}"
             for key, entries in goldens.items()]
    run.GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()

"""Self-check of the benchmark on a tiny corpus.

Run from the root of a checkout (about ten seconds):

    python3 perfbench/selfcheck.py

The tiny corpus is det2, palindrome 3 and four random polynomials.  The
check asserts that
* every metric BENCHMARK.json names is printed, with its unit, in both
  the timed and the traced mode, and nothing else is;
* no op fails;
* the exact counts repeat across two runs;
* an `.abp` with one altered byte is reported as a failed op.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

EXACT = ("width_sum", "abp_bytes", "construct.width", "construct.max_coeff_bits",
         "apolar.candidates_scanned")


def is_exact(name: str) -> bool:
    return name in EXACT or name.endswith(("_nnz", "_entries", "_calls"))


def quiet_benchmark(trace: bool, root: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.benchmark("tiny", 0, 0.0, trace, root)


def tampered_byte_fails(root: Path) -> bool:
    """Alter one byte of an emitted .abp; exactly that build must fail."""
    cli, corpus, _ = run.set_up("tiny", 0, root, reps=1)
    try:
        outcomes = run.run_pass(cli, corpus)
        build = next(o for o in outcomes if o.op.command == "build")
        data = bytearray(build.op.artifact.read_bytes())
        at = data.rindex(b"\n", 0, len(data) - 1) + 1  # first byte of the last row
        data[at] = ord("7") if data[at] != ord("7") else ord("3")
        build.op.artifact.write_bytes(bytes(data))
        checker = run.Checker(run.load_goldens("tiny", 0))
        checker.check(outcomes)
        failed_ops = [line.split(":", 1)[0] for line in checker.failures]
        return failed_ops == [f"{build.op.input.name}/{build.op.label}"]
    finally:
        shutil.rmtree(root / ".perfbench_work" / "tiny-0", ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        first, second = quiet_benchmark(trace, root), quiet_benchmark(trace, root)
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in first["metrics"].items()}
        if printed != expected:
            problems.append(f"{section}: printed {printed}, BENCHMARK.json names {expected}")
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{section}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
        for name, m in first["metrics"].items():
            if is_exact(name) and m["value"] != second["metrics"][name]["value"]:
                problems.append(f"{name} did not repeat: {m['value']} then "
                                f"{second['metrics'][name]['value']}")
    if not tampered_byte_fails(root):
        problems.append("an .abp with one altered byte was not reported as a failed op")
    for line in problems:
        print(f"selfcheck FAILED: {line}")
    print("selfcheck OK" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

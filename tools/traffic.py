"""List the commro functions and methods that benchmark workloads never enter.

    python tools/traffic.py [workload ...] [--seed S]

The workloads default to det4, palindrome and random-small, the seed to 1.

commro is imported afresh from this checkout's `src/` (as tools/ab.py
loads a tree) with sys.setprofile recording the code of every Python
call.  Each workload's perfbench corpus is then written into a
temporary directory, its inputs generated through `commro gen` as
perfbench/run.py does, and its ops run once through cli.run.  So the
calls counted are those of an import, a corpus set-up and one pass of
the ops.

Every function and method that a module of the package defines (found
in its syntax tree) is listed, per module and by qualified name, when
no call of any workload entered it, with its code lines counted by
tools/code_lines.py's rule.  A definition inside one that is listed is
not listed again, so no line counts twice.  The last line is JSON: the
workloads, the seed, per module the names listed and their code lines,
and the code lines in all.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from ab import load_cli  # noqa: E402  (importing ab puts perfbench/ on the path)
import corpus as corpora  # noqa: E402
from code_lines import code_lines  # noqa: E402
from run import run_pass  # noqa: E402


def definitions(path: Path) -> list[tuple[str, int, int, tuple[int, ...]]]:
    """(qualified name, first line, last line, enclosing defs' first lines) of each def in a file.

    The first line is the first decorator's, as the code object's
    co_firstlineno has it.
    """
    out = []

    def walk(node, prefix: str, outer: tuple[int, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((prefix + child.name, first, child.end_lineno, outer))
                walk(child, f"{prefix}{child.name}.<locals>.", (*outer, first))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", outer)
            else:
                walk(child, prefix, outer)

    walk(ast.parse(path.read_text()), "", ())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"one of {', '.join(corpora.WORKLOADS)}, tiny")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.workloads = args.workloads or list(corpora.WORKLOADS)
    if unknown := set(args.workloads) - {*corpora.WORKLOADS, "tiny"}:
        parser.error(f"unknown workload {sorted(unknown)[0]!r}")

    entered: set = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        cli = load_cli(TOOLS.parent)
        for workload in args.workloads:
            with tempfile.TemporaryDirectory() as directory:
                run_pass(cli, corpora.make_corpus(workload, args.seed, Path(directory), cli.run))
    finally:
        sys.setprofile(None)

    package = Path(cli.__file__).resolve().parent
    starts = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in entered}
    report: dict[str, dict[str, int]] = {}
    total = 0
    for path in sorted(package.glob("*.py")):
        code = code_lines(path)
        listed: set[int] = set()  # first lines of the definitions listed
        for name, first, last, outer in definitions(path):
            if (path, first) in starts or listed.intersection(outer):
                continue
            listed.add(first)
            lines = len(code & set(range(first, last + 1)))
            report.setdefault(path.stem, {})[name] = lines
            total += lines
    for module, names in report.items():
        print(f"{module}: {sum(names.values())} code lines")
        for name, lines in names.items():
            print(f"  {name} ({lines})")
    print(f"total: {total} code lines never entered")
    print(json.dumps({"workloads": args.workloads, "seed": args.seed, "never_entered": report,
                      "code_lines": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

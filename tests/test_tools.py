"""tools/code_lines.py on a fixture of known counts; tools/ab.py and tools/traffic.py on the tiny
corpus."""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# code lines: import, class, def f, the two lines of `text`, return text,
# def g, return 1; the docstrings, the comment line and the blank lines
# are not code
FIXTURE = '''"""Module docstring
over two lines."""

# a comment line
import os


class Shape:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is not a docstring
counts as code"""
        return text  # a comment after code


def g():
    'a docstring in single quotes'
    return 1
'''


def test_code_lines_counts_code_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.count(path) == (8, 21)


def test_ab_compares_the_checkout_with_itself_on_the_tiny_corpus():
    # two alternating rounds of verify; the last line is the JSON report
    root = SCRIPT.parent.parent
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "tools/ab.py", ".", ".", "--workload", "tiny",
                           "--seed", "1", "--command", "verify", "--rounds", "2"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["round 1", "round 2"]
    report = json.loads(lines[-1])
    assert list(report) == ["workload", "seed", "command", "rounds", "ops", "parent", "change",
                            "ratio", "wall_ratio"]
    assert (report["workload"], report["seed"], report["command"], report["rounds"]) == (
        "tiny", 1, "verify", 2)
    assert report["ops"] > 0
    for side in ("parent", "change"):
        assert list(report[side]) == ["median_s", "min_s", "wins",
                                      "median_wall_s", "min_wall_s", "wall_wins"]
        assert 0 < report[side]["min_s"] <= report[side]["median_s"]
        assert 0 < report[side]["min_wall_s"] <= report[side]["median_wall_s"]
    for wins in ("wins", "wall_wins"):
        assert report["parent"][wins] + report["change"][wins] == 2
    assert report["ratio"] == report["change"]["median_s"] / report["parent"]["median_s"]
    assert report["wall_ratio"] == (report["change"]["median_wall_s"]
                                    / report["parent"]["median_wall_s"])


def test_ab_fails_a_round_whose_verify_fails_on_both_sides(tmp_path):
    # both trees print the same output and exit 1 on every verify: that is
    # a failed round, not a timing
    root = SCRIPT.parent.parent
    cli = (root / "src" / "commro" / "cli.py").read_text()
    passed = '    print("verify OK")\n    return 0\n'
    assert cli.count(passed) == 1
    for side in ("parent", "change"):
        shutil.copytree(root / "src" / "commro", tmp_path / side / "src" / "commro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / side / "src" / "commro" / "cli.py").write_text(
            cli.replace(passed, '    print("verify FAILED: forced")\n    return 1\n'))
    done = subprocess.run([sys.executable, "tools/ab.py", str(tmp_path / "parent"),
                           str(tmp_path / "change"), "--workload", "tiny", "--seed", "1",
                           "--command", "verify", "--rounds", "2"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("round 1, parent: ") and "failed (exit 1)" in done.stderr
    assert "verify FAILED: forced" in done.stderr


def test_traffic_lists_what_the_tiny_corpus_never_enters():
    # the tiny corpus builds and verifies by random evaluation: it meets
    # check_kind, and never the dense vec_mat that only the benchmark wraps
    root = SCRIPT.parent.parent
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "tools/traffic.py", "tiny"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 3.0
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["workloads"], report["seed"]) == (["tiny"], 1)
    never = report["never_entered"]
    assert "vec_mat" in never["linalg"] and "check_kind" not in never.get("abp", {})
    assert report["code_lines"] == sum(n for names in never.values() for n in names.values())
    assert f"total: {report['code_lines']} code lines never entered" in done.stdout

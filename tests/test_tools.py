"""tools/code_lines.py, whose counts the roadmap records, on a fixture of known counts."""

import importlib.util
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

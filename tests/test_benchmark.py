"""The benchmark's self-check, run as a script from the checkout root.

Its traced mode resolves every library name that perfbench/spans.py
wraps, so deleting or renaming one fails here, not in the next
benchmark run.  It runs in a subprocess because perfbench/run.py
imports commro afresh from the checkout's src/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selfcheck OK" in done.stdout.splitlines()

"""Outside-in tracing: spans around calls into commro's public functions.

Nothing inside the program changes.  `Tracer.install` rebinds, from
here, every module attribute through which the CLI and the library
reach a traced function (for example `commro.apolar.derivative_basis`
as well as `commro.partials.derivative_basis`), and the traced methods
on their classes, so nested calls yield parent/child spans.
`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent index, request id); spans stay in
memory until the run writes them out.  A layer's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute path) of the original
TRACED = {
    "cli.run": ("commro.cli", "run"),
    "partials.derivative_basis": ("commro.partials", "derivative_basis"),
    "poly.derive": ("commro.poly", "Poly.derive"),
    "poly.eval": ("commro.poly", "Poly.eval"),
    "apolar.normal_set": ("commro.apolar", "normal_set"),
    "apolar.multiplication_tables": ("commro.apolar", "multiplication_tables"),
    "linalg.matmul": ("commro.linalg", "QMatrix.__matmul__"),
    "linalg.qmatrix_init": ("commro.linalg", "QMatrix.__init__"),
    "linalg.commute": ("commro.linalg", "commute"),
    "linalg.inverse": ("commro.linalg", "inverse"),
    "linalg.vec_mat": ("commro.linalg", "vec_mat"),
    "linalg.rank": ("commro.linalg", "rank"),
    "construct.build_commro": ("commro.construct", "build_commro"),
    "construct.build_commro_general": ("commro.construct", "build_commro_general"),
    "construct.build_smabp": ("commro.construct", "build_smabp"),
    "construct.build_diagro": ("commro.construct", "build_diagro_from_waring"),
    "abp.check_kind": ("commro.abp", "check_kind"),
    "abp.eval_abp": ("commro.abp", "eval_abp"),
    "abp.nisan_width": ("commro.abp", "nisan_width"),
    "textio.parse_abp": ("commro.textio", "parse_abp"),
    "textio.format_abp": ("commro.textio", "format_abp"),
    "textio.parse_poly_file": ("commro.textio", "parse_poly_file"),
}

# spans whose return values the counters read after the run
KEEP_RESULTS = {"apolar.normal_set", "apolar.multiplication_tables",
                "construct.build_commro_general", "construct.build_smabp",
                "construct.build_diagro"}


class Tracer:
    """Records a span per call of every traced function while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.results: list[tuple[str, object]] = []  # (span name, returned value)
        self.request = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if keep:
                results.append((name, out))
            return out

        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function or method."""
        modules = [m for key, m in sys.modules.items()
                   if m and (key == "commro" or key.startswith("commro."))]
        for name, (module, path) in TRACED.items():
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                self._rebind(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

"""Shared exception types and size-guard defaults."""

from __future__ import annotations

# Dense Nisan matrices ((d+1)^|S| wide), dense table dumps and symbolic
# expansions can grow exponentially; operations that materialize them
# refuse to exceed these caps instead of thrashing.  QMatrix stores only
# nonzeros, so rank and solve take no cap.
DEFAULT_ENTRY_CAP = 1 << 20
DEFAULT_TERM_CAP = 1 << 20


class CapExceeded(RuntimeError):
    """A size guard tripped; `flag` names the CLI option that raises it."""

    def __init__(self, message: str, flag: str):
        super().__init__(message)
        self.flag = flag

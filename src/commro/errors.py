"""Shared exception types and size-guard defaults."""

from __future__ import annotations

# Dense table dumps (`tables`, w * w entries each) and symbolic
# expansions (`verify --expand`) can grow exponentially; the operations
# that materialize them refuse to exceed these caps instead of
# thrashing.  QMatrix stores only nonzeros, so rank takes no cap.
DEFAULT_ENTRY_CAP = 1 << 20
DEFAULT_TERM_CAP = 1 << 20


class CapExceeded(RuntimeError):
    """A size guard tripped; `flag` names the CLI option that raises it."""

    def __init__(self, message: str, flag: str):
        super().__init__(message)
        self.flag = flag

"""Reader rules shared by the mesh and snapshot text formats.

Both are ASCII: an exact header line, ``key <value>`` fields, and counts
each followed by that many rows.  A fault is raised as ``line <n>: ...`` in
the format's own error class.  Numbers must be finite; floats are parsed by
``float``, so a written ``repr`` reads back bit for bit.  A non-ASCII byte is
read as a lone surrogate, which no field accepts, so its line is named too.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["LineReader", "read_text", "write_text"]


def read_text(path) -> str:
    return Path(path).read_text(encoding="ascii", errors="surrogateescape")


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="ascii")


class LineReader:
    """Reads ``text`` from the top, after its exact ``header`` line; ``at`` is
    the index of the next line.  Trailing blank lines are dropped."""

    def __init__(self, text: str, header: str, error: type[Exception]):
        self.lines = text.rstrip().splitlines()  # no trailing blank lines
        self.error = error
        if not self.lines or self.lines[0].strip() != header:
            raise self.fail(0, f"expected header '{header}'")
        self.at = 1
        self._last = ""  # the rows of the last block, for ``end``

    def fail(self, index: int, message: str) -> Exception:
        """The error for the line at ``index`` (0-based)."""
        return self.error(f"line {index + 1}: {message}")

    def tokens(self) -> list[str]:
        """The next line split on whitespace; no tokens past the end."""
        self.at += 1
        return self.lines[self.at - 1].split() if self.at <= len(self.lines) else []

    def number(self, token: str, kind):
        """A token of the line just read, parsed by ``kind`` to a finite number."""
        try:
            value = kind(token)
            finite = math.isfinite(value)
        except (ValueError, OverflowError):  # not a number, or an int beyond float
            raise self.fail(self.at - 1, f"bad number {token!r}") from None
        if not finite:
            raise self.fail(self.at - 1, "non-finite value")
        return value

    def field(self, key: str, kind):
        """A ``key <value>`` line whose value ``kind`` parses to a finite number."""
        parts = self.tokens()
        if len(parts) != 2 or parts[0] != key:
            raise self.fail(self.at - 1, f"expected '{key} <value>'")
        return self.number(parts[1], kind)

    def count(self, key: str, noun: str) -> int:
        """A ``key <value>`` count >= 0; an early end of its rows names the first missing line."""
        count = self.field(key, int)
        if count < 0:
            raise self.fail(self.at - 1, f"negative {noun} count {count}")
        if self.at + count > len(self.lines):
            raise self.fail(len(self.lines), f"unexpected end of file in {noun} block")
        self._last = f"{count} {noun} rows"
        return count

    def floats(self, count: int, width: int) -> np.ndarray:
        """The next ``count`` rows of ``width`` finite floats, as an array."""
        rows = np.empty((count, width))
        for i in range(count):
            tokens = self.tokens()
            if len(tokens) != width:
                raise self.fail(self.at - 1, f"expected {width} value(s), found {len(tokens)}")
            rows[i] = [self.number(token, float) for token in tokens]
        return rows

    def end(self) -> None:
        """Reject any line after the last block."""
        if self.at < len(self.lines):
            raise self.fail(self.at, f"extra line after the {self._last}")

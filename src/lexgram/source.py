"""The input-file format every resource reader shares: strict UTF-8 (no
BOM stripped, no byte replaced), lines broken at LF, CRLF or CR, blank
lines and ``#`` comments skipped, and numbers written in ASCII digits
only.  A file that cannot be read or decoded raises the error its reader
names, so each format keeps its exit code.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .errors import LexgramError

# Characters of text split into lines at a time by ``content_lines``:
# enough lines to spread the cost of a split, few enough that a block of
# short lines stays small beside the records read from them.
BLOCK = 1 << 13


def read_text(path: str, error: Callable[[str], LexgramError]) -> str:
    """The decoded contents of ``path``; an unreadable file or a byte
    sequence that is not UTF-8 raises ``error(reason)``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise error(f"cannot read: {err.strerror or err}") from err
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise error(f"not UTF-8: {err}") from err


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, line without its break) for every line that
    is neither blank nor a ``#`` comment.

    After the breaks are made LF (one normalized copy of ``text``, when it
    holds a CR), the text is split one block at a time: ``BLOCK``
    characters, cut at the first LF after them.  Besides the text, the
    generator holds only one block's lines, so at most ``BLOCK``
    characters plus the line that crosses the block's end, never a second
    copy of the whole file's lines.  A line whose first character is
    neither whitespace nor ``#`` is kept without being stripped.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK)
        if end < 0:
            end = len(text)
        for line in text[start:end].split("\n"):
            lineno += 1
            if line and not line[0].isspace() and line[0] != "#":
                yield lineno, line
            elif (stripped := line.strip()) and stripped[0] != "#":
                yield lineno, line
        start = end + 1


def natural(text: str) -> int | None:
    """``text`` as a non-negative integer when it is ASCII digits only
    (no sign, underscore, space or other script's digit, all of which
    ``int`` takes), else None."""
    return int(text) if text.isascii() and text.isdigit() else None

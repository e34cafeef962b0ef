"""Concordance lines: matches rendered with left/right context."""
from __future__ import annotations

from typing import NamedTuple

from .rtn import Match

ORDERS = ("text", "center", "left-reversed")


class ConcordanceLine(NamedTuple):
    """A match and its contexts: a tuple of its fields, so it equals any
    tuple of the same values."""

    match: Match
    left: str
    center: str
    right: str
    doc_id: str

    @property
    def text_key(self) -> tuple[str, int]:
        return (self.doc_id, self.match.start_byte)


def _lead(blob: bytes, at: int, step: int) -> int:
    """``at`` moved by ``step`` (-1 or 1) until it sits on a UTF-8 lead byte
    or an end of ``blob``."""
    while 0 < at < len(blob) and blob[at] & 0xC0 == 0x80:
        at += step
    return at


def build_concordance(matches: list[Match], source: str,
                      width: int, doc_id: str) -> list[ConcordanceLine]:
    """One line per match in ``source``, the document text; contexts hold at
    most ``width`` characters and token offsets keep slicing on UTF-8 scalar
    boundaries.

    A character takes at most 4 bytes, so each context is decoded from a
    window of ``4 * width`` bytes beside the match, widened to whole
    characters, and then trimmed to ``width`` characters.
    """
    if width < 0:
        raise ValueError("negative context width")
    blob = source.encode("utf-8")
    size, reach = len(blob), 4 * width
    lines = []
    for m in matches:
        start, end = m.start_byte, m.end_byte
        center = blob[start:end].decode("utf-8")
        left = right = ""
        if width:
            lo, hi = start - reach, end + reach
            if lo <= 0:
                lo = 0
            elif blob[lo] & 0xC0 == 0x80:
                lo = _lead(blob, lo, -1)
            if hi >= size:
                hi = size
            elif blob[hi] & 0xC0 == 0x80:
                hi = _lead(blob, hi, 1)
            left = blob[lo:start].decode("utf-8")[-width:]
            right = blob[end:hi].decode("utf-8")[:width]
        lines.append(ConcordanceLine(m, left, center, right, doc_id))
    return lines


def sort_concordance(lines: list[ConcordanceLine], order: str = "text") -> list[ConcordanceLine]:
    """Stable sort in one of the three supported orders."""
    if order not in ORDERS:
        raise ValueError(f"unknown concordance order {order!r}")
    if order == "text":
        return sorted(lines, key=lambda l: l.text_key)
    if order == "center":
        return sorted(lines, key=lambda l: (l.center,) + l.text_key)
    return sorted(lines, key=lambda l: l.left[::-1])


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def format_concordance(lines: list[ConcordanceLine]) -> str:
    """TSV rows: doc_id, start_byte, end_byte, left, center, right.

    Tabs and newlines inside text fields become single spaces; the byte
    offsets stay authoritative.
    """
    rows = []
    for l in lines:
        rows.append("\t".join([l.doc_id, str(l.match.start_byte),
                               str(l.match.end_byte), _clean(l.left),
                               _clean(l.center), _clean(l.right)]))
    return "\n".join(rows) + ("\n" if rows else "")

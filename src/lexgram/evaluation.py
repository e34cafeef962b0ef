"""Comparison against gold annotations and count correction.

Gold file: TSV with one span per line,

    doc_id  start_byte  end_byte  label  annotator  head_form

where label is PN or SVC.  Alignment between system concordance lines and
gold spans is greedy one-to-one in text order over candidate pairs, a
line matching a span when their byte ranges overlap (or are equal, under
the exact criterion).  Processing candidate pairs in a symmetric text
order keeps the matched count invariant under swapping system and gold;
pairs with equal order keys go in (system index, gold index) order.
Only spans of the same document are paired, and each document's gold
spans are sorted by start byte once, so a system line visits only the
gold spans that can hit it.

The correction extrapolates a raw occurrence count with measured
precision and recall: corrected = n * p / r.  All ratios stay unrounded
internally; rounding happens only at display time, half-up to whole
percents by default.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from math import fsum
from typing import NamedTuple

from .concord import ConcordanceLine
from .errors import EmptyGold, EmptySystem, MalformedGold, ZeroRecall
from .lexicon import CASE_FOLD, PN_FEATURE, LexIndex, lookup
from .source import content_lines, natural, read_text

LABELS = ("PN", "SVC")
OVERLAP = "overlap"
EXACT = "exact"
CRITERIA = (OVERLAP, EXACT)

ROUNDINGS = ("half-up", "half-even")


class _GoldFields(NamedTuple):
    doc_id: str
    start_byte: int
    end_byte: int
    label: str
    annotator: str
    head_form: str = ""


class GoldSpan(_GoldFields):
    """One gold annotation: a tuple of its fields, so it equals any tuple
    of the same values.  Building one, also through ``_make`` and
    ``_replace``, raises ``ValueError`` for an empty span or an unknown
    label."""

    __slots__ = ()

    def __new__(cls, doc_id: str, start_byte: int, end_byte: int, label: str,
                annotator: str, head_form: str = "") -> GoldSpan:
        if start_byte >= end_byte:
            raise ValueError(f"empty gold span {doc_id}:{start_byte}")
        if label not in LABELS:
            raise ValueError(f"unknown gold label {label!r}")
        return tuple.__new__(cls, (doc_id, start_byte, end_byte, label, annotator, head_form))

    @classmethod
    def _make(cls, iterable) -> GoldSpan:
        return cls(*iterable)


@dataclass(frozen=True)
class Metrics:
    """Alignment counts and the precision and recall they give."""

    matched: int
    gold_total: int
    system_total: int
    p: float
    r: float

    def __post_init__(self):
        if self.matched > min(self.gold_total, self.system_total):
            raise ValueError("matched exceeds a total")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.r <= 1.0):
            raise ValueError("precision/recall outside [0, 1]")


def load_gold(path: str) -> list[GoldSpan]:
    spans: list[GoldSpan] = []
    text = read_text(path, lambda reason: MalformedGold(reason, path=str(path)))
    for lineno, line in content_lines(text):
        fields = line.split("\t")
        if len(fields) != 6:
            raise MalformedGold("gold line needs 6 tab-separated fields", lineno, str(path))
        doc_id, start, end, label, annotator, head = fields
        start_byte, end_byte = natural(start), natural(end)
        if start_byte is None or end_byte is None:
            bad = start if start_byte is None else end
            raise MalformedGold(f"bad byte offset {bad!r}", lineno, str(path))
        try:
            spans.append(GoldSpan(doc_id, start_byte, end_byte, label, annotator, head))
        except ValueError as err:
            raise MalformedGold(str(err), lineno, str(path)) from err
    return spans


def _gold_by_doc(gold: list[GoldSpan]
                 ) -> dict[str, tuple[list[int], list[tuple[int, int, int]], int]]:
    """Per document: its gold start bytes in ascending order, its spans as
    (start byte, end byte, index into ``gold``) in that order, and the
    length of its longest span."""
    by_doc: dict[str, list[tuple[int, int, int]]] = {}
    for j, span in enumerate(gold):
        by_doc.setdefault(span.doc_id, []).append((span.start_byte, span.end_byte, j))
    out = {}
    for doc_id, spans in by_doc.items():
        spans.sort()
        out[doc_id] = ([start for start, _, _ in spans], spans,
                       max(end - start for start, end, _ in spans))
    return out


def align(system: list[ConcordanceLine], gold: list[GoldSpan],
          criterion: str = OVERLAP) -> int:
    """Greedy one-to-one alignment count in text order.

    Candidate pairs are ordered by a key symmetric in the two sides, so
    swapping system and gold yields the same count (which makes precision
    and recall swap cleanly); pairs with equal keys go in (system index,
    gold index) order.  Each system line is compared only with the gold
    spans of its own document that can hit it: their start bytes are
    sorted once, so under ``exact`` a bisection finds the equal starts,
    and under ``overlap`` the starts between the line's start minus the
    document's longest gold span and the line's end.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown alignment criterion {criterion!r}")
    exact = criterion == EXACT
    docs = _gold_by_doc(gold)
    candidates = []
    for i, line in enumerate(system):
        found = docs.get(line.doc_id)
        if found is None:
            continue
        starts, spans, longest = found
        ls, le = line.match.start_byte, line.match.end_byte
        if exact:
            lo, hi = bisect_left(starts, ls), bisect_right(starts, ls)
        else:
            lo, hi = bisect_right(starts, ls - longest), bisect_left(starts, le)
        for gs, ge, j in spans[lo:hi]:
            if (ge == le) if exact else (ls < ge):
                s0, s1 = (ls, gs) if ls <= gs else (gs, ls)
                e0, e1 = (le, ge) if le <= ge else (ge, le)
                candidates.append((line.doc_id, s0, s1, e0, e1, i, j))
    candidates.sort()
    used_system: set[int] = set()
    used_gold: set[int] = set()
    matched = 0
    for _doc, _s0, _s1, _e0, _e1, i, j in candidates:
        if i in used_system or j in used_gold:
            continue
        used_system.add(i)
        used_gold.add(j)
        matched += 1
    return matched


def recall(matched: int, gold_total: int) -> float:
    if gold_total <= 0:
        raise EmptyGold("no gold spans")
    return matched / gold_total


def precision(matched: int, system_total: int) -> float:
    if system_total <= 0:
        raise EmptySystem("no system lines")
    return matched / system_total


def average(*ratios: float) -> float:
    """Arithmetic mean of one or more unrounded ratios.  ``fsum`` rounds the
    sum once, so the mean does not depend on the Python version."""
    if not ratios or not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError("need one or more ratios in [0, 1]")
    return fsum(ratios) / len(ratios)


def bias_correct(n: float, p: float, r: float) -> float:
    """Corrected count n * p / r, unrounded; display rounding is separate."""
    if r <= 0.0:
        raise ZeroRecall("correction undefined for recall 0")
    if not (0.0 <= p <= 1.0 and r <= 1.0):
        raise ValueError("precision/recall outside [0, 1]")
    return n * p / r


def corrected_proportion(n_pn: float, p_pn: float, r_pn: float,
                         n_svc: float, p_svc: float, r_svc: float) -> float:
    """Ratio of the two corrected counts, on unrounded intermediates."""
    return bias_correct(n_svc, p_svc, r_svc) / bias_correct(n_pn, p_pn, r_pn)


def measure(system: list[ConcordanceLine], gold: list[GoldSpan],
            criterion: str = OVERLAP) -> Metrics:
    matched = align(system, gold, criterion)
    return Metrics(matched, len(gold), len(system),
                   precision(matched, len(system)), recall(matched, len(gold)))


def in_lexicon_recall(system: list[ConcordanceLine], gold: list[GoldSpan],
                      index: LexIndex, criterion: str = OVERLAP) -> float:
    """Recall over the gold spans whose head noun the lexicon knows as a
    predicative noun under any reading."""
    restricted = []
    for span in gold:
        if not span.head_form:
            continue
        analyses = lookup(index, span.head_form, CASE_FOLD)
        if any(PN_FEATURE in a.sem_features for a in analyses):
            restricted.append(span)
    if not restricted:
        raise EmptyGold("no gold spans with an in-lexicon head")
    return recall(align(system, restricted, criterion), len(restricted))


# ---------------------------------------------------------------------------
# display rounding

def round_display(value: float, mode: str = "half-up") -> int:
    if mode not in ROUNDINGS:
        raise ValueError(f"unknown rounding mode {mode!r}")
    rounding = ROUND_HALF_UP if mode == "half-up" else ROUND_HALF_EVEN
    return int(Decimal(repr(value)).quantize(Decimal("1"), rounding=rounding))


def percent(ratio: float, mode: str = "half-up") -> str:
    """Whole-percent display string for a ratio, e.g. 0.0351 -> '4%'."""
    return f"{round_display(ratio * 100.0, mode)}%"


def format_ratio(ratio: float) -> str:
    return f"{ratio:.4f}"

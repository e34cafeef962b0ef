"""Classification of noun occurrences by support-verb presence.

A noun-grammar match counts as accompanied by its support verb when some
verb-grammar match span contains it (token containment inside one
sentence; verb matches never cross sentence boundaries, so containment
implies the same sentence).  A match contained in several verb spans
still counts once: the statistics are per occurrence.

Every scope, the global row and each subcategory row, counts over the
one corpus that ``textproc.build_corpus`` builds.  The global row counts
the run's matches, one ``rtn.locate`` per grammar.  ``by_subcategory``
gives each token one scope key, worked out once per distinct key and
sentence-initial mark (``textproc.ScopeKeys``): its analyses in each
subcategory (``textproc.RestrictedKeys``).  A grammar family, each
subcategory's own graph or the main one again, is compiled into one
union DFA and walked once over those keys (``rtn.locate_scopes``), so
the rows take one walk for the noun grammar and one for the verb grammar
whatever the number of subcategories.  Each subcategory gives only token
spans, which ``classify_pn`` counts.  A noun listed under two
subcategories is counted in both rows, so subcategory counts may sum
above the global row.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import evaluation
from .errors import LexgramError
from .lexicon import CASE_FOLD, SUBCATEGORIES, LexIndex
from .rtn import Graph, Match, Span, locate_scopes
from .textproc import Corpus, ScopeKeys

ALL_SCOPE = "all"


@dataclass(frozen=True)
class ClassifiedCounts:
    pn_total: int
    svc_total: int
    pn_with_sv: int
    pn_without_sv: int

    def __post_init__(self):
        if self.pn_with_sv + self.pn_without_sv != self.pn_total:
            raise LexgramError("with/without split does not partition the total")
        if min(self.pn_total, self.svc_total, self.pn_with_sv) < 0:
            raise LexgramError("negative count")

    @property
    def proportion(self) -> float:
        if self.pn_total == 0:
            return 0.0
        return self.pn_with_sv / self.pn_total


def classify_pn(pn_matches: list[Match] | list[Span],
                svc_matches: list[Match] | list[Span]) -> ClassifiedCounts:
    """Split noun matches over one text or corpus by support-verb presence.

    Verb spans are sorted by start token with a running maximum of their
    end tokens: a noun match is contained in some verb span exactly when
    the largest end among the spans starting at or before it reaches its
    end, so each noun match costs one bisection.  The order among verb
    spans with equal starts does not matter: the maximum covers them all.
    """
    svc_spans = sorted((m.start_token, m.end_token) for m in svc_matches)
    starts = [s for s, _ in svc_spans]
    reach = list(accumulate((e for _, e in svc_spans), max))
    with_sv = 0
    for pn in pn_matches:
        at = bisect_right(starts, pn.start_token)
        if at and reach[at - 1] >= pn.end_token:
            with_sv += 1
    return ClassifiedCounts(len(pn_matches), len(svc_matches), with_sv,
                            len(pn_matches) - with_sv)


@dataclass(frozen=True)
class SubcatRow:
    """One line of the per-subcategory report.

    ``svc`` is the number of noun matches co-recognized by the verb
    grammar (the with-support-verb count); ``svc_raw`` additionally keeps
    the plain verb-grammar match count.
    """

    subcat: str
    pn: int
    pn_pct: float
    svc: int
    svc_pct: float
    ratio_svc_pn: float
    svc_raw: int
    corrected_ratio: float | None = None


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def by_subcategory(corpus: Corpus, overall: ClassifiedCounts,
                   index: LexIndex, pn_flat: Graph, svc_flat: Graph,
                   subcats: tuple[str, ...] = SUBCATEGORIES, *,
                   pn_by_subcat: dict[str, Graph] | None = None,
                   svc_by_subcat: dict[str, Graph] | None = None,
                   policy: str = "longest", case_policy: str = CASE_FOLD,
                   correction: tuple[tuple[float, float], tuple[float, float]] | None = None,
                   ) -> list[SubcatRow]:
    """One row per subcategory, then the ``all`` row of the global ``overall``.

    ``corpus`` is tagged against the full ``index``.  The grammars are
    flattened; per-subcategory ones replace the main ones.  Each family,
    one graph per subcategory, is walked once over the scope keys
    (``rtn.locate_scopes``).  ``correction`` supplies ((p_pn, r_pn),
    (p_svc, r_svc)); without it the corrected column stays unset.
    """
    pn_by_subcat = pn_by_subcat or {}
    svc_by_subcat = svc_by_subcat or {}

    def corrected(pn: int, svc: int) -> float | None:
        if correction is None or pn == 0:
            return None
        (p_pn, r_pn), (p_svc, r_svc) = correction
        return evaluation.corrected_proportion(pn, p_pn, r_pn, svc, p_svc, r_svc)

    rows: list[SubcatRow] = []
    if subcats:
        view = corpus._replace(keys=ScopeKeys(index, subcats, case_policy)
                               .restrict(corpus.keys, corpus.initials))
        pn_spans, svc_spans = (
            locate_scopes([by_subcat.get(subcat, flat) for subcat in subcats], view, policy)
            for flat, by_subcat in ((pn_flat, pn_by_subcat), (svc_flat, svc_by_subcat)))
        for subcat, pn, svc in zip(subcats, pn_spans, svc_spans, strict=True):
            counts = classify_pn(pn, svc)
            rows.append(SubcatRow(subcat, counts.pn_total,
                                  _ratio(counts.pn_total, overall.pn_total),
                                  counts.pn_with_sv,
                                  _ratio(counts.pn_with_sv, overall.pn_with_sv),
                                  counts.proportion, counts.svc_total,
                                  corrected(counts.pn_total, counts.pn_with_sv)))
    rows.append(SubcatRow(ALL_SCOPE, overall.pn_total, 1.0 if overall.pn_total else 0.0,
                          overall.pn_with_sv, 1.0 if overall.pn_with_sv else 0.0,
                          overall.proportion, overall.svc_total,
                          corrected(overall.pn_total, overall.pn_with_sv)))
    return rows


def format_classification(counts: ClassifiedCounts,
                          rows: list[SubcatRow] | None = None, *,
                          rounding: str = "half-up",
                          corrected_counts: tuple[float, float] | None = None) -> str:
    """Report TSV: a global block, then one row per subcategory.

    Every ratio is printed raw to 4 decimals and rounded to a whole
    percent.  ``corrected_counts`` optionally carries the corrected
    (pn, svc) pair computed by the evaluation stage.
    """
    fmt = evaluation.format_ratio
    pct = lambda x: evaluation.percent(x, rounding)
    out = ["# classification\tpn\tsvc_raw\twith_sv\twithout_sv\tproportion\tproportion_pct"]
    out.append("\t".join(["experimental", str(counts.pn_total), str(counts.svc_total),
                          str(counts.pn_with_sv), str(counts.pn_without_sv),
                          fmt(counts.proportion), pct(counts.proportion)]))
    if corrected_counts is not None:
        corr_pn, corr_svc = corrected_counts
        proportion = corr_svc / corr_pn if corr_pn else 0.0
        out.append("\t".join(["corrected",
                              str(evaluation.round_display(corr_pn, rounding)),
                              "-",
                              str(evaluation.round_display(corr_svc, rounding)),
                              "-", fmt(proportion), pct(proportion)]))
    if rows:
        out.append("# subcategory\tpn\tpn_pct\tsvc\tsvc_pct\tratio\tratio_pct"
                   "\tsvc_raw\tcorrected\tcorrected_pct")
        for row in rows:
            corrected = "-" if row.corrected_ratio is None else fmt(row.corrected_ratio)
            corrected_pct = "-" if row.corrected_ratio is None else pct(row.corrected_ratio)
            out.append("\t".join([row.subcat, str(row.pn),
                                  pct(row.pn_pct), str(row.svc), pct(row.svc_pct),
                                  fmt(row.ratio_svc_pn), pct(row.ratio_svc_pn),
                                  str(row.svc_raw), corrected, corrected_pct]))
    return "\n".join(out) + "\n"

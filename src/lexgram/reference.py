"""Reference evaluation counts kept as regression data.

The raw counts below come from the large-corpus reference evaluation this
engine reproduces at desk scale: per-annotator recall and precision
counts, the corpus-level correction inputs, and the per-subcategory
breakdown.  ``verify_tables`` recomputes every derived cell with the
evaluation operations and compares against the printed reference values,
so the correction arithmetic stays regression-tested without the original
corpus.

Two printed reference cells disagree with their own raw counts by one
percent point (the averaged verb-construction recall and the corrected
NCF ratio).  Those cells are reported as FLAG rather than PASS or FAIL.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import evaluation

# label -> annotator -> (gold_total, matched); recall side, sub-corpus C1
RECALL_COUNTS = {
    "PN": {"E1": (646, 564), "E2": (820, 561)},
    "SVC": {"E1": (48, 28), "E2": (85, 17)},
}

# label -> (system_total, {annotator: matched}); PN judged on sub-corpus C1,
# SVC on the larger sub-corpus C2
PRECISION_COUNTS = {
    "PN": (831, {"E1": 564, "E2": 561}),
    "SVC": (895, {"E1": 751, "E2": 576}),
}

# correction inputs: label -> (raw count, precision, recall); the ratios are
# the averaged scores rounded to two decimals, as used in the reference
CORRECTION_INPUTS = {"PN": (95430, 0.68, 0.78), "SVC": (3349, 0.74, 0.38)}

# subcategory -> (noun matches, co-recognized matches)
SUBCAT_COUNTS = {
    "NCA": (56457, 1600),
    "NCF": (42420, 868),
    "CV": (30231, 1334),
    "all": (95430, 3349),
}

# printed reference values for every derived cell
PRINTED = {
    "recall.PN.E1": "87%", "recall.PN.E2": "68%", "recall.PN.average": "78%",
    "recall.SVC.E1": "58%", "recall.SVC.E2": "20%", "recall.SVC.average": "38%",
    "precision.PN.E1": "68%", "precision.PN.E2": "68%", "precision.PN.average": "68%",
    "precision.SVC.E1": "84%", "precision.SVC.E2": "64%", "precision.SVC.average": "74%",
    "corrected.count.PN": "83195", "corrected.count.SVC": "6522",
    "proportion.raw": "4%", "proportion.corrected": "8%",
    "subcat.pn_pct.NCA": "59%", "subcat.pn_pct.NCF": "44%", "subcat.pn_pct.CV": "32%",
    "subcat.svc_pct.NCA": "48%", "subcat.svc_pct.NCF": "26%", "subcat.svc_pct.CV": "40%",
    "subcat.ratio.NCA": "3%", "subcat.ratio.NCF": "2%", "subcat.ratio.CV": "4%",
    "subcat.ratio.all": "4%",
    "subcat.corrected.NCA": "6%", "subcat.corrected.NCF": "4%",
    "subcat.corrected.CV": "10%", "subcat.corrected.all": "8%",
}

# cells whose printed value is inconsistent with the raw counts by one
# final-digit step; recomputation is authoritative, the print is flagged
KNOWN_DISCREPANCIES = {
    "recall.SVC.average": "printed average is one point below the recomputed value",
    "subcat.corrected.NCF": "printed ratio is one point below the recomputed value",
}

PASS = "PASS"
FLAG = "FLAG"
FAIL = "FAIL"


@dataclass(frozen=True)
class CellResult:
    name: str
    computed: str
    reference: str
    status: str
    note: str = ""


def _cell(name: str, computed: str) -> CellResult:
    reference = PRINTED[name]
    if computed == reference:
        return CellResult(name, computed, reference, PASS)
    note = KNOWN_DISCREPANCIES.get(name)
    if note is not None:
        return CellResult(name, computed, reference, FLAG, note)
    return CellResult(name, computed, reference, FAIL)


def verify_tables() -> list[CellResult]:
    """Recompute every derived reference cell and compare to the print."""
    pct = evaluation.percent
    cells: list[CellResult] = []

    for label in ("PN", "SVC"):
        scores = {}
        for annotator in ("E1", "E2"):
            gold_total, matched = RECALL_COUNTS[label][annotator]
            scores[annotator] = evaluation.recall(matched, gold_total)
            cells.append(_cell(f"recall.{label}.{annotator}", pct(scores[annotator])))
        avg = evaluation.average(scores["E1"], scores["E2"])
        cells.append(_cell(f"recall.{label}.average", pct(avg)))

    for label in ("PN", "SVC"):
        system_total, matched_by = PRECISION_COUNTS[label]
        scores = {}
        for annotator in ("E1", "E2"):
            scores[annotator] = evaluation.precision(matched_by[annotator], system_total)
            cells.append(_cell(f"precision.{label}.{annotator}", pct(scores[annotator])))
        avg = evaluation.average(scores["E1"], scores["E2"])
        cells.append(_cell(f"precision.{label}.average", pct(avg)))

    corrected = {}
    for label in ("PN", "SVC"):
        n, p, r = CORRECTION_INPUTS[label]
        corrected[label] = evaluation.bias_correct(n, p, r)
        cells.append(_cell(f"corrected.count.{label}",
                           str(evaluation.round_display(corrected[label], "half-up"))))
    n_pn, _, _ = CORRECTION_INPUTS["PN"]
    n_svc, _, _ = CORRECTION_INPUTS["SVC"]
    cells.append(_cell("proportion.raw", pct(n_svc / n_pn)))
    cells.append(_cell("proportion.corrected",
                       pct(corrected["SVC"] / corrected["PN"])))

    all_pn, all_svc = SUBCAT_COUNTS["all"]
    (_, p_pn, r_pn) = CORRECTION_INPUTS["PN"]
    (_, p_svc, r_svc) = CORRECTION_INPUTS["SVC"]
    for subcat in ("NCA", "NCF", "CV"):
        pn, svc = SUBCAT_COUNTS[subcat]
        cells.append(_cell(f"subcat.pn_pct.{subcat}", pct(pn / all_pn)))
        cells.append(_cell(f"subcat.svc_pct.{subcat}", pct(svc / all_svc)))
    for subcat in ("NCA", "NCF", "CV", "all"):
        pn, svc = SUBCAT_COUNTS[subcat]
        cells.append(_cell(f"subcat.ratio.{subcat}", pct(svc / pn)))
        ratio = evaluation.corrected_proportion(pn, p_pn, r_pn, svc, p_svc, r_svc)
        cells.append(_cell(f"subcat.corrected.{subcat}", pct(ratio)))
    return cells


def format_cells(cells: list[CellResult]) -> str:
    rows = []
    for cell in cells:
        fields = [cell.status, cell.name,
                  f"computed={cell.computed}", f"reference={cell.reference}"]
        if cell.note:
            fields.append(cell.note)
        rows.append("\t".join(fields))
    return "\n".join(rows) + "\n"

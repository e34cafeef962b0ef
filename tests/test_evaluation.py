from __future__ import annotations

import random
from dataclasses import replace

import pytest

from lexgram import source
from lexgram.concord import ConcordanceLine
from lexgram.errors import EmptyGold, EmptySystem, MalformedGold, ZeroRecall
from lexgram.evaluation import (
    GoldSpan,
    Metrics,
    align,
    average,
    bias_correct,
    corrected_proportion,
    in_lexicon_recall,
    load_gold,
    measure,
    percent,
    precision,
    recall,
    round_display,
)
from lexgram.pipeline import MetricRow, _eval_stage
from lexgram.rtn import Match

from conftest import fixture_path


def line(doc, start, end):
    return ConcordanceLine(Match(0, 1, start, end, "G", {}), "", "c", "", doc)


def gold(doc, start, end, label="PN", annotator="E1", head=""):
    return GoldSpan(doc, start, end, label, annotator, head)


# -- alignment ----------------------------------------------------------------

def test_identical_spans_all_match():
    system = [line("d", 0, 5), line("d", 10, 15), line("d", 20, 25)]
    spans = [gold("d", 0, 5), gold("d", 10, 15), gold("d", 20, 25)]
    assert align(system, spans) == 3


def test_disjoint_spans_zero():
    assert align([line("d", 0, 5)], [gold("d", 6, 9)]) == 0


def test_hand_alignment_four_of_six():
    # 5 lines vs 6 spans, 4 overlapping pairs by hand
    system = [line("d", 0, 4), line("d", 10, 14), line("d", 20, 24),
              line("d", 30, 34), line("d", 40, 44)]
    spans = [gold("d", 2, 6), gold("d", 12, 16), gold("d", 22, 26),
             gold("d", 35, 38), gold("d", 43, 47), gold("d", 50, 55)]
    assert align(system, spans) == 4


def test_alignment_is_one_to_one():
    # one wide line cannot absorb two spans
    system = [line("d", 0, 100)]
    spans = [gold("d", 10, 20), gold("d", 30, 40)]
    assert align(system, spans) == 1


def test_alignment_respects_doc_ids():
    assert align([line("a", 0, 5)], [gold("b", 0, 5)]) == 0


def test_alignment_exact_criterion():
    system = [line("d", 0, 5)]
    assert align(system, [gold("d", 0, 6)], "exact") == 0
    assert align(system, [gold("d", 0, 5)], "exact") == 1


def test_alignment_symmetric_count():
    # swapping the sides must keep the matched count, so p and r swap
    system = [line("d", 0, 10), line("d", 9, 11)]
    spans = [gold("d", 0, 12), gold("d", 5, 6)]
    forward = align(system, spans)
    swapped = align([line("d", g.start_byte, g.end_byte) for g in spans],
                    [gold("d", l.match.start_byte, l.match.end_byte)
                     for l in system])
    assert forward == swapped


# -- ratios ----------------------------------------------------------------------

def test_recall_reference_cells():
    assert percent(recall(564, 646)) == "87%"
    assert percent(recall(17, 85)) == "20%"
    assert recall(564, 646) == pytest.approx(0.873, abs=5e-4)


def test_precision_reference_cell():
    assert percent(precision(751, 895)) == "84%"
    assert precision(751, 895) == pytest.approx(0.839, abs=5e-4)


def test_empty_denominators():
    with pytest.raises(EmptyGold):
        recall(0, 0)
    with pytest.raises(EmptySystem):
        precision(0, 0)


def test_average_reference_cells():
    assert percent(average(recall(564, 646), recall(561, 820))) == "78%"
    assert percent(average(precision(564, 831), precision(561, 831))) == "68%"


def test_average_identity():
    assert average(0.42, 0.42) == pytest.approx(0.42)


def test_averages_use_unrounded_values():
    # 0.585 and 0.575 both print 58% / 58%, but the true mean prints 58%,
    # not the mean of the rounded prints
    a, b = 0.8731, 0.6841
    assert average(a, b) == pytest.approx((a + b) / 2)


def test_average_of_one_two_and_three_ratios():
    a, b = 11 / 13, 10 / 11
    assert average(a) == a
    assert average(a, b) == (a + b) / 2.0  # bit-identical to the two-ratio mean
    assert average(a, b, a) == pytest.approx((2 * a + b) / 3)
    for bad in [(), (a, 1.5), (-0.1,)]:
        with pytest.raises(ValueError):
            average(*bad)


# -- correction --------------------------------------------------------------------

def test_bias_correct_reference_values():
    assert round_display(bias_correct(95430, 0.68, 0.78), "half-up") == 83195
    assert round_display(bias_correct(3349, 0.74, 0.38), "half-up") == 6522


def test_bias_correct_identity_when_p_equals_r():
    assert bias_correct(1234, 0.35, 0.35) == pytest.approx(1234)


def test_bias_correct_zero_recall():
    with pytest.raises(ZeroRecall):
        bias_correct(10, 0.5, 0.0)


def test_corrected_proportion_reference():
    ratio = corrected_proportion(95430, 0.68, 0.78, 3349, 0.74, 0.38)
    assert ratio == pytest.approx(0.0784, abs=5e-5)
    assert percent(ratio) == "8%"


def test_corrected_proportion_identity_pairs():
    raw = 3349 / 95430
    assert corrected_proportion(95430, 0.7, 0.7, 3349, 0.7, 0.7) == pytest.approx(raw)


def test_corrected_proportion_pocket_calculator_fixture():
    # fixture-scale numbers checked by hand: (3*.625/.875)/(12*.875/.877622)
    ratio = corrected_proportion(12, 0.875, 251 / 286, 3, 0.625, 0.875)
    assert ratio == pytest.approx(0.179107, abs=1e-6)
    assert percent(ratio) == "18%"


def test_metrics_invariants():
    with pytest.raises(ValueError):
        Metrics(5, 4, 10, 0.5, 0.5)
    Metrics(4, 8, 10, 0.4, 0.5)


# -- display rounding ----------------------------------------------------------------

def test_half_up_rounds_ties_up():
    assert round_display(62.5, "half-up") == 63
    assert round_display(87.5, "half-up") == 88
    assert percent(0.625) == "63%"


def test_half_even_mode():
    assert round_display(62.5, "half-even") == 62
    assert round_display(63.5, "half-even") == 64


def test_percent_reference_rounding():
    assert percent(3349 / 95430) == "4%"
    assert percent(0.0986) == "10%"


# -- gold file and fixture metrics ----------------------------------------------------

def test_load_gold_fixture():
    spans = load_gold(fixture_path("gold", "annotations.tsv"))
    assert len(spans) == 30
    assert {s.annotator for s in spans} == {"E1", "E2"}
    assert {s.label for s in spans} == {"PN", "SVC"}
    e1_pn = [s for s in spans if s.annotator == "E1" and s.label == "PN"]
    assert len(e1_pn) == 13


def fixture_system_lines(tagged_docs, grammars, which):
    from lexgram.concord import build_concordance
    from lexgram.rtn import flatten, locate
    flat = flatten(grammars.pn if which == "PN" else grammars.svc)
    lines = []
    for doc_id, tagged in tagged_docs:
        lines.extend(build_concordance(locate(flat, tagged), tagged.source, 40, doc_id))
    return lines


def test_fixture_metrics_hand_derived(tagged_docs, grammars):
    spans = load_gold(fixture_path("gold", "annotations.tsv"))
    pn_lines = fixture_system_lines(tagged_docs, grammars, "PN")
    svc_lines = fixture_system_lines(tagged_docs, grammars, "SVC")

    def metrics(label, annotator):
        system = pn_lines if label == "PN" else svc_lines
        wanted = [s for s in spans if s.label == label and s.annotator == annotator]
        return measure(system, wanted)

    m = metrics("PN", "E1")
    assert (m.matched, m.gold_total, m.system_total) == (11, 13, 12)
    assert m.r == pytest.approx(11 / 13)
    assert m.p == pytest.approx(11 / 12)
    m = metrics("PN", "E2")
    assert (m.matched, m.gold_total, m.system_total) == (10, 11, 12)
    m = metrics("SVC", "E1")
    assert (m.matched, m.gold_total, m.system_total) == (3, 4, 4)
    m = metrics("SVC", "E2")
    assert (m.matched, m.gold_total, m.system_total) == (2, 2, 4)


def test_in_lexicon_recall_fixture(tagged_docs, grammars, index):
    # E1 marked two out-of-lexicon PN heads (réponse, question); dropping
    # them lifts recall from 11/13 to 11/11
    spans = load_gold(fixture_path("gold", "annotations.tsv"))
    e1_pn = [s for s in spans if s.annotator == "E1" and s.label == "PN"]
    system = fixture_system_lines(tagged_docs, grammars, "PN")
    assert recall(align(system, e1_pn), len(e1_pn)) == pytest.approx(11 / 13)
    assert in_lexicon_recall(system, e1_pn, index) == pytest.approx(1.0)


def test_in_lexicon_recall_all_heads_out(index):
    spans = [gold("d", 0, 5, head="zzz"), gold("d", 10, 15, head="yyy")]
    with pytest.raises(EmptyGold):
        in_lexicon_recall([], spans, index)


def test_in_lexicon_recall_equal_sets(index):
    spans = [gold("doc1", 25, 34, head="attention")]
    system = [line("doc1", 20, 40)]
    assert in_lexicon_recall(system, spans, index) == pytest.approx(1.0)


# -- gold reader and records ---------------------------------------------------

GOOD_GOLD = "d\t0\t7\tPN\tE1\tchat"
BAD_GOLD = [
    ("d\t0\t7\tPN\tE1", "gold line needs 6 tab-separated fields"),
    ("d\t0\t7\tPN\tE1\tchat\tx", "gold line needs 6 tab-separated fields"),
    ("d\t-3\t7\tPN\tE1\tchat", "bad byte offset '-3'"),
    ("d\t0\t1_0\tPN\tE1\tchat", "bad byte offset '1_0'"),
    ("d\t 3\t7\tPN\tE1\tchat", "bad byte offset ' 3'"),
    ("d\t0\t\u0661\u0662\tPN\tE1\tchat", "bad byte offset '\u0661\u0662'"),
    ("d\t5\t5\tPN\tE1\tchat", "empty gold span d:5"),
    ("d\t0\t7\tXX\tE1\tchat", "unknown gold label 'XX'"),
]


def _gold_lines_up_to_block_edge() -> list[str]:
    """Comment, blank and good gold lines such that the line after them
    opens the second block of ``content_lines``."""
    lines = ["# gold", ""]
    size = len("\n".join(lines)) + 1
    while size <= source.BLOCK:
        lines.append(GOOD_GOLD)
        size += len(GOOD_GOLD) + 1
    return lines


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad, message", BAD_GOLD)
@pytest.mark.parametrize("after", ["head", "block edge"])
def test_load_gold_errors_keep_message_and_line(tmp_path, newline, bad, message, after):
    before = ["# gold", "", GOOD_GOLD] if after == "head" else _gold_lines_up_to_block_edge()
    path = tmp_path / "gold.tsv"
    path.write_bytes(newline.join(before + [bad, GOOD_GOLD, ""]).encode("utf-8"))
    with pytest.raises(MalformedGold) as caught:
        load_gold(str(path))
    assert (caught.value.reason, caught.value.line) == (message, len(before) + 1)
    assert str(caught.value) == f"{message} ({path}, line {len(before) + 1})"


def test_gold_span_checks_its_fields_and_is_an_immutable_hashable_tuple():
    span = gold("d", 0, 7, head="chat")
    with pytest.raises(ValueError, match="^empty gold span d:5$"):
        gold("d", 5, 5)
    with pytest.raises(ValueError, match="^unknown gold label 'XX'$"):
        gold("d", 0, 7, label="XX")
    with pytest.raises(ValueError, match="^empty gold span d:0$"):
        span._replace(end_byte=0)
    with pytest.raises(ValueError, match="^unknown gold label 'pn'$"):
        GoldSpan._make(("d", 0, 7, "pn", "E1", ""))
    with pytest.raises(AttributeError):
        span.start_byte = 3
    assert span == ("d", 0, 7, "PN", "E1", "chat") == gold("d", 0, 7, head="chat")
    assert len({span, gold("d", 0, 7, head="chat"), gold("d", 0, 7)}) == 2
    assert (span.doc_id, span.end_byte, span.label, gold("d", 0, 7).head_form) == ("d", 7, "PN", "")


# -- the evaluation stage ---------------------------------------------------------

def filtered_eval_rows(cfg, pn_lines, svc_lines):
    """The metric rows and averages of ``_eval_stage`` from one filter over
    the gold list per label and per (label, annotator): the reference for
    its one grouping pass."""
    spans = load_gold(cfg.gold)
    if cfg.eval_docs:
        wanted = set(cfg.eval_docs)
        spans = [g for g in spans if g.doc_id in wanted]
        pn_lines = [l for l in pn_lines if l.doc_id in wanted]
        svc_lines = [l for l in svc_lines if l.doc_id in wanted]
    rows, averaged = [], {}
    for label, system in (("PN", pn_lines), ("SVC", svc_lines)):
        annotators = sorted({g.annotator for g in spans if g.label == label})
        if not annotators:
            continue
        metrics = [measure(system, [g for g in spans if g.label == label and g.annotator == a],
                           cfg.alignment) for a in annotators]
        for annotator, m in zip(annotators, metrics):
            rows.append(MetricRow("recall", label, annotator, str(m.gold_total),
                                  str(m.matched), "-", m.r))
            rows.append(MetricRow("precision", label, annotator, "-", str(m.matched),
                                  str(m.system_total), m.p))
        averaged[label] = (average(*(m.p for m in metrics)), average(*(m.r for m in metrics)))
        rows.append(MetricRow("recall", label, "average", "-", "-", "-", averaged[label][1]))
        rows.append(MetricRow("precision", label, "average", "-", "-", "-", averaged[label][0]))
    return rows, averaged


@pytest.mark.parametrize("labels, eval_docs, alignment", [
    (("PN", "SVC"), [], "overlap"),
    (("PN", "SVC"), [], "exact"),
    (("PN",), [], "overlap"),
    (("SVC",), ["doc1"], "overlap"),
    (("PN", "SVC"), ["doc1"], "overlap"),
    (("PN",), ["doc2"], "overlap"),
])
def test_eval_stage_equals_one_filter_per_label_and_annotator(fixture_run, tmp_path, labels,
                                                              eval_docs, alignment):
    # the fixture gold, a third annotator copying every other E1 span, and
    # the lines shuffled so that labels and annotators interleave
    with open(fixture_path("gold", "annotations.tsv"), encoding="utf-8") as handle:
        lines = [l.rstrip("\n") for l in handle if l.strip() and not l.startswith("#")]
    lines += [l.replace("\tE1\t", "\tE3\t") for l in lines[::2] if "\tE1\t" in l]
    lines = [l for l in lines if l.split("\t")[3] in labels]
    random.Random(7).shuffle(lines)
    path = tmp_path / "gold.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = replace(fixture_run.cfg, gold=str(path), eval_docs=eval_docs, alignment=alignment)
    pn_lines, svc_lines = fixture_run.lines("pn"), fixture_run.lines("svc")

    rows, correction = _eval_stage(cfg, pn_lines, svc_lines, fixture_run.counts)
    want, averaged = filtered_eval_rows(cfg, pn_lines, svc_lines)
    assert {r.annotator for r in rows} >= {"E3"} and {r.label for r in rows} == set(labels)
    assert [r for r in rows if r.section != "correction"] == want
    both = len(averaged) == 2 and all(r > 0 for _, r in averaged.values())
    assert correction == ((averaged["PN"], averaged["SVC"]) if both else None)

from __future__ import annotations

import pytest

from lexgram import classify as classify_mod
from lexgram.classify import (
    ClassifiedCounts,
    by_subcategory,
    classify_pn,
    format_classification,
)
from lexgram.lexicon import SUBCATEGORIES
from lexgram.rtn import Match, flatten, locate
from lexgram.textproc import build_corpus, tag, tokenize

from conftest import per_document_counts


def mk_match(start, end):
    return Match(start, end, start * 10, end * 10, "G", {})


def test_reference_scale_counts():
    counts = ClassifiedCounts(95430, 3349, 3349, 95430 - 3349)
    assert counts.proportion == pytest.approx(0.0351, abs=5e-5)
    from lexgram.evaluation import percent
    assert percent(counts.proportion) == "4%"


def test_no_svc_matches():
    counts = classify_pn([mk_match(0, 2), mk_match(5, 7)], [])
    assert counts.pn_with_sv == 0
    assert counts.pn_without_sv == 2


def test_containment_and_equality_count():
    pn = [mk_match(1, 3), mk_match(4, 6), mk_match(8, 9)]
    svc = [mk_match(0, 3), mk_match(4, 6)]
    counts = classify_pn(pn, svc)
    assert counts.pn_with_sv == 2  # contained and equal both count
    assert counts.pn_without_sv == 1


def test_overlap_without_containment_does_not_count():
    counts = classify_pn([mk_match(2, 5)], [mk_match(0, 4)])
    assert counts.pn_with_sv == 0


def test_multiple_containers_count_once():
    counts = classify_pn([mk_match(2, 3)], [mk_match(0, 4), mk_match(1, 5)])
    assert counts.pn_with_sv == 1
    assert counts.pn_total == 1


def test_partition_invariant_enforced():
    with pytest.raises(Exception):
        ClassifiedCounts(3, 0, 1, 1)


def test_fixture_corpus_hand_counts(fixture_run, tagged_docs, grammars):
    """Hand-marked spans over the bundled 20-sentence corpus, counted per
    document and summed, and counted over the corpus of all documents."""
    pn_flat = flatten(grammars.pn)
    svc_flat = flatten(grammars.svc)
    texts = [tagged for _, tagged in tagged_docs]
    counts = per_document_counts(pn_flat, svc_flat, texts)
    corpus = build_corpus((text for _, text in fixture_run.docs), fixture_run.index,
                          fixture_run.cfg.case_policy)
    assert classify_pn(locate(pn_flat, corpus), locate(svc_flat, corpus)) == counts
    assert counts.pn_total == 12
    assert counts.svc_total == 4
    assert counts.pn_with_sv == 3
    assert counts.pn_without_sv == 9
    assert counts.proportion == pytest.approx(0.25)


def test_by_subcategory_rows(subcat_inputs):
    args, flats = subcat_inputs
    rows = by_subcategory(*args, pn_by_subcat=flats.pn_by_subcat,
                          svc_by_subcat=flats.svc_by_subcat)
    by_name = {r.subcat: r for r in rows}
    assert [r.subcat for r in rows] == ["NCA", "NCF", "CV", "all"]
    assert (by_name["NCA"].pn, by_name["NCA"].svc, by_name["NCA"].svc_raw) == (3, 1, 2)
    assert (by_name["NCF"].pn, by_name["NCF"].svc, by_name["NCF"].svc_raw) == (4, 0, 0)
    assert (by_name["CV"].pn, by_name["CV"].svc, by_name["CV"].svc_raw) == (6, 2, 2)
    assert (by_name["all"].pn, by_name["all"].svc, by_name["all"].svc_raw) == (12, 3, 4)
    assert by_name["all"].pn_pct == 1.0 and by_name["all"].svc_pct == 1.0


def test_homograph_counted_in_both_rows(subcat_inputs):
    # the pêche occurrence of doc1 appears under NCF and under CV
    args, flats = subcat_inputs
    rows = by_subcategory(*args, pn_by_subcat=flats.pn_by_subcat,
                          svc_by_subcat=flats.svc_by_subcat)
    per_subcat = sum(r.pn for r in rows if r.subcat != "all")
    total = next(r.pn for r in rows if r.subcat == "all")
    assert per_subcat == total + 1  # exactly one homograph occurrence


def test_by_subcategory_without_dedicated_grammars(subcat_inputs):
    # filtering the lexicon alone must agree with the dedicated grammars
    args, flats = subcat_inputs
    rows_plain = by_subcategory(*args)
    rows_dedicated = by_subcategory(*args, pn_by_subcat=flats.pn_by_subcat,
                                    svc_by_subcat=flats.svc_by_subcat)
    for plain, dedicated in zip(rows_plain, rows_dedicated):
        assert (plain.pn, plain.svc, plain.svc_raw) == \
            (dedicated.pn, dedicated.svc, dedicated.svc_raw)


def test_corrected_ratio_reference_arithmetic(corpus_docs, entries, grammars):
    # CV cell of the reference breakdown: 1334 -> 2598, 30231 -> 26355, 9.9%
    from lexgram.evaluation import bias_correct, corrected_proportion, percent, round_display
    corrected_svc = bias_correct(1334, 0.74, 0.38)
    corrected_pn = bias_correct(30231, 0.68, 0.78)
    assert round_display(corrected_svc, "half-up") == 2598
    assert round_display(corrected_pn, "half-up") == 26355
    ratio = corrected_proportion(30231, 0.68, 0.78, 1334, 0.74, 0.38)
    assert ratio == pytest.approx(0.0986, abs=5e-5)
    assert percent(ratio) == "10%"


def test_by_subcategory_with_correction(subcat_inputs):
    args, _ = subcat_inputs
    rows = by_subcategory(*args, correction=((0.68, 0.78), (0.74, 0.38)))
    all_row = next(r for r in rows if r.subcat == "all")
    # 3 * .74 / .38 over 12 * .68 / .78
    assert all_row.corrected_ratio == pytest.approx((3 * 0.74 / 0.38) / (12 * 0.68 / 0.78))


def test_format_classification_layout(subcat_inputs):
    args, flats = subcat_inputs
    rows = by_subcategory(*args, pn_by_subcat=flats.pn_by_subcat,
                          svc_by_subcat=flats.svc_by_subcat)
    counts = ClassifiedCounts(12, 4, 3, 9)
    payload = format_classification(counts, rows)
    lines = payload.strip().split("\n")
    assert lines[1].startswith("experimental\t12\t4\t3\t9\t0.2500\t25%")
    assert any(line.startswith("NCA\t3\t25%\t1\t33%\t0.3333\t33%\t2") for line in lines)


def _subcat_rows(fixture_run, texts, subcats=SUBCATEGORIES):
    flats = fixture_run.flats
    tagged = [tag(tokenize(t), fixture_run.index, t) for t in texts]
    overall = per_document_counts(flats.pn, flats.svc, tagged)
    return by_subcategory(build_corpus(texts, fixture_run.index), overall, fixture_run.index,
                          flats.pn, flats.svc, subcats,
                          pn_by_subcat=flats.pn_by_subcat, svc_by_subcat=flats.svc_by_subcat)


def test_subcategory_match_never_crosses_documents(fixture_run):
    # "une" closes one document and "attention" opens the next: joined in
    # one text, they are an NCA match
    joined = {r.subcat: r.pn for r in _subcat_rows(fixture_run, ["Bob a prêté une attention."])}
    assert joined["NCA"] == 1
    split = _subcat_rows(fixture_run, ["Bob a prêté une", "attention à ce détail."])
    assert [r.pn for r in split] == [0, 0, 0, 0]


@pytest.mark.parametrize("subcats", [(), ("NCF",), ("CV", "NCF"), SUBCATEGORIES],
                         ids=lambda subcats: "-".join(subcats) or "none")
def test_by_subcategory_walks_once_per_grammar(fixture_run, monkeypatch, subcats):
    """One walk per grammar family over every subcategory scope, none
    without subcategories."""
    texts = [f"Marie fait attention à ce détail {i}. Le vol restait sans suite."
             for i in range(50)]
    walks = []
    real = classify_mod.locate_scopes

    def counted(flats, tagged, policy):
        walks.append(len(flats))
        return real(flats, tagged, policy)

    monkeypatch.setattr(classify_mod, "locate_scopes", counted)
    rows = _subcat_rows(fixture_run, texts, subcats)
    assert walks == ([len(subcats)] * 2 if subcats else [])
    assert [r.subcat for r in rows] == [*subcats, "all"]
    if "NCF" in subcats:
        assert {r.subcat: r.pn for r in rows}["NCF"] == 50

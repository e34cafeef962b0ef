from __future__ import annotations

import shutil

import pytest

from lexgram import pipeline
from lexgram.concord import build_concordance, format_concordance, sort_concordance
from lexgram.rtn import POLICIES, flatten, locate

from conftest import FIXTURES


def pn_lines(tagged_docs, grammars, width=40):
    flat = flatten(grammars.pn)
    lines = []
    for doc_id, tagged in tagged_docs:
        matches = locate(flat, tagged)
        lines.extend(build_concordance(matches, tagged.source, width, doc_id))
    return lines


def test_line_per_match_bijection(tagged_docs, grammars):
    flat = flatten(grammars.pn)
    for doc_id, tagged in tagged_docs:
        matches = locate(flat, tagged)
        lines = build_concordance(matches, tagged.source, 40, doc_id)
        assert len(lines) == len(matches)


def test_center_reproduces_source_slice(tagged_docs, grammars):
    for line in pn_lines(tagged_docs, grammars):
        blob = None
        for doc_id, tagged in tagged_docs:
            if doc_id == line.doc_id:
                blob = tagged.source.encode("utf-8")
        assert blob is not None
        assert line.center == blob[line.match.start_byte:line.match.end_byte].decode()


def test_match_at_document_start_has_empty_left(tagged_docs, grammars):
    lines = [l for l in pn_lines(tagged_docs, grammars) if l.match.start_byte == 0]
    assert lines  # doc2 starts with a match ("Le contrôle")
    assert all(l.left == "" for l in lines)


def test_zero_width_contexts(tagged_docs, grammars):
    for line in pn_lines(tagged_docs, grammars, width=0):
        assert line.left == "" and line.right == ""
        assert line.center


def test_width_limits_in_characters(tagged_docs, grammars):
    for line in pn_lines(tagged_docs, grammars, width=7):
        assert len(line.left) <= 7 and len(line.right) <= 7


def test_context_never_splits_scalars(tagged_docs, grammars):
    # decoding succeeded inside build_concordance; re-encoding must round-trip
    for line in pn_lines(tagged_docs, grammars, width=3):
        assert line.left.encode("utf-8").decode("utf-8") == line.left
        assert line.right.encode("utf-8").decode("utf-8") == line.right


def test_sort_text_order_identity(tagged_docs, grammars):
    lines = pn_lines(tagged_docs, grammars)
    ordered = sort_concordance(lines, "text")
    assert sort_concordance(ordered, "text") == ordered


def test_sort_center_matches_hand_order(tagged_docs, grammars):
    lines = [l for l in pn_lines(tagged_docs, grammars) if l.doc_id == "doc1"][:5]
    centers = [l.center for l in lines]
    assert centers == ["une grande attention", "Ce débat", "Les nouvelles",
                       "de vol", "La pêche"]
    hand_sorted = ["Ce débat", "La pêche", "Les nouvelles", "de vol",
                   "une grande attention"]
    assert [l.center for l in sort_concordance(lines, "center")] == hand_sorted


def test_sort_center_stable_tie():
    lines = pn_lines_with_same_center()
    ordered = sort_concordance(lines, "center")
    assert [l.doc_id for l in ordered] == ["a", "b"]


def pn_lines_with_same_center():
    from lexgram.concord import ConcordanceLine
    from lexgram.rtn import Match
    mk = lambda doc, start: ConcordanceLine(
        Match(0, 1, start, start + 2, "G", {}), "", "xx", "", doc)
    return [mk("a", 0), mk("b", 5)]


def test_sort_left_reversed():
    from lexgram.concord import ConcordanceLine
    from lexgram.rtn import Match
    mk = lambda left, doc: ConcordanceLine(Match(0, 1, 0, 1, "G", {}), left, "c", "", doc)
    lines = [mk("xa", "1"), mk("yb", "2"), mk("za", "3")]
    ordered = sort_concordance(lines, "left-reversed")
    # keys are the reversed left contexts: "ax", "by", "az"
    assert [l.doc_id for l in ordered] == ["1", "3", "2"]


def test_sort_idempotent_all_orders(tagged_docs, grammars):
    lines = pn_lines(tagged_docs, grammars)
    for order in ("text", "center", "left-reversed"):
        once = sort_concordance(lines, order)
        assert sort_concordance(once, order) == once


def test_format_concordance_cleans_fields(tagged_docs, grammars):
    lines = pn_lines(tagged_docs, grammars)
    payload = format_concordance(lines)
    rows = payload.strip().split("\n")
    assert len(rows) == len(lines)
    for row in rows:
        assert len(row.split("\t")) == 6


def test_format_replaces_embedded_newlines():
    from lexgram.concord import ConcordanceLine
    from lexgram.rtn import Match
    line = ConcordanceLine(Match(0, 1, 3, 5, "G", {}), "a\nb", "c\td", "e\rf", "doc")
    row = format_concordance([line]).strip()
    assert row == "doc\t3\t5\ta b\tc d\te f"


def test_negative_width_rejected(tagged_docs, grammars):
    flat = flatten(grammars.pn)
    doc_id, tagged = tagged_docs[0]
    with pytest.raises(ValueError):
        build_concordance(locate(flat, tagged), tagged.source, -1, doc_id)


@pytest.mark.parametrize("policy", POLICIES)
def test_run_lines_are_already_in_text_order(tmp_path, policy):
    """``Run.lines`` keeps ``located``'s order, which is text order: the
    documents sorted by id, each document's matches by start token.  The
    fixture corpus plus two copies of doc1 around it gives both grammars
    matches in several documents."""
    fixtures = shutil.copytree(FIXTURES, tmp_path / "fixtures")
    for doc_id in ("doc0", "doc3"):
        shutil.copy(fixtures / "corpus" / "doc1.txt", fixtures / "corpus" / f"{doc_id}.txt")
    cfg = pipeline.parse_config(str(fixtures / "run.cfg"))
    cfg.policy = policy
    run = pipeline.Run(cfg)
    for which in ("pn", "svc"):
        lines = run.lines(which)
        assert len({line.doc_id for line in lines}) >= 3
        assert lines == sort_concordance(lines, "text")

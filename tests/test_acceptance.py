"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime once its assertions hold."""
from __future__ import annotations

import time

import pytest

from lexgram import pipeline, reference
from lexgram.classify import by_subcategory
from lexgram.lexicon import CASE_EXACT, build_index, lookup
from lexgram.rtn import flatten, load_grammar, locate, locate_recursive
from lexgram.textproc import tag, tokenize

from conftest import fixture_path


def report(name: str, elapsed: float) -> None:
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_table_arithmetic():
    """Recall/precision/correction arithmetic reproduces the reference
    tables exactly after half-up percent rounding, with the two known
    inconsistently rounded cells flagged."""
    start = time.perf_counter()
    cells = reference.verify_tables()
    by_name = {c.name: c for c in cells}

    assert by_name["recall.PN.E1"].computed == "87%"
    assert by_name["recall.PN.E2"].computed == "68%"
    assert by_name["recall.PN.average"].computed == "78%"
    assert by_name["recall.SVC.E1"].computed == "58%"
    assert by_name["recall.SVC.E2"].computed == "20%"
    assert by_name["precision.PN.E1"].computed == "68%"
    assert by_name["precision.PN.E2"].computed == "68%"
    assert by_name["precision.PN.average"].computed == "68%"
    assert by_name["precision.SVC.E1"].computed == "84%"
    assert by_name["precision.SVC.E2"].computed == "64%"
    assert by_name["precision.SVC.average"].computed == "74%"
    assert by_name["corrected.count.PN"].computed == "83195"
    assert by_name["corrected.count.SVC"].computed == "6522"
    assert by_name["proportion.raw"].computed == "4%"
    assert by_name["proportion.corrected"].computed == "8%"
    assert by_name["subcat.ratio.NCA"].computed == "3%"
    assert by_name["subcat.ratio.NCF"].computed == "2%"
    assert by_name["subcat.ratio.CV"].computed == "4%"
    assert by_name["subcat.corrected.NCA"].computed == "6%"
    assert by_name["subcat.corrected.CV"].computed == "10%"

    # no cell fails; the reference's own rounding inconsistencies are
    # exactly the two flagged cells, one final-digit step each
    assert not any(c.status == reference.FAIL for c in cells)
    flagged = {c.name for c in cells if c.status == reference.FLAG}
    assert flagged == {"recall.SVC.average", "subcat.corrected.NCF"}
    for name in flagged:
        computed = int(by_name[name].computed.rstrip("%"))
        printed = int(by_name[name].reference.rstrip("%"))
        assert abs(computed - printed) == 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 1: reference table arithmetic", elapsed)


def test_criterion_2_flattening_oracle(all_grammar_files, tagged_docs):
    """locate over the flattened graph equals the direct recursive
    interpreter for every bundled grammar, document, and policy."""
    assert len(all_grammar_files) >= 10
    import os
    names = {os.path.basename(p) for p in all_grammar_files}
    assert {"pn.grm", "svc.grm"} <= names
    start = time.perf_counter()
    mismatches = 0
    for path in all_grammar_files:
        grammar = load_grammar([path])
        flat = flatten(grammar)
        for policy in ("longest", "all", "shortest"):
            for _, tagged in tagged_docs:
                got = [m.span for m in locate(flat, tagged, policy)]
                oracle = [m.span for m in locate_recursive(grammar, tagged, policy)]
                if got != oracle:
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"criterion 2: flattening oracle over {len(all_grammar_files)} grammars",
           elapsed)


def test_criterion_3_lexicon_oracle(entries, index, tagged_docs, run_config):
    """Indexed lookup equals a linear scan for every distinct corpus token;
    every generated inflected form looks up back to its lemma and code."""
    start = time.perf_counter()

    def linear_scan(form):
        found = set()
        for entry in entries:
            if entry.form == form:
                found.update(entry.analyses())
        return frozenset(found)

    vocabulary = {t.token.surface for _, tagged in tagged_docs
                  for t in tagged.tokens}
    assert vocabulary
    for form in sorted(vocabulary):
        assert lookup(index, form, CASE_EXACT) == linear_scan(form)

    from lexgram.inflect import expand_lexicon, load_lemma_entries, load_paradigms
    paradigms = load_paradigms(run_config.paradigms)
    lemma_entries = []
    for path in run_config.lemmas:
        lemma_entries.extend(load_lemma_entries(path))
    expanded = expand_lexicon(lemma_entries, paradigms)
    assert expanded
    round_trips = sum(
        1 for e in expanded
        if any(a.lemma == e.lemma and a.infl_code == e.infl_codes[0]
               for a in lookup(index, e.form)))
    assert round_trips == len(expanded)  # 100 percent

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 3: lexicon oracle over {len(vocabulary)} forms, "
           f"{len(expanded)} generated entries", elapsed)


def test_criterion_4_bias_reproduction(index, grammars):
    """The ambiguity bias and the agreement constraint are both live: the
    verb grammar accepts "les nouvelles données" through the news noun and
    the participle reading, and the noun grammar rejects a determiner and
    noun with conflicting number."""
    start = time.perf_counter()

    text = "les nouvelles données"
    tagged = tag(tokenize(text), index, text)
    svc_spans = [m.span for m in locate(flatten(grammars.svc), tagged)]
    assert (0, 3) in svc_spans  # the false positive is reproduced

    accepted = "ce débat"
    tagged = tag(tokenize(accepted), index, accepted)
    assert [m.span for m in locate(flatten(grammars.pn), tagged)] == [(0, 2)]
    conflicting = "ce débats"
    tagged = tag(tokenize(conflicting), index, conflicting)
    assert locate(flatten(grammars.pn), tagged) == []

    report("criterion 4: ambiguity and agreement biases",
           time.perf_counter() - start)


def parse_ledger():
    rows = {}
    with open(fixture_path("corpus", "ledger.tsv"), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            scope, pn, svc_raw, with_sv, without_sv = line.split("\t")
            rows[scope] = (int(pn), int(svc_raw), int(with_sv), int(without_sv))
    return rows


def test_criterion_5_fixture_ledger(run_config, subcat_inputs, tmp_path):
    """Pipeline counts equal the hand-derived ledger committed with the
    bundled corpus.  The reference corpus-level percentages are out of
    reach at this scale by construction; the ledger is the authority."""
    start = time.perf_counter()
    ledger = parse_ledger()
    result = pipeline.run_pipeline(run_config, str(tmp_path))

    counts = result.counts
    assert (counts.pn_total, counts.svc_total, counts.pn_with_sv,
            counts.pn_without_sv) == ledger["all"]

    args, flats = subcat_inputs
    rows = by_subcategory(*args,
                          pn_by_subcat=flats.pn_by_subcat,
                          svc_by_subcat=flats.svc_by_subcat,
                          policy=run_config.policy,
                          case_policy=run_config.case_policy)
    for row in rows:
        expected = ledger[row.subcat]
        assert (row.pn, row.svc_raw, row.svc, row.pn - row.svc) == \
            (expected[0], expected[1], expected[2], expected[3]), row.subcat

    report("criterion 5: end-to-end fixture ledger",
           time.perf_counter() - start)


def test_criterion_6_invariant_suite():
    """Partition, antichain, bijection, sort idempotence, and correction
    monotonicity, each over at least 1000 randomized cases."""
    import test_properties as props

    start = time.perf_counter()
    props.test_partition_invariant_randomized()
    props.test_longest_match_antichain_randomized()
    props.test_match_line_bijection_randomized()
    props.test_sort_idempotence_randomized()
    props.test_bias_correct_monotone()
    props.test_bias_correct_identity_when_p_equals_r()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 6: invariant suite, {props.CASES}+ cases per property",
           elapsed)

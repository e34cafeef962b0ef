from __future__ import annotations

import pytest

from lexgram.errors import EmptyInput
from lexgram.lexicon import SUBCATEGORIES, build_index, filter_subcategory, parse_entry
from lexgram.textproc import (
    NUMBER,
    PUNCT,
    UNKNOWN,
    WORD,
    TaggedToken,
    Token,
    build_corpus,
    dump_tagged,
    scope_keys,
    tag,
    tagging_coverage,
    tokenize,
)

from conftest import reference_join, reference_tag


def small_index():
    return build_index([
        parse_entry("données,donnée.N:fp"),
        parse_entry("données,donner.V+Supp:Kfp"),
        parse_entry("l',le.DET:s"),
        parse_entry("le,le.DET:ms"),
        parse_entry("débat,débat.N+PN+NCA:ms"),
    ])


# -- tokenization -------------------------------------------------------------

def test_elision_splits():
    tokens = tokenize("l'embarras")
    assert [t.surface for t in tokens] == ["l'", "embarras"]
    assert all(t.kind == WORD for t in tokens)


def test_simple_sentence():
    tokens = tokenize("Bob a donné son avis.")
    assert [t.surface for t in tokens] == ["Bob", "a", "donné", "son", "avis", "."]
    assert tokens[0].sentence_initial
    assert not any(t.sentence_initial for t in tokens[1:])
    assert tokens[-1].kind == PUNCT


def test_internal_hyphen_is_one_word():
    tokens = tokenize("contre-courant")
    assert [t.surface for t in tokens] == ["contre-courant"]


def test_two_letter_elision():
    assert [t.surface for t in tokenize("qu'il")] == ["qu'", "il"]


def test_long_apostrophe_word_stays_whole():
    assert [t.surface for t in tokenize("aujourd'hui")] == ["aujourd'hui"]


def test_number_and_punct_kinds():
    kinds = [t.kind for t in tokenize("Vu 95 430 fois (env.)")]
    assert kinds == [WORD, NUMBER, NUMBER, WORD, PUNCT, WORD, PUNCT, PUNCT]


def test_sentence_boundary_and_initial_flags():
    tokens = tokenize("Ce débat était long. Les détails restaient.")
    initials = [t.surface for t in tokens if t.sentence_initial]
    assert initials == ["Ce", "Les"]


def test_initial_word_after_opening_quote_or_number():
    # the first sentence opens with a punctuation or number token, so its
    # initial word is not its first token
    tokens = tokenize("« Marie dort. Paul mange.")
    assert [t.surface for t in tokens if t.sentence_initial] == ["Marie", "Paul"]
    tokens = tokenize("12 chats dorment. Les chiens aussi.")
    assert [t.surface for t in tokens if t.sentence_initial] == ["chats", "Les"]


def test_no_boundary_without_uppercase():
    tokens = tokenize("M. le débat continue")
    assert [t.surface for t in tokens if t.sentence_initial] == ["M"]


def test_byte_offsets_slice_source():
    text = "Ce débat était long."
    blob = text.encode("utf-8")
    for token in tokenize(text):
        assert blob[token.start:token.end].decode("utf-8") == token.surface


def test_spans_partition_source_minus_whitespace():
    text = "Les nouvelles données (de Bob) étaient là.\nIl débat.\n"
    blob = text.encode("utf-8")
    tokens = tokenize(text)
    joined = b"".join(blob[t.start:t.end] for t in tokens)
    stripped = b"".join(blob.split())
    assert joined == stripped
    for before, after in zip(tokens, tokens[1:]):
        assert before.end <= after.start


def test_tokenize_determinism():
    text = "La pêche est une activité agréable."
    assert tokenize(text) == tokenize(text)


# -- tagging -------------------------------------------------------------------

def test_tag_keeps_all_ambiguous_analyses():
    text = "le données"
    tagged = tag(tokenize(text), small_index(), text)
    analyses = tagged.tokens[1].analyses
    assert {a.category for a in analyses} == {"N", "V"}
    assert len(analyses) == 2


def test_tag_unknown_word():
    text = "le pilliers"
    tagged = tag(tokenize(text), small_index(), text)
    assert tagged.tokens[1].analyses == frozenset([UNKNOWN])
    assert tagged.tokens[1].is_unknown


def test_tag_open_punct():
    text = "("
    tagged = tag(tokenize(text), small_index(), text)
    analysis = next(iter(tagged.tokens[0].analyses))
    assert analysis.category == "PONCT"
    assert "OPEN" in analysis.sem_features


def test_equal_tokens_share_one_analysis_set_and_key_in_every_text():
    index = small_index()
    texts = ["le débat ( 12 ) . le débat", "Le débat , le débat ( 12 ) ."]
    first, second = (tag(tokenize(text), index, text) for text in texts)
    by_surface = {}
    for tagged in (first, second):
        for tt, key in zip(tagged.tokens, tagged.keys):
            assert key == (tt.token.surface, tt.analyses)
            assert by_surface.setdefault(tt.token.surface, tt.analyses) is tt.analyses
        # within one text, equal keys are one tuple
        assert len({id(key) for key in tagged.keys}) == len(set(tagged.keys))


def test_corpus_keys_are_one_object_per_distinct_key(fixture_run):
    # the joined corpus interns its keys once across documents
    keys = fixture_run.corpus.keys
    assert len({id(key) for key in keys}) == len(set(keys))


def test_corpus_tokens_view_equals_reference_tokens(fixture_run, entries):
    """``Corpus.tokens`` builds each item when read; on the fixture run and
    on every subcategory view of it, the items equal the documents' own
    tagged tokens, joined."""
    corpus, policy = fixture_run.corpus, fixture_run.cfg.case_policy
    texts = [text for _, text in fixture_run.docs]
    want = reference_join(reference_tag(tokenize(t), fixture_run.index, policy) for t in texts)
    assert len(corpus.tokens) == len(corpus.keys) == len(want.tokens)
    assert list(corpus.tokens) == want.tokens
    assert corpus.tokens[-1] == want.tokens[-1]
    assert corpus.tokens[3:9] == want.tokens[3:9]
    with pytest.raises(IndexError):
        corpus.tokens[len(corpus.keys)]
    for subcat in SUBCATEGORIES:
        view = corpus._replace(keys=scope_keys(corpus, fixture_run.index, (subcat,), policy))
        scoped = build_index(filter_subcategory(entries, subcat))
        want = reference_join(reference_tag(tokenize(t), scoped, policy) for t in texts)
        assert len(view.tokens) == len(view.keys)
        assert list(view.tokens) == want.tokens, subcat


def test_tag_folds_only_sentence_initial():
    text = "Débat. On Débat."
    tagged = tag(tokenize(text), small_index(), text)
    first, _, _, second, _ = tagged.tokens
    assert not first.is_unknown          # sentence-initial, folds to "débat"
    assert second.is_unknown             # mid-sentence uppercase stays exact


def test_tag_boundaries_and_sentence_end():
    text = "Ce débat était long. Les détails restaient."
    tagged = tag(tokenize(text), small_index(), text)
    assert tagged.boundaries == (5,)
    assert tagged.sentence_end(0) == 5
    assert tagged.sentence_end(5) == len(tagged.tokens)


def test_tag_byte_spans_equal_hand_built_offsets():
    # 2-byte "É" "é" "«" "»", 3-byte "’" and CJK; tokens built by hand
    text = "Été « l’été » 東京. Débat"
    tokens = [Token("Été", 0, 5, WORD, True), Token("«", 6, 8, PUNCT),
              Token("l’", 9, 13, WORD), Token("été", 13, 18, WORD),
              Token("»", 19, 21, PUNCT), Token("東京", 22, 28, WORD),
              Token(".", 28, 29, PUNCT), Token("Débat", 30, 36, WORD, True, True)]
    assert tokenize(text) == tokens
    tagged = tag(tokens, small_index(), text)
    assert tagged.texts == (text,) and tagged.starts == (0,)
    assert [tagged.byte_span(i, i + 1) for i in range(len(tokens))] == \
        [(t.start, t.end) for t in tokens]
    assert tagged.byte_span(0, len(tokens)) == (0, len(text.encode("utf-8")))
    assert [tt.token for tt in tagged.tokens] == tokens
    assert tagged.tokens[-1] == TaggedToken(tokens[-1], tagged.keys[-1][1])


def test_sentence_end_over_texts_and_one_tagged_text():
    def ends(corpus):
        return [corpus.sentence_end(i) for i in range(len(corpus.keys))]

    # "Le débat . Le vol", "", "Fin . Ici": a sentence opens at 3, at the
    # third text's first token 5 and at 7; the empty text adds none
    corpus = build_corpus(["Le débat. Le vol", "", "Fin. Ici"], small_index())
    assert corpus.starts == (0, 5, 5)
    assert corpus.boundaries == (3, 5, 7)
    assert ends(corpus) == [3, 3, 3, 5, 5, 7, 7, 8]
    assert ends(build_corpus(["", "Le débat"], small_index())) == [2, 2]
    assert ends(build_corpus(["", ""], small_index())) == []
    text = "Fin. Le débat ! Ici"
    assert ends(tag(tokenize(text), small_index(), text)) == [2, 2, 5, 5, 5, 6]


def test_ambiguity_preservation_matches_lookup(entries, index, tagged_docs):
    from lexgram.lexicon import lookup
    for _, tagged in tagged_docs:
        for tt in tagged.tokens:
            token = tt.token
            if token.kind == WORD and not token.sentence_initial and not tt.is_unknown:
                assert tt.analyses == lookup(index, token.surface)


# -- coverage -------------------------------------------------------------------

def test_coverage_all_known():
    text = "le débat"
    tagged = tag(tokenize(text), small_index(), text)
    assert tagging_coverage(tagged) == 1.0


def test_coverage_one_unknown_in_ten():
    words = ["le"] * 9 + ["zzz"]
    text = " ".join(words)
    tagged = tag(tokenize(text), small_index(), text)
    assert tagging_coverage(tagged) == pytest.approx(0.9)


def test_coverage_empty_input():
    tagged = tag(tokenize(""), small_index(), "")
    with pytest.raises(EmptyInput):
        tagging_coverage(tagged)


def test_fixture_corpus_coverage(tagged_docs):
    # hand count over the bundled corpus: 109 word tokens, 14 unknown
    words = unknown = 0
    for _, tagged in tagged_docs:
        for tt in tagged.tokens:
            if tt.token.kind == WORD:
                words += 1
                unknown += tt.is_unknown
    assert words == 109
    assert unknown == 14
    total = sum(tagging_coverage(tagged) * sum(
        1 for t in tagged.tokens if t.token.kind == WORD)
        for _, tagged in tagged_docs)
    assert total == pytest.approx(95)


def test_dump_tagged_format():
    text = "le données"
    tagged = tag(tokenize(text), small_index(), text)
    lines = dump_tagged(tagged.tokens).splitlines()
    assert lines[0].split("\t")[:3] == ["0", "2", "le"]
    assert "donner.V+Supp:Kfp" in lines[1]
    assert ";" in lines[1]

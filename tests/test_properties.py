"""Randomized invariant checks over small generated inputs."""
from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lexgram import rtn
from lexgram.classify import by_subcategory, classify_pn
from lexgram.concord import ConcordanceLine, build_concordance, sort_concordance
from lexgram.evaluation import bias_correct
from lexgram.lexicon import (CASE_EXACT, CASE_POLICIES, SUBCATEGORIES, LexEntry, build_index,
                             filter_subcategory, lookup, parse_entry)
from lexgram.rtn import (EPSILON, POLICIES, Grammar, Graph, Literal, Mask, Match, locate,
                         locate_recursive, locate_scopes, span_accepts)
from lexgram.textproc import (UNKNOWN_ANALYSES, WORD, build_corpus, scope_keys, tag,
                              tokenize)

from conftest import fixture_path, per_document_counts, reference_join, reference_tag

CASES = 1000

_LEXICON = [
    "le,le.DET:ms", "la,le.DET:fs", "les,le.DET:mp:fp", "une,un.DET:fs",
    "ce,ce.DET:ms", "débat,débat.N+NCA+PN:ms", "vol,vol.N+NCF+PN:ms",
    "pêche,pêche.N+NCF+PN:fs", "pêche,pêche.N+CV+PN:fs",
    "grande,grand.ADJ:fs", "donne,donner.V+Supp:P3s",
    "données,donner.V+Supp:Kfp", "données,donnée.N:fp",
]
_INDEX = build_index([parse_entry(l) for l in _LEXICON])
_WORDS = ["le", "la", "les", "une", "ce", "débat", "vol", "pêche", "grande",
          "donne", "données", "zzz"]
_PUNCT = [".", ",", "(", ")"]


# tokens whose analysis set another surface shares: sentence-initial
# capitals fold to the lowercase form's set, unknown words share UNKNOWN's
_SHARED_SET_WORDS = ["Le", "La", "Vol", "Zzz", "yyy"]


def random_tagged(rng: random.Random, words: list[str] = _WORDS):
    parts = []
    for _ in range(rng.randrange(1, 12)):
        parts.append(rng.choice(words + _PUNCT if rng.random() < 0.9 else _PUNCT))
    text = " ".join(parts)
    return tag(tokenize(text), _INDEX, text)


def random_flat_graph(rng: random.Random) -> Graph:
    n = rng.randrange(2, 6)
    labels = [
        lambda: Literal(rng.choice(_WORDS), fold=rng.random() < 0.3),
        lambda: Mask(category=rng.choice(["DET", "N", "V", "ADJ", "PONCT"])),
        lambda: Mask(category="N", required=frozenset({"PN"})),
        lambda: Mask(category="DET", agree_group="g"),
        lambda: Mask(category="N", agree_group="g"),
        lambda: EPSILON,
    ]
    trans = []
    for _ in range(rng.randrange(1, 2 * n)):
        frm, to = rng.randrange(n), rng.randrange(n)
        label = rng.choice(labels)()
        if label is EPSILON and frm >= to:
            continue  # keep epsilon edges forward so no epsilon cycles arise
        trans.append((frm, label, to))
    finals = frozenset(rng.sample(range(n), rng.randrange(1, n)))
    return Graph("R", n, 0, finals, tuple(trans))


def random_match(rng: random.Random, doc: str) -> Match:
    start = rng.randrange(0, 50)
    end = start + rng.randrange(1, 6)
    return Match(start, end, start * 3, end * 3, "G", {})


def test_partition_invariant_randomized():
    rng = random.Random(20240811)
    for _ in range(CASES):
        pn = [random_match(rng, "d") for _ in range(rng.randrange(0, 8))]
        svc = [random_match(rng, "d") for _ in range(rng.randrange(0, 5))]
        counts = classify_pn(pn, svc)
        assert counts.pn_with_sv + counts.pn_without_sv == counts.pn_total
        assert 0.0 <= counts.proportion <= 1.0
        # containment monotonicity: adding an svc span never lowers with_sv
        more = classify_pn(pn, svc + [random_match(rng, "d")])
        assert more.pn_with_sv >= counts.pn_with_sv


def test_longest_match_antichain_randomized():
    rng = random.Random(7041992)
    for _ in range(CASES):
        tagged = random_tagged(rng)
        graph = random_flat_graph(rng)
        matches = locate(graph, tagged, "longest")
        starts = [m.start_token for m in matches]
        assert len(starts) == len(set(starts))
        # longest dominates: every "all" span shares a start with a longest
        # span of at least its length
        longest_by_start = {m.start_token: m.end_token for m in matches}
        for m in locate(graph, tagged, "all"):
            assert longest_by_start[m.start_token] >= m.end_token


@settings(max_examples=CASES, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_compiled_matcher_equals_reference(rng):
    tagged = random_tagged(rng)
    graph = random_flat_graph(rng)
    grammar = Grammar({"R": graph}, "R")
    for policy in ("longest", "all", "shortest"):
        direct = [(m.span, m.bindings) for m in locate(graph, tagged, policy)]
        reference = [(m.span, m.bindings)
                     for m in locate_recursive(grammar, tagged, policy)]
        assert direct == reference, policy
    for m in locate(graph, tagged, "all"):
        assert span_accepts(graph, tagged, m.start_token, m.end_token, m.bindings)


def _matches(graph, tagged, policy):
    return [(m.span, m.bindings) for m in locate(graph, tagged, policy)]


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_cached_dfa_reused_across_texts_equals_reference(rng):
    """One compiled graph, its DFA cache kept, located over several texts
    in turn under every policy: each result equals the reference's."""
    graph = random_flat_graph(rng)
    grammar = Grammar({"R": graph}, "R")
    for _ in range(rng.randrange(2, 6)):
        tagged = random_tagged(rng, _WORDS + _SHARED_SET_WORDS)
        for policy in ("longest", "all", "shortest"):
            reference = [(m.span, m.bindings)
                         for m in locate_recursive(grammar, tagged, policy)]
            assert _matches(graph, tagged, policy) == reference, policy


@pytest.mark.parametrize("limit", [1, 2])
def test_tiny_dfa_cache_gives_identical_results(monkeypatch, limit, all_grammar_files,
                                                tagged_docs):
    """Flushing the cache at every step or every other one changes no
    span or binding, and keeps the cache within the limit."""
    from lexgram import rtn
    from lexgram.rtn import flatten, load_grammar
    cases = [(flatten(load_grammar([path])), tagged) for path in all_grammar_files
             for _, tagged in tagged_docs]
    rng = random.Random(314159)
    cases += [(random_flat_graph(rng), random_tagged(rng, _WORDS + _SHARED_SET_WORDS))
              for _ in range(200)]
    expected = [[_matches(graph, tagged, policy) for policy in ("longest", "all", "shortest")]
                for graph, tagged in cases]
    monkeypatch.setattr(rtn, "DFA_CACHE_LIMIT", limit)
    for (graph, tagged), want in zip(cases, expected):
        graph._matcher = None
        got = [_matches(graph, tagged, policy) for policy in ("longest", "all", "shortest")]
        assert got == want
        assert graph._matcher.size <= limit + 2


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_span_accepts_replays_after_locate_fills_the_cache(rng):
    """After ``locate`` has filled the cache, ``span_accepts`` holds for
    exactly the spans ``all`` reports, and for each with its bindings."""
    graph = random_flat_graph(rng)
    tagged = random_tagged(rng, _WORDS + _SHARED_SET_WORDS)
    found = locate(graph, tagged, "all")
    spans = {m.span for m in found}
    for m in found:
        assert span_accepts(graph, tagged, m.start_token, m.end_token, m.bindings)
    n = len(tagged.tokens)
    for start in range(n):
        for end in range(start + 1, n + 1):
            assert span_accepts(graph, tagged, start, end) == ((start, end) in spans)


# surfaces of fixture entries, with capitalized variants, and a non-word
_SUBCAT_FORMS = ["pêche", "vol", "débat", "attention", "avis", "données", "le", "zzz"]
_TEXT_PIECES = (_SUBCAT_FORMS + [f.capitalize() for f in _SUBCAT_FORMS]
                + [".", ".", ",", "«", "12"])


@st.composite
def subcat_entries(draw):
    """Extra entries over fixture surfaces or their capitalized variants:
    plain nouns, or PN homographs with a random subset of subcategories."""
    extra = []
    for _ in range(draw(st.integers(0, 8))):
        form = draw(st.sampled_from(_SUBCAT_FORMS))
        if draw(st.booleans()):
            form = form.capitalize()
        feats: tuple[str, ...] = ()
        if draw(st.booleans()):
            feats = ("PN",) + tuple(sorted(draw(st.sets(st.sampled_from(SUBCATEGORIES)))))
        extra.append(LexEntry(form, draw(st.sampled_from(["a", "b"])), "N", feats,
                              (draw(st.sampled_from(["ms", "fs"])),)))
    return extra


@settings(max_examples=200, deadline=None)
@given(extra=subcat_entries(),
       texts=st.lists(st.lists(st.sampled_from(_TEXT_PIECES), max_size=20).map(" ".join),
                      min_size=1, max_size=3))
@example(extra=[], texts=["Pêche pêche"])
@example(extra=[LexEntry("Vol", "a", "N", ("PN", "NCA"), ("ms",))], texts=["", "Vol vol . Vol"])
def test_restricted_tagging_equals_filtered_lexicon(entries, extra, texts):
    """The scope keys of a corpus of 1-3 texts, some maybe empty, equal
    its texts tagged against the lexicon filtered to each subcategory,
    token by token.  A sentence-initial "Pêche" folds to the set that
    "pêche" has in each scope; a sentence-initial "Vol", an NCA noun,
    finds the NCF "vol" only by the retry in NCF."""
    lexicon = entries + extra
    full = build_index(lexicon)
    for policy in CASE_POLICIES:
        corpus = build_corpus(texts, full, policy)
        for text in texts:
            tokens = tokenize(text)
            tagged = tag(tokens, full, text, policy)
            assert tagged.initials == tuple(i for i, t in enumerate(tokens)
                                            if t.sentence_initial)
        column = scope_keys(corpus, full, SUBCATEGORIES, policy)
        for scope, subcat in enumerate(SUBCATEGORIES, 1):
            scoped = build_index(filter_subcategory(lexicon, subcat))
            want = reference_join(reference_tag(tokenize(t), scoped, policy) for t in texts)
            keys = scope_keys(corpus, full, (subcat,), policy)
            assert keys == want.keys, (subcat, policy)
            assert [(key[0], key[scope]) for key in column] == want.keys, (subcat, policy)
            # equal keys and equal analysis sets are one object, for the
            # matcher's caches
            assert len(set(map(id, keys))) == len(set(keys))
            assert len({id(k[1]) for k in keys}) == len({k[1] for k in keys})
        assert len(set(map(id, column))) == len(set(column))
        assert len({id(a) for k in column for a in k[1:]}) == len({a for k in column
                                                                   for a in k[1:]})


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.sampled_from(_TEXT_PIECES), max_size=20),
       policy=st.sampled_from(CASE_POLICIES))
def test_tag_equals_per_token_lookup(index, pieces, policy):
    """Each word gets the very set ``lookup`` gives it, under the case
    policy when it opens a sentence and exactly elsewhere, or UNKNOWN."""
    text = " ".join(pieces)
    tokens = tokenize(text)
    for token, tagged in zip(tokens, tag(tokens, index, text, policy).tokens, strict=True):
        if token.kind == WORD:
            want = lookup(index, token.surface,
                          policy if token.sentence_initial else CASE_EXACT)
            assert tagged.analyses is (want or UNKNOWN_ANALYSES), token


def _corpus_words() -> list[str]:
    words: set[str] = set()
    for name in ("doc1.txt", "doc2.txt"):
        with open(fixture_path("corpus", name), encoding="utf-8") as handle:
            words.update(t.surface for t in tokenize(handle.read()) if t.kind == WORD)
    return sorted(words)


_CORPUS_WORDS = _corpus_words()


# left contexts and heads of the fixture noun grammars, drawn as often as
# all other pieces together, so that documents often end in a left context
# and begin with a noun
_MATCH_PIECES = ["une", "la", "le", "de", "sans", "(", "grande", "attention", "vol",
                 "pêche", "débat", "avis", "suite", "fait", "donne"]


# letters of 2, 3 and 4 bytes in UTF-8, lower and upper case, so that byte
# offsets part from character offsets by different amounts
_WIDE_LETTERS = ["é", "Ω", "ẞ", "ḁ", "字", "\U0001d400", "\U00010428", "é\U0001d400字"]


@st.composite
def corpora(draw):
    """Documents of 0-12 pieces drawn from fixture words, their capitalized
    variants, punctuation and wide letters; a document need not end in
    punctuation.  Some documents are ASCII only."""
    words = _CORPUS_WORDS + [w.capitalize() for w in _CORPUS_WORDS]
    punctuation = [".", ".", ",", "(", ")"]
    wide = st.sampled_from(_MATCH_PIECES) | st.sampled_from(words + punctuation + _WIDE_LETTERS)
    ascii_only = (st.sampled_from([p for p in _MATCH_PIECES if p.isascii()])
                  | st.sampled_from([w for w in words if w.isascii()] + punctuation))
    return [" ".join(draw(st.lists(draw(st.sampled_from([wide, ascii_only])), max_size=12)))
            for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=100, deadline=None)
@given(extra=subcat_entries(), texts=corpora(),
       policy=st.sampled_from(CASE_POLICIES))
def test_subcategory_rows_equal_per_document_reference(fixture_run, entries, extra, texts,
                                                       policy):
    """The corpus-wide subcategory pass counts what tagging each document
    against the filtered lexicon, locating in it and summing gives."""
    lexicon = entries + extra
    flats = fixture_run.flats
    full = build_index(lexicon)
    tagged = [tag(tokenize(t), full, t, policy) for t in texts]
    overall = per_document_counts(flats.pn, flats.svc, tagged)
    rows = by_subcategory(build_corpus(texts, full, policy), overall, full, flats.pn, flats.svc,
                          pn_by_subcat=flats.pn_by_subcat, svc_by_subcat=flats.svc_by_subcat,
                          case_policy=policy)
    for row in rows[:-1]:
        scoped = build_index(filter_subcategory(lexicon, row.subcat))
        want = per_document_counts(flats.pn_by_subcat[row.subcat],
                                   flats.svc_by_subcat[row.subcat],
                                   [tag(tokenize(t), scoped, t, policy) for t in texts])
        assert (row.pn, row.svc, row.svc_raw) == \
            (want.pn_total, want.pn_with_sv, want.svc_total), row.subcat


@settings(max_examples=100, deadline=None)
@given(texts=corpora(), case_policy=st.sampled_from(CASE_POLICIES))
@example(texts=["", "attention", "une grande attention", "Marie fait attention . Le vol"],
         case_policy=CASE_POLICIES[0])
@example(texts=["une grande attention", "字 ẞ . \U0001d400 une grande attention é",
                "la pêche . Une attention"],
         case_policy=CASE_POLICIES[1])
def test_joined_corpus_equals_per_document(fixture_run, texts, case_policy):
    """``locate`` over the corpus ``build_corpus`` makes of the documents,
    split per document and rebased, gives each document's own matches:
    spans, byte offsets and bindings.  ``classify_pn`` over the corpus
    gives the per-document counts summed."""
    flats = fixture_run.flats
    tagged = [tag(tokenize(t), fixture_run.index, t, case_policy) for t in texts]
    corpus = build_corpus(texts, fixture_run.index, case_policy)
    limits = (*corpus.starts, len(corpus.keys))
    for policy in POLICIES:
        for flat in (flats.pn, flats.svc):
            joined = locate(flat, corpus, policy)
            for text, lo, hi in zip(tagged, limits, limits[1:]):
                own = [replace(m, start_token=m.start_token - lo, end_token=m.end_token - lo)
                       for m in joined if lo <= m.start_token < hi]
                assert all(m.end_token <= hi - lo for m in own)
                assert own == locate(flat, text, policy), policy
        assert classify_pn(locate(flats.pn, corpus, policy), locate(flats.svc, corpus, policy)) \
            == per_document_counts(flats.pn, flats.svc, tagged, policy), policy


# lemmas of fixture entries and of ``subcat_entries``
_SCOPE_LEMMAS = ["a", "b", "pêche", "vol", "attention", "débat", "le"]


def random_scope_graph(rng: random.Random) -> Graph:
    """A random flat graph over the labels a subcategory scope tells apart:
    literals, categories, subcategory features, lemmas and agreement."""
    n = rng.randrange(2, 6)
    labels = [
        lambda: Literal(rng.choice(_SUBCAT_FORMS + ["Vol", "."]), fold=rng.random() < 0.3),
        lambda: Mask(category=rng.choice(["DET", "N", "PREP", "UNKNOWN", "PONCT"])),
        lambda: Mask(category="N", required=frozenset({rng.choice(("PN", *SUBCATEGORIES))})),
        lambda: Mask(lemma=rng.choice(_SCOPE_LEMMAS), category=rng.choice([None, "N"])),
        lambda: Mask(lemma=rng.choice(_SCOPE_LEMMAS), agree_group="g"),
        lambda: Mask(category="DET", agree_group="g"),
        lambda: Mask(category="N", agree_group="g"),
        lambda: EPSILON,
    ]
    trans = []
    for _ in range(rng.randrange(1, 2 * n)):
        frm, to = rng.randrange(n), rng.randrange(n)
        label = rng.choice(labels)()
        if label is EPSILON and frm >= to:
            continue  # keep epsilon edges forward so no epsilon cycles arise
        trans.append((frm, label, to))
    finals = frozenset(rng.sample(range(n), rng.randrange(1, n)))
    return Graph(rng.choice("PQ"), n, 0, finals, tuple(trans))


@pytest.mark.parametrize("limit", [None, 1, 2])
@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), extra=subcat_entries(),
       texts=st.lists(st.lists(st.sampled_from(_TEXT_PIECES + ["Vol", "Vol", ".", "."]),
                               max_size=14).map(" ".join), min_size=1, max_size=3),
       case_policy=st.sampled_from(CASE_POLICIES))
def test_scoped_walk_equals_one_locate_per_scope(entries, limit, rng, extra, texts, case_policy):
    """One walk over every scope gives, per scope, the spans and bindings
    of a separate ``locate`` over the corpus with that scope's keys, under
    every policy, with the DFA cache flushed at every step or every other
    one too.  The scopes are 1-3 subcategories, each with its own graph
    or the main one, so one graph may serve two scopes.  "Vol" is an NCA
    noun and "vol" an NCF one: a sentence-initial "Vol" is unknown in CV,
    and in NCF only the fold policy finds "vol"."""
    lexicon = entries + extra + [LexEntry("Vol", "a", "N", ("PN", "NCA"), ("ms",))]
    index = build_index(lexicon)
    corpus = build_corpus(texts, index, case_policy)
    subcats = tuple(rng.sample(SUBCATEGORIES, rng.randrange(1, 4)))
    main = random_scope_graph(rng)
    pool = [main, random_scope_graph(rng), random_scope_graph(rng)]
    overrides = {sc: rng.choice(pool) for sc in subcats if rng.random() < 0.6}
    graphs = tuple(overrides.get(sc, main) for sc in subcats)
    views = [corpus._replace(keys=reference_join(
                 reference_tag(tokenize(t), build_index(filter_subcategory(lexicon, sc)),
                               case_policy)
                 for t in texts).keys)
             for sc in subcats]
    scoped = corpus._replace(keys=scope_keys(corpus, index, subcats, case_policy))
    with mock.patch.object(rtn, "DFA_CACHE_LIMIT", limit or rtn.DFA_CACHE_LIMIT):
        for policy in POLICIES:
            walked = locate_scopes(graphs, scoped, policy)
            assert len(walked) == len(views)
            for scope, (graph, view, spans) in enumerate(zip(graphs, views, walked)):
                assert [((s.start_token, s.end_token), dict(s.bindings)) for s in spans] \
                    == _matches(graph, view, policy), (scope, policy)


def test_match_line_bijection_randomized():
    rng = random.Random(5121998)
    for _ in range(CASES):
        tagged = random_tagged(rng)
        graph = random_flat_graph(rng)
        matches = locate(graph, tagged, "all")
        width = rng.randrange(0, 12)
        lines = build_concordance(matches, tagged.texts[0], width, "doc")
        assert len(lines) == len(matches)
        blob = tagged.texts[0].encode("utf-8")
        for line in lines:
            assert line.center == \
                blob[line.match.start_byte:line.match.end_byte].decode("utf-8")
            assert len(line.left) <= width and len(line.right) <= width


def test_sort_idempotence_randomized():
    rng = random.Random(14071789)
    alphabet = "abcdé "
    for _ in range(CASES):
        lines = []
        for _ in range(rng.randrange(0, 9)):
            start = rng.randrange(0, 40)
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 6)))
            lines.append(ConcordanceLine(
                Match(0, 1, start, start + 2, "G", {}),
                text[::-1], text or "c", text, rng.choice(["a", "b"])))
        for order in ("text", "center", "left-reversed"):
            once = sort_concordance(lines, order)
            assert sort_concordance(once, order) == once
            assert sorted(id(l) for l in once) == sorted(id(l) for l in lines)


@settings(max_examples=CASES, deadline=None)
@given(n=st.integers(1, 10**6),
       p=st.floats(0.01, 1.0), r=st.floats(0.01, 1.0),
       bump=st.floats(0.01, 0.5))
def test_bias_correct_monotone(n, p, r, bump):
    base = bias_correct(n, p, r)
    if p + bump <= 1.0:
        assert bias_correct(n, p + bump, r) > base
    if r + bump <= 1.0:
        assert bias_correct(n, r=r + bump, p=p) < base
    # linear in n
    assert bias_correct(3 * n, p, r) == pytest.approx(3 * base)


@settings(max_examples=CASES, deadline=None)
@given(n=st.integers(0, 10**6), pr=st.floats(0.01, 1.0))
def test_bias_correct_identity_when_p_equals_r(n, pr):
    assert bias_correct(n, pr, pr) == pytest.approx(n)

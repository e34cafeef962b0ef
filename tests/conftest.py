from __future__ import annotations

import glob
import os
from types import SimpleNamespace

import pytest

from lexgram import pipeline, rtn
from lexgram.classify import ClassifiedCounts, classify_pn
from lexgram.inflect import expand_lexicon, load_lemma_entries, load_paradigms
from lexgram.lexicon import CASE_EXACT, CASE_FOLD, Analysis, load_lexicon, lookup
from lexgram.rtn import locate
from lexgram.textproc import UNKNOWN_ANALYSES, TaggedToken, tag, tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "fixtures")


def fixture_path(*parts: str) -> str:
    return os.path.join(FIXTURES, *parts)


@pytest.fixture(scope="session")
def run_config():
    return pipeline.parse_config(fixture_path("run.cfg"))


@pytest.fixture(scope="session")
def fixture_run(run_config):
    return pipeline.Run(run_config)


def reference_entries(cfg):
    """A config's lexicon as ``LexEntry`` lines: the static files, then every
    lemma file expanded, in file order.  It reads the files through
    ``load_lexicon`` and ``expand_lexicon``, apart from the run path's
    ``build_entries``, so tests can use it as an oracle."""
    entries = []
    for path in cfg.lexicon:
        entries.extend(load_lexicon(path))
    if cfg.lemmas:
        paradigms = load_paradigms(cfg.paradigms)
        for path in cfg.lemmas:
            entries.extend(expand_lexicon(load_lemma_entries(path), paradigms))
    return entries


def reference_tag(tokens, index, case_policy=CASE_FOLD):
    """The tokens tagged one at a time, as ``TaggedToken``s with their
    sentence openings and sentence-initial words: the reference for the
    key column of ``textproc.tag`` and ``textproc.build_corpus``.  A word
    gets ``lookup`` under the case policy when it is sentence-initial and
    exact otherwise, or UNKNOWN; a number gets a NUM analysis and any
    other token a PONCT one, marked OPEN or CLOSE for brackets."""
    tagged, initials = [], []
    for i, token in enumerate(tokens):
        if token.kind == "word":
            if token.sentence_initial:
                initials.append(i)
            policy = case_policy if token.sentence_initial else CASE_EXACT
            analyses = lookup(index, token.surface, policy) or UNKNOWN_ANALYSES
        elif token.kind == "number":
            analyses = frozenset([Analysis(token.surface, "NUM", frozenset())])
        else:
            feats = ({"OPEN"} if token.surface in "([{«" else
                     {"CLOSE"} if token.surface in ")]}»" else set())
            analyses = frozenset([Analysis(token.surface, "PONCT", frozenset(feats))])
        tagged.append(TaggedToken(token, analyses))
    boundaries = tuple(i for i, token in enumerate(tokens) if token.opens_sentence)
    return SimpleNamespace(tokens=tagged, boundaries=boundaries, initials=tuple(initials))


def reference_join(tagged_texts):
    """The tagged texts (``reference_tag``) as one corpus, as tokens: the
    reference for ``textproc.build_corpus``.  Token indices run over the
    whole corpus, byte offsets stay each text's own, every nonempty text
    after the first opens a sentence, and equal keys are one tuple."""
    tokens, boundaries, initials, starts = [], [], [], []
    for tagged in tagged_texts:
        at = len(tokens)
        starts.append(at)
        if at and tagged.tokens:
            boundaries.append(at)
        boundaries.extend(at + i for i in tagged.boundaries)
        initials.extend(at + i for i in tagged.initials)
        tokens += tagged.tokens
    interned = {}
    keys = [interned.setdefault(key := (tt.token.surface, tt.analyses), key) for tt in tokens]
    return SimpleNamespace(tokens=tokens, keys=keys, boundaries=tuple(boundaries),
                           initials=tuple(initials), starts=tuple(starts))


def reference_content_lines(text):
    """Every line that is neither blank nor a ``#`` comment, as (1-based
    line number, line), found one ``str.find`` at a time: the reference
    for ``source.content_lines``, which splits the text in blocks."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end]
        lineno += 1
        start = end + 1
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def per_document_counts(pn_flat, svc_flat, tagged_texts, policy="longest"):
    """Reference for corpus-wide counts: ``classify_pn`` over each text's
    own matches, summed field by field."""
    parts = [classify_pn(locate(pn_flat, tagged, policy), locate(svc_flat, tagged, policy))
             for tagged in tagged_texts]
    return ClassifiedCounts(*(sum(getattr(p, name) for p in parts) for name in
                              ("pn_total", "svc_total", "pn_with_sv", "pn_without_sv")))


def count_walks(monkeypatch) -> dict[str, int]:
    """Count the matcher's walks over a text or corpus and its successor
    computations from now on."""
    counts = {"walks": 0, "successors": 0}
    walk, successor = rtn._walk, rtn._Compiled.successor

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_successor(self, state, key):
        counts["successors"] += 1
        return successor(self, state, key)

    monkeypatch.setattr(rtn, "_walk", counted_walk)
    monkeypatch.setattr(rtn._Compiled, "successor", counted_successor)
    return counts


@pytest.fixture(scope="session")
def entries(run_config):
    return reference_entries(run_config)


@pytest.fixture(scope="session")
def index(fixture_run):
    return fixture_run.index


@pytest.fixture(scope="session")
def corpus_docs(fixture_run):
    return fixture_run.docs


@pytest.fixture(scope="session")
def tagged_docs(fixture_run):
    """Each fixture document tagged on its own, as (doc_id, tagged text)."""
    return [(doc_id, tag(tokenize(text), fixture_run.index, text, fixture_run.cfg.case_policy))
            for doc_id, text in fixture_run.docs]


@pytest.fixture(scope="session")
def grammars(fixture_run):
    return fixture_run.grammars


@pytest.fixture(scope="session")
def subcat_inputs(fixture_run):
    """The leading arguments of ``by_subcategory`` for the fixture run,
    and the flattened grammar set."""
    flats = fixture_run.flats
    return (fixture_run.corpus, fixture_run.counts, fixture_run.index,
            flats.pn, flats.svc), flats


@pytest.fixture(scope="session")
def all_grammar_files():
    return sorted(glob.glob(fixture_path("grammars", "*.grm"))
                  + glob.glob(fixture_path("grammars", "extra", "*.grm")))

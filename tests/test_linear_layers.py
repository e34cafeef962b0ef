"""The sorted sweeps, bounded windows, single walks and the regex-proposed
tokenizer against the all-pairs, whole-text, recursive and
character-by-character versions they replaced.

The old versions live here only, as references: every property asserts
that the new code gives exactly what the old code gave.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from lexgram.classify import classify_pn
from lexgram.concord import ConcordanceLine, build_concordance
from lexgram.errors import EmptyGold
from lexgram.evaluation import CRITERIA, EXACT, GoldSpan, align, in_lexicon_recall, recall
from lexgram.lexicon import (CASE_FOLD, CASE_POLICIES, PN_FEATURE, build_index, lookup,
                             parse_entry)
from lexgram.rtn import (EPSILON, Call, Grammar, Graph, Literal, Match,
                         check_recursion, flatten)
from lexgram.textproc import NUMBER, PUNCT, WORD, Token, build_corpus, tag, tokenize

from conftest import reference_join

CASES = 500


# -- align ----------------------------------------------------------------------

def align_all_pairs(system, gold, criterion):
    """The all-pairs alignment: every system line against every gold span,
    candidates stably sorted by the symmetric key."""
    candidates = []
    for i, line in enumerate(system):
        ls, le = line.match.start_byte, line.match.end_byte
        for j, span in enumerate(gold):
            if line.doc_id != span.doc_id:
                continue
            if criterion == EXACT:
                hit = (ls == span.start_byte and le == span.end_byte)
            else:
                hit = ls < span.end_byte and span.start_byte < le
            if hit:
                key = (span.doc_id,
                       min(ls, span.start_byte), max(ls, span.start_byte),
                       min(le, span.end_byte), max(le, span.end_byte))
                candidates.append((key, i, j))
    candidates.sort(key=lambda c: c[0])
    used_system: set[int] = set()
    used_gold: set[int] = set()
    matched = 0
    for _, i, j in candidates:
        if i in used_system or j in used_gold:
            continue
        used_system.add(i)
        used_gold.add(j)
        matched += 1
    return matched


_HEADS = ["débat", "vol", "table", "Débat", ""]
_INDEX = build_index([parse_entry(l) for l in (
    "débat,débat.N+NCA+PN:ms", "vol,vol.N+NCF+PN:ms", "table,table.N:fs")])


def as_line(doc, start, end):
    return ConcordanceLine(Match(0, 1, start, end, "G", {}), "", "c", "", doc)


def as_gold(doc, start, end, head=""):
    return GoldSpan(doc, start, end, "PN", "E1", head)


# Short spans over a few bytes of few documents, so nested, equal and
# crossing spans and candidates with equal keys are common; the two sides
# draw from overlapping document sets, so either side can have documents
# the other lacks.
_span = st.tuples(st.integers(0, 24), st.integers(1, 8))
_system_spans = st.lists(st.tuples(st.sampled_from("abc"), _span), max_size=14)
_gold_spans = st.lists(st.tuples(st.sampled_from("bcd"), _span,
                                 st.sampled_from(_HEADS)), max_size=14)


@settings(max_examples=CASES, deadline=None)
@given(system=_system_spans, gold=_gold_spans)
def test_align_equals_all_pairs(system, gold):
    lines = [as_line(doc, s, s + n) for doc, (s, n) in system]
    spans = [as_gold(doc, s, s + n, head) for doc, (s, n), head in gold]
    for criterion in CRITERIA:
        assert align(lines, spans, criterion) == align_all_pairs(lines, spans, criterion)
        # swapping the two sides keeps the count
        swapped_lines = [as_line(g.doc_id, g.start_byte, g.end_byte) for g in spans]
        swapped_gold = [as_gold(l.doc_id, l.match.start_byte, l.match.end_byte)
                        for l in lines]
        assert align(swapped_lines, swapped_gold, criterion) == align(lines, spans, criterion)


@settings(max_examples=CASES, deadline=None)
@given(system=_system_spans, gold=_gold_spans)
def test_in_lexicon_recall_unchanged(system, gold):
    lines = [as_line(doc, s, s + n) for doc, (s, n) in system]
    spans = [as_gold(doc, s, s + n, head) for doc, (s, n), head in gold]
    restricted = [g for g in spans if g.head_form and any(
        PN_FEATURE in a.sem_features for a in lookup(_INDEX, g.head_form, CASE_FOLD))]
    for criterion in CRITERIA:
        if not restricted:
            with pytest.raises(EmptyGold):
                in_lexicon_recall(lines, spans, _INDEX, criterion)
            continue
        expected = recall(align_all_pairs(lines, restricted, criterion), len(restricted))
        assert in_lexicon_recall(lines, spans, _INDEX, criterion) == expected


def test_align_equal_keys_across_documents():
    # the same byte ranges in two documents never pair across them
    lines = [as_line("a", 0, 5), as_line("b", 0, 5), as_line("b", 0, 5)]
    spans = [as_gold("b", 0, 5), as_gold("a", 0, 5), as_gold("c", 0, 5)]
    for criterion in CRITERIA:
        assert align(lines, spans, criterion) == 2


# -- classify_pn ------------------------------------------------------------------

def mk_match(start, end):
    return Match(start, end, start * 10, end * 10, "G", {})


_token_spans = st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6)), max_size=12)


@settings(max_examples=CASES, deadline=None)
@given(pn=_token_spans, svc=_token_spans)
def test_classify_pn_equals_containment(pn, svc):
    pn_matches = [mk_match(s, s + n) for s, n in pn]
    svc_matches = [mk_match(s, s + n) for s, n in svc]
    with_sv = sum(1 for p in pn_matches
                  if any(v.start_token <= p.start_token and p.end_token <= v.end_token
                         for v in svc_matches))
    counts = classify_pn(pn_matches, svc_matches)
    assert (counts.pn_total, counts.svc_total, counts.pn_with_sv) == (
        len(pn_matches), len(svc_matches), with_sv)


def test_classify_pn_equal_starts_and_nesting():
    # a short span after a long one with the same start must not hide it
    svc = [mk_match(2, 9), mk_match(2, 3), mk_match(4, 5)]
    pn = [mk_match(2, 9), mk_match(3, 8), mk_match(8, 10), mk_match(0, 1)]
    assert classify_pn(pn, svc).pn_with_sv == 2
    assert classify_pn([], svc).pn_total == 0
    assert classify_pn(pn, []).pn_with_sv == 0


# -- build_concordance --------------------------------------------------------------

def concordance_whole_text(matches, text, width, doc_id):
    """Contexts cut from a decode of the whole prefix and suffix."""
    blob = text.encode("utf-8")
    lines = []
    for m in matches:
        center = blob[m.start_byte:m.end_byte].decode("utf-8")
        left = blob[:m.start_byte].decode("utf-8")[-width:] if width else ""
        right = blob[m.end_byte:].decode("utf-8")[:width] if width else ""
        lines.append(ConcordanceLine(m, left, center, right, doc_id))
    return lines


# 1-, 2-, 3- and 4-byte characters, as words and as punctuation
_PIECES = ["a", "é", "ﬁ", "𝐀", "ab", "ça", "€", "𝄞", "€€", "𝄞é", "x𝄞", "𝐀𝐀𝐀",
           " ", " ", "\n", "."]


def _text_with_matches(pieces, picks):
    text = "".join(pieces)
    tagged = tag(tokenize(text), _INDEX, text)
    toks = tagged.tokens
    matches = []
    for a, n in picks:
        if toks:
            s = a % len(toks)
            e = min(len(toks), s + n)
            matches.append(Match(s, e, toks[s].token.start, toks[e - 1].token.end, "G", {}))
    return text, matches


@settings(max_examples=CASES, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=30),
       picks=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 3)), max_size=6),
       width=st.integers(0, 40))
def test_concordance_equals_whole_text_decode(pieces, picks, width):
    text, matches = _text_with_matches(pieces, picks)
    for w in (width, len(text) + 3):
        assert (build_concordance(matches, text, w, "d")
                == concordance_whole_text(matches, text, w, "d"))


def test_concordance_windows_at_multibyte_edges():
    # every width from 0 past the text, on text whose characters take
    # 1 to 4 bytes, so each window edge lands inside some character
    pieces = ["𝄞a", " ", "é€", " ", "ab", " ", "€𝄞", " ", "x", " ", "𝐀é", " ",
              "𝐀𝐀𝐀𝐀", "𝄞𝄞", "𝐀𝐀𝐀", " ", "a"]
    text, matches = _text_with_matches(
        pieces, [(i, n) for i in range(12) for n in (1, 2)])
    for width in range(len(text) + 2):
        assert (build_concordance(matches, text, width, "d")
                == concordance_whole_text(matches, text, width, "d"))


# -- tokenizer ----------------------------------------------------------------------

def scan_by_character(text):
    """Raw token spans as (start_char, end_char, kind), one character at a time."""
    raws = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n:
                c = text[j]
                if c.isalpha():
                    j += 1
                elif (c == "-" and text[j - 1].isalpha()
                      and j + 1 < n and text[j + 1].isalpha()):
                    j += 1
                elif (c in ("'", "’") and text[j - 1].isalpha()
                      and j + 1 < n and text[j + 1].isalpha()):
                    j += 1
                else:
                    break
            # elision rule: 1-2 letter prefix before an apostrophe splits off
            s = i
            while True:
                cut = -1
                for off in range(s, j):
                    if text[off] in ("'", "’"):
                        cut = off
                        break
                if cut != -1 and cut - s in (1, 2):
                    raws.append((s, cut + 1, WORD))
                    s = cut + 1
                else:
                    break
            if s < j:
                raws.append((s, j, WORD))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            raws.append((i, j, NUMBER))
            i = j
        else:
            raws.append((i, i + 1, PUNCT))
            i += 1
    return raws


def _boundary_after(text, k):
    """Whether sentence-final punctuation ending at char ``k`` closes its
    sentence: at least one space, tab, CR or LF, then an uppercase letter."""
    j = k
    while j < len(text) and text[j] in (" ", "\t", "\r", "\n"):
        j += 1
    return k < j < len(text) and text[j].isalpha() and text[j].isupper()


def tokenize_by_character(text):
    """Tokens from the character scan, encoding every gap and surface."""
    tokens = []
    pos = byte = 0
    opens = False
    awaiting = True
    for cs, ce, kind in scan_by_character(text):
        if cs > pos:
            byte += len(text[pos:cs].encode("utf-8"))
        surface = text[cs:ce]
        start, byte, pos = byte, byte + len(surface.encode("utf-8")), ce
        awaiting = awaiting or opens
        initial = awaiting and kind == WORD
        awaiting = awaiting and not initial
        tokens.append(Token(surface, start, byte, kind, initial, opens))
        opens = kind == PUNCT and surface in (".", "!", "?") and _boundary_after(text, ce)
    return tokens


def _assert_tokens_match(text):
    def fields(tokens):
        return [(t.surface, t.start, t.end, t.kind, t.sentence_initial, t.opens_sentence)
                for t in tokens]
    assert fields(tokenize(text)) == fields(tokenize_by_character(text))


# Where the proposing regex and str's predicates could part: "_" is \w but
# not alphanumeric; "²" is a digit but not decimal; "½", "Ⅻ" are numeric
# only; "٣" is a non-ASCII decimal; a combining mark is neither; NBSP, \f,
# \v and EM SPACE are spaces but no boundary space; apostrophes and hyphens
# join runs and elisions split them.
_TOKEN_PIECES = ["_", "²", "½", "Ⅻ", "٣", "\u0301", "\u00a0", "\f", "\v", "\u2003",
                 "'", "’", "-", "--", "l'", "qu'", "l’", "\U0001d400", "\U00010400",
                 "É", "Œ", "Ça", "é", "a", "le", "Le", "entre", "3", "12", "3e",
                 ".", "!", "?", ",", "«", " ", "\n", "\t"]


@settings(max_examples=CASES, deadline=None)
@given(pieces=st.lists(st.one_of(st.sampled_from(_TOKEN_PIECES),
                                 st.characters(exclude_categories=("Cs",))),
                       max_size=40))
def test_tokenize_equals_character_scan(pieces):
    _assert_tokens_match("".join(pieces))


@pytest.mark.parametrize("text", [
    "L'entretien d'un qu'il a-b a-2 x_y 3e 12. Fin! Le 2-3 mai -- rien.",   # all ASCII
    "L’entretien. Été ² ½ Ⅻ ٣٣ e\u0301 \U0001d400\U0001d400 «Œuvre»\u00a0fin.\u2003Là.",
    "",
])
def test_tokenize_fixed_cases(text):
    _assert_tokens_match(text)


# -- the corpus builder ---------------------------------------------------------------

_PIECE_INDEX = build_index([parse_entry(l) for l in (
    "le,le.DET:ms", "l',le.DET:s", "entre,entre.PREP", "entre,entrer.V:P3s",
    "ça,ça.PRO", "é,é.N:ms", "Le,Le.N:ms")])


def _assert_corpus_equals_reference(texts):
    """``build_corpus`` against the tokens of the character scan, tagged one
    text at a time and joined: keys, marks, text starts and every token's
    byte span."""
    for policy in CASE_POLICIES:
        corpus = build_corpus(texts, _PIECE_INDEX, policy)
        want = reference_join(tag(tokenize_by_character(t), _PIECE_INDEX, t, policy)
                              for t in texts)
        assert corpus.keys == want.keys
        assert len({id(key) for key in corpus.keys}) == len(set(corpus.keys))
        assert corpus.boundaries == want.boundaries
        assert corpus.initials == want.initials
        assert corpus.starts == want.starts
        assert [corpus.byte_span(i, i + 1) for i in range(len(corpus.keys))] == \
            [(tt.token.start, tt.token.end) for tt in want.tokens]


@settings(max_examples=CASES, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(_TOKEN_PIECES + ["\r\n"]),
                               max_size=30).map("".join),
                      min_size=1, max_size=4))
@example(texts=["« 12 » . Le chat"])                    # a first sentence with no word
@example(texts=["le chat, l'entre 12 qu'il ! a"])       # no boundary
@example(texts=["Le chat. Le vol", "Été. \U0001d400 l’é. Ça"])  # ASCII beside non-ASCII
@example(texts=["", "Le.\r\nLe", ""])
def test_build_corpus_equals_joined_tagged_texts(texts):
    _assert_corpus_equals_reference(texts)


# -- sentence boundaries --------------------------------------------------------------

def sentence_starts_from_bytes(source_bytes, spans, surfaces):
    """The boundary rule as ``tag`` applied it on the encoded source."""
    starts = set()
    for idx, (start, end, kind) in enumerate(spans):
        if kind != PUNCT or surfaces[idx] not in (".", "!", "?"):
            continue
        if idx + 1 >= len(spans):
            continue
        k = end
        saw_space = False
        while k < len(source_bytes) and source_bytes[k:k + 1] in (b" ", b"\t", b"\r", b"\n"):
            saw_space = True
            k += 1
        if not saw_space or k >= len(source_bytes):
            continue
        nxt = source_bytes[k:k + 4].decode("utf-8", "ignore")
        if nxt and nxt[0].isalpha() and nxt[0].isupper():
            starts.add(idx + 1)
    return starts


def tokenize_with_table(text):
    """(surface, start, end, kind, sentence_initial) per token, with byte
    offsets from a per-character table, and the sentence starts."""
    raws = scan_by_character(text)
    byte_of = [0] * (len(text) + 1)
    total = 0
    for pos, ch in enumerate(text):
        byte_of[pos] = total
        total += len(ch.encode("utf-8"))
    byte_of[len(text)] = total
    spans = [(byte_of[cs], byte_of[ce], kind) for cs, ce, kind in raws]
    surfaces = [text[cs:ce] for cs, ce, _ in raws]
    starts = sentence_starts_from_bytes(text.encode("utf-8"), spans, surfaces)
    out = []
    awaiting = True
    for idx, ((start, end, kind), surface) in enumerate(zip(spans, surfaces)):
        awaiting = awaiting or idx in starts
        initial = awaiting and kind == WORD
        awaiting = awaiting and not initial
        out.append((surface, start, end, kind, initial))
    return out, starts


_TEXT_PIECES = ["le", "débat", "Le", "Élan", "Ça", "ÉTÉ", "12", "3e", "x", "\U0001d400",
                ".", "!", "?", ",", "«", "»", '"', "'", "(",
                " ", " ", "\n", "\t", "\r", "\u00a0", "\f", "\v", "\u2003"]


def _assert_boundaries_match(text):
    expected, starts = tokenize_with_table(text)
    tokens = tokenize(text)
    assert [(t.surface, t.start, t.end, t.kind, t.sentence_initial) for t in tokens] == expected
    assert {i for i, t in enumerate(tokens) if t.opens_sentence} == starts
    assert tag(tokens, _INDEX, text).boundaries == tuple(sorted(starts))


@settings(max_examples=CASES, deadline=None)
@given(pieces=st.lists(st.sampled_from(_TEXT_PIECES), max_size=40))
def test_sentence_boundaries_equal_byte_scan(pieces):
    _assert_boundaries_match("".join(pieces))


@pytest.mark.parametrize("text", [
    "Fin.\u00a0Début ici.",          # NBSP is skipped by the scanner, not a boundary space
    "Fin.\fDébut.\vSuite.",          # form feed and vertical tab likewise
    "Fin. \u00a0Début.",             # a space, then NBSP before the capital
    "Il parle.",                     # final punctuation at the end of the text
    "Il parle. ",                    # ... followed by trailing space only
    "Il parle. « Quoi ? » Rien.",    # a sentence opening with a quote
    "Il parle. 12 hommes. Un.",      # ... and with a digit
    "Été fini. Été là ! Ça va ? Œuvre.\nÀ demain.",  # multi-byte capitals
    "\U0001d400 ok. \U0001d400 non. É.",  # 4-byte letters
    "",
])
def test_sentence_boundary_cases(text):
    _assert_boundaries_match(text)


def test_boundaries_skip_non_ascii_space():
    tagged = tag(tokenize("Fin. Début. Suite."), _INDEX, "Fin. Début. Suite.")
    assert tagged.boundaries == (4,)


# -- call-structure walks ---------------------------------------------------------------

def check_recursion_recursive(grammar):
    """The recursive depth-first cycle search, as a path or None."""
    color = {}
    stack = []

    def dfs(name):
        color[name] = 1
        stack.append(name)
        for target in grammar.graphs[name].call_targets():
            if color.get(target) == 1:
                return stack[stack.index(target):] + [target]
            if color.get(target) is None:
                found = dfs(target)
                if found:
                    return found
        stack.pop()
        color[name] = 2
        return None

    for name in grammar.graphs:
        if color.get(name) is None:
            cycle = dfs(name)
            if cycle:
                return cycle
    return None


def flatten_recursive(grammar):
    """Flattening by recursive inlining of each callee's flattened copy."""
    cache = {}

    def build(name):
        if name in cache:
            return cache[name]
        g = grammar.graphs[name]
        n = g.n_states
        trans = []
        for frm, label, to in g.transitions:
            if isinstance(label, Call):
                sub = build(label.target)
                base = n
                n += sub.n_states
                trans.append((frm, EPSILON, base + sub.initial))
                for sf, sl, st_ in sub.transitions:
                    trans.append((base + sf, sl, base + st_))
                for fin in sub.finals:
                    trans.append((base + fin, EPSILON, to))
            else:
                trans.append((frm, label, to))
        cache[name] = Graph(g.name, n, g.initial, g.finals, tuple(trans))
        return cache[name]

    return build(grammar.main)


@st.composite
def call_grammars(draw, acyclic):
    """Up to six graphs with literal and call transitions; under ``acyclic``
    a graph calls only graphs after it."""
    count = draw(st.integers(1, 6))
    names = [f"G{k}" for k in range(count)]
    graphs = {}
    for k, name in enumerate(names):
        n = draw(st.integers(2, 4))
        callees = names[k + 1:] if acyclic else names
        trans = []
        for _ in range(draw(st.integers(0, 5))):
            frm, to = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if callees and draw(st.booleans()):
                label = Call(draw(st.sampled_from(callees)))
            else:
                label = Literal(draw(st.sampled_from(["x", "y"])))
            trans.append((frm, label, to))
        finals = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        graphs[name] = Graph(name, n, draw(st.integers(0, n - 1)), finals, tuple(trans))
    main = draw(st.sampled_from(names))
    return Grammar(graphs, main)


@settings(max_examples=CASES, deadline=None)
@given(grammar=call_grammars(acyclic=True))
def test_flatten_equals_recursive_inlining(grammar):
    assert check_recursion(grammar) is None
    assert flatten(grammar) == flatten_recursive(grammar)


@settings(max_examples=CASES, deadline=None)
@given(grammar=call_grammars(acyclic=False))
def test_cycle_path_equals_recursive_search(grammar):
    err = check_recursion(grammar)
    expected = check_recursion_recursive(grammar)
    assert (err.path if err is not None else None) == expected

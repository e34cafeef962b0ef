"""Lemma rows indexed directly, against the ``LexEntry`` path they replace.

``pipeline.build_entries`` checks each head of a lemma file once for
all its rows and maps each generated form to a packed reference into a
table of rows; the index builds a form's analysis set on its first
``get``.
``conftest.reference_entries`` builds the same lexicon as ``LexEntry``
lines through ``load_lexicon`` and ``expand_lexicon``, and
``build_index`` of those is eager.  The properties below hold the two
to the same index and the same first error, on files with blank,
comment and indented lines and any line break, a paradigm's plan to its
operator loop, and the lemma-line regex to the scanner.
"""
from __future__ import annotations

import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from lexgram import inflect, pipeline
from lexgram.errors import LemmaTooShort, LexgramError, MalformedEntry
from lexgram.inflect import LemmaEntry, Paradigm, Rule, generate, parse_lemma_entry
from lexgram.lexicon import Analysis, LexEntry, LexIndex, _escape, build_index

from conftest import fixture_path, reference_entries

CASES = 200


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the lexgram error it raised."""
    try:
        return fn(*args)
    except LexgramError as err:
        return type(err).__name__, str(err)


# -- a paradigm's plan ---------------------------------------------------------

_OPS = ["L", "L", "<e>", "s", "ux", "e", "elle"]


def generate_by_operators(lemma, paradigm):
    """``generate`` through each rule's operator loop."""
    if not lemma:
        raise LemmaTooShort("empty lemma")
    pairs = []
    for rule in paradigm.rules:
        pair = (rule.apply(lemma), rule.infl_code)
        if pair not in pairs:
            pairs.append(pair)
    return pairs


@settings(max_examples=CASES * 2, deadline=None)
@given(rules=st.lists(st.tuples(st.lists(st.sampled_from(_OPS), max_size=7).map(tuple),
                                st.sampled_from(["x", "y", "z"])),
                      min_size=1, max_size=3),
       lemma=st.text(alphabet="abé", max_size=5))
def test_paradigm_forms_equal_apply(rules, lemma):
    """The same (form, code) pairs, or LemmaTooShort with the same message,
    for one rule or several, repeated codes included."""
    paradigm = Paradigm("P", tuple(Rule(ops, code) for ops, code in rules))
    assert outcome(generate, lemma, paradigm) == outcome(generate_by_operators, lemma, paradigm)


# -- the lemma-line regex ------------------------------------------------------

_LEMMA_CHARS = "abé.,+:\\"
_FEATURES = ["PN", "NCA", "Supp", "NCA", "SV=avoir"]


@st.composite
def lemma_lines(draw, paradigm_names=("N-f", "X")):
    """Well-formed lemma lines: escaped or plain lemmas of 1-3 characters,
    repeated features, any paradigm name."""
    lemma = _escape(draw(st.text(alphabet=_LEMMA_CHARS, min_size=1, max_size=3)))
    features = "".join("+" + f for f in draw(st.lists(st.sampled_from(_FEATURES),
                                                        max_size=4)))
    category = draw(st.sampled_from(["N", "V", "ADJ", "V-1"]))
    return f"{lemma}.{category}{features}:{draw(st.sampled_from(paradigm_names))}"


_noise = st.lists(st.sampled_from(["vol", "é", ".", "N", "+PN", "+NCA", "+SV=avoir", "+",
                                   ":", ":N-f", "\\.", "\\+", "\\q", "\\", ",", " ", "=",
                                   "\r", "\n", "#"]),
                  max_size=10).map("".join)


@settings(max_examples=CASES * 5, deadline=None)
@given(line=lemma_lines() | _noise | st.tuples(lemma_lines(), _noise).map("".join))
def test_lemma_line_regex_equals_scanner(line):
    """The same entry, or the same MalformedEntry reason and column."""
    scanned = outcome(lambda text: LemmaEntry(*inflect._scan_lemma_row(text)), line)
    assert outcome(parse_lemma_entry, line) == scanned


# -- the direct index ----------------------------------------------------------

_CODES = ["ms", "mp", "fs", "fp", "W"]


@st.composite
def paradigm_files(draw, min_paradigms=1, ops=_OPS):
    """Paradigms P0, P1, ... (up to three): rules of ``ops`` in any order,
    distinct codes in each paradigm."""
    sections = []
    for n in range(draw(st.integers(min_paradigms, 3))):
        codes = draw(st.lists(st.sampled_from(_CODES), min_size=1, max_size=4, unique=True))
        rules = [" ".join(draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4)))
                 + ":" + code for code in codes]
        sections.append(f"paradigm P{n}: " + " ; ".join(rules))
    return "\n".join(sections) + "\n"


@st.composite
def valid_lemma_lines(draw):
    """Lemma lines over two letters and a dot, which is escaped, so forms
    collide across rows, that name P0-P2 and link no support verb without
    PN; a lemma of 2-5 characters may still be too short for a rule."""
    features = draw(st.lists(st.sampled_from(["PN", "NCA", "Supp", "NCA"]), max_size=3))
    if "PN" in features and draw(st.booleans()):
        features.append("SV=avoir")
    return (_escape(draw(st.text(alphabet="aabb.", min_size=2, max_size=5)))
            + "." + draw(st.sampled_from(["N", "V"]))
            + "".join("+" + f for f in features) + ":" + draw(st.sampled_from(["P0", "P1", "P2"])))


# static lines that share forms, lemmas and codes with generated ones
_STATIC = ["a,a.N:ms", "as,a.N:mp", "ab,ab.N+PN+NCA:fs:fp", "b,x.V+Supp", "aa,a.V:W",
           "ba,ab.N:fs", "aba,ab.N:ms", "abs,ab.N:ms"]
# mostly known paradigms; P3 is never defined
_NAMES = ("P0", "P0", "P1", "P1", "P2", "P2", "P0", "P3")


def _counts(index):
    return index.num_entries, index.num_forms, index.num_analyses


# lines that every reader skips: blank, whitespace-only and comments
_SKIPPED = ["", "  ", "\t", "\u3000", "# a comment", "  # an indented comment"]


@st.composite
def noisy_file(draw, rows):
    """A file of ``rows`` (lemma lines ending in their head) with file-level
    noise: skipped lines between them, some rows indented (their lemma
    starts with spaces), the first row's head again on a later line, and
    each line ended by LF, CRLF or CR."""
    rows = list(rows)
    if rows and draw(st.booleans()):
        lemma = draw(st.sampled_from(["ba", "bab", "a\\.b", "a\\+b", "b\\,a"]))
        rows.insert(draw(st.integers(min(2, len(rows)), len(rows))),
                    lemma + "." + rows[0].rpartition(".")[2])
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(_SKIPPED), max_size=2))
        lines.append(" " * draw(st.integers(0, 2)) + row)
    lines += draw(st.lists(st.sampled_from(_SKIPPED), max_size=1))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


def _config(root, paradigms, lemma_texts, static):
    """A run config in ``root``: the fixture grammars and corpus, one
    paradigm file, a lemma file of each text and, when there are any, a
    static lexicon of the ``static`` lines."""
    def write(name, text):
        with open(os.path.join(root, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return name

    lemmas = [write(f"l{i}.lem", text) for i, text in enumerate(lemma_texts)]
    keys = [f"paradigms = {write('p.par', paradigms)}",
            f"lemmas = {' '.join(lemmas)}",
            f"pn_grammar = {fixture_path('grammars', 'pn.grm')}",
            f"svc_grammar = {fixture_path('grammars', 'svc.grm')}",
            f"corpus = {fixture_path('corpus', '*.txt')}"]
    if static:
        keys.append("lexicon = " + write("s.dic", "\n".join(static)))
    return pipeline.parse_config(os.path.join(root, write("run.cfg", "\n".join(keys))))


def _assert_same_index(paradigms, lemma_files, static, data):
    """Same forms, analysis sets and counts, or the same first error, for
    the rows of each lemma file written with file-level noise.  The counts
    agree before any ``get`` and after some; ``get`` agrees in any order,
    unknown forms included, and returns one object per form."""
    texts = [data.draw(noisy_file(rows)) for rows in lemma_files]
    with tempfile.TemporaryDirectory() as root:
        cfg = _config(root, paradigms, texts, static)
        eager = outcome(lambda: build_index(reference_entries(cfg)))
        direct = outcome(lambda: build_index(pipeline.build_entries(cfg)))
        if isinstance(eager, tuple) or isinstance(direct, tuple):  # a lexicon error
            assert direct == eager
            return
        fresh = build_index(pipeline.build_entries(cfg))
    assert _counts(fresh) == _counts(eager)  # before any get
    assert direct.forms() == eager.forms()
    unknown = data.draw(st.lists(st.text(alphabet="abésx", min_size=1, max_size=3), max_size=4))
    probes = data.draw(st.permutations(eager.forms() + unknown))
    cut = data.draw(st.integers(0, len(probes)))
    got = {form: direct.get(form) for form in probes[:cut]}
    assert _counts(direct) == _counts(eager)  # after some
    got.update((form, direct.get(form)) for form in probes[cut:])
    assert got == {form: eager.get(form) for form in probes}
    assert all(direct.get(form) is got[form] for form in probes)
    assert _counts(direct) == _counts(eager)
    assert {form: fresh.get(form) for form in probes} == got


@settings(max_examples=CASES, deadline=None)
@given(paradigms=paradigm_files(),
       lemma_files=st.lists(st.lists(lemma_lines(_NAMES), max_size=8), min_size=1, max_size=2),
       repeat=st.booleans(),
       static=st.lists(st.sampled_from(_STATIC), max_size=4),
       data=st.data())
def test_direct_index_equals_lex_entry_index(paradigms, lemma_files, repeat, static, data):
    """Escaped lemmas, undefined paradigms and unlinked verbs: mostly the
    same first error."""
    if repeat:  # duplicate rows, hence duplicate (form, code) pairs
        lemma_files = [rows + rows[:2] for rows in lemma_files]
    _assert_same_index(paradigms, lemma_files, static, data)


@settings(max_examples=CASES, deadline=None)
@given(paradigms=paradigm_files(min_paradigms=3, ops=["L", "<e>", "a", "b", "ab", "s"]),
       lemma_files=st.lists(st.lists(valid_lemma_lines(), min_size=1, max_size=12),
                            min_size=1, max_size=2),
       repeat=st.booleans(),
       static=st.lists(st.sampled_from(_STATIC), max_size=5),
       data=st.data())
def test_lazy_index_equals_eager_index(paradigms, lemma_files, repeat, static, data):
    """Rows that mostly index, so forms hold one reference, several, or
    references and static analyses together."""
    if repeat:
        lemma_files = [rows + rows[:2] for rows in lemma_files]
    _assert_same_index(paradigms, lemma_files, static, data)


def test_fixture_index_equals_lex_entry_index(run_config, entries):
    direct = build_index(pipeline.build_entries(run_config))
    eager = build_index(entries)
    assert _counts(direct) == _counts(eager)
    assert {form: direct.get(form) for form in direct.forms()} == \
        {form: eager.get(form) for form in eager.forms()}


_FIRST_ERROR_ROWS = ["abc.N:P0", "ba.N:P9", "a.N:P0", "x.N+SV=avoir:P0"]


@pytest.mark.parametrize("tail, error, message", [
    ([], "UnknownParadigm", r"lemma 'ba' names unknown paradigm 'P9'"),
    ([".N:P0"], "MalformedEntry", r"empty lemma \(.*l0\.lem, line 5, column 1\)"),
    (["a\\.b.N:P0", "x.b.N:P0"], "MalformedEntry",
     r"missing paradigm name \(.*l0\.lem, line 6, column 4\)"),
])
def test_first_error_in_file_order_across_heads(tmp_path, tail, error, message):
    """Rows are checked one head at a time, but the error is that of the
    first failing row in file order: ``'ba'`` on line 2, not ``'a'`` on
    line 3, whose head first appeared on line 1.  A parse error anywhere
    in the file comes before every row error: an empty lemma before a head
    already read, or a head that is only the text after the first dot of
    an escaped lemma."""
    text = "".join(row + "\n" for row in _FIRST_ERROR_ROWS + tail)
    cfg = _config(str(tmp_path), "paradigm P0: L L x:ms", [text], [])
    got = outcome(pipeline.build_entries, cfg)
    assert got == outcome(reference_entries, cfg)
    assert got[0] == error and re.fullmatch(message, got[1])


# -- the checks the direct path skips ------------------------------------------

def test_public_constructors_still_check_the_link():
    """The run path builds analyses without ``__post_init__``; it raises for
    a support-verb link without PN once per head, and the public
    constructors still raise for it on every call."""
    unlinked = ("N", ("SV=avoir",))
    with pytest.raises(MalformedEntry) as err:
        LexIndex().add_rows(["vol"], *unlinked, ("ms",), [["vol"]])
    assert err.value.reason == "support-verb link on an entry without the PN feature"
    for _ in range(2):
        with pytest.raises(MalformedEntry):
            Analysis("vol", "N", frozenset({"SV=avoir"}), "ms")
        with pytest.raises(MalformedEntry):
            LexEntry("vol", "vol", *unlinked, ("ms",))
    linked = ("N", ("PN", "SV=avoir"))
    index = LexIndex()
    index.add_rows(["vol"], *linked, ("mp",), [["vols"]])
    [analysis] = index.get("vols")
    assert analysis == Analysis("vol", "N", frozenset(linked[1]), "mp")
    assert LexEntry("vols", "vol", *linked, ("mp",)).analyses() == (analysis,)


def test_row_wider_than_the_table_is_refused():
    """A row with more codes than the index's width would share references
    with the next row."""
    index = LexIndex(width=2)
    index.add_rows(["vol"], "N", (), ("ms", "mp"), [["vol"], ["vols"]])
    with pytest.raises(ValueError):
        index.add_rows(["vol"], "N", (), ("ms", "mp", "fs"), [["vol"], ["vols"], ["vole"]])
    assert index.get("vols") == {Analysis("vol", "N", frozenset(), "mp")}


def test_build_index_returns_a_filled_index_as_it_is(run_config):
    index = pipeline.build_entries(run_config)
    assert build_index(index) is index

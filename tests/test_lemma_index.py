"""Lemma rows indexed directly, against the ``LexEntry`` path they replace.

``pipeline.build_entries`` turns each generated form into one (form,
analysis) pair after one check of its lemma row's head.
``conftest.reference_entries`` builds the same lexicon as ``LexEntry``
lines through ``load_lexicon`` and ``expand_lexicon``.  The properties
below hold the two to the same index and the same errors, a rule's net
edit to its operator loop, and the lemma-line regex to the scanner.
"""
from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from lexgram import inflect, pipeline
from lexgram.errors import LexgramError, MalformedEntry
from lexgram.inflect import LemmaEntry, Rule, parse_lemma_entry
from lexgram.lexicon import Analysis, LexEntry, _escape, build_index, head_pairs

from conftest import fixture_path, reference_entries

CASES = 200


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the lexgram error it raised."""
    try:
        return fn(*args)
    except LexgramError as err:
        return type(err).__name__, str(err)


# -- one rule's net edit -------------------------------------------------------

_OPS = ["L", "L", "<e>", "s", "ux", "e", "elle"]


@settings(max_examples=CASES * 2, deadline=None)
@given(ops=st.lists(st.sampled_from(_OPS), max_size=7).map(tuple),
       lemma=st.text(alphabet="abé", max_size=5))
def test_rule_edit_equals_apply(ops, lemma):
    """The same form, or LemmaTooShort with the same message."""
    rule = Rule(ops, "x")
    assert outcome(rule.edit, lemma) == outcome(rule.apply, lemma)


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
def paradigm_files(draw):
    """One to three paradigms P0, P1, ...: rules of operators in any order,
    distinct codes in each paradigm."""
    sections = []
    for n in range(draw(st.integers(1, 3))):
        codes = draw(st.lists(st.sampled_from(_CODES), min_size=1, max_size=4, unique=True))
        rules = [" ".join(draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=4)))
                 + ":" + code for code in codes]
        sections.append(f"paradigm P{n}: " + " ; ".join(rules))
    return "\n".join(sections) + "\n"


# static lines that share forms, lemmas and codes with generated ones
_STATIC = ["a,a.N:ms", "as,a.N:mp", "ab,ab.N+PN+NCA:fs:fp", "b,x.V+Supp"]
# mostly known paradigms; P3 is never defined
_NAMES = ("P0", "P0", "P1", "P1", "P2", "P2", "P0", "P3")


def _index(build):
    index = build()
    return ({form: index.get(form) for form in index.forms()},
            index.num_entries, index.num_forms, index.num_analyses)


@settings(max_examples=CASES, deadline=None)
@given(paradigms=paradigm_files(),
       lemma_files=st.lists(st.lists(lemma_lines(_NAMES), max_size=8), min_size=1, max_size=2),
       repeat=st.booleans(),
       static=st.lists(st.sampled_from(_STATIC), max_size=4))
def test_direct_index_equals_lex_entry_index(paradigms, lemma_files, repeat, static):
    """Same forms, analysis sets and counts, or the same first error."""
    if repeat:  # duplicate rows, hence duplicate (form, code) pairs
        lemma_files = [rows + rows[:2] for rows in lemma_files]
    with tempfile.TemporaryDirectory() as root:
        def write(name, lines):
            with open(os.path.join(root, name), "w", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in lines))
            return name

        lemmas = [write(f"l{i}.lem", rows) for i, rows in enumerate(lemma_files)]
        keys = [f"paradigms = {write('p.par', [paradigms])}",
                f"lemmas = {' '.join(lemmas)}",
                f"pn_grammar = {fixture_path('grammars', 'pn.grm')}",
                f"svc_grammar = {fixture_path('grammars', 'svc.grm')}",
                f"corpus = {fixture_path('corpus', '*.txt')}"]
        if static:
            keys.append(f"lexicon = {write('s.dic', static)}")
        cfg = pipeline.parse_config(os.path.join(root, write("run.cfg", keys)))
        direct = outcome(_index, lambda: build_index(pipeline.build_entries(cfg)))
        assert direct == outcome(_index, lambda: build_index(reference_entries(cfg)))


def test_fixture_index_equals_lex_entry_index(run_config, entries):
    assert _index(lambda: build_index(pipeline.build_entries(run_config))) == \
        _index(lambda: build_index(entries))


# -- the checks the direct path skips ------------------------------------------

def test_public_constructors_still_check_the_link():
    """The run path builds analyses without ``__post_init__``; it raises for
    a support-verb link without PN once per row, and the public
    constructors still raise for it on every call."""
    unlinked = ("N", ("SV=avoir",))
    with pytest.raises(MalformedEntry) as err:
        head_pairs("vol", *unlinked, [("vol", "ms")])
    assert err.value.reason == "support-verb link on an entry without the PN feature"
    for _ in range(2):
        with pytest.raises(MalformedEntry):
            Analysis("vol", "N", frozenset({"SV=avoir"}), "ms")
        with pytest.raises(MalformedEntry):
            LexEntry("vol", "vol", *unlinked, ("ms",))
    linked = ("N", ("PN", "SV=avoir"))
    [(form, analysis)] = head_pairs("vol", *linked, [("vols", "mp")])
    assert (form, analysis) == ("vols", Analysis("vol", "N", frozenset(linked[1]), "mp"))
    assert LexEntry("vols", "vol", *linked, ("mp",)).analyses() == (analysis,)

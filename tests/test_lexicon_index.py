"""The hash-map index, the cached entry checks and the ``str.find`` and
regex line scanners against the character trie, the per-entry checks and
the per-character scanners they replaced.

The old versions live here only, as references: every property asserts
that the new code gives exactly what the old code gave.
"""
from __future__ import annotations

import string
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lexgram import inflect, lexicon
from lexgram.errors import MalformedEntry
from lexgram.inflect import parse_lemma_entry
from lexgram.lexicon import (CASE_EXACT, CASE_POLICIES, PN_FEATURE, SUBCATEGORIES,
                             SV_LINK_PREFIX, LexEntry, build_index, lookup, parse_entry,
                             subcategory_analyses)

CASES = 300


# -- the trie index ----------------------------------------------------------

class TrieIndex:
    """The character trie the index was: nested dicts, the analysis set of
    an accepting node under the reserved child key ``""``."""

    _PAYLOAD = ""

    def __init__(self, root: dict, num_entries: int, num_forms: int, num_analyses: int):
        self._root = root
        self.num_entries = num_entries
        self.num_forms = num_forms
        self.num_analyses = num_analyses

    def _walk(self, form):
        node = self._root
        for ch in form:
            node = node.get(ch)
            if node is None:
                return frozenset()
        return node.get(self._PAYLOAD, frozenset())

    def forms(self):
        out = []
        stack = [(self._root, "")]
        while stack:
            node, prefix = stack.pop()
            if self._PAYLOAD in node:
                out.append(prefix)
            for key in sorted(node, reverse=True):
                if key != self._PAYLOAD:
                    stack.append((node[key], prefix + key))
        return out

    def __contains__(self, form):
        return bool(self._walk(form))


def build_trie(entries):
    root: dict = {}
    num_analyses = 0
    accepting = []
    for entry in entries:
        node = root
        for ch in entry.form:
            node = node.setdefault(ch, {})
        payload = node.get(TrieIndex._PAYLOAD)
        if payload is None:
            payload = set()
            node[TrieIndex._PAYLOAD] = payload
            accepting.append(node)
        for analysis in entry.analyses():
            if analysis not in payload:
                payload.add(analysis)
                num_analyses += 1
    for node in accepting:
        node[TrieIndex._PAYLOAD] = frozenset(node[TrieIndex._PAYLOAD])
    return TrieIndex(root, len(entries), len(accepting), num_analyses)


def lookup_trie(index, form, case_policy=CASE_EXACT, subcat=None):
    found = index._walk(form)
    if subcat is not None:
        found = subcategory_analyses(found, subcat)
    if found or case_policy == CASE_EXACT or not form[0].isupper():
        return found
    return lookup_trie(index, form[0].lower() + form[1:], CASE_EXACT, subcat)


# Forms from a small alphabet share prefixes and repeat; a few are
# capitalized, so the fold policy finds their lowercase homographs, and a
# few are thousands of characters long.
_form = st.one_of(
    st.text(alphabet="abé", min_size=1, max_size=5),
    st.text(alphabet="abé", min_size=1, max_size=4).map(str.capitalize),
    st.sampled_from(["pêche", "Pêche", "vol", "vols", "volé"]),
    st.integers(200, 3000).map(lambda n: "a" * n),
)
_features = st.one_of(
    st.sampled_from([(), ("Supp",), ("Supp", "Aux")]),
    # a PN homograph in any subset of the subcategories, maybe SV-linked
    st.tuples(st.sets(st.sampled_from(SUBCATEGORIES)), st.booleans()).map(
        lambda d: ("PN", *sorted(d[0])) + (("SV=donner",) if d[1] else ())),
)
_entry = st.builds(LexEntry, _form, st.sampled_from(["a", "b", "pêche"]),
                   st.sampled_from(["N", "V"]), _features,
                   st.lists(st.sampled_from(["ms", "fs", "mp"]), max_size=2,
                            unique=True).map(tuple))


@st.composite
def _entries(draw):
    entries = draw(st.lists(_entry, max_size=12))
    if entries:  # exact duplicate lines
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))
    return draw(st.permutations(entries))


@settings(max_examples=CASES, deadline=None)
@given(entries=_entries(), absent=st.text(alphabet="abéAB", min_size=1, max_size=6))
def test_hash_index_equals_trie(entries, absent):
    index, trie = build_index(entries), build_trie(entries)
    assert index.forms() == trie.forms()
    assert (index.num_entries, index.num_forms, index.num_analyses) == \
        (trie.num_entries, trie.num_forms, trie.num_analyses)
    probes = {absent}
    for entry in entries:
        form = entry.form
        probes |= {form, form.capitalize(), form.lower(), form[:-1] or form, form[:3]}
    for form in sorted(probes):
        assert bool(index.get(form)) == (form in trie)
        for policy in CASE_POLICIES:
            for subcat in (None, *SUBCATEGORIES):
                assert lookup(index, form, policy, subcat) == \
                    lookup_trie(trie, form, policy, subcat), (form, policy, subcat)


# -- the cached entry checks -------------------------------------------------

_TAG_ALPHABET = frozenset(string.ascii_letters + string.digits + "=-")
_CATEGORY_ALPHABET = frozenset(string.ascii_letters + string.digits + "-")


def reference_error(form, lemma, category, features, codes):
    """The message the per-entry checks raised for these fields, or None."""
    if not form:
        return "empty surface form"
    if not lemma:
        return "empty lemma"
    if not category:
        return "empty category"
    if not set(category) <= _CATEGORY_ALPHABET:
        return f"illegal character in category {category!r}"
    for feat in features:
        if not feat or not set(feat) <= _TAG_ALPHABET:
            return f"illegal feature {feat!r}"
    for code in codes:
        if not code or not set(code) <= _TAG_ALPHABET:
            return f"illegal inflection code {code!r}"
    if (any(f.startswith(SV_LINK_PREFIX) for f in features)
            and PN_FEATURE not in features):
        return "support-verb link on an entry without the PN feature"
    return None


def entry_error(*fields):
    try:
        LexEntry(*fields)
    except MalformedEntry as err:
        return err.reason
    return None


_tag = st.sampled_from(["PN", "NCA", "SV=donner", "SV=", "Supp", "", "a b", "é", "x+y"])


@settings(max_examples=CASES, deadline=None)
@given(form=st.sampled_from(["", "vol"]), lemma=st.sampled_from(["", "vol"]),
       category=st.sampled_from(["N", "", "N=", "é", "V-1"]),
       features=st.lists(_tag, max_size=3, unique=True).map(tuple),
       codes=st.lists(_tag, max_size=2, unique=True).map(tuple))
def test_cached_checks_equal_per_entry_checks(form, lemma, category, features, codes):
    """Every error and its precedence, on a cold and on a warm cache."""
    expected = reference_error(form, lemma, category, features, codes)
    for _ in range(2):
        assert entry_error(form, lemma, category, features, codes) == expected


@pytest.mark.parametrize("valid,bad,reason", [
    (("N", ("NCA",), ("ms",)), ("N", ("NCA",), ("m s",)), "illegal inflection code 'm s'"),
    (("N", ("NCA",), ("ms",)), ("N", ("NCA", "N CA"), ("ms",)), "illegal feature 'N CA'"),
    (("N", ("PN", "SV=avoir"), ("ms",)), ("N", ("SV=avoir",), ("ms",)),
     "support-verb link on an entry without the PN feature"),
    # a bad code outranks a support-verb link without PN
    (("N", ("SV=avoir", "PN"), ("ms",)), ("N", ("SV=avoir",), ("m:s",)),
     "illegal inflection code 'm:s'"),
])
def test_validation_cache_never_hides_an_error(valid, bad, reason):
    LexEntry("vol", "vol", *valid).analyses()
    for _ in range(2):
        with pytest.raises(MalformedEntry) as err:
            LexEntry("vol", "vol", *bad)
        assert str(err.value) == reason


def test_entries_with_one_category_and_features_share_one_feature_set():
    first, second = (parse_entry(f"{form},vol.N+PN+NCA:ms") for form in ("vol", "vols"))
    assert first.analyses()[0].sem_features is second.analyses()[0].sem_features


# -- the line scanners -------------------------------------------------------

def scan_field_per_char(line, start, terminator):
    out = []
    i = start
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == "\\":
            if i + 1 >= n or line[i + 1] not in ",.+:\\":
                raise MalformedEntry("illegal escape", i + 2)
            out.append(line[i + 1])
            i += 2
            continue
        if ch == terminator:
            return "".join(out), i
        out.append(ch)
        i += 1
    return "".join(out), n


def scan_tag_per_char(line, start, pattern):
    alphabet = _CATEGORY_ALPHABET if pattern is lexicon._CATEGORY else _TAG_ALPHABET
    i = start
    while i < len(line) and line[i] in alphabet:
        i += 1
    return line[start:i], i


def outcome(parse, line):
    try:
        return parse(line)
    except MalformedEntry as err:
        return (err.reason, err.column)


_line = st.one_of(
    st.text(),
    st.text(alphabet="ab,.+:\\=-N1é \t\r\n", max_size=30),
    st.lists(st.sampled_from(["vol", ",", ".", "N", "+PN", "+NCA", ":ms", ":", "+",
                              "\\,", "\\.", "\\q", "\\", "=", " ", "é", "x"]),
             max_size=12).map("".join),
)


@settings(max_examples=CASES * 2, deadline=None)
@given(line=_line)
def test_line_scanners_equal_per_character_scanners(line):
    """Same entries, same errors, same columns."""
    new = [outcome(parse, line) for parse in (parse_entry, parse_lemma_entry)]
    with mock.patch.object(lexicon, "_scan_field", scan_field_per_char), \
            mock.patch.object(lexicon, "_scan_tag", scan_tag_per_char), \
            mock.patch.object(inflect, "_scan_tag", scan_tag_per_char):
        old = [outcome(parse, line) for parse in (parse_entry, parse_lemma_entry)]
    assert new == old


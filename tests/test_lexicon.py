from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from lexgram.errors import MalformedEntry
from lexgram.lexicon import (
    CASE_EXACT,
    CASE_FOLD,
    PN_FEATURE,
    SUBCATEGORIES,
    Analysis,
    LexEntry,
    build_index,
    filter_subcategory,
    lookup,
    parse_entry,
    serialize_entry,
)


def linear_scan(entries, form):
    """Independent lookup oracle: scan the entry list."""
    found = set()
    for entry in entries:
        if entry.form == form:
            found.update(entry.analyses())
    return frozenset(found)


# -- parsing ----------------------------------------------------------------

def test_parse_pn_entry():
    entry = parse_entry("attention,attention.N+PN+NCA:fs")
    assert entry.form == "attention"
    assert entry.lemma == "attention"
    assert entry.category == "N"
    assert set(entry.sem_features) == {"PN", "NCA"}
    assert entry.infl_codes == ("fs",)


def test_parse_support_verb_entry():
    entry = parse_entry("données,donner.V+Supp:Kfp")
    assert entry.form == "données"
    assert entry.lemma == "donner"
    assert entry.category == "V"
    assert set(entry.sem_features) == {"Supp"}
    assert entry.infl_codes == ("Kfp",)


def test_parse_minimal_entry():
    entry = parse_entry("x,y.N")
    assert entry.sem_features == ()
    assert entry.infl_codes == ()
    # a code-less entry still yields one analysis, with the empty code
    assert len(entry.analyses()) == 1
    assert entry.analyses()[0].infl_code == ""


def test_parse_multiple_codes_fan_out():
    entry = parse_entry("commis,commettre.V+Supp:Kms:Kmp")
    assert entry.infl_codes == ("Kms", "Kmp")
    assert len(entry.analyses()) == 2


def test_parse_escapes():
    entry = parse_entry(r"aujourd'hui\,,aujourd'hui\,.ADV")
    assert entry.form == "aujourd'hui,"
    assert entry.lemma == "aujourd'hui,"


@pytest.mark.parametrize("line,column", [
    ("nocövmma", 8),        # missing comma
    ("a,b", 3),             # missing dot
    (",b.N", 1),            # empty form
    ("a,.N", 3),            # empty lemma
    ("a,b.", 5),            # empty category
    ("a,b.N+", 7),          # empty feature
    ("a,b.N:", 7),          # empty code
    (r"a\qb,b.N", 3),       # illegal escape
])
def test_parse_errors_carry_columns(line, column):
    with pytest.raises(MalformedEntry) as err:
        parse_entry(line)
    assert err.value.column == column


def test_sv_link_requires_pn():
    with pytest.raises(MalformedEntry):
        parse_entry("chat,chat.N+SV=avoir:ms")


# -- serialization ----------------------------------------------------------

def test_serialize_round_trip_is_canonical():
    canonical = "attention,attention.N+NCA+PN:fs"
    assert serialize_entry(parse_entry(canonical)) == canonical
    # non-canonical feature order normalizes to the same line
    assert serialize_entry(parse_entry("attention,attention.N+PN+NCA:fs")) == canonical


def test_serialize_sorts_features():
    entry = parse_entry("vol,vol.N+PN+NCA:ms")
    shuffled = LexEntry("vol", "vol", "N", ("PN", "NCA"), ("ms",))
    assert serialize_entry(shuffled) == "vol,vol.N+NCA+PN:ms"
    assert serialize_entry(entry) == "vol,vol.N+NCA+PN:ms"


def test_serialize_escapes_comma():
    entry = LexEntry("aujourd'hui,", "aujourd'hui", "ADV")
    assert serialize_entry(entry) == r"aujourd'hui\,,aujourd'hui.ADV"


def test_fixture_lines_round_trip(entries):
    for entry in entries:
        again = parse_entry(serialize_entry(entry))
        assert set(again.sem_features) == set(entry.sem_features)
        assert set(again.infl_codes) == set(entry.infl_codes)
        assert (again.form, again.lemma, again.category) == \
            (entry.form, entry.lemma, entry.category)


_tag = st.text(alphabet="ABCNVcdesuppr123=-", min_size=1, max_size=6).filter(
    lambda t: set(t) <= set("ABCNVcdesuppr123=-"))
_word = st.text(alphabet="abcdéèêçàot'-ANV,.+:\\", min_size=1, max_size=10)


@given(form=_word, lemma=_word,
       category=st.sampled_from(["N", "V", "DET", "ADJ", "X1"]),
       feats=st.lists(_tag, max_size=3, unique=True),
       codes=st.lists(_tag, max_size=3, unique=True))
def test_parse_after_serialize_identity(form, lemma, category, feats, codes):
    feats = [f for f in feats if not f.startswith("SV=")]
    entry = LexEntry(form, lemma, category, tuple(feats), tuple(codes))
    again = parse_entry(serialize_entry(entry))
    assert again.form == form and again.lemma == lemma
    assert set(again.sem_features) == set(feats)
    assert set(again.infl_codes) == set(codes)


# -- index and lookup -------------------------------------------------------

def test_index_dedups_duplicate_lines():
    entries = [parse_entry("le,le.DET:ms"), parse_entry("le,le.DET:ms")]
    index = build_index(entries)
    assert len(lookup(index, "le")) == 1
    assert index.num_entries == 2
    assert index.num_forms == 1


def test_empty_index_lookup():
    index = build_index([])
    assert lookup(index, "anything") == frozenset()


def test_lookup_equals_linear_scan_for_donne(entries, index):
    assert lookup(index, "donne") == linear_scan(entries, "donne")
    assert lookup(index, "donne")


def test_lookup_keeps_all_ambiguous_readings(entries, index):
    analyses = lookup(index, "données")
    assert analyses == linear_scan(entries, "données")
    categories = {a.category for a in analyses}
    assert categories == {"N", "V"}
    assert len(analyses) == 2


def test_lookup_unknown_is_empty(index):
    assert lookup(index, "zzz") == frozenset()


def test_sentence_initial_fold(entries, index):
    assert lookup(index, "Débat", CASE_EXACT) == frozenset()
    folded = lookup(index, "Débat", CASE_FOLD)
    assert folded == linear_scan(entries, "débat")
    assert folded


def test_fold_does_not_union_exact_hits(index):
    # "Bob" resolves exactly; folding must not bolt on anything else
    assert lookup(index, "Bob", CASE_FOLD) == lookup(index, "Bob", CASE_EXACT)


def test_oracle_equivalence_over_corpus_vocabulary(entries, index, tagged_docs):
    vocabulary = {t.token.surface for _, tagged in tagged_docs
                  for t in tagged.tokens if t.token.kind == "word"}
    for form in sorted(vocabulary):
        assert lookup(index, form, CASE_EXACT) == linear_scan(entries, form)


def test_analysis_fan_out(entries):
    for entry in entries:
        if entry.infl_codes:
            assert len(entry.analyses()) == len(set(entry.infl_codes))


@given(st.integers(0, 50))
def test_lookup_monotone_under_insertion(seed):
    import random
    rng = random.Random(seed)
    forms = ["donne", "donner", "vol", "vols", "pêche"]
    base = [LexEntry(rng.choice(forms), "lemma%d" % rng.randrange(3), "N",
                     (), (rng.choice(["ms", "fs"]),)) for _ in range(rng.randrange(6))]
    extra = LexEntry(rng.choice(forms), "autre", "V", (), ("P3s",))
    before = build_index(base)
    after = build_index(base + [extra])
    for form in forms:
        assert lookup(before, form) <= lookup(after, form)


# -- subcategory filtering --------------------------------------------------

def test_filter_separates_homographs(entries):
    both = [e for e in entries if e.lemma == "pêche" and PN_FEATURE in e.sem_features]
    assert {"NCF", "CV"} <= {s for e in both for s in e.sem_features}
    ncf = filter_subcategory(entries, "NCF")
    peche = [e for e in ncf if e.lemma == "pêche" and PN_FEATURE in e.sem_features]
    assert len(peche) == 2  # fs and fp of the NCF reading only
    assert all("NCF" in e.sem_features for e in peche)


def test_filter_keeps_non_pn_entries():
    non_pn = [parse_entry("le,le.DET:ms"), parse_entry("a,avoir.V+Supp+Aux:P3s")]
    assert filter_subcategory(non_pn, "NCA") == non_pn


def test_filter_counts_cover_pn_entries(entries):
    pn_entries = [e for e in entries if PN_FEATURE in e.sem_features]
    per_subcat = sum(
        len([e for e in filter_subcategory(entries, subcat) if PN_FEATURE in e.sem_features])
        for subcat in SUBCATEGORIES)
    # homographs spanning subcategories keep the sum at or above the total
    assert per_subcat >= len(pn_entries)


def test_analysis_render():
    analysis = Analysis("donner", "V", frozenset({"Supp"}), "Kfp")
    assert analysis.render() == "donner.V+Supp:Kfp"


def test_analysis_sv_link_requires_pn():
    with pytest.raises(MalformedEntry):
        Analysis("chat", "N", frozenset({"SV=avoir"}), "ms")


def test_long_surface_form_indexes_and_lists():
    form = "a" * 3000
    index = build_index([LexEntry(form, "x", "N")])
    assert index.forms() == [form]
    assert index.get(form)

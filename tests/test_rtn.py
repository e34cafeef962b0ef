from __future__ import annotations

import pytest

from lexgram import rtn
from lexgram.errors import CycleError, MalformedGraph, UnresolvedCall
from lexgram.lexicon import build_index, parse_entry
from lexgram.rtn import (
    EMPTY_BINDINGS,
    EPSILON,
    Call,
    Grammar,
    Graph,
    Literal,
    Mask,
    check_recursion,
    flatten,
    load_grammar,
    locate,
    locate_recursive,
    match_label,
    parse_graph_file,
    span_accepts,
)
from lexgram.textproc import tag, tokenize

from conftest import fixture_path


def graph(name, n, init, finals, trans):
    return Graph(name, n, init, frozenset(finals), tuple(trans))


def tagged_text(text, extra_lines=()):
    lines = [
        "le,le.DET:ms", "la,le.DET:fs", "les,le.DET:mp:fp", "l',le.DET:s",
        "ce,ce.DET:ms", "une,un.DET:fs", "son,son.DET:ms",
        "débat,débat.N+NCA+PN+SV=avoir:ms", "débats,débat.N+NCA+PN+SV=avoir:mp",
        "nouvelles,nouvelle.N+CV+PN+SV=donner:fp",
        "nouvelles,nouveau.ADJ:fp",
        "données,donnée.N:fp", "données,donner.V+Supp:Kfp",
        "donne,donner.V+Supp:P3s",
        "explication,explication.N+CV+PN+SV=donner:fs",
        "attention,attention.N+NCA+PN:fs",
        "grande,grand.ADJ:fs",
    ]
    lines.extend(extra_lines)
    index = build_index([parse_entry(l) for l in lines])
    return tag(tokenize(text), index, text)


# -- loading -------------------------------------------------------------------

def test_load_fixture_pn_grammar_two_graphs():
    grammar = load_grammar([fixture_path("grammars", "pn.grm")])
    assert set(grammar.graphs) == {"PN_main", "PN_left"}
    assert grammar.main == "PN_main"


def test_unresolved_call(tmp_path):
    path = tmp_path / "a.grm"
    path.write_text("graph A\ninit 0\nfinal 1\ntrans 0 1 :Missing\n")
    with pytest.raises(UnresolvedCall):
        load_grammar([str(path)])


@pytest.mark.parametrize("text,reason", [
    ("graph A\nfinal 1\ntrans 0 1 <N>\n", "no init"),
    ("graph A\ninit 0\ntrans 0 1 <N>\n", "no final"),
    ("graph A\ninit 0\nfinal 9\ntrans 0 1 <N>\n", "no final reachable"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 <>\n", "bad label"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 <:p>\n", "mask without content"),
    ("graph A\ninit 0\nfinal 1\nwobble 3\n", "unknown directive"),
    ("init 0\n", "directive before header"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 \"unclosed\n", "unterminated literal"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 \u00b2 <N>\n", "superscript digit as state"),
    ("graph A\ninit \u0661\nfinal 1\ntrans 1 2 <N>\n", "non-ASCII digit as state"),
    ("graph A # c\ninit 0\nfinal 1\ntrans 0 1 <N>\n", "graph name with trailing comment"),
    ("graph A.B\ninit 0\nfinal 1\ntrans 0 1 <N>\n", "dot in graph name"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 :B   # call\n", "call with trailing comment"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 :B C\n", "space in call target"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 :\u00c9\n", "non-ASCII call target"),
    ("graph A\ninit 0\nfinal 1\ntrans 0 1 :\n", "empty call target"),
])
def test_malformed_graphs(text, reason):
    with pytest.raises(MalformedGraph):
        parse_graph_file(text)


def test_epsilon_cycle_rejected_at_load():
    text = ("graph A\ninit 0\nfinal 1\n"
            "trans 0 0 <E>\ntrans 0 1 <N>\n")
    with pytest.raises(MalformedGraph):
        parse_graph_file(text)


def _epsilon_chain(n, closing=""):
    lines = ["graph A", "init 0", f"final {n + 1}"]
    lines += [f"trans {i} {i + 1} <E>" for i in range(n)]
    lines.append(f"trans {n} {n + 1} <DET>")
    return "\n".join(lines + [closing]) + "\n"


def test_long_epsilon_chain_loads_flattens_and_locates():
    g = parse_graph_file(_epsilon_chain(3000))[0]
    flat = flatten(_grammar(g))
    tagged = tagged_text("le débat")
    assert [m.span for m in locate(flat, tagged)] == [(0, 1)]
    assert [m.span for m in locate_recursive(_grammar(g), tagged)] == [(0, 1)]


def test_long_epsilon_cycle_rejected_at_load():
    with pytest.raises(MalformedGraph):
        parse_graph_file(_epsilon_chain(3000, closing="trans 3000 0 <E>"))


def _call_chain(n, closing=""):
    """Graphs G0 -> G1 -> ... -> G<n-1>, the last one reading <DET>."""
    parts = [f"graph G{k}\ninit 0\nfinal 1\ntrans 0 1 :G{k + 1}\n" for k in range(n - 1)]
    parts.append(f"graph G{n - 1}\ninit 0\nfinal 1\ntrans 0 1 <DET>\n{closing}")
    return "".join(parts)


def test_long_call_chain_flattens_and_locates(tmp_path):
    path = tmp_path / "chain.grm"
    path.write_text(_call_chain(3000), encoding="utf-8")
    grammar = load_grammar([str(path)])
    assert check_recursion(grammar) is None
    flat = flatten(grammar)
    assert flat.n_states == 2 * 3000
    tagged = tagged_text("le débat")
    assert [m.span for m in locate(flat, tagged)] == [(0, 1)]
    assert [(m.span, m.bindings) for m in locate_recursive(grammar, tagged)] \
        == [(m.span, m.bindings) for m in locate(flat, tagged)]


def test_state_numbers_renumbered_densely():
    g = parse_graph_file("graph A\ninit 7\nfinal 1000000\n"
                         "trans 7 42 <DET>\ntrans 42 1000000 <N>\n")[0]
    assert (g.n_states, g.initial, g.finals) == (3, 0, frozenset({2}))
    assert [(frm, to) for frm, _, to in g.transitions] == [(0, 1), (1, 2)]
    assert [m.span for m in locate(flatten(_grammar(g)), tagged_text("le débat"))] == [(0, 2)]


def test_long_call_cycle_found(tmp_path):
    path = tmp_path / "cycle.grm"
    path.write_text(_call_chain(3000, closing="trans 0 1 :G0\n"), encoding="utf-8")
    err = check_recursion(load_grammar([str(path)]))
    assert isinstance(err, CycleError)
    assert err.path == [f"G{k}" for k in range(3000)] + ["G0"]


def test_mask_parse_full_spec():
    text = 'graph A\ninit 0\nfinal 1\ntrans 0 1 <donner.V+Supp-Aux:Kp!g1>\n'
    g = parse_graph_file(text)[0]
    label = g.transitions[0][1]
    assert label == Mask("donner", "V", frozenset({"Supp"}),
                         frozenset({"Aux"}), "Kp", "g1")


# -- recursion check -------------------------------------------------------------

def _grammar(*graphs_):
    return Grammar({g.name: g for g in graphs_}, graphs_[0].name)


def test_chain_is_acyclic():
    a = graph("A", 2, 0, {1}, [(0, Call("B"), 1)])
    b = graph("B", 2, 0, {1}, [(0, Call("C"), 1)])
    c = graph("C", 2, 0, {1}, [(0, Literal("x"), 1)])
    assert check_recursion(_grammar(a, b, c)) is None


def test_self_call_cycle():
    a = graph("A", 2, 0, {1}, [(0, Call("A"), 1)])
    err = check_recursion(_grammar(a))
    assert isinstance(err, CycleError)
    assert err.path == ["A", "A"]


def test_two_step_cycle():
    a = graph("A", 2, 0, {1}, [(0, Call("B"), 1)])
    b = graph("B", 2, 0, {1}, [(0, Call("A"), 1)])
    err = check_recursion(_grammar(a, b))
    assert isinstance(err, CycleError)
    assert err.path == ["A", "B", "A"]


def test_flatten_raises_on_cycle():
    a = graph("A", 2, 0, {1}, [(0, Call("A"), 1)])
    with pytest.raises(CycleError):
        flatten(_grammar(a))


# -- flattening -------------------------------------------------------------------

def test_flatten_without_calls_is_identity_shape():
    a = graph("A", 3, 0, {2}, [(0, Literal("x"), 1), (1, Literal("y"), 2)])
    flat = flatten(_grammar(a))
    assert flat.n_states == 3
    assert flat.transitions == a.transitions


def test_flatten_inlines_one_call():
    main = graph("M", 2, 0, {1}, [(0, Call("S"), 1)])
    sub = graph("S", 2, 0, {1}, [(0, Literal("x"), 1)])
    flat = flatten(_grammar(main, sub))
    # states(main) + states(sub), no extras; connection is via epsilon
    assert flat.n_states == 4
    assert not any(isinstance(l, Call) for _, l, _ in flat.transitions)
    assert sum(1 for _, l, _ in flat.transitions if l is EPSILON) == 2


def test_flatten_fixture_pn_state_count():
    grammar = load_grammar([fixture_path("grammars", "pn.grm")])
    flat = flatten(grammar)
    assert flat.n_states == 5  # 3 in the main graph + 2 inlined
    assert not any(isinstance(l, Call) for _, l, _ in flat.transitions)


def test_flatten_two_call_sites_copy_twice():
    grammar = load_grammar([fixture_path("grammars", "extra", "twocalls.grm")])
    flat = flatten(grammar)
    assert flat.n_states == 3 + 2 + 2


def _doubling_chain(n):
    """Graphs G0 .. G<n-1>, each calling the next one twice in a row;
    the last one reads <DET>."""
    parts = [f"graph G{k}\ninit 0\nfinal 2\ntrans 0 1 :G{k + 1}\ntrans 1 2 :G{k + 1}\n"
             for k in range(n - 1)]
    parts.append(f"graph G{n - 1}\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    return "".join(parts)


def test_flatten_refuses_a_grammar_past_the_state_limit():
    grammar = _grammar(*parse_graph_file(_doubling_chain(31)))
    with pytest.raises(MalformedGraph) as err:
        flatten(grammar)
    # 3 states per calling graph plus two copies of its callee: 5 * 2**30 - 3
    assert "5368709117 states" in str(err.value)
    assert f"limit of {rtn.FLAT_STATE_LIMIT}" in str(err.value)


def test_flatten_state_limit_is_inclusive(monkeypatch):
    grammar = _grammar(*parse_graph_file(_doubling_chain(4)))
    size = flatten(grammar).n_states
    assert size == 5 * 2 ** 3 - 3
    monkeypatch.setattr(rtn, "FLAT_STATE_LIMIT", size)
    assert flatten(grammar).n_states == size
    monkeypatch.setattr(rtn, "FLAT_STATE_LIMIT", size - 1)
    with pytest.raises(MalformedGraph, match=f"flattens to {size} states"):
        flatten(grammar)


# -- label matching ----------------------------------------------------------------

def test_mask_matches_pn_noun():
    tt = tagged_text("attention").tokens[0]
    assert match_label(Mask(category="N", required=frozenset({"PN"})), tt) is not None


def test_mask_category_mismatch():
    tt = tagged_text("attention").tokens[0]
    assert match_label(Mask(category="V"), tt) is None


def test_mask_forbidden_feature():
    tt = tagged_text("attention").tokens[0]
    assert match_label(Mask(category="N", forbidden=frozenset({"PN"})), tt) is None


def test_mask_existential_over_ambiguity():
    # "données" keeps noun and participle readings; a verb mask must match
    # through the participle analysis even though the noun reading coexists
    tt = tagged_text("les données").tokens[1]
    assert match_label(Mask(lemma="donner", category="V"), tt) is not None
    assert match_label(Mask(category="N"), tt) is not None


def test_mask_inflection_constraint():
    tt = tagged_text("données").tokens[0]
    assert match_label(Mask(category="V", infl_constraint="K"), tt) is not None
    assert match_label(Mask(category="V", infl_constraint="P"), tt) is None


def test_literal_fold():
    tt = tagged_text("Sans").tokens[0]
    assert match_label(Literal("sans", fold=True), tt) is not None
    assert match_label(Literal("sans", fold=False), tt) is None


def test_agreement_unification_failure():
    # "ce" binds (m, s); a plural noun then fails to unify
    tokens = tagged_text("ce débats").tokens
    bindings = match_label(Mask(category="DET", agree_group="g"), tokens[0])
    assert bindings == (("g", ("m", "s")),)
    assert match_label(Mask(category="N", agree_group="g"), tokens[1],
                       bindings) is None


def test_agreement_underspecified_unifies():
    # "l'" carries number only; a masculine noun is compatible
    tokens = tagged_text("l'entretien",
                         extra_lines=["entretien,entretien.N+CV+PN:ms"]).tokens
    bindings = match_label(Mask(category="DET", agree_group="g"), tokens[0])
    assert bindings == (("g", (None, "s")),)
    after = match_label(Mask(category="N", agree_group="g"), tokens[1], bindings)
    assert after == (("g", ("m", "s")),)


# -- locate ---------------------------------------------------------------------------

def _literal_graph():
    # donne <DET> <N+PN>
    return graph("G", 4, 0, {3}, [
        (0, Literal("donne"), 1),
        (1, Mask(category="DET"), 2),
        (2, Mask(category="N", required=frozenset({"PN"})), 3),
    ])


def test_locate_three_token_match():
    tagged = tagged_text("il donne l'explication")
    matches = locate(_literal_graph(), tagged)
    assert [m.span for m in matches] == [(1, 4)]
    blob = tagged.texts[0].encode("utf-8")
    m = matches[0]
    assert blob[m.start_byte:m.end_byte].decode() == "donne l'explication"


def test_locate_empty_corpus():
    tagged = tagged_text("")
    assert locate(_literal_graph(), tagged) == []


def test_locate_policies_on_nested_finals():
    g = graph("G", 4, 0, {1, 2, 3}, [
        (0, Mask(category="DET"), 1),
        (1, Mask(category="N"), 2),
        (2, Mask(category="V"), 3),
    ])
    tagged = tagged_text("les données données")
    spans = lambda policy: [m.span for m in locate(g, tagged, policy)]
    assert spans("all") == [(0, 1), (0, 2), (0, 3)]
    assert spans("longest") == [(0, 3)]
    assert spans("shortest") == [(0, 1)]


def test_locate_longest_antichain_per_start(tagged_docs, grammars):
    from lexgram.rtn import flatten as flat_fn
    flat = flat_fn(grammars.pn)
    for _, tagged in tagged_docs:
        matches = locate(flat, tagged, "longest")
        starts = [m.start_token for m in matches]
        assert len(starts) == len(set(starts))


def test_locate_never_crosses_sentence_boundary(tagged_docs, grammars, all_grammar_files):
    for path in all_grammar_files:
        flat = flatten(load_grammar([path]))
        for _, tagged in tagged_docs:
            for m in locate(flat, tagged, "all"):
                assert all(not (m.start_token < b < m.end_token)
                           for b in tagged.boundaries)


def test_locate_output_sorted(tagged_docs, grammars):
    flat = flatten(grammars.svc)
    for _, tagged in tagged_docs:
        spans = [m.span for m in locate(flat, tagged, "all")]
        assert spans == sorted(spans)


def test_locate_rejects_unflattened():
    main = graph("M", 2, 0, {1}, [(0, Call("S"), 1)])
    with pytest.raises(ValueError):
        locate(main, tagged_text("le débat"))


# -- agreement through the bundled grammar ----------------------------------------------

def test_pn_grammar_accepts_agreeing_pair(grammars):
    flat = flatten(grammars.pn)
    tagged = tagged_text("ce débat")
    matches = locate(flat, tagged)
    assert [m.span for m in matches] == [(0, 2)]
    assert matches[0].bindings == {"d": ("m", "s")}


def test_pn_grammar_rejects_number_conflict(grammars):
    flat = flatten(grammars.pn)
    tagged = tagged_text("ce débats")
    assert locate(flat, tagged) == []


def test_match_replay_and_mutation(grammars):
    flat = flatten(grammars.pn)
    tagged = tagged_text("ce débat")
    match = locate(flat, tagged)[0]
    assert span_accepts(flat, tagged, *match.span, match.bindings)
    broken = dict(match.bindings)
    gender, number = broken["d"]
    broken["d"] = ("f" if gender == "m" else "m", number)
    assert not span_accepts(flat, tagged, *match.span, broken)


def test_reported_matches_replay(tagged_docs, grammars):
    for grammar in (grammars.pn, grammars.svc):
        flat = flatten(grammar)
        for _, tagged in tagged_docs:
            for m in locate(flat, tagged, "all"):
                assert span_accepts(flat, tagged, m.start_token, m.end_token,
                                    m.bindings)


# -- oracle equivalence --------------------------------------------------------------------

def test_flattened_equals_recursive_everywhere(all_grammar_files, tagged_docs):
    assert len(all_grammar_files) >= 10
    for path in all_grammar_files:
        grammar = load_grammar([path])
        flat = flatten(grammar)
        for policy in ("longest", "all", "shortest"):
            for _, tagged in tagged_docs:
                direct = [(m.span, m.bindings) for m in locate(flat, tagged, policy)]
                via_interp = [(m.span, m.bindings)
                              for m in locate_recursive(grammar, tagged, policy)]
                assert direct == via_interp, (path, policy)

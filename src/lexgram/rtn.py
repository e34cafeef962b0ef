"""Recursion-free RTN grammars: loading, flattening, matching.

Graph file (see ``source`` for encoding, line breaks and comments):

    graph NAME        opens a graph; states are the ASCII integers the
                      lines use, renumbered 0, 1, ... in order at load
    init S            initial state (exactly one per graph)
    final S           accepting state (one or more lines)
    trans FROM TO LABEL

Label syntax:

    "text"            literal surface token, "text"~ compares case-folded
    <spec>            lexical mask, see below
    :Name             call of another graph
    <E>               epsilon

Mask spec: ``[lemma "."] [category] ("+" feat)* ("-" feat)* [":" attrs]
["!" group]``.  A mask matches a token when at least one of the token's
analyses satisfies every constraint: lemma and category equality when
given, required features present, forbidden features absent, and every
attribute character of ``attrs`` occurring in the analysis inflection
code.  Ambiguity is existential on purpose: one analysis must satisfy the
whole mask, but different tokens of a match may rely on different
readings.

``!group`` puts the transition in an agreement group.  Gender (``m``/``f``)
and number (``s``/``p``) are read off the matching analysis's inflection
code and unified with whatever the group already recorded on this path;
analyses lacking an attribute unify with anything.

``flatten`` inlines every call, turning the grammar into one plain
finite-state graph.  ``locate_scopes`` matches several flattened graphs,
one per scope, in one walk: it compiles them into one union NFA whose
states carry their scope (``_Compiled``), as a multi-pattern matcher
compiles several regexes into one automaton.  A token key holds the
surface, then the token's analyses in each scope (``textproc.scope_keys``),
and a mask of scope ``i`` reads the analyses of scope ``i``.  ``locate``
and ``span_accepts`` are the one-scope case, whose compile is cached on
the graph.  What a label makes of a token (``readings``) is memoized per
label and analysis set, or per surface for literals, across all scopes.

Matching runs a lazily built DFA, as RE2 does: a DFA state (``_State``)
is one interned set of (NFA state, bindings) configurations with a row
of successors per token key, filled on first use, and one representative
binding per scope it accepts.  Every start token is tried from the start
state (one per seed binding), so a token no initial label of any scope
accepts costs one lookup in its row.  The cache holds at most
``DFA_CACHE_LIMIT`` states and row entries per compiled union; past it,
every state, row and start state is dropped and rebuilt on demand.
``locate_recursive``, a pushdown simulation over the unflattened
grammar, stays the reference implementation (the oracle); both must
agree on every match span and binding.  Every matcher takes a
``textproc.Corpus`` (one text from ``textproc.tag``, or the run's
corpus) and reads its key column; only ``match_label`` takes a
``TaggedToken``.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CycleError, MalformedGraph, UnresolvedCall
from .source import content_lines, natural, read_text
from .textproc import Corpus, TaggedToken

POLICY_LONGEST = "longest"
POLICY_ALL = "all"
POLICY_SHORTEST = "shortest"
POLICIES = (POLICY_LONGEST, POLICY_ALL, POLICY_SHORTEST)

# Most states a flattened graph may have.  Each call site copies its
# callee, so a chain of graphs that each call the next twice doubles the
# size per graph; past this limit ``flatten`` refuses instead of filling
# memory.
FLAT_STATE_LIMIT = 100_000


@dataclass(frozen=True)
class Literal:
    surface: str
    fold: bool = False


@dataclass(frozen=True)
class Mask:
    lemma: str | None = None
    category: str | None = None
    required: frozenset[str] = frozenset()
    forbidden: frozenset[str] = frozenset()
    infl_constraint: str = ""
    agree_group: str | None = None


@dataclass(frozen=True)
class Call:
    target: str


class Epsilon:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<E>"


EPSILON = Epsilon()

Label = object  # Literal | Mask | Call | Epsilon

# bindings: sorted tuple of (group, (gender, number)); hashable per path
Bindings = tuple
EMPTY_BINDINGS: Bindings = ()


@dataclass
class Graph:
    """One named graph; treated as immutable once loaded."""

    name: str
    n_states: int
    initial: int
    finals: frozenset[int]
    transitions: tuple[tuple[int, Label, int], ...]
    _adj: dict | None = field(default=None, repr=False, compare=False)
    _matcher: _Compiled | None = field(default=None, repr=False, compare=False)

    def adjacency(self) -> dict[int, list[tuple[Label, int]]]:
        if self._adj is None:
            adj: dict[int, list[tuple[Label, int]]] = {s: [] for s in range(self.n_states)}
            for frm, label, to in self.transitions:
                adj[frm].append((label, to))
            self._adj = adj
        return self._adj

    def call_targets(self) -> list[str]:
        return [label.target for _, label, _ in self.transitions
                if isinstance(label, Call)]


@dataclass
class Grammar:
    graphs: dict[str, Graph]
    main: str


@dataclass
class Match:
    """A recognized token span; byte offsets cover exactly those tokens."""

    start_token: int
    end_token: int
    start_byte: int
    end_byte: int
    grammar: str
    bindings: dict[str, tuple[str | None, str | None]]

    @property
    def span(self) -> tuple[int, int]:
        return (self.start_token, self.end_token)


# graph names, call targets and agreement groups
_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_MASK_CORE_RE = re.compile(r"^([A-Za-z0-9]*)((?:[+-][A-Za-z0-9=]+)*)$")


def _parse_mask(inner: str, path: str, lineno: int) -> Mask:
    def bad(reason: str) -> MalformedGraph:
        return MalformedGraph(path, lineno, f"bad mask <{inner}>: {reason}")

    rest = inner
    group = None
    if "!" in rest:
        rest, group = rest.split("!", 1)
        if not _NAME_RE.match(group):
            raise bad("bad agreement group")
    attrs = ""
    if ":" in rest:
        rest, attrs = rest.split(":", 1)
        if not attrs or not attrs.isalnum():
            raise bad("bad attribute constraint")
    lemma = None
    if "." in rest:
        lemma, rest = rest.split(".", 1)
        if not lemma:
            raise bad("empty lemma")
    core = _MASK_CORE_RE.match(rest)
    if not core:
        raise bad("bad category or feature list")
    category = core.group(1) or None
    required: set[str] = set()
    forbidden: set[str] = set()
    for sign, feat in re.findall(r"([+-])([A-Za-z0-9=]+)", core.group(2)):
        (required if sign == "+" else forbidden).add(feat)
    if lemma is None and category is None and not required:
        raise bad("needs a lemma, a category, or a required feature")
    return Mask(lemma, category, frozenset(required), frozenset(forbidden),
                attrs, group)


def _parse_label(text: str, path: str, lineno: int) -> Label:
    if text == "<E>":
        return EPSILON
    if text.startswith('"'):
        closing = text.find('"', 1)
        if closing == -1:
            raise MalformedGraph(path, lineno, f"unterminated literal {text!r}")
        tail = text[closing + 1:]
        if tail not in ("", "~"):
            raise MalformedGraph(path, lineno, f"trailing junk after literal {text!r}")
        surface = text[1:closing]
        if not surface:
            raise MalformedGraph(path, lineno, "empty literal")
        return Literal(surface, fold=(tail == "~"))
    if text.startswith(":"):
        if not _NAME_RE.match(text[1:]):
            raise MalformedGraph(path, lineno, f"bad call target {text!r}")
        return Call(text[1:])
    if text.startswith("<") and text.endswith(">") and len(text) > 2:
        return _parse_mask(text[1:-1], path, lineno)
    raise MalformedGraph(path, lineno, f"unrecognized label {text!r}")


def _finish_graph(name: str, path: str, lineno: int, init: int | None,
                  finals: set[int], trans: list[tuple[int, Label, int]]) -> Graph:
    if init is None:
        raise MalformedGraph(path, lineno, f"graph {name!r} has no init state")
    if not finals:
        raise MalformedGraph(path, lineno, f"graph {name!r} has no final state")
    states = {init} | finals
    for frm, _, to in trans:
        states.add(frm)
        states.add(to)
    # states renumbered densely, so a graph's size follows the states it uses
    ids = {state: i for i, state in enumerate(sorted(states))}
    graph = Graph(name, len(ids), ids[init], frozenset(ids[f] for f in finals),
                  tuple((ids[frm], label, ids[to]) for frm, label, to in trans))

    # a final must be reachable from the initial state
    seen = {graph.initial}
    frontier = [graph.initial]
    while frontier:
        state = frontier.pop()
        for _, to in graph.adjacency()[state]:
            if to not in seen:
                seen.add(to)
                frontier.append(to)
    if not (seen & graph.finals):
        raise MalformedGraph(path, lineno, f"graph {name!r}: no final reachable")

    # reject epsilon cycles inside one graph so closure needs no step budget
    eps_adj: dict[int, list[int]] = {}
    for frm, label, to in trans:
        if label is EPSILON:
            eps_adj.setdefault(frm, []).append(to)
    done: set[int] = set()
    for root in eps_adj:
        if root in done:
            continue
        on_path = {root}
        stack = [(root, iter(eps_adj[root]))]
        while stack:
            state, successors = stack[-1]
            for nxt in successors:
                if nxt in on_path:
                    raise MalformedGraph(path, lineno, f"graph {name!r}: epsilon cycle")
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(eps_adj.get(nxt, ()))))
                    break
            else:
                stack.pop()
                on_path.discard(state)
                done.add(state)
    return graph


def parse_graph_file(text: str, path: str = "<string>") -> list[Graph]:
    graphs: list[Graph] = []
    name: str | None = None
    start_line = 0
    init: int | None = None
    finals: set[int] = set()
    trans: list[tuple[int, Label, int]] = []

    def close() -> None:
        nonlocal name
        if name is not None:
            graphs.append(_finish_graph(name, path, start_line, init, finals, trans))
            name = None

    def state_num(token: str, lineno: int) -> int:
        state = natural(token)
        if state is None:
            raise MalformedGraph(path, lineno, f"bad state {token!r}")
        return state

    for lineno, line in content_lines(text):
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "graph":
            close()
            if not rest:
                raise MalformedGraph(path, lineno, "graph needs a name")
            name = rest.strip()
            if not _NAME_RE.match(name):
                raise MalformedGraph(path, lineno, f"bad graph name {name!r}")
            start_line = lineno
            init = None
            finals = set()
            trans = []
        elif name is None:
            raise MalformedGraph(path, lineno, f"{keyword!r} before any graph header")
        elif keyword == "init":
            if init is not None:
                raise MalformedGraph(path, lineno, "second init state")
            init = state_num(rest.strip(), lineno)
        elif keyword == "final":
            finals.add(state_num(rest.strip(), lineno))
        elif keyword == "trans":
            parts = rest.split(None, 2)
            if len(parts) != 3:
                raise MalformedGraph(path, lineno, "trans needs FROM TO LABEL")
            frm = state_num(parts[0], lineno)
            to = state_num(parts[1], lineno)
            trans.append((frm, _parse_label(parts[2].strip(), path, lineno), to))
        else:
            raise MalformedGraph(path, lineno, f"unknown directive {keyword!r}")
    close()
    if not graphs:
        raise MalformedGraph(path, None, "no graphs in file")
    return graphs


def load_grammar(paths: list[str], main: str | None = None) -> Grammar:
    """Load graph files into one grammar.

    The main graph defaults to the first graph of the first file.  Call
    targets must resolve; the call structure is NOT checked for cycles
    here (see check_recursion).
    """
    graphs: dict[str, Graph] = {}
    first_name: str | None = None
    for path in paths:
        text = read_text(path, lambda reason: MalformedGraph(str(path), None, reason))
        for graph in parse_graph_file(text, str(path)):
            if graph.name in graphs:
                raise MalformedGraph(str(path), None, f"duplicate graph {graph.name!r}")
            graphs[graph.name] = graph
            if first_name is None:
                first_name = graph.name
    main_name = main or first_name
    if main_name not in graphs:
        raise UnresolvedCall(main_name)
    for graph in graphs.values():
        for target in graph.call_targets():
            if target not in graphs:
                raise UnresolvedCall(target)
    return Grammar(graphs, main_name)


def _walk_calls(grammar: Grammar) -> tuple[list[str], list[str] | None]:
    """Depth-first walk of the call structure from each graph in turn.

    Returns the graph names, callees before their callers, and the first
    call cycle met as a path (None when there is none; the names are then
    partial).  The walk keeps its own stack, so call chains of any depth
    fit.
    """
    done: list[str] = []
    on_path: dict[str, bool] = {}  # True while on the current path
    for root in grammar.graphs:
        if root in on_path:
            continue
        path = [root]
        pending = [iter(grammar.graphs[root].call_targets())]
        on_path[root] = True
        while pending:
            for target in pending[-1]:
                if target not in on_path:
                    path.append(target)
                    pending.append(iter(grammar.graphs[target].call_targets()))
                    on_path[target] = True
                    break
                if on_path[target]:
                    return done, path[path.index(target):] + [target]
            else:
                pending.pop()
                name = path.pop()
                on_path[name] = False
                done.append(name)
    return done, None


def check_recursion(grammar: Grammar) -> CycleError | None:
    """None when the call structure is acyclic, else one cycle as a path."""
    _, cycle = _walk_calls(grammar)
    return CycleError(cycle) if cycle else None


def flatten(grammar: Grammar) -> Graph:
    """Inline every call; the result recognizes the same label sequences.

    Each call transition is replaced by a fresh copy of the flattened
    callee, wired in with epsilon transitions, so the state count is the
    caller's plus one callee copy per call site.  The copies are numbered
    after the caller's own states, in the order of the call transitions,
    each laid out the same way in turn.  The transitions are written in
    one pass over the main graph with an explicit stack of open copies.
    A grammar whose flattened main graph would pass ``FLAT_STATE_LIMIT``
    states is rejected before any transition is written.
    """
    order, cycle = _walk_calls(grammar)
    if cycle:
        raise CycleError(cycle)
    size: dict[str, int] = {}
    for name in order:
        g = grammar.graphs[name]
        size[name] = g.n_states + sum(size[t] for t in g.call_targets())
    if size[grammar.main] > FLAT_STATE_LIMIT:
        raise MalformedGraph(f"graph {grammar.main!r}", None,
                             f"flattens to {size[grammar.main]} states, "
                             f"above the limit of {FLAT_STATE_LIMIT}")

    trans: list[tuple[int, Label, int]] = []
    main = grammar.graphs[grammar.main]
    # open copies: [graph, its first state, its next free state, its
    # transitions left, the caller state its finals return to (None for main)]
    stack = [[main, 0, main.n_states, iter(main.transitions), None]]
    while stack:
        frame = stack[-1]
        g, base, _, todo, back = frame
        for frm, label, to in todo:
            if isinstance(label, Call):
                sub = grammar.graphs[label.target]
                free = frame[2]
                frame[2] += size[label.target]
                trans.append((base + frm, EPSILON, free + sub.initial))
                stack.append([sub, free, free + sub.n_states, iter(sub.transitions), base + to])
                break
            trans.append((base + frm, label, base + to))
        else:
            stack.pop()
            if back is not None:
                trans.extend((base + fin, EPSILON, back) for fin in g.finals)
    return Graph(main.name, size[grammar.main], main.initial, main.finals, tuple(trans))


# ---------------------------------------------------------------------------
# label matching and agreement

def _gender_of(code: str) -> str | None:
    if "m" in code:
        return "m"
    if "f" in code:
        return "f"
    return None


def _number_of(code: str) -> str | None:
    if "s" in code:
        return "s"
    if "p" in code:
        return "p"
    return None


def _unify(bindings: Bindings, group: str, gender: str | None,
           number: str | None) -> Bindings | None:
    items = dict(bindings)
    old_gender, old_number = items.get(group, (None, None))
    if old_gender is not None and gender is not None and old_gender != gender:
        return None
    if old_number is not None and number is not None and old_number != number:
        return None
    items[group] = (old_gender or gender, old_number or number)
    return tuple(sorted(items.items()))


def _satisfies(mask: Mask, analysis) -> bool:
    if mask.lemma is not None and analysis.lemma != mask.lemma:
        return False
    if mask.category is not None and analysis.category != mask.category:
        return False
    if not mask.required <= analysis.sem_features:
        return False
    if mask.forbidden & analysis.sem_features:
        return False
    return all(ch in analysis.infl_code for ch in mask.infl_constraint)


def readings(label: Label, key) -> tuple | None:
    """What a consuming label makes of one token, independent of bindings.

    ``key`` is the token's surface for a literal and its analysis set for
    a mask.  None means the label rejects the token.  Otherwise the result
    is the ordered distinct (gender, number) pairs of the satisfying
    analyses for an agreeing mask, and the empty tuple for any other
    label.
    """
    if isinstance(label, Literal):
        ok = (key.lower() == label.surface.lower()) if label.fold \
            else (key == label.surface)
        return () if ok else None
    if isinstance(label, Mask):
        if label.agree_group is None:
            return () if any(_satisfies(label, a) for a in key) else None
        pairs: list[tuple[str | None, str | None]] = []
        for analysis in sorted(key, key=lambda a: a.sort_key):
            if _satisfies(label, analysis):
                pair = (_gender_of(analysis.infl_code), _number_of(analysis.infl_code))
                if pair not in pairs:
                    pairs.append(pair)
        return tuple(pairs) or None
    raise ValueError(f"label {label!r} does not consume a token")


def _outcomes(label: Label, found: tuple | None,
              bindings: Bindings) -> list[Bindings]:
    """Every distinct binding state the label's readings reach from
    ``bindings``; an agreeing mask over an ambiguous token can fork."""
    if found is None:
        return []
    if not found:
        return [bindings]
    out: list[Bindings] = []
    for gender, number in found:
        unified = _unify(bindings, label.agree_group, gender, number)
        if unified is not None and unified not in out:
            out.append(unified)
    return out


def _label_outcomes(label: Label, key: tuple, bindings: Bindings) -> list[Bindings]:
    """``_outcomes`` on a token key: a literal reads item 0, the surface,
    and a mask item 1, the analyses."""
    return _outcomes(label, readings(label, key[0] if isinstance(label, Literal) else key[1]),
                     bindings)


def match_label(label: Label, tagged_token: TaggedToken,
                bindings: Bindings = EMPTY_BINDINGS) -> Bindings | None:
    """First successful outcome of a consuming label, or None on failure."""
    key = (tagged_token.token.surface, tagged_token.analyses)
    outcomes = _label_outcomes(label, key, bindings)
    return outcomes[0] if outcomes else None


def _representative(candidates) -> Bindings:
    """The binding reported for a span that several paths accept: the
    least by ``repr``, a total order on binding tuples."""
    return min(candidates, key=repr)


# ---------------------------------------------------------------------------
# compiled matcher over flattened graphs

class _Readings(dict):
    """Memo of readings() for one label, filled on first use of a key."""

    __slots__ = ("label",)

    def __init__(self, label: Label):
        super().__init__()
        self.label = label

    def __missing__(self, key):
        found = self[key] = readings(self.label, key)
        return found


# Most DFA states plus successor entries one compiled union caches.  Token
# keys form an open alphabet, so the rows are counted with the states; past
# the limit the whole cache is flushed and refilled on demand, so neither an
# adversarial grammar nor a large vocabulary grows it without bound.
DFA_CACHE_LIMIT = 10_000


class _State:
    """One DFA state: a set of (NFA state, bindings) configurations.

    ``final`` holds (scope, representative binding) for each scope with an
    accepting configuration, in scope order (None when there is none);
    ``next`` maps a token key to the successor state or ``_DEAD``.
    """

    __slots__ = ("configs", "final", "next")

    def __init__(self, configs: tuple, final: tuple | None):
        self.configs = configs
        self.final = final
        self.next: dict = {}


_DEAD = _State((), None)  # the empty configuration set: no match goes on


@dataclass
class _Compiled:
    """The union of flattened graphs, one per scope, prepared for
    simulation, and its DFA cache.

    Each graph's states are numbered after the previous graph's, so an NFA
    state belongs to one scope; ``finals`` maps each accepting state to
    its scope.  Closures hold only the states that matter after an epsilon
    walk: finals and states with a consuming out-edge.  ``edges[s]`` lists
    the consuming transitions of ``s`` as (memo, the index of the token
    key item the label reads, label, closure of the target).  ``states``
    interns DFA states by configuration set and ``starts`` holds the start
    state per seed binding; both are built lazily and flushed together
    once ``size`` reaches ``DFA_CACHE_LIMIT``.
    """

    finals: dict[int, int]
    start: tuple[int, ...]
    edges: list[tuple]
    states: dict = field(default_factory=dict)
    starts: dict = field(default_factory=dict)
    size: int = 0

    def _intern(self, configs: dict) -> _State:
        key = frozenset(configs)
        state = self.states.get(key)
        if state is None:
            ends: dict[int, list[Bindings]] = {}
            for nfa, bindings in configs:
                scope = self.finals.get(nfa)
                if scope is not None:
                    ends.setdefault(scope, []).append(bindings)
            final = tuple((scope, _representative(ends[scope])) for scope in sorted(ends))
            state = self.states[key] = _State(tuple(configs), final or None)
            self.size += 1
        return state

    def start_state(self, seed: Bindings) -> _State:
        state = self.starts.get(seed)
        if state is None:
            state = self.starts[seed] = self._intern({(nfa, seed): None for nfa in self.start})
        return state

    def successor(self, state: _State, key: tuple) -> _State:
        """The state after consuming a token with ``key``, cached on ``state``."""
        if self.size >= DFA_CACHE_LIMIT:
            for old in self.states.values():
                old.next.clear()
            self.states.clear()
            self.starts.clear()
            self.size = 0
        step: dict[tuple[int, Bindings], None] = {}
        for nfa, bindings in state.configs:
            for memo, at, label, targets in self.edges[nfa]:
                found = memo[key[at]]
                if found is None:
                    continue
                for after in _outcomes(label, found, bindings) if found else (bindings,):
                    for target in targets:
                        step[(target, after)] = None
        nxt = state.next[key] = self._intern(step) if step else _DEAD
        self.size += 1
        return nxt


def _closures(graph: Graph, base: int):
    """The epsilon closure of each state of ``graph``, memoized, keeping
    only finals and states with a consuming out-edge, numbered from
    ``base``."""
    adj = graph.adjacency()
    for _, label, _ in graph.transitions:
        if isinstance(label, Call):
            raise ValueError("locate needs a flattened graph (call label found)")
    important = [state in graph.finals or any(label is not EPSILON for label, _ in adj[state])
                 for state in range(graph.n_states)]
    closures: dict[int, tuple[int, ...]] = {}

    def closure(state: int) -> tuple[int, ...]:
        if state not in closures:
            seen = {state}
            frontier = [state]
            out = []
            while frontier:
                here = frontier.pop()
                if important[here]:
                    out.append(base + here)
                for label, to in adj[here]:
                    if label is EPSILON and to not in seen:
                        seen.add(to)
                        frontier.append(to)
            closures[state] = tuple(out)
        return closures[state]

    return closure


def _compile(graphs: tuple[Graph, ...]) -> _Compiled:
    """The union NFA of ``graphs``: graph ``i`` is scope ``i``.  A literal
    reads item 0 of a token key, the surface; a mask of scope ``i`` reads
    item ``i + 1``, the token's analyses in that scope."""
    memos: dict[Label, _Readings] = {}
    finals: dict[int, int] = {}
    start: list[int] = []
    edges: list[tuple] = []
    for scope, graph in enumerate(graphs):
        base = len(edges)
        closure = _closures(graph, base)
        adj = graph.adjacency()
        for state in range(graph.n_states):
            row = []
            for label, to in adj[state]:
                if label is not EPSILON:
                    if label not in memos:
                        memos[label] = _Readings(label)
                    at = 0 if isinstance(label, Literal) else scope + 1
                    row.append((memos[label], at, label, closure(to)))
            edges.append(tuple(row))
        finals.update((base + state, scope) for state in graph.finals)
        start.extend(closure(graph.initial))
    return _Compiled(finals, tuple(start), edges)


def _compiled(graphs: tuple[Graph, ...]) -> _Compiled:
    """The compiled union of ``graphs``; a single graph keeps its compile,
    DFA cache included, on itself for the next call."""
    if len(graphs) != 1:
        return _compile(graphs)
    graph = graphs[0]
    if graph._matcher is None:
        graph._matcher = _compile(graphs)
    return graph._matcher


def _walk(m: _Compiled, keys: list[tuple], sentences, seed: Bindings):
    """Yield (start, accepts) for every start token from which a span is
    accepted in some scope; ``accepts`` lists (end, final) in increasing
    end order, ``final`` being the accepting DFA state's (scope,
    representative binding) pairs and ``end`` exclusive.

    ``sentences`` holds (starts, limit) pairs: the start indices to try
    and the index no span may reach past.  A cached transition stays
    valid after a flush, so a state held here may outlive the cache that
    made it; only the start state is looked up again, on a miss in its row
    (a flush empties the rows it drops).
    """
    root = m.start_state(seed)
    for starts, limit in sentences:
        for start in starts:
            state = root.next.get(keys[start])
            if state is None:
                root = m.start_state(seed)
                state = m.successor(root, keys[start])
            if state is _DEAD:
                continue
            accepts = []
            end = start
            while state is not _DEAD:
                end += 1
                if state.final is not None:
                    accepts.append((end, state.final))
                if end == limit:
                    break
                key = keys[end]
                state = state.next.get(key) or m.successor(state, key)
            if accepts:
                yield start, accepts


def _select(accepts: dict[int, Bindings], policy: str) -> list[int]:
    if not accepts:
        return []
    if policy == POLICY_LONGEST:
        return [max(accepts)]
    if policy == POLICY_SHORTEST:
        return [min(accepts)]
    return sorted(accepts)


class Span(NamedTuple):
    """A token span one scope accepts, and its representative binding."""

    start_token: int
    end_token: int
    bindings: Bindings


def locate_scopes(flats: Sequence[Graph], tagged: Corpus,
                  policy: str = POLICY_LONGEST) -> list[list[Span]]:
    """The spans of every scope in one walk over a corpus.

    Graph ``i`` of ``flats`` is scope ``i``: a mask of it reads item ``i +
    1`` of each token key in ``tagged.keys``, and a literal reads item 0,
    the surface.  The graphs are compiled into one union NFA and
    determinized lazily, so each token is read once per start for all
    scopes.  Per scope, spans follow ``locate``'s policy and order.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    m = _compiled(tuple(flats))
    keys = tagged.keys
    limits = (*tagged.boundaries, len(keys))
    sentences = zip(map(range, (0, *limits), limits), limits)
    found: list[list[Span]] = [[] for _ in flats]
    every, longest = policy == POLICY_ALL, policy == POLICY_LONGEST
    for start, accepts in _walk(m, keys, sentences, EMPTY_BINDINGS):
        chosen: dict[int, tuple[int, Bindings]] = {}
        for end, final in accepts:
            for scope, bindings in final:
                if every:
                    found[scope].append(Span(start, end, bindings))
                elif longest or scope not in chosen:
                    chosen[scope] = (end, bindings)
        for scope, (end, bindings) in chosen.items():
            found[scope].append(Span(start, end, bindings))
    return found


def matches(spans: list[Span], tagged: Corpus, name: str) -> list[Match]:
    """The spans of one scope as ``Match``es of the graph ``name``."""
    return [Match(start, end, *tagged.byte_span(start, end), name, dict(bindings))
            for start, end, bindings in spans]


def locate(flat: Graph, tagged: Corpus, policy: str = POLICY_LONGEST) -> list[Match]:
    """All matches of a flattened graph over a corpus.

    Simulation runs from every start token, never crosses a sentence
    boundary, and reports spans per policy: the maximal end per start
    (longest), the minimal one (shortest), or every accepting span (all).
    Output is sorted by (start, end).  This is the one-scope case of
    ``locate_scopes``.
    """
    return matches(locate_scopes((flat,), tagged, policy)[0], tagged, flat.name)


def span_accepts(flat: Graph, tagged: Corpus, start: int, end: int,
                 bindings: Bindings | dict | None = None) -> bool:
    """Whether the graph accepts exactly [start, end), optionally with the
    agreement groups pre-bound.  Used to replay reported matches."""
    seed: Bindings = EMPTY_BINDINGS
    if bindings:
        seed = tuple(sorted(dict(bindings).items()))
    if not 0 <= start < end <= tagged.sentence_end(start):
        return False
    found = _walk(_compiled((flat,)), tagged.keys, [(range(start, start + 1), end)], seed)
    return any(at == end for _, accepts in found for at, _ in accepts)


# ---------------------------------------------------------------------------
# reference interpreter: executes calls on the unflattened grammar

def _descend(grammar: Grammar, start: int, limit: int,
             keys: list[tuple]) -> dict[tuple[int, Bindings], None]:
    """Every (end, bindings) at which the main graph accepts from ``start``,
    reading the token keys ``keys`` up to ``limit``.

    A pushdown simulation: a configuration is (graph, state, position,
    bindings, return point).  A return point indexes ``returns``, whose
    entries hold the calling graph, the state the call returns to and the
    caller's own return point (-1 in the main graph), so calls of any
    depth need neither flattening nor Python recursion.
    """
    graphs = grammar.graphs
    returns: list[tuple[str, int, int]] = []
    results: dict[tuple[int, Bindings], None] = {}
    seen: set = set()
    frontier = [(grammar.main, graphs[grammar.main].initial, start, EMPTY_BINDINGS, -1)]
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        name, state, pos, bindings, back = config
        graph = graphs[name]
        if state in graph.finals:
            if back < 0:
                results.setdefault((pos, bindings))
            else:
                caller, to, caller_back = returns[back]
                frontier.append((caller, to, pos, bindings, caller_back))
        for label, to in graph.adjacency()[state]:
            if label is EPSILON:
                frontier.append((name, to, pos, bindings, back))
            elif isinstance(label, Call):
                returns.append((name, to, back))
                callee = graphs[label.target]
                frontier.append((label.target, callee.initial, pos, bindings, len(returns) - 1))
            elif pos < limit:
                for after in _label_outcomes(label, keys[pos], bindings):
                    frontier.append((name, to, pos + 1, after, back))
    return results


def locate_recursive(grammar: Grammar, tagged: Corpus,
                     policy: str = POLICY_LONGEST) -> list[Match]:
    """Reference matcher over the unflattened grammar; must agree with
    locate(flatten(grammar), ...) on every span."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    err = check_recursion(grammar)
    if err is not None:
        raise err
    spans: list[Span] = []
    for start in range(len(tagged.keys)):
        limit = tagged.sentence_end(start)
        raw = _descend(grammar, start, limit, tagged.keys)
        reached: dict[int, list[Bindings]] = {}
        for (end, bindings) in raw:
            if end > start:
                reached.setdefault(end, []).append(bindings)
        accepts = {end: _representative(found) for end, found in reached.items()}
        spans.extend(Span(start, end, accepts[end]) for end in _select(accepts, policy))
    return matches(spans, tagged, grammar.main)

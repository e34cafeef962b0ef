"""DELAF-style lexicon: parsing, serialization, indexing, lookup.

One entry per line (see ``source`` for encoding, line breaks, comments):

    form "," lemma "." category ("+" feature)* (":" inflection_code)*

Inside ``form`` and ``lemma`` the characters ``, . + : \\`` are written
with a leading backslash.  Features and inflection codes are ASCII
alphanumerics plus ``=`` and ``-``.

Support-verb links on predicative-noun entries are plain features of the
shape ``SV=lemma`` (one per licensed verb), so a single file format covers
the whole lexicon.  Entries may carry several inflection codes; each code
becomes one analysis at indexing time.
"""
from __future__ import annotations

import string
from collections.abc import Callable
from dataclasses import dataclass

from .errors import MalformedEntry
from .source import content_lines, read_text

CASE_EXACT = "exact"
CASE_FOLD = "sentence-initial-fold"
CASE_POLICIES = (CASE_EXACT, CASE_FOLD)

SUBCATEGORIES = ("NCA", "NCF", "CV")
PN_FEATURE = "PN"
SV_LINK_PREFIX = "SV="

_ESCAPED = ",.+:\\"
_TAG_ALPHABET = frozenset(string.ascii_letters + string.digits + "=-")
_CATEGORY_ALPHABET = frozenset(string.ascii_letters + string.digits + "-")


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch in _ESCAPED:
            out.append("\\")
        out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class Analysis:
    """One grammatical reading of a surface form."""

    lemma: str
    category: str
    sem_features: frozenset[str]
    infl_code: str = ""

    def __post_init__(self):
        if self.pn_link and PN_FEATURE not in self.sem_features:
            raise MalformedEntry("support-verb link on an analysis without "
                                 "the PN feature")

    @property
    def pn_link(self) -> frozenset[str]:
        """Support-verb lemmas licensed by a predicative-noun entry."""
        return frozenset(f[len(SV_LINK_PREFIX):] for f in self.sem_features
                         if f.startswith(SV_LINK_PREFIX))

    @property
    def sort_key(self) -> tuple:
        return (self.lemma, self.category, tuple(sorted(self.sem_features)),
                self.infl_code)

    def render(self) -> str:
        """Canonical lexicon syntax without the surface form."""
        parts = [_escape(self.lemma), ".", self.category]
        for feat in sorted(self.sem_features):
            parts.append("+" + feat)
        if self.infl_code:
            parts.append(":" + self.infl_code)
        return "".join(parts)


@dataclass(frozen=True)
class LexEntry:
    """One inflected-form lexicon line.

    ``sem_features`` and ``infl_codes`` keep file order with duplicates
    dropped; serialization emits both in sorted order.
    """

    form: str
    lemma: str
    category: str
    sem_features: tuple[str, ...] = ()
    infl_codes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.form:
            raise MalformedEntry("empty surface form")
        if not self.lemma:
            raise MalformedEntry("empty lemma")
        if not self.category:
            raise MalformedEntry("empty category")
        if not set(self.category) <= _CATEGORY_ALPHABET:
            raise MalformedEntry(f"illegal character in category {self.category!r}")
        for feat in self.sem_features:
            if not feat or not set(feat) <= _TAG_ALPHABET:
                raise MalformedEntry(f"illegal feature {feat!r}")
        for code in self.infl_codes:
            if not code or not set(code) <= _TAG_ALPHABET:
                raise MalformedEntry(f"illegal inflection code {code!r}")
        if self.pn_link and PN_FEATURE not in self.sem_features:
            raise MalformedEntry("support-verb link on an entry without the PN feature")

    @property
    def is_pn(self) -> bool:
        return PN_FEATURE in self.sem_features

    @property
    def pn_link(self) -> frozenset[str]:
        return frozenset(f[len(SV_LINK_PREFIX):] for f in self.sem_features
                         if f.startswith(SV_LINK_PREFIX))

    def analyses(self) -> tuple[Analysis, ...]:
        """One analysis per inflection code; a code-less entry yields a
        single analysis with the empty code."""
        codes = self.infl_codes or ("",)
        feats = frozenset(self.sem_features)
        return tuple(Analysis(self.lemma, self.category, feats, code)
                     for code in codes)


def _scan_field(line: str, start: int, terminator: str) -> tuple[str, int]:
    """Consume up to an unescaped terminator, resolving escape sequences.

    Returns the decoded text and the index of the terminator (or end of
    line when the terminator never appears).
    """
    out: list[str] = []
    i = start
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == "\\":
            if i + 1 >= n or line[i + 1] not in _ESCAPED:
                raise MalformedEntry("illegal escape", i + 2)
            out.append(line[i + 1])
            i += 2
            continue
        if ch == terminator:
            return "".join(out), i
        out.append(ch)
        i += 1
    return "".join(out), n


def _scan_tag(line: str, start: int, alphabet: frozenset[str]) -> tuple[str, int]:
    i = start
    while i < len(line) and line[i] in alphabet:
        i += 1
    return line[start:i], i


def scan_head(raw: str, start: int) -> tuple[str, str, tuple[str, ...], int]:
    """Scan ``lemma "." category ("+" feature)*`` from ``start``: the lemma,
    category, distinct features in file order and the index after them."""
    lemma, j = _scan_field(raw, start, ".")
    if j >= len(raw):
        raise MalformedEntry("missing dot after lemma", len(raw) or 1)
    if not lemma:
        raise MalformedEntry("empty lemma", start + 1)
    category, k = _scan_tag(raw, j + 1, _CATEGORY_ALPHABET)
    if not category:
        raise MalformedEntry("empty category", k + 1)
    features: list[str] = []
    while k < len(raw) and raw[k] == "+":
        feat, k2 = _scan_tag(raw, k + 1, _TAG_ALPHABET)
        if not feat:
            raise MalformedEntry("empty feature", k + 2)
        if feat not in features:
            features.append(feat)
        k = k2
    return lemma, category, tuple(features), k


def parse_entry(line: str) -> LexEntry:
    """Parse one lexicon line; raises MalformedEntry with a 1-based column."""
    raw = line.rstrip("\n")
    if raw.endswith("\r"):
        raw = raw[:-1]
    form, i = _scan_field(raw, 0, ",")
    if i >= len(raw):
        raise MalformedEntry("missing comma after surface form", len(raw) or 1)
    if not form:
        raise MalformedEntry("empty surface form", 1)
    lemma, category, features, k = scan_head(raw, i + 1)
    codes: list[str] = []
    while k < len(raw) and raw[k] == ":":
        code, k2 = _scan_tag(raw, k + 1, _TAG_ALPHABET)
        if not code:
            raise MalformedEntry("empty inflection code", k + 2)
        if code not in codes:
            codes.append(code)
        k = k2
    if k < len(raw):
        raise MalformedEntry(f"unexpected character {raw[k]!r}", k + 1)
    return LexEntry(form, lemma, category, features, tuple(codes))


def serialize_entry(entry: LexEntry) -> str:
    """Canonical line for an entry: features and codes in sorted order."""
    parts = [_escape(entry.form), ",", _escape(entry.lemma), ".", entry.category]
    for feat in sorted(set(entry.sem_features)):
        parts.append("+" + feat)
    for code in sorted(set(entry.infl_codes)):
        parts.append(":" + code)
    return "".join(parts)


def load_entries(path: str, parse: Callable[[str], object]) -> list:
    """``parse`` applied to every content line of a lexicon-style file; a
    MalformedEntry names the file and the line."""
    text = read_text(path, lambda reason: MalformedEntry(reason, path=str(path)))
    entries = []
    for lineno, line in content_lines(text):
        try:
            entries.append(parse(line))
        except MalformedEntry as err:
            err.line = lineno
            err.path = str(path)
            raise
    return entries


def load_lexicon(path: str) -> list[LexEntry]:
    return load_entries(path, parse_entry)


class LexIndex:
    """Immutable map from surface form to its set of analyses.

    The forms are stored in a character trie, a deterministic acyclic
    automaton whose accepting nodes carry the analysis sets.  Built once,
    then safely shared across concurrent readers; lookup is pure.
    """

    __slots__ = ("_root", "num_entries", "num_forms", "num_analyses")

    _PAYLOAD = ""  # child key reserved for the analysis set of an accepting node

    def __init__(self, root: dict, num_entries: int, num_forms: int,
                 num_analyses: int):
        self._root = root
        self.num_entries = num_entries
        self.num_forms = num_forms
        self.num_analyses = num_analyses

    def _walk(self, form: str) -> frozenset[Analysis]:
        node = self._root
        for ch in form:
            node = node.get(ch)
            if node is None:
                return frozenset()
        return node.get(self._PAYLOAD, frozenset())

    def forms(self) -> list[str]:
        """All indexed surface forms, sorted."""
        out: list[str] = []
        stack = [(self._root, "")]
        while stack:
            node, prefix = stack.pop()
            if self._PAYLOAD in node:
                out.append(prefix)
            for key in sorted(node, reverse=True):
                if key != self._PAYLOAD:
                    stack.append((node[key], prefix + key))
        return out

    def __contains__(self, form: str) -> bool:
        return bool(self._walk(form))


def build_index(entries: list[LexEntry]) -> LexIndex:
    """Index a list of entries; identical analyses for a form deduplicate."""
    root: dict = {}
    num_analyses = 0
    accepting: list[dict] = []
    for entry in entries:
        node = root
        for ch in entry.form:
            node = node.setdefault(ch, {})
        payload = node.get(LexIndex._PAYLOAD)
        if payload is None:
            payload = set()
            node[LexIndex._PAYLOAD] = payload
            accepting.append(node)
        for analysis in entry.analyses():
            if analysis not in payload:
                payload.add(analysis)
                num_analyses += 1
    for node in accepting:
        node[LexIndex._PAYLOAD] = frozenset(node[LexIndex._PAYLOAD])
    return LexIndex(root, len(entries), len(accepting), num_analyses)


def in_subcategory(features, subcat: str) -> bool:
    """The subcategory keep-rule for an entry's or an analysis's features:
    a predicative noun (PN) stays only when it carries ``subcat``."""
    return PN_FEATURE not in features or subcat in features


def subcategory_analyses(analyses: frozenset[Analysis], subcat: str) -> frozenset[Analysis]:
    """The analyses that ``in_subcategory`` keeps."""
    return frozenset(a for a in analyses if in_subcategory(a.sem_features, subcat))


def lookup(index: LexIndex, form: str, case_policy: str = CASE_EXACT,
           subcat: str | None = None) -> frozenset[Analysis]:
    """All analyses of a form; ambiguity is never pruned.

    Under the sentence-initial-fold policy an empty exact result retries
    with the first character lowercased, and nothing else is merged in.
    Unknown forms yield the empty set.  With ``subcat``, the result is the
    lookup in an index of ``filter_subcategory(entries, subcat)``.
    """
    if not form:
        raise ValueError("lookup of an empty form")
    if case_policy not in CASE_POLICIES:
        raise ValueError(f"unknown case policy {case_policy!r}")
    found = index._walk(form)
    if subcat is not None:
        found = subcategory_analyses(found, subcat)
    if found or case_policy == CASE_EXACT or not form[0].isupper():
        return found
    return lookup(index, form[0].lower() + form[1:], CASE_EXACT, subcat)


def filter_subcategory(entries: list[LexEntry], subcat: str) -> list[LexEntry]:
    """The entries ``in_subcategory`` keeps."""
    if subcat not in SUBCATEGORIES:
        raise ValueError(f"unknown subcategory {subcat!r}")
    return [e for e in entries if in_subcategory(e.sem_features, subcat)]

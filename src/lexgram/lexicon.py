"""DELAF-style lexicon: parsing, serialization, indexing, lookup.

One entry per line (see ``source`` for encoding, line breaks, comments):

    form "," lemma "." category ("+" feature)* (":" inflection_code)*

Inside ``form`` and ``lemma`` the characters ``, . + : \\`` are written
with a leading backslash.  Features and inflection codes are ASCII
alphanumerics plus ``=`` and ``-``.

Support-verb links on predicative-noun entries are plain features of the
shape ``SV=lemma`` (one per licensed verb), so a single file format covers
the whole lexicon.  Entries may carry several inflection codes; each code
becomes one analysis at indexing time.  Generated forms reach the index
(``LexIndex``) as packed references into its table of checked lemma
rows; the index builds a form's analyses on its first lookup.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .errors import MalformedEntry
from .source import content_lines, read_text

CASE_EXACT = "exact"
CASE_FOLD = "sentence-initial-fold"
CASE_POLICIES = (CASE_EXACT, CASE_FOLD)

SUBCATEGORIES = ("NCA", "NCF", "CV")
PN_FEATURE = "PN"
SV_LINK_PREFIX = "SV="

_ESCAPED = ",.+:\\"
_MUST_ESCAPE = re.compile(f"[{re.escape(_ESCAPED)}]")
# The longest run of feature / inflection-code (TAG) or category characters.
_TAG = re.compile(r"[A-Za-z0-9=-]*")
_CATEGORY = re.compile(r"[A-Za-z0-9-]*")
_UNLINKED_ENTRY = "support-verb link on an entry without the PN feature"


def _escape(text: str) -> str:
    return _MUST_ESCAPE.sub(r"\\\g<0>", text)


def _unlinked(features) -> bool:
    """Whether features carry a support-verb link but not the PN feature."""
    return (PN_FEATURE not in features
            and any(f.startswith(SV_LINK_PREFIX) for f in features))


@lru_cache(maxsize=4096)
def _checked_head(category: str, sem_features: tuple[str, ...]) -> tuple[frozenset[str], bool]:
    """The one feature set of every entry with this category and these
    features, and whether it links a support verb without PN.  Raises
    MalformedEntry for a bad category or feature, on every call."""
    if not category:
        raise MalformedEntry("empty category")
    if not _CATEGORY.fullmatch(category):
        raise MalformedEntry(f"illegal character in category {category!r}")
    for feat in sem_features:
        if not feat or not _TAG.fullmatch(feat):
            raise MalformedEntry(f"illegal feature {feat!r}")
    features = frozenset(sem_features)
    return features, _unlinked(features)


@lru_cache(maxsize=1024)
def _check_codes(infl_codes: tuple[str, ...]) -> None:
    for code in infl_codes:
        if not code or not _TAG.fullmatch(code):
            raise MalformedEntry(f"illegal inflection code {code!r}")


@dataclass(frozen=True, slots=True)
class Analysis:
    """One grammatical reading of a surface form."""

    lemma: str
    category: str
    sem_features: frozenset[str]
    infl_code: str = ""

    def __post_init__(self):
        if _unlinked(self.sem_features):
            raise MalformedEntry("support-verb link on an analysis without "
                                 "the PN feature")

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


@dataclass(frozen=True, slots=True)
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
        unlinked = _checked_head(self.category, self.sem_features)[1]
        _check_codes(self.infl_codes)
        if unlinked:
            raise MalformedEntry(_UNLINKED_ENTRY)

    def analyses(self) -> tuple[Analysis, ...]:
        """One analysis per inflection code; a code-less entry yields a
        single analysis with the empty code.  Entries with the same category
        and features share one feature set."""
        feats = _checked_head(self.category, self.sem_features)[0]
        return tuple(_checked_analysis(self.lemma, self.category, feats, code)
                     for code in self.infl_codes or ("",))


_set_lemma, _set_category, _set_features, _set_code = (
    Analysis.__dict__[name].__set__ for name in ("lemma", "category", "sem_features", "infl_code"))


def _checked_analysis(lemma: str, category: str, features: frozenset[str],
                      code: str) -> Analysis:
    """``Analysis(lemma, category, features, code)`` for features that
    ``_checked_head`` has passed, without ``__post_init__``'s second link
    check: the slots are set directly, as the frozen ``__init__`` does."""
    analysis = object.__new__(Analysis)
    _set_lemma(analysis, lemma)
    _set_category(analysis, category)
    _set_features(analysis, features)
    _set_code(analysis, code)
    return analysis


def _scan_field(line: str, start: int, terminator: str) -> tuple[str, int]:
    """Consume up to an unescaped terminator, resolving escape sequences.

    Returns the decoded text and the index of the terminator (or end of
    line when the terminator never appears).
    """
    n = len(line)
    out: list[str] = []
    i, end = start, -1
    while True:
        if end < i:  # first pass, or the terminator found was escaped
            end = line.find(terminator, i)
            if end < 0:
                end = n
        slash = line.find("\\", i, end)
        if slash < 0:
            out.append(line[i:end])
            return "".join(out), end
        if slash + 1 >= n or line[slash + 1] not in _ESCAPED:
            raise MalformedEntry("illegal escape", slash + 2)
        out += (line[i:slash], line[slash + 1])
        i = slash + 2


def _scan_tag(line: str, start: int, pattern: re.Pattern[str]) -> tuple[str, int]:
    tag = pattern.match(line, start).group()
    return tag, start + len(tag)


def scan_head(raw: str, start: int) -> tuple[str, str, tuple[str, ...], int]:
    """Scan ``lemma "." category ("+" feature)*`` from ``start``: the lemma,
    category, distinct features in file order and the index after them."""
    lemma, j = _scan_field(raw, start, ".")
    if j >= len(raw):
        raise MalformedEntry("missing dot after lemma", len(raw) or 1)
    if not lemma:
        raise MalformedEntry("empty lemma", start + 1)
    category, k = _scan_tag(raw, j + 1, _CATEGORY)
    if not category:
        raise MalformedEntry("empty category", k + 1)
    features: list[str] = []
    while k < len(raw) and raw[k] == "+":
        feat, k2 = _scan_tag(raw, k + 1, _TAG)
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
        code, k2 = _scan_tag(raw, k + 1, _TAG)
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


_NO_ANALYSES: frozenset[Analysis] = frozenset()


class LexIndex:
    """Map from surface form to its set of analyses.

    One hash map from each form to its analyses: lookup is exact-match
    only, so no prefix structure is needed.  A form maps to a frozenset of
    analyses (static lexicon lines), to one packed reference into the
    table of checked lemma rows, or to a list of several of these.  A
    reference is ``row * width + i`` for the ``i``-th rule of the row's
    paradigm, ``width`` being the largest rule count of any paradigm.  The
    row table holds each row's lemma, and beside it the row's head:
    category, checked features and the codes of its paradigm's rules, one
    tuple shared by every row that ``add_rows`` adds in one call.  Each
    static line and each generated form counts as one entry.  Pure to
    readers; the first ``get`` of a generated form builds its frozenset
    and stores it in place of the references, so every later call for the
    form returns the same object.
    """

    __slots__ = ("_forms", "_lemmas", "_heads", "_width", "num_entries", "_num_analyses")

    def __init__(self, entries: list[LexEntry] = (), width: int = 1):
        self._forms: dict[str, frozenset[Analysis] | int | list] = {}
        self._lemmas: list[str] = []
        self._heads: list[tuple[str, frozenset[str], tuple[str, ...]]] = []
        self._width = width
        self.num_entries = len(entries)
        self._num_analyses: int | None = None
        forms = self._forms
        for entry in entries:
            analyses = frozenset(entry.analyses())
            known = forms.get(entry.form)
            forms[entry.form] = analyses if known is None else known | analyses

    def add_rows(self, lemmas: list[str], category: str, sem_features: tuple[str, ...],
                 codes: tuple[str, ...], columns: list[list[str]]) -> None:
        """Index ``columns[i][j]`` with code ``codes[i]`` for the lemma
        ``lemmas[j]``: the entries ``LexEntry(columns[i][j], lemmas[j],
        category, sem_features, (codes[i],))`` for every rule ``i`` and row
        ``j``, with the head checked once, for all rows, and the same error.
        The forms and lemmas must be non-empty and the codes legal and
        distinct, as the paradigm reader and ``Paradigm.min_len`` ensure.
        Each column enters the form map by ``dict`` operations; only a form
        already indexed, or repeated within the column, is merged one by
        one."""
        width = self._width
        if len(codes) > width:
            raise ValueError(f"{len(codes)} codes in an index {width} wide")
        feats, unlinked = _checked_head(category, sem_features)
        if unlinked:
            raise MalformedEntry(_UNLINKED_ENTRY)
        first = len(self._lemmas) * width
        self._lemmas += lemmas
        self._heads += repeat((category, feats, codes), len(lemmas))
        stop = len(self._lemmas) * width
        by_form = self._forms
        for i, column in enumerate(columns):
            refs = range(first + i, stop, width)
            new = dict(zip(column, refs))
            if len(new) < len(column):  # a repeated form kept only its last reference
                for ref in set(refs).difference(new.values()):
                    kept = new[form := column[(ref - first) // width]]
                    if type(kept) is list:
                        kept.append(ref)
                    else:
                        new[form] = [kept, ref]
            for form in by_form.keys() & new.keys():  # already indexed
                known, added = by_form[form], new[form]
                merged = known if type(known) is list else [known]
                merged += added if type(added) is list else [added]
                new[form] = merged
            by_form.update(new)
        self.num_entries += len(lemmas) * len(columns)
        self._num_analyses = None

    @property
    def num_forms(self) -> int:
        return len(self._forms)

    @property
    def num_analyses(self) -> int:
        """Distinct analyses summed over the forms; the first read builds
        every form's set."""
        if self._num_analyses is None:
            self._num_analyses = sum(len(self.get(form)) for form in list(self._forms))
        return self._num_analyses

    def get(self, form: str) -> frozenset[Analysis]:
        """The analyses of exactly ``form``; empty when it is not indexed."""
        found = self._forms.get(form, _NO_ANALYSES)
        if type(found) is frozenset:
            return found
        lemmas, heads, width = self._lemmas, self._heads, self._width
        out: set[Analysis] = set()
        for ref in [found] if type(found) is int else found:
            if type(ref) is int:
                row, i = divmod(ref, width)
                category, feats, codes = heads[row]
                out.add(_checked_analysis(lemmas[row], category, feats, codes[i]))
            else:
                out |= ref
        found = self._forms[form] = frozenset(out)
        return found

    def forms(self) -> list[str]:
        """All indexed surface forms, sorted."""
        return sorted(self._forms)


def build_index(entries: list[LexEntry] | LexIndex) -> LexIndex:
    """Index lexicon entries, identical analyses for a form deduplicated;
    the ``LexIndex`` that ``build_entries`` fills is returned as it is."""
    return entries if type(entries) is LexIndex else LexIndex(entries)


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
    found = index.get(form)
    if subcat is not None:
        found = subcategory_analyses(found, subcat)
    if found or case_policy == CASE_EXACT or not form[0].isupper():
        return found
    return lookup(index, form[0].lower() + form[1:], CASE_EXACT, subcat)


def filter_subcategory(entries: list[LexEntry], subcat: str) -> list[LexEntry]:
    """The entries ``in_subcategory`` keeps, from a list of ``LexEntry``
    lines such as ``load_lexicon`` and ``expand_lexicon`` return."""
    if subcat not in SUBCATEGORIES:
        raise ValueError(f"unknown subcategory {subcat!r}")
    return [e for e in entries if in_subcategory(e.sem_features, subcat)]

"""Tokenization, lexical tagging, and the run's corpus as columns.

A word token is a maximal run of letters, including hyphens and
apostrophes that sit between letters.  A 1-2 letter prefix ending in an
apostrophe (elided articles such as ``l'``) is split off as its own word
token.  Digit runs are number tokens, anything else is a one-character
punctuation token, so a token's kind follows from its first character.
A sentence opens after ``.`` ``!`` ``?`` followed by at least one space,
tab, CR or LF and an uppercase letter; one regex (``_OPENING``) finds
these openings in a whole text.  The first word of every sentence is
sentence-initial.

One compiled regex proposes the runs: a run of letters and digits
(``str.isalnum``) joined by single hyphens or apostrophes, or any one
other non-space character.  A run that ``str.isalpha`` accepts whole is
one word, one that ``str.isdigit`` accepts is one number, and a lone
character is punctuation; any other run (``L'entretien``, ``3e``,
``x²``, ``½``) goes through the character loop ``_scan`` alone.  The two
agree because every run's ends are token ends for the loop: no word or
number token holds a space or a character outside the run alphabet, and
a hyphen or apostrophe that the loop keeps inside a word sits between
two letters, which the regex joins too.  For ``str`` patterns ``re``
takes ``\\w`` and ``\\s`` from the same Unicode database as
``str.isalnum`` and ``str.isspace``, so the agreement holds under every
Python version; ``_`` is a ``\\w`` character and is excluded by name.
``_columns`` makes this one pass per text and returns each token's
surface and character start.  An opening always falls on an uppercase
letter right after spaces, so it is the start of a word token, which
opens its sentence and is its initial; only the first sentence of a
text is searched for its first word.

``build_corpus`` is the run's path: it writes every text's tokens into
one ``Corpus`` of columns and builds no token object.  A token's key
(surface, analyses) depends only on its surface and on whether it is a
sentence-initial word, so two maps per corpus, filled on first use,
look each distinct surface up once.  Byte offsets are not stored: a
corpus keeps its texts and each token's character start, and converts
on demand with one table per text, built on first use by one scan for
non-ASCII characters; an ASCII text's table is empty.

``tokenize`` and ``tag`` stay the per-document API over the same scan
and the same analysis rule (``_analyses``): ``Token`` objects with byte
offsets and sentence marks, and ``TaggedToken`` objects with their
analyses.  Tagging attaches every analysis the lexicon has for a token;
ambiguity is deliberately never pruned.  Words the lexicon does not
cover get the UNKNOWN pseudo-analysis so downstream code can treat the
token stream as fully annotated.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import EmptyInput, InvalidEncoding
from .lexicon import CASE_FOLD, Analysis, LexIndex, lookup, subcategory_analyses

WORD = "word"
PUNCT = "punct"
NUMBER = "number"

UNKNOWN = Analysis(lemma="?", category="UNKNOWN", sem_features=frozenset())
UNKNOWN_ANALYSES = frozenset([UNKNOWN])

_APOSTROPHES = ("'", "’")
_OPENERS = "([{«"
_CLOSERS = ")]}»"
# A run of letters and digits joined by single hyphens or apostrophes, or
# one other non-space character.
_CANDIDATE = re.compile(r"[^\W_]+(?:[-'’][^\W_]+)*|\S")
# Sentence-final punctuation and boundary spaces before a letter-like
# character; the opening is there when that character is an uppercase
# letter.  The lookahead leaves the character for the next search.
_OPENING = re.compile(r"[.!?][ \t\r\n]+(?=[^\W\d_])")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


@dataclass(slots=True)
class Token:
    """A source span; offsets are byte positions into the UTF-8 text.

    Tagged texts share their tokens, so a token is never mutated."""

    surface: str
    start: int
    end: int
    kind: str
    sentence_initial: bool = False
    opens_sentence: bool = False  # begins a sentence after the first one


@dataclass(slots=True)
class TaggedToken:
    """A token and its analyses; read-only, like its token."""

    token: Token
    analyses: frozenset[Analysis]

    @property
    def is_unknown(self) -> bool:
        return self.analyses == UNKNOWN_ANALYSES


@dataclass
class TaggedText:
    """Tagged token stream plus the raw text it came from.

    ``boundaries`` holds the indices of tokens that begin every sentence
    after the first, strictly increasing, and ``initials`` those of the
    sentence-initial words, increasing too.
    """

    tokens: list[TaggedToken]
    source: str
    boundaries: tuple[int, ...]
    initials: tuple[int, ...]

    @cached_property
    def keys(self) -> list[tuple[str, frozenset[Analysis]]]:
        """Each token's (surface, analyses), interned on first read: equal
        keys are one tuple, so the matcher's caches hit by identity."""
        interned: dict[tuple, tuple] = {}
        return [interned.setdefault(key := (tt.token.surface, tt.analyses), key)
                for tt in self.tokens]

    def sentence_end(self, index: int) -> int:
        """Index one past the last token of the sentence containing ``index``."""
        at = bisect_right(self.boundaries, index)
        if at < len(self.boundaries):
            return self.boundaries[at]
        return len(self.tokens)

    def byte_span(self, start: int, end: int) -> tuple[int, int]:
        """Byte offsets of the tokens [start, end)."""
        return self.tokens[start].token.start, self.tokens[end - 1].token.end


def _scan(run: str) -> list[tuple[int, int, str]]:
    """The character loop: token spans of ``run`` as (start, end, kind).

    ``_columns`` calls it on the proposed runs that are neither all
    letters nor all digits, such as elisions (``L'entretien``), ``3e``
    or ``x²``."""
    raws: list[tuple[int, int, str]] = []
    i, n = 0, len(run)
    while i < n:
        ch = run[i]
        if ch.isalpha():
            j = i + 1
            while j < n:
                c = run[j]
                if c.isalpha():
                    j += 1
                elif ((c == "-" or c in _APOSTROPHES) and run[j - 1].isalpha()
                      and j + 1 < n and run[j + 1].isalpha()):
                    j += 1
                else:
                    break
            # elision rule: 1-2 letter prefix before an apostrophe splits off
            s = i
            while True:
                cut = -1
                for off in range(s, j):
                    if run[off] in _APOSTROPHES:
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
            while j < n and run[j].isdigit():
                j += 1
            raws.append((i, j, NUMBER))
            i = j
        else:
            raws.append((i, i + 1, PUNCT))
            i += 1
    return raws


def _columns(text: str) -> tuple[list[str], list[int], list[int]]:
    """One pass over ``text``: each token's surface and character start,
    and the indices of the tokens that open a sentence after the first."""
    if not isinstance(text, str):
        raise InvalidEncoding("tokenize expects decoded text")
    surfaces: list[str] = []
    starts: list[int] = []
    add_surface, add_start = surfaces.append, starts.append
    for match in _CANDIDATE.finditer(text):
        run = match[0]
        if run.isalpha() or run.isdigit() or len(run) == 1:
            add_surface(run)
            add_start(match.start())
        else:
            at = match.start()
            for s, e, _ in _scan(run):
                add_surface(run[s:e])
                add_start(at + s)
    openings: list[int] = []
    at = 0
    for match in _OPENING.finditer(text):
        ch = text[match.end()]
        if ch.isalpha() and ch.isupper():
            # a word token starts at the letter, after every earlier opening
            at = bisect_left(starts, match.end(), at)
            openings.append(at)
    return surfaces, starts, openings


def _kind(surface: str) -> str:
    first = surface[0]
    return WORD if first.isalpha() else NUMBER if first.isdigit() else PUNCT


def _initials(surfaces: list[str], openings: list[int]) -> list[int]:
    """Indices of the sentence-initial words: the first word before the
    first opening, if there is one, then every opening."""
    for i in range(openings[0] if openings else len(surfaces)):
        if _kind(surfaces[i]) == WORD:
            return [i, *openings]
    return openings


def _byte_table(text: str) -> tuple[list[int], list[int]]:
    """The character index of each non-ASCII character of ``text``, and
    the extra UTF-8 bytes (beyond one per character) before each, plus
    their total: character offset ``c`` is byte offset
    ``c + extra[bisect_left(at, c)]``.  An ASCII text's table is empty
    and needs no scan."""
    at: list[int] = []
    extra = [0]
    if not text.isascii():
        total = 0
        for match in _NON_ASCII.finditer(text):
            at.append(match.start())
            total += len(match[0].encode("utf-8")) - 1
            extra.append(total)
    return at, extra


def tokenize(text: str) -> list[Token]:
    """Tokens with byte offsets, sentence openings and sentence-initial words."""
    surfaces, starts, openings = _columns(text)
    opens = set(openings)
    initial = set(_initials(surfaces, openings))
    at, extra = _byte_table(text)

    def byte(char: int) -> int:
        return char + extra[bisect_left(at, char)]

    return [Token(surface, byte(start), byte(start + len(surface)), _kind(surface),
                  i in initial, i in opens)
            for i, (surface, start) in enumerate(zip(surfaces, starts))]


@lru_cache(maxsize=4096)
def _fixed_analyses(kind: str, surface: str) -> frozenset[Analysis]:
    """The one-analysis set of a punctuation or number token, cached so
    that equal tokens of every text share one set object."""
    if kind == NUMBER:
        return frozenset([Analysis(lemma=surface, category="NUM", sem_features=frozenset())])
    feats = set()
    if surface in _OPENERS:
        feats.add("OPEN")
    elif surface in _CLOSERS:
        feats.add("CLOSE")
    return frozenset([Analysis(lemma=surface, category="PONCT", sem_features=frozenset(feats))])


def _analyses(index: LexIndex, surface: str, kind: str, initial: bool,
              case_policy: str) -> frozenset[Analysis]:
    """A token's analyses: a word keeps the full lookup result (folding
    applies only to sentence-initial words and only under the fold
    policy), or UNKNOWN when there is none; punctuation gets a PONCT
    analysis and a digit run a NUM analysis.  Tokens with the same
    analyses share one set object, in every text (the index returns one
    set per form, and punctuation and number sets are cached), so
    matchers can memoize per set."""
    if kind != WORD:
        return _fixed_analyses(kind, surface)
    found = lookup(index, surface, case_policy) if initial else index.get(surface)
    return found or UNKNOWN_ANALYSES


def tag(tokens: list[Token], index: LexIndex, source: str,
        case_policy: str = CASE_FOLD) -> TaggedText:
    """Attach all lexicon analyses (``_analyses``) to every token.  The
    sentence boundaries are the tokens ``tokenize`` marked as opening a
    sentence."""
    tagged: list[TaggedToken] = []
    initials: list[int] = []
    for token in tokens:
        initial = token.sentence_initial and token.kind == WORD
        if initial:
            initials.append(len(tagged))
        tagged.append(TaggedToken(token, _analyses(index, token.surface, token.kind,
                                                   initial, case_policy)))
    boundaries = tuple(i for i, token in enumerate(tokens) if token.opens_sentence)
    return TaggedText(tagged, source, boundaries, tuple(initials))


class _Keys(dict):
    """Surface -> interned key (surface, analyses) of the tokens in one
    position: sentence-initial words, or every other token.  Filled on
    first use; the two maps of a corpus share ``interned``, so equal keys
    are one tuple across the corpus."""

    def __init__(self, index: LexIndex, initial: bool, case_policy: str,
                 interned: dict[tuple, tuple]):
        super().__init__()
        self._index, self._initial, self._case_policy = index, initial, case_policy
        self._interned = interned

    def __missing__(self, surface: str) -> tuple:
        key = (surface, _analyses(self._index, surface, _kind(surface), self._initial,
                                  self._case_policy))
        found = self[surface] = self._interned.setdefault(key, key)
        return found


class Corpus(NamedTuple):
    """Several texts as one matcher input, in columns.

    ``keys`` holds each token's interned (surface, analyses) and
    ``char_starts`` its character offset in its own text.  Token indices run over the whole corpus, and
    ``starts`` holds the index of each text's first token.
    ``boundaries`` holds the tokens that open a sentence after the
    corpus's first, every nonempty text's first token among them, so no
    match crosses a text and counts over the corpus equal the per-text
    counts summed.  ``initials`` holds the sentence-initial words.  Byte
    offsets come from ``byte_span``, which caches each text's table
    (``_byte_table``, empty for an ASCII text) in ``byte_tables`` on
    first use.
    """

    keys: list[tuple]
    boundaries: tuple[int, ...]
    initials: tuple[int, ...]
    starts: tuple[int, ...]
    texts: tuple[str, ...]
    char_starts: list[int]
    byte_tables: dict[int, tuple[list[int], list[int]]]

    def byte_span(self, start: int, end: int) -> tuple[int, int]:
        """Byte offsets, in their own text, of the tokens [start, end) of
        one text."""
        doc = bisect_right(self.starts, start) - 1
        tables = self.byte_tables
        if doc not in tables:
            tables[doc] = _byte_table(self.texts[doc])
        at, extra = tables[doc]
        first = self.char_starts[start]
        last = self.char_starts[end - 1] + len(self.keys[end - 1][0])
        return first + extra[bisect_left(at, first)], last + extra[bisect_left(at, last)]

    @property
    def tokens(self) -> Sequence[TaggedToken]:
        """The tokens as ``TaggedToken``s with their own text's offsets and
        sentence marks, each built when read."""
        return _TokenView(self)


def _holds(ordered: tuple[int, ...], value: int) -> bool:
    at = bisect_left(ordered, value)
    return at < len(ordered) and ordered[at] == value


class _TokenView(Sequence):
    """A corpus's tokens, read-only; ``len`` is the token count."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: Corpus):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus.keys)

    def __getitem__(self, i):
        corpus = self._corpus
        if isinstance(i, slice):
            return [self[j] for j in range(len(corpus.keys))[i]]
        i = range(len(corpus.keys))[i]
        surface, analyses = corpus.keys[i]
        opens = _holds(corpus.boundaries, i) and not _holds(corpus.starts, i)
        token = Token(surface, *corpus.byte_span(i, i + 1), _kind(surface),
                      _holds(corpus.initials, i), opens)
        return TaggedToken(token, analyses)


def build_corpus(texts: Iterable[str], index: LexIndex,
                 case_policy: str = CASE_FOLD) -> Corpus:
    """The texts tokenized and tagged as ``tag(tokenize(text), ...)``
    would, straight into one ``Corpus``."""
    texts = tuple(texts)
    interned: dict[tuple, tuple] = {}
    inner = _Keys(index, False, case_policy, interned)
    first = _Keys(index, True, case_policy, interned)
    keys: list[tuple] = []
    char_starts: list[int] = []
    boundaries: list[int] = []
    initials: list[int] = []
    starts: list[int] = []
    for text in texts:
        surfaces, offsets, openings = _columns(text)
        at = len(keys)
        starts.append(at)
        if at and surfaces:
            boundaries.append(at)
        boundaries.extend(at + i for i in openings)
        keys += map(inner.__getitem__, surfaces)
        char_starts += offsets
        # the sentence-initial words take the other map's keys
        for i in _initials(surfaces, openings):
            keys[at + i] = first[surfaces[i]]
            initials.append(at + i)
    return Corpus(keys, tuple(boundaries), tuple(initials), tuple(starts), texts,
                  char_starts, {})


class RestrictedKeys(dict):
    """Token keys as tagged against ``index`` -> the same tokens' keys as
    tagged against ``filter_subcategory(entries, subcat)``, where ``index``
    holds all the entries.  Filled on first use, so one map serves every
    text tagged against ``index`` under ``case_policy``.

    A key keeps the analyses ``in_subcategory`` keeps, and becomes UNKNOWN
    when none are left; a key that keeps them all maps to itself.  That is
    the whole restriction except at a sentence-initial word left UNKNOWN,
    which ``restrict`` looks up again (the fold policy retries its
    lowercased form).  A restricted key restricts to itself, so the map
    also interns: equal restricted keys are one tuple and equal restricted
    sets one object, and the matcher's caches hit by identity.
    """

    def __init__(self, index: LexIndex, subcat: str, case_policy: str):
        super().__init__()
        self._index, self._subcat, self._case_policy = index, subcat, case_policy
        self._sets: dict[frozenset[Analysis], frozenset[Analysis]] = {}

    def _kept(self, analyses: frozenset[Analysis]) -> frozenset[Analysis]:
        found = self._sets.get(analyses)
        if found is None:
            own = subcategory_analyses(analyses, self._subcat) or UNKNOWN_ANALYSES
            # a restricted set restricts to itself, so one memo also interns
            found = self._sets.setdefault(own, analyses if own == analyses else own)
            self._sets[analyses] = found
        return found

    def _interned(self, surface: str, analyses: frozenset[Analysis]) -> tuple:
        key = (surface, analyses)
        return self.setdefault(key, key)

    def __missing__(self, key: tuple) -> tuple:
        surface, analyses = key
        kept = self._kept(analyses)
        found = key if kept is analyses else self._interned(surface, kept)
        self[key] = found
        return found

    def initial(self, key: tuple) -> tuple:
        """The restricted key of a sentence-initial word whose key is ``key``."""
        found = self[key]
        if found[1] is UNKNOWN_ANALYSES:
            surface = key[0]
            kept = self._kept(lookup(self._index, surface, self._case_policy, self._subcat))
            found = self._interned(surface, kept)
        return found

    def restrict(self, keys: list[tuple], initials: Iterable[int]) -> list[tuple]:
        """The restricted ``keys`` of a text whose sentence-initial words
        are at the indices ``initials``."""
        restricted = list(map(self.__getitem__, keys))
        for i in initials:
            restricted[i] = self.initial(keys[i])
        return restricted


class ScopeKeys(dict):
    """Token keys as tagged against ``index`` -> scope keys: the surface,
    then the same token's analyses in each of ``subcats``
    (``RestrictedKeys``).  ``rtn.locate_scopes`` reads a column of them
    with ``subcats[i]`` as scope ``i``.

    A token's scope key depends only on its key and on whether it is a
    sentence-initial word, so it is worked out once per distinct pair:
    this map holds the keys of every other token, ``restrict`` keeps a
    second one for the sentence-initial words.  Equal scope keys are one
    tuple, so the matcher's caches hit by identity.
    """

    def __init__(self, index: LexIndex, subcats: Sequence[str], case_policy: str):
        super().__init__()
        self._scopes = [RestrictedKeys(index, subcat, case_policy) for subcat in subcats]
        self._initials: dict[tuple, tuple] = {}
        self._interned: dict[tuple, tuple] = {}

    def _scope_key(self, key: tuple, restricted: Iterable[tuple]) -> tuple:
        found = (key[0], *(r[1] for r in restricted))
        return self._interned.setdefault(found, found)

    def __missing__(self, key: tuple) -> tuple:
        found = self[key] = self._scope_key(key, [scope[key] for scope in self._scopes])
        return found

    def restrict(self, keys: list[tuple], initials: Iterable[int]) -> list[tuple]:
        """The scope keys of a text whose sentence-initial words are at the
        indices ``initials``."""
        column = list(map(self.__getitem__, keys))
        firsts = self._initials
        for i in initials:
            key = keys[i]
            found = firsts.get(key)
            if found is None:
                found = firsts[key] = self._scope_key(
                    key, [scope.initial(key) for scope in self._scopes])
            column[i] = found
        return column


def tagging_coverage(tagged: TaggedText) -> float:
    """Fraction of word tokens carrying at least one real analysis."""
    words = [t for t in tagged.tokens if t.token.kind == WORD]
    if not words:
        raise EmptyInput("no word tokens")
    known = sum(1 for t in words if not t.is_unknown)
    return known / len(words)


def dump_tagged(tokens: list[TaggedToken]) -> str:
    """Debug TSV: start, end, surface, semicolon-joined analyses."""
    lines = []
    for tt in tokens:
        rendered = ";".join(a.render() if a.lemma else a.category
                            for a in sorted(tt.analyses, key=lambda a: a.sort_key))
        lines.append(f"{tt.token.start}\t{tt.token.end}\t{tt.token.surface}\t{rendered}")
    return "\n".join(lines) + ("\n" if lines else "")

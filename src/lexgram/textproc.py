"""Tokenization with byte offsets and lexical tagging.

A word token is a maximal run of letters, including hyphens and
apostrophes that sit between letters.  A 1-2 letter prefix ending in an
apostrophe (elided articles such as ``l'``) is split off as its own word
token.  Digit runs are number tokens, anything else is a one-character
punctuation token.  A sentence boundary falls after ``.`` ``!`` ``?``
followed by at least one space, tab, CR or LF and an uppercase letter;
``tokenize`` finds the boundaries once and marks them on the tokens.

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
Byte offsets grow token by token, and only the gaps and surfaces that
are not ASCII are encoded.

Tagging attaches every analysis the lexicon has for a token; ambiguity is
deliberately never pruned.  Words the lexicon does not cover get the
UNKNOWN pseudo-analysis so downstream code can treat the token stream as
fully annotated.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Iterator
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
_SENTENCE_FINAL = (".", "!", "?")
_BOUNDARY_SPACE = (" ", "\t", "\r", "\n")
_OPENERS = "([{«"
_CLOSERS = ")]}»"
# A run of letters and digits joined by single hyphens or apostrophes, or
# one other non-space character.
_CANDIDATE = re.compile(r"[^\W_]+(?:[-'’][^\W_]+)*|\S")


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
    """A token and its analyses.  The corpus that ``join`` builds shares
    instances with the tagged texts, so a tagged token is never mutated."""

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
        """Each token's (surface, analyses), interned on first read."""
        return _interned_keys(self.tokens)

    def sentence_end(self, index: int) -> int:
        """Index one past the last token of the sentence containing ``index``."""
        at = bisect_right(self.boundaries, index)
        if at < len(self.boundaries):
            return self.boundaries[at]
        return len(self.tokens)


def _interned_keys(tokens: list[TaggedToken]) -> list[tuple[str, frozenset[Analysis]]]:
    """The tokens' (surface, analyses), what a grammar's labels read of them.
    Equal keys are one tuple, so the matcher's caches hit by identity and a
    long token list holds one tuple per distinct key."""
    interned: dict[tuple, tuple] = {}
    return [interned.setdefault(key := (tt.token.surface, tt.analyses), key)
            for tt in tokens]


def _scan(run: str) -> list[tuple[int, int, str]]:
    """The character loop: token spans of ``run`` as (start, end, kind).

    ``tokenize`` calls it on the proposed runs that are neither all
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


def _spans(text: str) -> Iterator[tuple[int, int, str]]:
    """Token spans of ``text`` as (start_char, end_char, kind), in order."""
    for match in _CANDIDATE.finditer(text):
        run = match.group()
        if run.isalpha():
            yield match.start(), match.end(), WORD
        elif run.isdigit():
            yield match.start(), match.end(), NUMBER
        elif len(run) == 1:
            yield match.start(), match.end(), PUNCT
        else:
            at = match.start()
            for s, e, kind in _scan(run):
                yield at + s, at + e, kind


def _boundary_after(text: str, k: int) -> bool:
    """Whether sentence-final punctuation ending at char ``k`` closes its
    sentence: at least one space, tab, CR or LF, then an uppercase letter."""
    j = k
    while j < len(text) and text[j] in _BOUNDARY_SPACE:
        j += 1
    return k < j < len(text) and text[j].isalpha() and text[j].isupper()


def tokenize(text: str) -> list[Token]:
    """Tokens with byte offsets, sentence openings and sentence-initial words."""
    if not isinstance(text, str):
        raise InvalidEncoding("tokenize expects decoded text")
    tokens: list[Token] = []
    pos = byte = 0  # char and byte offset of the end of the previous token
    opens = False  # whether the next token opens a sentence
    awaiting = True  # the first word token of every sentence is sentence-initial
    for cs, ce, kind in _spans(text):
        surface = text[cs:ce]
        if cs > pos:
            gap = text[pos:cs]
            byte += len(gap) if gap.isascii() else len(gap.encode("utf-8"))
        start, pos = byte, ce
        byte += ce - cs if surface.isascii() else len(surface.encode("utf-8"))
        awaiting = awaiting or opens
        initial = awaiting and kind == WORD
        awaiting = awaiting and not initial
        tokens.append(Token(surface, start, byte, kind, initial, opens))
        opens = kind == PUNCT and surface in _SENTENCE_FINAL and _boundary_after(text, ce)
    return tokens


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


def tag(tokens: list[Token], index: LexIndex, source: str,
        case_policy: str = CASE_FOLD) -> TaggedText:
    """Attach all lexicon analyses to every token.

    Word tokens keep the full lookup result (folding applies only to
    sentence-initial tokens and only under the fold policy); punctuation
    gets a PONCT analysis, digit runs a NUM analysis, uncovered words the
    UNKNOWN pseudo-analysis.  Tokens with the same analyses share one set
    object, in every text (the index returns one set per form, and
    punctuation and number sets are cached), so matchers can memoize per
    set.  The sentence boundaries are the tokens ``tokenize`` marked as
    opening a sentence.
    """
    tagged: list[TaggedToken] = []
    initials: list[int] = []
    for token in tokens:
        if token.kind == WORD:
            if token.sentence_initial:
                initials.append(len(tagged))
                analyses = lookup(index, token.surface, case_policy) or UNKNOWN_ANALYSES
            else:
                analyses = index.get(token.surface) or UNKNOWN_ANALYSES
        else:
            analyses = _fixed_analyses(token.kind, token.surface)
        tagged.append(TaggedToken(token, analyses))
    boundaries = tuple(i for i, token in enumerate(tokens) if token.opens_sentence)
    return TaggedText(tagged, source, boundaries, tuple(initials))


class Corpus(NamedTuple):
    """What ``locate`` reads of a tagged text, plus ``initials`` and
    ``starts``, the index of each text's first token (see ``join``)."""

    tokens: list[TaggedToken]
    keys: list[tuple]
    boundaries: tuple[int, ...]
    initials: tuple[int, ...]
    starts: tuple[int, ...]


def join(tagged_texts: Iterable[TaggedText]) -> Corpus:
    """The texts as one matcher input.  Token indices run over the whole
    corpus, byte offsets stay each text's own.  Every text start is a
    sentence boundary, so no match crosses a text and counts over the
    corpus equal the per-text counts summed.  The keys are interned over
    the whole corpus; no text's own ``keys`` is built."""
    tokens: list[TaggedToken] = []
    boundaries: list[int] = []
    initials: list[int] = []
    starts: list[int] = []
    for tagged in tagged_texts:
        at = len(tokens)
        starts.append(at)
        if at and tagged.tokens:
            boundaries.append(at)
        boundaries.extend(at + i for i in tagged.boundaries)
        initials.extend(at + i for i in tagged.initials)
        tokens += tagged.tokens
    return Corpus(tokens, _interned_keys(tokens), tuple(boundaries), tuple(initials),
                  tuple(starts))


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

    def restrict(self, keys: list[tuple], initials: Iterable[int]) -> list[tuple]:
        """The restricted ``keys`` of a text whose sentence-initial words
        are at the indices ``initials``."""
        restricted = list(map(self.__getitem__, keys))
        for i in initials:
            if restricted[i][1] is UNKNOWN_ANALYSES:
                surface = keys[i][0]
                found = lookup(self._index, surface, self._case_policy, self._subcat)
                restricted[i] = self._interned(surface, self._kept(found))
        return restricted


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

"""Operator-based inflection paradigms and lexicon expansion.

Paradigm file (see ``source`` for encoding, line breaks and comments):

    paradigm NAME:
        <e>:fs ; s:fp

A ``paradigm NAME:`` header opens a section; the rules run until the next
header, separated by ``;``.  Each rule is a sequence of space-separated
operator tokens followed by ``:`` and the inflection code the produced
form carries.  Token ``L`` deletes the last character of the working
form, ``<e>`` does nothing, any other token appends itself literally.

Lemma file: one entry per line,

    lemma "." category ("+" feature)* ":" paradigm_name

with the same escaping rules as the lexicon format for the lemma part.
Expanding a lemma entry applies every rule of its paradigm and emits one
inflected lexicon entry per generated form.  The run path skips those
entries: ``lemma_pairs`` checks each lemma row's head once and yields one
(form, analysis) pair per generated form for ``lexicon.build_index``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import LemmaTooShort, MalformedEntry, MalformedParadigm, UnknownParadigm
from .lexicon import _TAG, Analysis, LexEntry, _scan_tag, head_pairs, load_entries, scan_head
from .source import content_lines, read_text

DELETE_OP = "L"
NOOP_OP = "<e>"

_HEADER_RE = re.compile(r"^paradigm\s+([A-Za-z0-9=-]+):\s*(.*)$")
# A lemma line with no escape and every field in its alphabet.  The scanner
# reads the same fields from every line this matches, and parses all others.
_LEMMA_LINE = re.compile(r"([^.\\]+)\.([A-Za-z0-9-]+)((?:\+[A-Za-z0-9=-]+)*):([A-Za-z0-9=-]+)")


@dataclass(frozen=True)
class Rule:
    """One inflection recipe: operators applied left to right to the lemma."""

    ops: tuple[str, ...]
    infl_code: str
    # The net edit of ``ops``: drop the last ``cut`` characters, then append
    # ``suffix``.  It equals ``apply`` on lemmas of ``min_len`` characters or
    # more; ``apply`` raises LemmaTooShort on every shorter one.
    cut: int = field(init=False, repr=False, compare=False)
    suffix: str = field(init=False, repr=False, compare=False)
    min_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cut, suffix, growth, min_len = 0, "", 0, 0  # growth: length change so far
        for op in self.ops:
            if op == DELETE_OP:
                min_len = max(min_len, 2 - growth)  # a delete needs two characters
                growth -= 1
                if suffix:
                    suffix = suffix[:-1]
                else:
                    cut += 1
            elif op != NOOP_OP:
                suffix += op
                growth += len(op)
        object.__setattr__(self, "cut", cut)
        object.__setattr__(self, "suffix", suffix)
        object.__setattr__(self, "min_len", max(min_len, 1 - growth))

    def edit(self, lemma: str) -> str:
        """``apply`` by slicing: the same form, or the same LemmaTooShort."""
        if len(lemma) < self.min_len:
            return self.apply(lemma)
        return lemma[:len(lemma) - self.cut] + self.suffix

    def apply(self, lemma: str) -> str:
        form = lemma
        for op in self.ops:
            if op == DELETE_OP:
                if len(form) <= 1:
                    raise LemmaTooShort(
                        f"deleting from {lemma!r} would empty the form "
                        f"(rule for code {self.infl_code!r})")
                form = form[:-1]
            elif op == NOOP_OP:
                continue
            else:
                form += op
        if not form:
            raise LemmaTooShort(f"rule for code {self.infl_code!r} produced "
                                f"an empty form from {lemma!r}")
        return form


@dataclass(frozen=True)
class Paradigm:
    name: str
    rules: tuple[Rule, ...]


def _parse_rule(text: str) -> Rule:
    if ":" not in text:
        raise MalformedParadigm(text)
    ops_part, code = text.rsplit(":", 1)
    code = code.strip()
    ops = tuple(ops_part.split())
    if not ops or not code or not _TAG.fullmatch(code):
        raise MalformedParadigm(text)
    for op in ops:
        if ":" in op:
            raise MalformedParadigm(text)
    return Rule(ops, code)


def parse_paradigm_file(text: str, path: str | None = None) -> dict[str, Paradigm]:
    """Parse every paradigm section of a file, keyed by name."""
    paradigms: dict[str, Paradigm] = {}
    name: str | None = None
    body: list[str] = []

    def close() -> None:
        if name is None:
            return
        rules: list[Rule] = []
        codes_seen: set[str] = set()
        joined = "\n".join(body)
        for chunk in joined.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            rule = _parse_rule(chunk)
            if rule.infl_code in codes_seen:
                raise MalformedParadigm(
                    f"duplicate inflection code {rule.infl_code!r} in paradigm {name!r}",
                    path)
            codes_seen.add(rule.infl_code)
            rules.append(rule)
        if not rules:
            raise MalformedParadigm(f"paradigm {name!r} has no rules", path)
        if name in paradigms:
            raise MalformedParadigm(f"duplicate paradigm {name!r}", path)
        paradigms[name] = Paradigm(name, tuple(rules))

    for _, line in content_lines(text):
        stripped = line.strip()
        header = _HEADER_RE.match(stripped)
        if header:
            close()
            name = header.group(1)
            body = [header.group(2)] if header.group(2) else []
        elif name is None:
            raise MalformedParadigm(stripped, path)
        else:
            body.append(stripped)
    close()
    return paradigms


def parse_paradigm(text: str) -> Paradigm:
    """Parse a single paradigm section."""
    paradigms = parse_paradigm_file(text)
    if len(paradigms) != 1:
        raise MalformedParadigm(text.strip().splitlines()[0] if text.strip() else "")
    return next(iter(paradigms.values()))


def load_paradigms(paths: list[str]) -> dict[str, Paradigm]:
    merged: dict[str, Paradigm] = {}
    for path in paths:
        text = read_text(path, lambda reason: MalformedParadigm(reason, str(path)))
        for name, paradigm in parse_paradigm_file(text, str(path)).items():
            if name in merged:
                raise MalformedParadigm(f"duplicate paradigm {name!r}", str(path))
            merged[name] = paradigm
    return merged


def generate(lemma: str, paradigm: Paradigm) -> list[tuple[str, str]]:
    """All (form, inflection code) pairs for a lemma, one per rule, in rule
    order.  Raises LemmaTooShort when a delete would empty the form."""
    if not lemma:
        raise LemmaTooShort("empty lemma")
    pairs: list[tuple[str, str]] = []
    for rule in paradigm.rules:
        pair = (rule.edit(lemma), rule.infl_code)
        if pair not in pairs:
            pairs.append(pair)
    return pairs


@dataclass(frozen=True)
class LemmaEntry:
    lemma: str
    category: str
    sem_features: tuple[str, ...]
    paradigm_name: str


def _lemma_row(line: str) -> tuple[str, str, tuple[str, ...], str]:
    """The fields of a ``LemmaEntry``, read by ``_LEMMA_LINE`` when it
    matches the whole line and by the scanner otherwise."""
    match = _LEMMA_LINE.fullmatch(line)
    if match is None:
        return _scan_lemma_row(line)
    lemma, category, features, name = match.groups()
    return lemma, category, tuple(dict.fromkeys(features.split("+")[1:])), name


def _scan_lemma_row(line: str) -> tuple[str, str, tuple[str, ...], str]:
    raw = line.rstrip("\n")
    if raw.endswith("\r"):
        raw = raw[:-1]
    lemma, category, features, k = scan_head(raw, 0)
    if k >= len(raw) or raw[k] != ":":
        raise MalformedEntry("missing paradigm name", k + 1)
    name, k2 = _scan_tag(raw, k + 1, _TAG)
    if not name:
        raise MalformedEntry("empty paradigm name", k + 2)
    if k2 < len(raw):
        raise MalformedEntry(f"unexpected character {raw[k2]!r}", k2 + 1)
    return lemma, category, features, name


def parse_lemma_entry(line: str) -> LemmaEntry:
    return LemmaEntry(*_lemma_row(line))


def load_lemma_entries(path: str) -> list[LemmaEntry]:
    return load_entries(path, parse_lemma_entry)


def _inflect(lemma: str, paradigm_name: str,
             paradigms: dict[str, Paradigm]) -> list[tuple[str, str]]:
    """``generate`` for one lemma row, its errors naming the row."""
    paradigm = paradigms.get(paradigm_name)
    if paradigm is None:
        raise UnknownParadigm(f"lemma {lemma!r} names unknown paradigm "
                              f"{paradigm_name!r}")
    try:
        return generate(lemma, paradigm)
    except LemmaTooShort as err:
        raise LemmaTooShort(f"lemma {lemma!r}, paradigm "
                            f"{paradigm_name!r}: {err}") from err


def expand_lexicon(lemma_entries: list[LemmaEntry],
                   paradigms: dict[str, Paradigm]) -> list[LexEntry]:
    """Inflect every lemma entry; output order is input order then rule
    order, so repeated runs are byte-identical."""
    out: list[LexEntry] = []
    for le in lemma_entries:
        for form, code in _inflect(le.lemma, le.paradigm_name, paradigms):
            out.append(LexEntry(form, le.lemma, le.category,
                                le.sem_features, (code,)))
    return out


def lemma_pairs(path: str, paradigms: dict[str, Paradigm]) -> list[tuple[str, Analysis]]:
    """The index pairs of ``expand_lexicon(load_lemma_entries(path),
    paradigms)``, with the same errors: the whole file is parsed first, then
    each row is inflected and its head checked once."""
    out: list[tuple[str, Analysis]] = []
    for lemma, category, features, name in load_entries(path, _lemma_row):
        out += head_pairs(lemma, category, features, _inflect(lemma, name, paradigms))
    return out

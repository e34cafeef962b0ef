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
Each paradigm reduces its rules once to a plan, the net edit of each rule
(characters to cut, suffix to append), which ``generate``,
``expand_lexicon`` and the index all apply.  Expanding a lemma entry
emits one inflected lexicon entry per distinct (form, code).  The run
path skips those entries: ``index_lemma_file`` groups a lemma file's rows
by head (category, features, paradigm name), checks each head once for
all its rows, builds each rule's forms for the group as one column and
adds the group to a ``lexicon.LexIndex`` with ``add_rows``, which maps
each generated form to a packed reference to its row and rule.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import LemmaTooShort, MalformedEntry, MalformedParadigm, UnknownParadigm
from .lexicon import _TAG, LexEntry, LexIndex, _checked_head, _scan_tag, load_entries, scan_head
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

    def net_edit(self) -> tuple[int, str, int]:
        """``(cut, suffix, min_len)``: drop the last ``cut`` characters, then
        append ``suffix``.  That equals ``apply`` on lemmas of ``min_len``
        characters or more; ``apply`` raises LemmaTooShort on every shorter
        one."""
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
        return cut, suffix, max(min_len, 1 - growth)

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
    """Named rules, and the plan every generated form is read from: each
    rule's net edit ``(cut, suffix)`` and code, in rule order, and the
    shortest lemma that every edit takes by slicing (``min_len``)."""

    name: str
    rules: tuple[Rule, ...]
    edits: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)
    codes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    min_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = [rule.net_edit() for rule in self.rules]
        object.__setattr__(self, "edits", tuple((cut, suffix) for cut, suffix, _ in plan))
        object.__setattr__(self, "codes", tuple(rule.infl_code for rule in self.rules))
        object.__setattr__(self, "min_len", max([1] + [n for _, _, n in plan]))

    def forms(self, lemma: str) -> list[str]:
        """One form per rule, in rule order.  A lemma shorter than
        ``min_len`` goes through the operator loop, so LemmaTooShort names
        the first rule it is too short for."""
        n = len(lemma)
        if n < self.min_len:
            if not lemma:
                raise LemmaTooShort("empty lemma")
            for rule in self.rules:
                rule.apply(lemma)
        return [lemma[:n - cut] + suffix for cut, suffix in self.edits]


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
    """All distinct (form, inflection code) pairs for a lemma, in rule
    order.  Raises LemmaTooShort when a delete would empty the form."""
    return list(dict.fromkeys(zip(paradigm.forms(lemma), paradigm.codes)))


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


def expand_lexicon(lemma_entries: list[LemmaEntry],
                   paradigms: dict[str, Paradigm]) -> list[LexEntry]:
    """Inflect every lemma entry; output order is input order then rule
    order, so repeated runs are byte-identical.  The errors name the row."""
    out: list[LexEntry] = []
    for le in lemma_entries:
        paradigm = paradigms.get(le.paradigm_name)
        if paradigm is None:
            raise UnknownParadigm(f"lemma {le.lemma!r} names unknown paradigm "
                                  f"{le.paradigm_name!r}")
        try:
            forms = paradigm.forms(le.lemma)
        except LemmaTooShort as err:
            raise LemmaTooShort(f"lemma {le.lemma!r}, paradigm "
                                f"{le.paradigm_name!r}: {err}") from err
        for form, code in dict.fromkeys(zip(forms, paradigm.codes)):
            out.append(LexEntry(form, le.lemma, le.category,
                                le.sem_features, (code,)))
    return out


def _lemma_groups(text: str, path: str) -> dict[tuple[str, tuple[str, ...], str], list[str]]:
    """The lemmas of each head (category, features, paradigm name) of a
    lemma file, in file order, the heads in order of first appearance.  The
    whole file is parsed, with the errors of ``load_lemma_entries``.  A line
    whose lemma holds no escape joins the group of the raw text after its
    first dot, once ``_LEMMA_LINE`` has read that text; any other line goes
    through ``_lemma_row``."""
    groups: dict[tuple[str, tuple[str, ...], str], list[str]] = {}
    by_raw_head: dict[str, list[str]] = {}
    for lineno, line in content_lines(text):
        lemma, _, head = line.partition(".")
        lemmas = by_raw_head.get(head)
        if lemmas is None or not lemma or "\\" in lemma:
            try:
                row = _lemma_row(line)
            except MalformedEntry as err:
                err.line = lineno
                err.path = str(path)
                raise
            lemmas = groups.setdefault(row[1:], [])
            if "\\" not in lemma:
                by_raw_head[head] = lemmas
            lemma = row[0]
        lemmas.append(lemma)
    return groups


def _column(lemmas: list[str], cut: int, suffix: str) -> list[str]:
    """One rule's form for each lemma, every lemma at least the paradigm's
    ``min_len`` long; a rule that edits nothing gives the lemma list."""
    if cut:
        return [lemma[:-cut] + suffix for lemma in lemmas]
    return [lemma + suffix for lemma in lemmas] if suffix else lemmas


def index_lemma_file(path: str, paradigms: dict[str, Paradigm], index: LexIndex) -> None:
    """Add the rows of a lemma file to ``index`` in one batch per head, with
    the errors of ``expand_lexicon(load_lemma_entries(path), paradigms)``.
    The whole file is parsed first.  Then each head is checked once, for
    all its rows: its paradigm exists, its shortest lemma is ``min_len``
    long, and it links no support verb without PN.  Only when a check
    fails are the rows walked again, by ``expand_lexicon``, which raises
    the error of the first failing row in file order.  Each rule's forms
    are then built as one column and added by ``LexIndex.add_rows``.
    Paradigm files never repeat a code within a paradigm, so a row's
    (form, code) pairs are distinct."""
    text = read_text(path, lambda reason: MalformedEntry(reason, path=str(path)))
    groups = _lemma_groups(text, path)
    for (category, features, name), lemmas in groups.items():
        paradigm = paradigms.get(name)
        if (paradigm is None or min(map(len, lemmas)) < paradigm.min_len
                or _checked_head(category, features)[1]):
            # raises, as some row of this head fails
            expand_lexicon([parse_lemma_entry(line) for _, line in content_lines(text)],
                           paradigms)
    for (category, features, name), lemmas in groups.items():
        paradigm = paradigms[name]
        index.add_rows(lemmas, category, features, paradigm.codes,
                       [_column(lemmas, cut, suffix) for cut, suffix in paradigm.edits])

"""Seeded workload generator for the `lexgram run` benchmark.

Every workload is built from the bundled ``fixtures/`` and a seed only.
The program under test receives the generated directory: copies of the
fixture lexicon and grammars, generated corpus (and gold) files and a
``run.cfg`` with the same keys as ``fixtures/run.cfg``.

The 20 fixture sentences are the unit of generation.  Matches never
cross a sentence boundary and every sentence opens with an uppercase
letter, so a sentence is recognized, tagged and classified the same way
wherever it lands; that is what lets the oracle expect k times the
fixture ledger.

    long_doc     k seeded permutations of the 20 sentences, one document,
                 with gold
    many_docs    the same sentence sequence split into seeded runs of
                 1..20 sentences per document, with gold
    big_lexicon  the fixture lemmas plus nonce lemmas (a fixture lemma
                 with a seeded consonant suffix, same features and
                 paradigm) and a small corpus without gold
"""
from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass

WORKLOADS = ("long_doc", "many_docs", "big_lexicon")

# Sizes.  long_doc and many_docs both use LONG_K, so they carry the
# identical sentence sequence and token count.
LONG_K = 30
LEXICON_K = 3            # sentence repetitions of the big_lexicon corpus
NONCE_PER_LEMMA = 100    # nonce lemmas generated per fixture lemma line
MAX_DOC_SENTENCES = 20

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_SUFFIX_LEN = 3
_FILE_KEYS = ("lexicon", "lemmas", "paradigms", "pn_grammar", "svc_grammar",
              "pn_grammar_nca", "pn_grammar_ncf", "pn_grammar_cv",
              "svc_grammar_nca", "svc_grammar_ncf", "svc_grammar_cv")


@dataclass(frozen=True)
class Sentence:
    """One fixture sentence: where it sits in its fixture document and the
    gold spans it holds.

    ``gold`` rows are (relative start byte, relative end byte, label,
    annotator, head form), in fixture file order.
    """

    doc_id: str
    start: int
    text: str
    gold: tuple[tuple[int, int, str, str, str], ...]

    @property
    def end(self) -> int:
        return self.start + len(self.text.encode("utf-8"))


@dataclass(frozen=True)
class Workload:
    """A generated workload.

    ``layout`` maps each doc id to its sentences as (fixture sentence
    index, byte offset in the document); ``docs`` holds the texts.
    """

    name: str
    seed: int
    root: str
    config: str
    docs: dict[str, str]
    layout: dict[str, list[tuple[int, int]]]
    k: int                       # copies of each fixture sentence
    has_gold: bool
    nonce_lemmas: int


def read_config(path: str) -> dict[str, str]:
    """``key = value`` pairs of a run config, comments and blanks skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                key, _, value = stripped.partition("=")
                values[key.strip()] = value.strip()
    return values


def sentence_of(sentences: list[Sentence], doc_id: str, start: int, end: int) -> int:
    """Index of the one fixture sentence holding a byte span of a fixture doc."""
    owner = [i for i, s in enumerate(sentences)
             if s.doc_id == doc_id and s.start <= start and end <= s.end]
    if len(owner) != 1:
        raise ValueError(f"span {doc_id}:{start}-{end} is not inside one sentence")
    return owner[0]


def fixture_sentences(fixtures: str) -> list[Sentence]:
    """The corpus sentences, one per line, in doc order, with their gold."""
    corpus_dir = os.path.join(fixtures, "corpus")
    sentences: list[Sentence] = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(corpus_dir, name), "rb") as handle:
            blob = handle.read()
        start = 0
        for raw in blob.split(b"\n"):
            if raw.strip():
                sentences.append(Sentence(name[:-len(".txt")], start,
                                          raw.decode("utf-8"), ()))
            start += len(raw) + 1

    gold_rows: dict[int, list] = {}
    with open(os.path.join(fixtures, "gold", "annotations.tsv"), encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            doc_id, start, end, label, annotator, head = line.rstrip("\n").split("\t")
            start, end = int(start), int(end)
            i = sentence_of(sentences, doc_id, start, end)
            s0 = sentences[i].start
            gold_rows.setdefault(i, []).append((start - s0, end - s0, label, annotator, head))
    return [Sentence(s.doc_id, s.start, s.text, tuple(gold_rows.get(i, ())))
            for i, s in enumerate(sentences)]


def sentence_sequence(rng: random.Random, n: int, k: int) -> list[int]:
    """k independent seeded permutations of range(n), concatenated."""
    seq: list[int] = []
    for _ in range(k):
        seq.extend(rng.sample(range(n), n))
    return seq


def split_runs(rng: random.Random, seq: list[int]) -> list[list[int]]:
    """Cut a sequence into consecutive runs of 1..MAX_DOC_SENTENCES items."""
    runs, at = [], 0
    while at < len(seq):
        size = rng.randint(1, MAX_DOC_SENTENCES)
        runs.append(seq[at:at + size])
        at += size
    return runs


def _copy_resources(fixtures: str, root: str, cfg: dict[str, str]) -> dict[str, str]:
    """Copy every file the fixture config names; returns the copied keys."""
    out: dict[str, str] = {}
    for key in _FILE_KEYS:
        rels = cfg.get(key, "").split()
        for rel in rels:
            dst = os.path.join(root, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(os.path.join(fixtures, rel), dst)
        out[key] = " ".join(rels)
    return out


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def nonce_suffixes(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded consonant suffixes."""
    space = len(_CONSONANTS) ** _SUFFIX_LEN
    out = []
    for code in rng.sample(range(space), n):
        letters = []
        for _ in range(_SUFFIX_LEN):
            code, digit = divmod(code, len(_CONSONANTS))
            letters.append(_CONSONANTS[digit])
        out.append("".join(letters))
    return out


def nonce_lemma_lines(fixtures: str, lemma_files: list[str], rng: random.Random,
                      per_lemma: int) -> list[str]:
    """Lemma lines whose lemma is a fixture lemma plus a consonant suffix;
    the category, features and paradigm are kept."""
    lines = []
    for rel in lemma_files:
        with open(os.path.join(fixtures, rel), encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                lemma, dot, rest = stripped.partition(".")
                for suffix in nonce_suffixes(rng, per_lemma):
                    lines.append(f"{lemma}{suffix}{dot}{rest}")
    return lines


def _nonce_forms(root: str, cfg: dict[str, str], nonce_rel: str) -> set[str]:
    from lexgram.inflect import expand_lexicon, load_lemma_entries, load_paradigms

    paradigms = load_paradigms([os.path.join(root, p) for p in cfg["paradigms"].split()])
    return {e.form for e in expand_lexicon(
        load_lemma_entries(os.path.join(root, nonce_rel)), paradigms)}


def generate(name: str, seed: int, fixtures: str, root: str) -> Workload:
    """Write workload ``name`` for ``seed`` under ``root`` (replaced)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if os.path.exists(root):
        shutil.rmtree(root)
    os.makedirs(root)
    fixture_cfg = read_config(os.path.join(fixtures, "run.cfg"))
    cfg = _copy_resources(fixtures, root, fixture_cfg)
    sentences = fixture_sentences(fixtures)
    rng = random.Random(seed)
    k = LEXICON_K if name == "big_lexicon" else LONG_K
    seq = sentence_sequence(rng, len(sentences), k)
    runs = [seq] if name == "long_doc" else split_runs(rng, seq)

    docs: dict[str, str] = {}
    layout: dict[str, list[tuple[int, int]]] = {}
    gold_lines = []
    for n, run in enumerate(runs):
        doc_id = f"doc{n:05d}"
        parts, placed, offset = [], [], 0
        for idx in run:
            sent = sentences[idx]
            for rs, re_, label, annotator, head in sent.gold:
                gold_lines.append(f"{doc_id}\t{offset + rs}\t{offset + re_}"
                                  f"\t{label}\t{annotator}\t{head}")
            parts.append(sent.text)
            placed.append((idx, offset))
            offset += len(sent.text.encode("utf-8")) + 1
        docs[doc_id] = "\n".join(parts) + "\n"
        layout[doc_id] = placed
        _write(os.path.join(root, "corpus", doc_id + ".txt"), docs[doc_id])

    has_gold = name != "big_lexicon"
    gold = ""
    if has_gold:
        gold = "gold/annotations.tsv"
        _write(os.path.join(root, gold), "\n".join(gold_lines) + "\n")

    nonce = 0
    if name == "big_lexicon":
        lemma_files = fixture_cfg["lemmas"].split()
        lines = nonce_lemma_lines(fixtures, lemma_files, rng, NONCE_PER_LEMMA)
        nonce = len(lines)
        nonce_rel = "lexicon/nonce.lem"
        _write(os.path.join(root, nonce_rel), "\n".join(lines) + "\n")
        cfg["lemmas"] = " ".join(lemma_files + [nonce_rel])
        words = {w for text in docs.values() for w in _words(text)}
        clash = _nonce_forms(root, cfg, nonce_rel) & (words | {w[:1].lower() + w[1:] for w in words})
        if clash:
            raise ValueError(f"nonce forms occur in the corpus: {sorted(clash)[:5]}")

    lines = [f"{key} = {value}" for key, value in cfg.items()]
    lines += ["corpus = corpus/*.txt", f"gold = {gold}"]
    for key in ("policy", "width", "case_policy", "alignment", "rounding", "subcats"):
        lines.append(f"{key} = {fixture_cfg[key]}")
    lines.append("out = out")
    config = os.path.join(root, "run.cfg")
    _write(config, "\n".join(lines) + "\n")
    return Workload(name, seed, root, config, docs, layout, k, has_gold, nonce)


def _words(text: str) -> list[str]:
    """Maximal letter runs, split at apostrophes and hyphens."""
    words, cur = [], []
    for ch in text:
        if ch.isalpha():
            cur.append(ch)
        elif cur:
            words.append("".join(cur))
            cur = []
    if cur:
        words.append("".join(cur))
    return words

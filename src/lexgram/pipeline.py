"""Declarative run configuration and the batch pipeline.

Config file: ``key = value`` lines (see ``source`` for encoding, line
breaks and comments).  Multi-valued keys take space-separated values.
Relative paths resolve against the directory containing the config file.

    lexicon          static inflected lexicon files
    lemmas           lemma files expanded through the paradigms
    paradigms        paradigm files
    pn_grammar       noun grammar graph files (required)
    svc_grammar      verb-construction grammar graph files (required)
    pn_main          main graph name (default: first graph of first file)
    svc_main         ditto for the verb grammar
    pn_grammar_nca   optional per-subcategory grammar overrides
    pn_grammar_ncf / pn_grammar_cv / svc_grammar_nca / svc_grammar_ncf /
    svc_grammar_cv
    corpus           glob of corpus text files (required)
    gold             gold annotation TSV (optional; enables the eval stage)
    eval_docs        corpus doc ids restricting the eval stage (optional)
    policy           longest | all | shortest
    width            concordance context width in characters
    case_policy      exact | sentence-initial-fold
    alignment        overlap | exact
    rounding         half-up | half-even
    subcats          subset of NCA NCF CV
    out              output directory

The pipeline runs inflect, index, tag, locate (both grammars), classify,
and optionally eval, writing pn_concordance.tsv, svc_concordance.tsv,
classification.tsv and metrics.tsv.  Identical inputs produce
byte-identical outputs.
"""
from __future__ import annotations

import glob as globmod
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from . import classify as classify_mod
from . import evaluation
from .concord import ConcordanceLine, build_concordance, format_concordance
from .errors import ConfigError, InvalidEncoding
from .inflect import index_lemma_file, load_paradigms
from .lexicon import (
    CASE_FOLD,
    CASE_POLICIES,
    SUBCATEGORIES,
    LexIndex,
    build_index,
    load_lexicon,
)
from .rtn import POLICIES, Grammar, Graph, Match, flatten, load_grammar, locate
from .source import content_lines, natural, read_text
from .textproc import Corpus, build_corpus

_LIST_KEYS = {"lexicon", "lemmas", "paradigms", "pn_grammar", "svc_grammar",
              "pn_grammar_nca", "pn_grammar_ncf", "pn_grammar_cv",
              "svc_grammar_nca", "svc_grammar_ncf", "svc_grammar_cv",
              "subcats", "eval_docs"}
_SCALAR_KEYS = {"pn_main", "svc_main", "corpus", "gold", "policy", "width",
                "case_policy", "alignment", "rounding", "out"}
_SUBCAT_KEYS = {"NCA": ("pn_grammar_nca", "svc_grammar_nca"),
                "NCF": ("pn_grammar_ncf", "svc_grammar_ncf"),
                "CV": ("pn_grammar_cv", "svc_grammar_cv")}


@dataclass
class RunConfig:
    lexicon: list[str] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)
    paradigms: list[str] = field(default_factory=list)
    pn_grammar: list[str] = field(default_factory=list)
    svc_grammar: list[str] = field(default_factory=list)
    pn_main: str | None = None
    svc_main: str | None = None
    pn_subcat_grammars: dict[str, list[str]] = field(default_factory=dict)
    svc_subcat_grammars: dict[str, list[str]] = field(default_factory=dict)
    corpus: str = ""
    gold: str | None = None
    eval_docs: list[str] = field(default_factory=list)
    policy: str = "longest"
    width: int = 40
    case_policy: str = CASE_FOLD
    alignment: str = evaluation.OVERLAP
    rounding: str = "half-up"
    subcats: tuple[str, ...] = SUBCATEGORIES
    out: str = "out"


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file; every referenced path must exist."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    values: dict[str, str] = {}
    text = read_text(path, lambda reason: ConfigError(f"{path}: {reason}"))
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _LIST_KEYS and key not in _SCALAR_KEYS:
            raise ConfigError(f"{path}, line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}, line {lineno}: duplicate key {key!r}")
        values[key] = value

    def resolve(rel: str) -> str:
        return os.path.normpath(os.path.join(base, rel))

    def path_list(key: str, required: bool = False) -> list[str]:
        raw = values.get(key, "")
        paths = [resolve(p) for p in raw.split()]
        if required and not paths:
            raise ConfigError(f"missing required key {key!r}")
        for i, p in enumerate(paths):
            if not os.path.isfile(p):
                raise ConfigError(f"{key}: file not found: {p}")
            if p in paths[:i]:
                raise ConfigError(f"{key}: repeated file: {p}")
        return paths

    cfg = RunConfig()
    cfg.lexicon = path_list("lexicon")
    cfg.lemmas = path_list("lemmas")
    cfg.paradigms = path_list("paradigms")
    cfg.pn_grammar = path_list("pn_grammar", required=True)
    cfg.svc_grammar = path_list("svc_grammar", required=True)
    if not cfg.lexicon and not (cfg.lemmas and cfg.paradigms):
        raise ConfigError("need a lexicon, or lemmas plus paradigms")
    if cfg.lemmas and not cfg.paradigms:
        raise ConfigError("lemmas given without paradigms")
    for subcat, (pn_key, svc_key) in _SUBCAT_KEYS.items():
        pn_paths = path_list(pn_key)
        svc_paths = path_list(svc_key)
        if pn_paths:
            cfg.pn_subcat_grammars[subcat] = pn_paths
        if svc_paths:
            cfg.svc_subcat_grammars[subcat] = svc_paths
    cfg.pn_main = values.get("pn_main") or None
    cfg.svc_main = values.get("svc_main") or None

    if "corpus" not in values:
        raise ConfigError("missing required key 'corpus'")
    cfg.corpus = resolve(values["corpus"])
    if not globmod.glob(cfg.corpus):
        raise ConfigError(f"corpus glob matches no file: {cfg.corpus}")
    if "gold" in values and values["gold"]:
        cfg.gold = resolve(values["gold"])
        if not os.path.isfile(cfg.gold):
            raise ConfigError(f"gold: file not found: {cfg.gold}")
    cfg.eval_docs = values.get("eval_docs", "").split()

    for key, allowed in (("policy", POLICIES), ("case_policy", CASE_POLICIES),
                         ("alignment", evaluation.CRITERIA), ("rounding", evaluation.ROUNDINGS)):
        value = values.get(key, getattr(cfg, key))
        if value not in allowed:
            raise ConfigError(f"bad {key} {value!r}")
        setattr(cfg, key, value)
    width = natural(values.get("width", str(cfg.width)))
    if width is None:
        raise ConfigError(f"bad width {values['width']!r}")
    cfg.width = width
    if "subcats" in values:
        subcats = tuple(values["subcats"].split())
        for i, subcat in enumerate(subcats):
            if subcat not in SUBCATEGORIES:
                raise ConfigError(f"bad subcategory {subcat!r}")
            if subcat in subcats[:i]:
                raise ConfigError(f"repeated subcategory {subcat!r}")
        cfg.subcats = subcats
    cfg.out = resolve(values.get("out", cfg.out))
    return cfg


# ---------------------------------------------------------------------------
# stages

def build_entries(cfg: RunConfig) -> LexIndex:
    """The run's lexicon index, filled in file order: the static lexicon
    files, then the paradigm files, then each lemma file
    (``inflect.index_lemma_file``)."""
    static = [entry for path in cfg.lexicon for entry in load_lexicon(path)]
    paradigms = load_paradigms(cfg.paradigms) if cfg.lemmas else {}
    index = LexIndex(static, max((len(p.rules) for p in paradigms.values()), default=1))
    for path in cfg.lemmas:
        index_lemma_file(path, paradigms, index)
    return index


@dataclass
class GrammarSet:
    """The main noun and verb grammars and the per-subcategory overrides,
    loaded or flattened."""

    pn: Grammar | Graph
    svc: Grammar | Graph
    pn_by_subcat: dict[str, Grammar | Graph]
    svc_by_subcat: dict[str, Grammar | Graph]


def load_grammars(cfg: RunConfig) -> GrammarSet:
    pn = load_grammar(cfg.pn_grammar, cfg.pn_main)
    svc = load_grammar(cfg.svc_grammar, cfg.svc_main)
    pn_by = {sc: load_grammar(paths) for sc, paths in sorted(cfg.pn_subcat_grammars.items())}
    svc_by = {sc: load_grammar(paths) for sc, paths in sorted(cfg.svc_subcat_grammars.items())}
    return GrammarSet(pn, svc, pn_by, svc_by)


def load_corpus(cfg: RunConfig) -> list[tuple[str, str]]:
    """Corpus documents as (doc_id, text), sorted by doc id."""
    docs = []
    seen: set[str] = set()
    for path in sorted(globmod.glob(cfg.corpus)):
        doc_id = os.path.splitext(os.path.basename(path))[0]
        if doc_id in seen:
            raise ConfigError(f"duplicate doc id {doc_id!r} in corpus glob")
        seen.add(doc_id)
        text = read_text(path, lambda reason: InvalidEncoding(f"{path}: {reason}"))
        docs.append((doc_id, text))
    docs.sort(key=lambda d: d[0])
    return docs


@dataclass
class MetricRow:
    section: str
    label: str
    annotator: str
    gold_total: str
    matched: str
    system_total: str
    value: float
    extra: str = ""


Correction = tuple[tuple[float, float], tuple[float, float]]


def _eval_stage(cfg: RunConfig, pn_lines: list[ConcordanceLine],
                svc_lines: list[ConcordanceLine],
                counts: classify_mod.ClassifiedCounts
                ) -> tuple[list[MetricRow], Correction | None]:
    """Per-annotator metrics, averages, and the count corrections.

    Returns the metric rows and the correction pair ((p_pn, r_pn),
    (p_svc, r_svc)) of averaged precision and recall, or None unless both
    labels were averaged with a recall above zero.
    """
    wanted = set(cfg.eval_docs)
    if wanted:
        pn_lines = [l for l in pn_lines if l.doc_id in wanted]
        svc_lines = [l for l in svc_lines if l.doc_id in wanted]
    gold: dict[str, dict[str, list[evaluation.GoldSpan]]] = {"PN": {}, "SVC": {}}
    for g in evaluation.load_gold(cfg.gold):
        if not wanted or g.doc_id in wanted:
            gold[g.label].setdefault(g.annotator, []).append(g)
    rows: list[MetricRow] = []
    averaged: dict[str, tuple[float, float]] = {}
    for label, system in (("PN", pn_lines), ("SVC", svc_lines)):
        by_annotator = gold[label]
        annotators = sorted(by_annotator)
        precisions: list[float] = []
        recalls: list[float] = []
        for annotator in annotators:
            metrics = evaluation.measure(system, by_annotator[annotator], cfg.alignment)
            precisions.append(metrics.p)
            recalls.append(metrics.r)
            rows.append(MetricRow("recall", label, annotator, str(metrics.gold_total),
                                  str(metrics.matched), "-", metrics.r))
            rows.append(MetricRow("precision", label, annotator, "-",
                                  str(metrics.matched), str(metrics.system_total),
                                  metrics.p))
        if not annotators:
            continue
        p_avg, r_avg = evaluation.average(*precisions), evaluation.average(*recalls)
        rows.append(MetricRow("recall", label, "average", "-", "-", "-", r_avg))
        rows.append(MetricRow("precision", label, "average", "-", "-", "-", p_avg))
        averaged[label] = (p_avg, r_avg)
    if not ("PN" in averaged and "SVC" in averaged and averaged["PN"][1] > 0
            and averaged["SVC"][1] > 0):
        return rows, None
    for label, n in (("PN", counts.pn_total), ("SVC", counts.pn_with_sv)):
        p, r = averaged[label]
        rows.append(MetricRow("correction", label, "-", str(n), "-", "-",
                              evaluation.bias_correct(n, p, r), f"p={p:.4f} r={r:.4f}"))
    return rows, (averaged["PN"], averaged["SVC"])


def format_metrics(rows: list[MetricRow], rounding: str = "half-up") -> str:
    out = ["# section\tlabel\tannotator\tgold\tmatched\tsystem\tvalue\tdisplay\textra"]
    for row in rows:
        if row.section == "correction":
            display = str(evaluation.round_display(row.value, rounding))
            value = f"{row.value:.4f}"
        else:
            display = evaluation.percent(row.value, rounding)
            value = evaluation.format_ratio(row.value)
        out.append("\t".join([row.section, row.label, row.annotator,
                              row.gold_total, row.matched, row.system_total,
                              value, display, row.extra]))
    return "\n".join(out) + "\n"


class Run:
    """One pipeline run over a config, shared by every subcommand.

    Each stage is computed on first use and kept, so a subcommand pays
    only for the stages it reads and none runs twice.  A run holds each
    document once as text (``docs``) and its tokens once, as the columns
    of ``corpus``, which every scope reads.  ``located`` splits
    a main grammar's ("pn" or "svc") matches over it per document, at
    corpus token indices; ``lines`` takes the same names.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.written: list[str] = []
        self._per_grammar: dict[tuple[str, str], list] = {}

    @cached_property
    def index(self) -> LexIndex:
        return build_index(build_entries(self.cfg))

    @cached_property
    def grammars(self) -> GrammarSet:
        return load_grammars(self.cfg)

    @cached_property
    def flats(self) -> GrammarSet:
        g = self.grammars
        return GrammarSet(flatten(g.pn), flatten(g.svc),
                          {sc: flatten(x) for sc, x in g.pn_by_subcat.items()},
                          {sc: flatten(x) for sc, x in g.svc_by_subcat.items()})

    @cached_property
    def docs(self) -> list[tuple[str, str]]:
        return load_corpus(self.cfg)

    @cached_property
    def corpus(self) -> Corpus:
        return build_corpus((text for _, text in self.docs), self.index,
                            self.cfg.case_policy)

    def located(self, which: str) -> list[tuple[str, list[Match]]]:
        key = ("located", which)
        if key not in self._per_grammar:
            matches = locate(getattr(self.flats, which), self.corpus, self.cfg.policy)
            cuts = [bisect_left(matches, start, key=lambda m: m.start_token)
                    for start in (*self.corpus.starts, len(self.corpus.keys))]
            self._per_grammar[key] = [(doc_id, matches[lo:hi]) for (doc_id, _), lo, hi
                                      in zip(self.docs, cuts, cuts[1:])]
        return self._per_grammar[key]

    def lines(self, which: str) -> list[ConcordanceLine]:
        """Concordance lines of ``located(which)``, in text order with no
        sort: documents come sorted by id, each one's matches by start."""
        key = ("lines", which)
        if key not in self._per_grammar:
            lines: list[ConcordanceLine] = []
            for (doc_id, matches), (_, text) in zip(self.located(which), self.docs):
                lines.extend(build_concordance(matches, text, self.cfg.width, doc_id))
            self._per_grammar[key] = lines
        return self._per_grammar[key]

    @cached_property
    def counts(self) -> classify_mod.ClassifiedCounts:
        pn, svc = ([m for _, part in self.located(which) for m in part]
                   for which in ("pn", "svc"))
        return classify_mod.classify_pn(pn, svc)

    @cached_property
    def evaluation(self) -> tuple[list[MetricRow], Correction | None]:
        """Metric rows and correction pair (see ``_eval_stage``); without a
        gold file, no rows and no correction."""
        unknown = sorted(set(self.cfg.eval_docs) - {doc_id for doc_id, _ in self.docs})
        if unknown:
            raise ConfigError(f"eval_docs not in corpus: {' '.join(unknown)}")
        if not self.cfg.gold:
            return [], None
        return _eval_stage(self.cfg, self.lines("pn"), self.lines("svc"), self.counts)

    @property
    def corrected_counts(self) -> tuple[float, float] | None:
        """The corrected (noun, with-support-verb) counts of the metric rows."""
        return tuple(r.value for r in self.evaluation[0] if r.section == "correction") or None

    @cached_property
    def subcat_rows(self) -> list[classify_mod.SubcatRow]:
        flats = self.flats
        return classify_mod.by_subcategory(
            self.corpus, self.counts, self.index, flats.pn, flats.svc, self.cfg.subcats,
            pn_by_subcat=flats.pn_by_subcat, svc_by_subcat=flats.svc_by_subcat,
            policy=self.cfg.policy, case_policy=self.cfg.case_policy,
            correction=self.evaluation[1])

    def write(self, out: str) -> None:
        """Write the report files into ``out`` and list them in ``written``.
        Every stage runs first, so a failing stage leaves no partial output."""
        payloads = {
            "pn_concordance.tsv": format_concordance(self.lines("pn")),
            "svc_concordance.tsv": format_concordance(self.lines("svc")),
            "classification.tsv": classify_mod.format_classification(
                self.counts, self.subcat_rows, rounding=self.cfg.rounding,
                corrected_counts=self.corrected_counts),
        }
        if self.cfg.gold:
            payloads["metrics.tsv"] = format_metrics(self.evaluation[0], self.cfg.rounding)
        try:
            os.makedirs(out, exist_ok=True)
            for name, payload in payloads.items():
                path = os.path.join(out, name)
                with open(path, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(payload)
                self.written.append(path)
        except OSError as err:
            raise ConfigError(f"cannot write report files to {out}: {err.strerror or err}") from err


def run_pipeline(cfg: RunConfig, out_dir: str | None = None) -> Run:
    """Execute every stage and write the report files."""
    run = Run(cfg)
    run.write(out_dir or cfg.out)
    return run

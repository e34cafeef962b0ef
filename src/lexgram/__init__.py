"""Finite-state lexicon-grammar engine.

Recognizes predicative nouns and support verb constructions in raw text
with a DELAF-style lexicon and recursion-free RTN grammars, classifies
noun occurrences by support-verb presence, and computes bias-corrected
corpus statistics.
"""
from .classify import ClassifiedCounts, SubcatRow, by_subcategory, classify_pn
from .concord import ConcordanceLine, build_concordance, sort_concordance
from .errors import LexgramError
from .evaluation import (
    GoldSpan,
    Metrics,
    align,
    average,
    bias_correct,
    corrected_proportion,
    in_lexicon_recall,
    precision,
    recall,
)
from .inflect import LemmaEntry, Paradigm, expand_lexicon, generate, parse_paradigm
from .lexicon import (
    Analysis,
    LexEntry,
    LexIndex,
    build_index,
    filter_subcategory,
    lookup,
    parse_entry,
    serialize_entry,
)
from .pipeline import RunConfig, parse_config, run_pipeline
from .rtn import (
    Grammar,
    Graph,
    Match,
    check_recursion,
    flatten,
    load_grammar,
    locate,
    locate_recursive,
    match_label,
)
from .textproc import Corpus, Token, tag, tagging_coverage, tokenize

__version__ = "0.1.0"

__all__ = [
    "Analysis", "ClassifiedCounts", "ConcordanceLine", "Corpus", "GoldSpan",
    "Grammar", "Graph", "LemmaEntry", "LexEntry", "LexIndex", "LexgramError",
    "Match", "Metrics", "Paradigm", "RunConfig", "SubcatRow", "Token",
    "align", "average", "bias_correct", "build_concordance", "build_index",
    "by_subcategory", "check_recursion", "classify_pn", "corrected_proportion",
    "expand_lexicon", "filter_subcategory", "flatten", "generate",
    "in_lexicon_recall", "load_grammar", "locate", "locate_recursive",
    "lookup", "match_label", "parse_config", "parse_entry", "parse_paradigm",
    "precision", "recall", "run_pipeline", "serialize_entry",
    "sort_concordance", "tag", "tagging_coverage", "tokenize",
]

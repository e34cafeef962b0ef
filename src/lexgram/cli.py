"""Command line front end: one subcommand per pipeline stage.

Exit codes: 0 ok, 1 verification failure, 2 config, 3 lexicon,
4 grammar, 5 corpus, 6 eval.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import classify as classify_mod
from . import evaluation, pipeline, reference
from .concord import ORDERS, format_concordance, sort_concordance
from .errors import (
    ConfigError,
    CycleError,
    EmptyGold,
    EmptyInput,
    EmptySystem,
    InvalidEncoding,
    LemmaTooShort,
    LexgramError,
    MalformedEntry,
    MalformedGold,
    MalformedGraph,
    MalformedParadigm,
    UnknownParadigm,
    UnresolvedCall,
    ZeroRecall,
)
from .inflect import expand_lexicon, load_lemma_entries, load_paradigms
from .lexicon import serialize_entry
from .rtn import POLICIES
from .textproc import dump_tagged

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_LEXICON = 3
EXIT_GRAMMAR = 4
EXIT_CORPUS = 5
EXIT_EVAL = 6

_EXIT_BY_ERROR = (
    (ConfigError, EXIT_CONFIG),
    ((MalformedEntry, MalformedParadigm, UnknownParadigm, LemmaTooShort), EXIT_LEXICON),
    ((MalformedGraph, UnresolvedCall, CycleError), EXIT_GRAMMAR),
    ((InvalidEncoding, EmptyInput), EXIT_CORPUS),
    ((EmptyGold, EmptySystem, ZeroRecall, MalformedGold), EXIT_EVAL),
)


def _exit_code(err: LexgramError) -> int:
    for types, code in _EXIT_BY_ERROR:
        if isinstance(err, types):
            return code
    return 1


def _config(args) -> pipeline.RunConfig:
    return pipeline.parse_config(args.config)


def _cmd_run(args) -> int:
    run = pipeline.run_pipeline(_config(args), args.out)
    for path in run.written:
        print(path)
    return EXIT_OK


def _cmd_inflect(args) -> int:
    cfg = _config(args)
    if not cfg.lemmas:
        raise ConfigError("config has no lemma files to inflect")
    paradigms = load_paradigms(cfg.paradigms)
    entries = [entry for path in cfg.lemmas
               for entry in expand_lexicon(load_lemma_entries(path), paradigms)]
    for entry in entries:
        print(serialize_entry(entry))
    return EXIT_OK


def _cmd_index(args) -> int:
    index = pipeline.Run(_config(args)).index
    print(f"entries={index.num_entries}\tforms={index.num_forms}"
          f"\tanalyses={index.num_analyses}")
    return EXIT_OK


def _cmd_tag(args) -> int:
    run = pipeline.Run(_config(args))
    if args.doc:
        # tag only the chosen document
        run.docs = [(doc_id, text) for doc_id, text in run.docs if doc_id == args.doc]
        if not run.docs:
            raise ConfigError(f"doc id {args.doc!r} not in corpus")
    # one dump of the corpus equals the documents' dumps in a row
    sys.stdout.write(dump_tagged(run.corpus.tokens))
    return EXIT_OK


def _cmd_locate(args) -> int:
    cfg = _config(args)
    run = pipeline.Run(replace(cfg, policy=args.policy or cfg.policy))
    for (doc_id, matches), first in zip(run.located(args.grammar), run.corpus.starts):
        for m in matches:
            print(f"{doc_id}\t{m.start_byte}\t{m.end_byte}"
                  f"\t{m.start_token - first}\t{m.end_token - first}\t{m.grammar}")
    return EXIT_OK


def _cmd_concord(args) -> int:
    lines = pipeline.Run(_config(args)).lines(args.grammar)
    sys.stdout.write(format_concordance(sort_concordance(lines, args.order)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    # the counts as classified, without the gold file's correction
    cfg = _config(args)
    run = pipeline.Run(replace(cfg, gold=None))
    sys.stdout.write(classify_mod.format_classification(
        run.counts, run.subcat_rows, rounding=cfg.rounding))
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _config(args)
    if not cfg.gold:
        raise ConfigError("config has no gold file")
    run = pipeline.run_pipeline(cfg, args.out) if args.out else pipeline.Run(cfg)
    sys.stdout.write(pipeline.format_metrics(run.evaluation[0], cfg.rounding))
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _config(args)
    run = pipeline.run_pipeline(cfg, args.out)
    counts = run.counts
    print("pipeline report")
    print(f"  noun matches:          {counts.pn_total}")
    print(f"  verb-grammar matches:  {counts.svc_total}")
    print(f"  with support verb:     {counts.pn_with_sv}")
    print(f"  without support verb:  {counts.pn_without_sv}")
    print(f"  proportion:            {evaluation.format_ratio(counts.proportion)}"
          f" ({evaluation.percent(counts.proportion, cfg.rounding)})")
    if run.corrected_counts:
        corr_pn, corr_svc = run.corrected_counts
        proportion = corr_svc / corr_pn if corr_pn else 0.0
        print(f"  corrected counts:      {corr_pn:.4f} / {corr_svc:.4f}")
        print(f"  corrected proportion:  {evaluation.format_ratio(proportion)}"
              f" ({evaluation.percent(proportion, cfg.rounding)})")
    print("  subcategories:")
    for row in run.subcat_rows:
        corrected = "-" if row.corrected_ratio is None \
            else evaluation.percent(row.corrected_ratio, cfg.rounding)
        print(f"    {row.subcat}\tpn={row.pn}\tsvc={row.svc}"
              f"\tratio={evaluation.percent(row.ratio_svc_pn, cfg.rounding)}"
              f"\tcorrected={corrected}")
    print("  report files:")
    for path in run.written:
        print(f"    {path}")
    return EXIT_OK


def _cmd_verify_tables(args) -> int:
    cells = reference.verify_tables()
    sys.stdout.write(reference.format_cells(cells))
    failed = [c for c in cells if c.status == reference.FAIL]
    flagged = [c for c in cells if c.status == reference.FLAG]
    print(f"# {len(cells)} cells: {len(cells) - len(failed) - len(flagged)} pass, "
          f"{len(flagged)} flagged, {len(failed)} fail")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexgram",
        description="finite-state lexicon-grammar engine for support verb "
                    "constructions and predicative nouns")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(cmd, fn, **extra):
        p = sub.add_parser(cmd, **extra)
        p.add_argument("-c", "--config", required=True, help="run config file")
        p.set_defaults(fn=fn)
        return p

    p = with_config("run", _cmd_run, help="run the whole pipeline")
    p.add_argument("--out", help="output directory (overrides the config)")
    with_config("inflect", _cmd_inflect, help="expand lemma entries to lexicon lines")
    with_config("index", _cmd_index, help="build the lexicon index and print stats")
    p = with_config("tag", _cmd_tag, help="dump the tagged corpus as TSV")
    p.add_argument("--doc", help="restrict to one doc id")
    p = with_config("locate", _cmd_locate, help="print match spans as TSV")
    p.add_argument("--grammar", choices=("pn", "svc"), required=True)
    p.add_argument("--policy", choices=POLICIES)
    p = with_config("concord", _cmd_concord, help="print a concordance as TSV")
    p.add_argument("--grammar", choices=("pn", "svc"), required=True)
    p.add_argument("--order", choices=ORDERS, default="text")
    with_config("classify", _cmd_classify, help="print classification counts as TSV")
    p = with_config("eval", _cmd_eval, help="print metrics against the gold file")
    p.add_argument("--out", help="also write the full report files")
    p = with_config("report", _cmd_report, help="run everything and print a summary")
    p.add_argument("--out", help="output directory (overrides the config)")
    p = sub.add_parser("verify-tables",
                       help="recheck the reference table arithmetic")
    p.set_defaults(fn=_cmd_verify_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LexgramError as err:
        print(f"lexgram: {err.__class__.__name__}: {err}", file=sys.stderr)
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())

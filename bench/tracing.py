"""Traced mode: spans around the calls into each lexgram layer.

The wrappers are installed from the benchmark, not inside the program.
Each traced function is replaced, for the length of a ``Tracer`` block,
in every ``lexgram`` module that binds it (``pipeline`` imports
``locate`` by name, ``classify`` does too, and so on), and the original
objects are put back when the block ends.  Per-token internals such as
``lookup`` stay unwrapped.

A span is (name, start, end, parent span, run id, raised).  Spans stay in
memory and are written once at the end of the benchmark.  A span's self
time is its duration minus the durations of its child spans.  Counts are
read from the wrapped calls' arguments and return values right after each
call, outside its span; only the per-token tallies of ``tag`` results wait
until the run has ended.  Keeping whole results instead (five lexicon
tries on ``big_lexicon``) would slow every garbage collection of the run.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# "<module>.<function>" of every traced function, by defining module.
TRACED = (
    "cli.main",
    "pipeline.parse_config", "pipeline.build_entries", "pipeline.load_corpus",
    "pipeline.run_pipeline",
    "inflect.expand_lexicon",
    "lexicon.build_index",
    "textproc.tokenize", "textproc.tag",
    "rtn.load_grammar", "rtn.flatten", "rtn.locate",
    "concord.build_concordance", "concord.sort_concordance",
    "classify.classify_pn", "classify.by_subcategory",
    "evaluation.load_gold", "evaluation.measure",
)
COUNTS = (
    ("inflect.entries", "count"),
    ("lexicon.build_index.calls", "count"),
    ("lexicon.forms", "count"),
    ("textproc.tokenize.calls", "count"),
    ("textproc.tag.calls", "count"),
    ("textproc.tokens", "count"),
    ("textproc.analyses_per_token", "ratio"),
    ("textproc.unknown_rate", "ratio"),
    ("rtn.flatten.states", "count"),
    ("rtn.locate.calls", "count"),
    ("rtn.locate.starts", "count"),
    ("rtn.locate.matches", "count"),
    ("rtn.locate.match_rate", "ratio"),
    ("concord.lines", "count"),
    ("classify.classify_pn.pairs", "count"),
    ("evaluation.measure.pairs", "count"),
    ("evaluation.measure.matched", "count"),
    ("evaluation.measure.match_rate", "ratio"),
)
TIMES = (
    ("classify.by_subcategory.total_s", "s"),
    ("classify.by_subcategory.total_share", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.spans", "count"),
)


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.self_s", "s"), (f"{name}.share", "ratio")]
    return out + list(COUNTS) + list(TIMES)


def _lexgram_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lexgram" or name.startswith("lexgram."))]


def bindings() -> dict[tuple[str, str], object]:
    """Every function attribute of every loaded lexgram module."""
    return {(m.__name__, attr): obj for m in _lexgram_modules()
            for attr, obj in vars(m).items() if inspect.isfunction(obj)}


def _arg(fn, name: str):
    """A getter for argument ``name`` of ``fn`` from a call's args and kwargs."""
    index = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[index] if index < len(args) else kwargs[name]


def _counter(name: str, fn, totals: dict, tagged: list):
    """The per-call count update for traced function ``name``, or None."""
    if name == "inflect.expand_lexicon":
        def count(args, kwargs, result):
            totals["inflect.entries"] += len(result)
    elif name == "lexicon.build_index":
        def count(args, kwargs, result):
            totals["lexicon.forms"] += result.num_forms
    elif name == "textproc.tag":
        def count(args, kwargs, result):
            tagged.append(result)
    elif name == "rtn.flatten":
        def count(args, kwargs, result):
            totals["rtn.flatten.states"] += result.n_states
    elif name == "rtn.locate":
        text = _arg(fn, "tagged")

        def count(args, kwargs, result):
            totals["rtn.locate.starts"] += len(text(args, kwargs).tokens)
            totals["rtn.locate.matches"] += len(result)
    elif name == "concord.build_concordance":
        def count(args, kwargs, result):
            totals["concord.lines"] += len(result)
    elif name == "classify.classify_pn":
        pn, svc = _arg(fn, "pn_matches"), _arg(fn, "svc_matches")

        def count(args, kwargs, result):
            totals["classify.classify_pn.pairs"] += len(pn(args, kwargs)) * len(svc(args, kwargs))
    elif name == "evaluation.measure":
        system, gold = _arg(fn, "system"), _arg(fn, "gold")

        def count(args, kwargs, result):
            totals["evaluation.measure.pairs"] += len(system(args, kwargs)) * len(gold(args, kwargs))
            totals["evaluation.measure.matched"] += result.matched
    else:
        return None
    return count


class Tracer:
    """Context manager that wraps the traced functions for one run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.totals: dict[str, int] = {name: 0 for name, _ in COUNTS}
        self.tagged: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        count = _counter(name, fn, self.totals, self.tagged)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, run_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _lexgram_modules()
        by_name = {m.__name__: m for m in modules}
        for name in TRACED:
            mod_name, func = name.rsplit(".", 1)
            fn = getattr(by_name.get(f"lexgram.{mod_name}"), func, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn)
            for m in modules:
                for attr, obj in list(vars(m).items()):
                    if obj is fn:
                        self._patched.append((m, attr, obj))
                        setattr(m, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, obj in reversed(self._patched):
            setattr(m, attr, obj)
        self._patched.clear()


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of self time per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def total_time(spans: list[list], name: str) -> float:
    return sum(end - start for n, start, end, *_ in spans if n == name)


def counts(tracer: Tracer) -> dict[str, float]:
    """The per-layer counts of one traced run."""
    c = dict(tracer.totals)
    for span in tracer.spans:
        if f"{span[0]}.calls" in c:
            c[f"{span[0]}.calls"] += 1
    words = unknown = analyses = 0
    for text in tracer.tagged:
        c["textproc.tokens"] += len(text.tokens)
        for tt in text.tokens:
            analyses += len(tt.analyses)
            if tt.token.kind == "word":
                words += 1
                unknown += tt.is_unknown
    c["textproc.analyses_per_token"] = analyses / c["textproc.tokens"] if c["textproc.tokens"] else 0.0
    c["textproc.unknown_rate"] = unknown / words if words else 0.0
    c["rtn.locate.match_rate"] = (c["rtn.locate.matches"] / c["rtn.locate.starts"]
                                  if c["rtn.locate.starts"] else 0.0)
    c["evaluation.measure.match_rate"] = (c["evaluation.measure.matched"]
                                          / c["evaluation.measure.pairs"]
                                          if c["evaluation.measure.pairs"] else 0.0)
    return c


def summarize(runs: list[tuple[float, Tracer]], untraced: list[float]) -> dict[str, float]:
    """Per-layer times from traced runs (run_s, tracer) and untraced run_s,
    as medians over the runs.  The counts come from ``counts``."""
    run_s = statistics.median(r for r, _ in runs)
    out: dict[str, float] = {}
    per_run = [self_times(t.spans) for _, t in runs]
    for name in TRACED:
        self_s = statistics.median(s.get(name, 0.0) for s in per_run)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / run_s
    total = statistics.median(total_time(t.spans, "classify.by_subcategory") for _, t in runs)
    out["classify.by_subcategory.total_s"] = total
    out["classify.by_subcategory.total_share"] = total / run_s
    out["trace.run_s"] = run_s
    out["trace.untraced_run_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = statistics.median(r - u for (r, _), u in zip(runs, untraced))
    out["trace.remainder_s"] = statistics.median(
        r - sum(s.values()) for (r, _), s in zip(runs, per_run))
    out["trace.spans"] = len(runs[-1][1].spans)
    return out


def write_spans(path: str, runs: list[tuple[float, Tracer]]) -> None:
    """One JSON object per span: name, start, end, parent, run, raised."""
    with open(path, "w", encoding="utf-8") as handle:
        for _, tracer in runs:
            base = tracer.spans[0][1] if tracer.spans else 0.0
            for i, (name, start, end, parent, run_id, raised) in enumerate(tracer.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start - base,
                                         "end": end - base, "parent": parent,
                                         "run": run_id, "raised": raised}) + "\n")

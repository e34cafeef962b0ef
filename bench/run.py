"""Benchmark of `lexgram run` on seeded workloads built from ``fixtures/``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload long_doc --seed 1 --seconds 10 --trace 0

Workloads are listed in ``workloads.py``.  Everything runs in this one
process and thread, through the public entry point
``lexgram.cli.main(["run", ...])``, except the peak-memory probe, which
runs the same command once in a fresh child process.

``--trace 0`` times complete runs and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics (see ``tracing.py``); the spans go to
``.bench_work/<workload>/spans.jsonl``.

The first run's outputs go through the oracle (``oracle.py``); every
later run must reproduce them byte for byte.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every run was correct, 1 when one was not, and 2 when the
checkout holds no lexgram sources or fixtures.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK = os.path.join(ROOT, ".bench_work")

MIN_SAMPLES = 5          # timed runs per invocation, even past --seconds
MIN_TRACED = 3           # traced and untraced runs in --trace 1
HARD_LIMIT_S = 100.0     # stop sampling here whatever the sample count
CHILD_TIMEOUT_S = 60.0

END_TO_END = (("tokens_per_s", "tokens/s"), ("run_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Times complete `lexgram run` calls and checks each one's outputs."""

    def __init__(self, wl: workloads.Workload, out: str):
        from lexgram import cli

        self.cli = cli
        self.wl = wl
        self.out = out
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def run(self) -> float:
        """One timed run; returns its wall time and records its outcome."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["run", "-c", self.wl.config, "--out", self.out])
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        digest = oracle.digests(self.out) if os.path.isdir(self.out) else {}
        if self.reference is None:
            self.reference = digest
        if code != 0 or digest != self.reference:
            self.failed += 1
            print(f"run {self.attempted}: exit code {code}, outputs"
                  f" {'identical' if digest == self.reference else 'differ'}", file=sys.stderr)
        return elapsed


def setup_once(config: str) -> float:
    """Time the work that needs no corpus: config, lexicon, index, grammars,
    and the flattening of every grammar."""
    from lexgram import lexicon, pipeline, rtn

    start = time.perf_counter()
    cfg = pipeline.parse_config(config)
    lexicon.build_index(pipeline.build_entries(cfg))
    grammars = pipeline.load_grammars(cfg)
    for grammar in (grammars.pn, grammars.svc, *grammars.pn_by_subcat.values(),
                    *grammars.svc_by_subcat.values()):
        rtn.flatten(grammar)
    return time.perf_counter() - start


def peak_rss_mb(runner: Runner, work: str) -> float:
    """Peak RSS of a fresh process running this workload once; its outputs
    must equal the in-process ones."""
    out = os.path.join(work, "out_child")
    shutil.rmtree(out, ignore_errors=True)
    runner.attempted += 1
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "rss_child.py"), SRC,
                               runner.wl.config, out],
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        runner.failed += 1
        print(f"child run: no exit within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 0.0
    if proc.returncode != 0 or oracle.digests(out) != runner.reference:
        runner.failed += 1
        print(f"child run: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return int(proc.stdout.split()[-1]) / 1024.0 if proc.stdout.split() else 0.0


def sample(deadline: float, started: float, minimum: int, step) -> None:
    """Call ``step`` until the deadline and at least ``minimum`` times, but
    never past the hard limit."""
    n = 0
    while (n < minimum or time.perf_counter() < deadline) \
            and time.perf_counter() - started < HARD_LIMIT_S:
        step()
        n += 1


def end_to_end(runner: Runner, work: str, seconds: float, started: float,
               tokens: int) -> dict[str, float]:
    rss = peak_rss_mb(runner, work)
    setup_once(runner.wl.config)
    runs: list[float] = []
    setups: list[float] = []

    def step():
        gc.collect()
        setups.append(setup_once(runner.wl.config))
        runs.append(runner.run())

    sample(time.perf_counter() + seconds, started, MIN_SAMPLES, step)
    run_s = statistics.median(runs)
    q = statistics.quantiles(runs, n=4)
    print(f"run_s: median {run_s:.4f} s, quartiles {q[0]:.4f} / {q[2]:.4f} s,"
          f" fastest {min(runs):.4f} s, {len(runs)} samples")
    print(f"setup_s: median {statistics.median(setups):.4f} s, {len(setups)} samples")
    return {"tokens_per_s": tokens / run_s, "run_s": run_s,
            "setup_s": statistics.median(setups), "peak_rss_mb": rss}


def per_layer(runner: Runner, work: str, seconds: float, started: float) -> dict[str, float]:
    before = tracing.bindings()
    traced: list[tuple[float, tracing.Tracer]] = []
    untraced: list[float] = []
    reference_counts: dict[str, float] = {}

    def step():
        untraced.append(runner.run())
        with tracing.Tracer(len(traced)) as tracer:
            elapsed = runner.run()
        after = tracing.bindings()
        if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
            runner.failed += 1
            print("tracing left lexgram attributes changed", file=sys.stderr)
        run_counts = tracing.counts(tracer)
        tracer.tagged.clear()
        if reference_counts and run_counts != reference_counts:
            runner.failed += 1
            print("per-layer counts differ between traced runs", file=sys.stderr)
        reference_counts.update(run_counts)
        traced.append((elapsed, tracer))

    sample(time.perf_counter() + seconds, started, MIN_TRACED, step)
    spans_path = os.path.join(work, "spans.jsonl")
    tracing.write_spans(spans_path, traced)
    print(f"spans: {spans_path}")
    metrics = tracing.summarize(traced, untraced)
    metrics.update(reference_counts)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (os.path.isfile(os.path.join(SRC, "lexgram", "cli.py"))
            and os.path.isfile(os.path.join(FIXTURES, "run.cfg"))):
        print(f"bench: no src/lexgram or fixtures/run.cfg under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lexgram

    if not os.path.abspath(lexgram.__file__).startswith(SRC + os.sep):
        print(f"bench: imported lexgram from {lexgram.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    wl = workloads.generate(args.workload, args.seed, FIXTURES, os.path.join(work, "input"))
    expected = oracle.load_expected(os.path.join(HERE, "expected.json"))
    tokens = wl.k * expected["fixture_tokens"]
    print(f"workload {wl.name} seed {wl.seed}: {len(wl.docs)} documents, {tokens} tokens,"
          f" {wl.k} copies of each fixture sentence, {wl.nonce_lemmas} nonce lemmas,"
          f" gold {'yes' if wl.has_gold else 'no'}")

    runner = Runner(wl, os.path.join(work, "out"))
    runner.run()
    try:
        problems = oracle.check(wl, runner.out, FIXTURES, expected)
    except Exception as err:  # a malformed output file must fail the run, not the benchmark
        problems = [f"unreadable output: {err!r}"]
    for problem in problems:
        print(f"oracle: {problem}", file=sys.stderr)
    if problems and not runner.failed:
        runner.failed = 1
    for name, digest in sorted((runner.reference or {}).items()):
        print(f"sha256 {digest} {name}")

    if args.trace:
        metrics = per_layer(runner, work, args.seconds, started)
        units = dict(tracing.layer_metrics())
    else:
        metrics = end_to_end(runner, work, args.seconds, started, tokens)
        units = dict(END_TO_END)
    print(f"failed_share: {runner.failed / runner.attempted:.4f}"
          f" ({runner.failed} of {runner.attempted} runs)")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

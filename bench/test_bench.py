"""Self-tests of the benchmark at smoke size.

Run from the root of a checkout: python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = oracle.load_expected(os.path.join(HERE, "expected.json"))


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch):
    monkeypatch.setattr(workloads, "LONG_K", 2)
    monkeypatch.setattr(workloads, "LEXICON_K", 1)
    monkeypatch.setattr(workloads, "NONCE_PER_LEMMA", 3)


def _files(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _run(wl: workloads.Workload, out: str) -> None:
    from lexgram import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "-c", wl.config, "--out", out]) == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.generate(name, 7, FIXTURES, str(tmp_path / "a"))
    b = workloads.generate(name, 7, FIXTURES, str(tmp_path / "b"))
    c = workloads.generate(name, 8, FIXTURES, str(tmp_path / "c"))
    assert _files(a.root) == _files(b.root)
    assert _files(a.root) != _files(c.root)


def test_long_and_many_docs_share_the_sentence_multiset(tmp_path):
    long_doc = workloads.generate("long_doc", 3, FIXTURES, str(tmp_path / "l"))
    many = workloads.generate("many_docs", 3, FIXTURES, str(tmp_path / "m"))
    order = lambda wl: [i for placed in wl.layout.values() for i, _ in placed]
    assert len(long_doc.docs) == 1 and len(many.docs) > 1
    assert order(long_doc) == order(many)
    assert sorted(order(long_doc)) == sorted(list(range(20)) * workloads.LONG_K)


def test_long_and_many_docs_classify_identically(tmp_path):
    outputs = []
    for name in ("long_doc", "many_docs"):
        wl = workloads.generate(name, 4, FIXTURES, str(tmp_path / name))
        _run(wl, str(tmp_path / f"{name}_out"))
        with open(tmp_path / f"{name}_out" / "classification.tsv", "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]


def test_big_lexicon_keeps_nonce_forms_out_of_the_corpus(tmp_path):
    wl = workloads.generate("big_lexicon", 5, FIXTURES, str(tmp_path / "b"))
    assert wl.nonce_lemmas > 0 and not wl.has_gold
    cfg = workloads.read_config(wl.config)
    assert cfg.keys() == workloads.read_config(os.path.join(FIXTURES, "run.cfg")).keys()
    assert "lexicon/nonce.lem" in cfg["lemmas"].split()


@pytest.fixture(scope="module")
def long_doc_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "LONG_K", 2)
        wl = workloads.generate("long_doc", 11, FIXTURES, str(root / "input"))
    out = str(root / "out")
    _run(wl, out)
    return wl, out


def test_oracle_accepts_the_program_output(long_doc_run):
    wl, out = long_doc_run
    assert oracle.check(wl, out, FIXTURES, EXPECTED) == []


def _corrupt(src: str, dst: str, name: str, edit) -> str:
    shutil.copytree(src, dst)
    path = os.path.join(dst, name)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(edit(lines))
    return dst


def test_oracle_rejects_a_dropped_concordance_line(long_doc_run, tmp_path):
    wl, out = long_doc_run
    bad = _corrupt(out, str(tmp_path / "bad"), "pn_concordance.tsv", lambda ls: ls[:3] + ls[4:])
    problems = oracle.check(wl, bad, FIXTURES, EXPECTED)
    assert any("pn_concordance.tsv" in p for p in problems)


def test_oracle_rejects_a_changed_count(long_doc_run, tmp_path):
    wl, out = long_doc_run

    def bump(lines):
        return [l.replace("NCF\t8\t", "NCF\t9\t", 1) for l in lines]

    bad = _corrupt(out, str(tmp_path / "bad"), "classification.tsv", bump)
    assert any("NCF" in p for p in oracle.check(wl, bad, FIXTURES, EXPECTED))


def test_oracle_rejects_a_changed_context(long_doc_run, tmp_path):
    wl, out = long_doc_run

    def edit(lines):
        fields = lines[0].split("\t")
        fields[3] = fields[3][:-1] + "#"
        return ["\t".join(fields)] + lines[1:]

    bad = _corrupt(out, str(tmp_path / "bad"), "svc_concordance.tsv", edit)
    assert any("svc_concordance.tsv" in p for p in oracle.check(wl, bad, FIXTURES, EXPECTED))


def test_traced_run_restores_every_binding_and_accounts_for_the_time(long_doc_run, tmp_path):
    wl, _ = long_doc_run
    before = tracing.bindings()
    with tracing.Tracer(0) as tracer:
        _run(wl, str(tmp_path / "out"))
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "rtn.locate", "classify.by_subcategory", "evaluation.measure"} <= names
    root = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in root] == ["cli.main"]
    total = sum(tracing.self_times(tracer.spans).values())
    assert total == pytest.approx(root[0][2] - root[0][1])
    c = tracing.counts(tracer)
    assert c["rtn.locate.calls"] == sum(1 for s in tracer.spans if s[0] == "rtn.locate") > 0
    assert c["concord.lines"] == 2 * (12 + 4)

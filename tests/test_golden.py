"""Every subcommand's standard output and the ``run`` report files on
``fixtures/run.cfg``, byte for byte against the files in ``golden/``.

``report`` is compared up to its ``report files:`` header; the paths
below it name the output directory of the test.
"""
from __future__ import annotations

import os

import pytest

from lexgram.cli import main

from conftest import fixture_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CFG = fixture_path("run.cfg")

CASES = {"index": ["index"], "tag": ["tag"], "tag_doc2": ["tag", "--doc", "doc2"],
         "classify": ["classify"], "eval": ["eval"], "report": ["report"]}
for _grammar in ("pn", "svc"):
    for _policy in ("longest", "all", "shortest"):
        CASES[f"locate_{_grammar}_{_policy}"] = ["locate", "--grammar", _grammar,
                                                 "--policy", _policy]
    for _order in ("text", "center", "left-reversed"):
        CASES[f"concord_{_grammar}_{_order}"] = ["concord", "--grammar", _grammar,
                                                 "--order", _order]


def golden(*parts: str) -> str:
    with open(os.path.join(GOLDEN, *parts), encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_stdout_matches_golden(name, tmp_path, capsys):
    command, *rest = CASES[name]
    if command == "report":
        rest = ["--out", str(tmp_path)]
    assert main([command, "-c", CFG, *rest]) == 0
    out = capsys.readouterr().out
    if command == "report":
        head, sep, _ = out.partition("  report files:\n")
        out = head + sep
    assert out == golden(f"{name}.out")


def test_run_outputs_match_golden(tmp_path, capsys):
    assert main(["run", "-c", CFG, "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(os.path.join(GOLDEN, "run")))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        assert (tmp_path / name).read_bytes().decode("utf-8") == golden("run", name)

from __future__ import annotations

import os
import shutil

import pytest

from lexgram import pipeline
from lexgram.cli import main
from lexgram.pipeline import parse_config, run_pipeline
from lexgram.textproc import dump_tagged, tag, tokenize

from conftest import FIXTURES, count_walks, fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CFG = fixture_path("run.cfg")


def copied_fixtures(tmp_path, edit):
    """Copy the fixtures into ``tmp_path``; return the copy's run config,
    its text passed through ``edit``."""
    cfg = shutil.copytree(FIXTURES, tmp_path / "fixtures") / "run.cfg"
    cfg.write_text(edit(cfg.read_text(encoding="utf-8")), encoding="utf-8")
    return cfg


def set_key(key, value):
    """A ``copied_fixtures`` edit that sets ``key`` to ``value``."""
    def edit(text):
        lines = [l for l in text.splitlines() if not l.startswith(f"{key} =")]
        return "\n".join(lines + [f"{key} = {value}"]) + "\n"
    return edit


def test_run_writes_reports(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "run", "-c", CFG, "--out", str(tmp_path))
    assert code == 0
    names = {os.path.basename(p) for p in out.strip().split("\n")}
    assert names == {"pn_concordance.tsv", "svc_concordance.tsv",
                     "classification.tsv", "metrics.tsv"}
    for name in names:
        assert (tmp_path / name).is_file()


def test_pipeline_outputs_byte_identical(tmp_path):
    cfg = parse_config(CFG)
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_pipeline(cfg, str(first))
    run_pipeline(cfg, str(second))
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_missing_lexicon_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lexicon = nowhere.dic\npn_grammar = also/missing.grm\n"
                   "svc_grammar = missing.grm\ncorpus = *.txt\n")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "-c", str(bad), "--out", str(out_dir))
    assert code == 2
    assert "ConfigError" in err
    assert not out_dir.exists()  # no partial outputs


def test_bad_option_value_is_config_error(tmp_path, capsys):
    text = open(CFG).read().replace("policy = longest", "policy = sideways")
    # keep relative paths valid by writing next to the original
    bad = tmp_path / "run.cfg"
    bad.write_text(text.replace("lexicon/", fixture_path("lexicon") + "/")
                   .replace("grammars/", fixture_path("grammars") + "/")
                   .replace("corpus/", fixture_path("corpus") + "/")
                   .replace("gold/", fixture_path("gold") + "/"))
    code, _, err = run_cli(capsys, "run", "-c", str(bad))
    assert code == 2


def test_malformed_lexicon_exit_code(tmp_path, capsys):
    dic = tmp_path / "bad.dic"
    dic.write_text("nocomma\n")
    grm = tmp_path / "g.grm"
    grm.write_text("graph G\ninit 0\nfinal 1\ntrans 0 1 <N>\n")
    txt = tmp_path / "d.txt"
    txt.write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lexicon = bad.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   f"corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 3
    assert "MalformedEntry" in err


def test_malformed_grammar_exit_code(tmp_path, capsys):
    dic = tmp_path / "ok.dic"
    dic.write_text("le,le.DET:ms\n")
    grm = tmp_path / "g.grm"
    grm.write_text("graph G\ninit 0\ntrans 0 1 <N>\n")  # no final
    txt = tmp_path / "d.txt"
    txt.write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 4
    assert "MalformedGraph" in err


def test_epsilon_cycle_grammar_exit_code(tmp_path, capsys):
    (tmp_path / "ok.dic").write_text("le,le.DET:ms\n")
    chain = "".join(f"trans {i} {i + 1} <E>\n" for i in range(3000))
    (tmp_path / "g.grm").write_text("graph G\ninit 0\nfinal 3001\n" + chain
                                    + "trans 3000 3001 <DET>\ntrans 3000 0 <E>\n")
    (tmp_path / "d.txt").write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 4
    assert "epsilon cycle" in err


def test_long_call_cycle_exit_code(tmp_path, capsys):
    (tmp_path / "ok.dic").write_text("le,le.DET:ms\n")
    chain = "".join(f"graph G{k}\ninit 0\nfinal 1\ntrans 0 1 :G{(k + 1) % 3000}\n"
                    for k in range(3000))
    (tmp_path / "g.grm").write_text(chain)
    (tmp_path / "d.txt").write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 4
    assert "recursive call chain: G0 -> G1 -> " in err


def test_non_ascii_state_number_exit_code(tmp_path, capsys):
    (tmp_path / "ok.dic").write_text("le,le.DET:ms\n")
    (tmp_path / "g.grm").write_text("graph G\ninit 0\nfinal 1\ntrans 0 \u00b2 <DET>\n",
                                    encoding="utf-8")
    (tmp_path / "d.txt").write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 4
    assert "MalformedGraph" in err and "line 4" in err


def test_flatten_state_limit_exit_code(tmp_path, capsys):
    (tmp_path / "ok.dic").write_text("le,le.DET:ms\n")
    # 31 graphs, each calling the next twice: about 5.4e9 flattened states
    chain = "".join(f"graph G{k}\ninit 0\nfinal 2\ntrans 0 1 :G{k + 1}\n"
                    f"trans 1 2 :G{k + 1}\n" for k in range(30))
    (tmp_path / "g.grm").write_text(chain + "graph G30\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    (tmp_path / "d.txt").write_text("Bonjour.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 4
    assert "MalformedGraph" in err and "5368709117 states" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", ["1_0", "+2", "-1", "\u0661\u0662", "4 0", "0x10"])
def test_width_in_ascii_digits_only(tmp_path, capsys, width):
    (tmp_path / "ok.dic").write_text("le,le.DET:ms\n")
    (tmp_path / "g.grm").write_text("graph G\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    (tmp_path / "d.txt").write_text("Le chat.\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   f"corpus = d.txt\nwidth = {width}\nout = out\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 2
    assert "ConfigError" in err and "bad width" in err


@pytest.mark.parametrize("offset", ["1_0", "+2", " 2", "2 ", "\u0661", "-0"])
def test_gold_offsets_in_ascii_digits_only(tmp_path, capsys, offset):
    for name, payload in [
        ("ok.dic", "le,le.DET:ms\n"),
        ("g.grm", "graph G\ninit 0\nfinal 1\ntrans 0 1 <DET>\n"),
        ("d.txt", "Le chat.\n"),
        ("gold.tsv", f"d\t0\t2\tPN\tE1\tle\nd\t{offset}\t8\tPN\tE1\tchat\n"),
    ]:
        (tmp_path / name).write_text(payload, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\ngold = gold.tsv\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 6
    assert "MalformedGold" in err and "bad byte offset" in err and "line 2" in err


def test_out_names_existing_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code, _, err = run_cli(capsys, "run", "-c", CFG, "--out", str(taken))
    assert code == 2
    assert "ConfigError" in err and str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_invalid_corpus_encoding_exit_code(tmp_path, capsys):
    dic = tmp_path / "ok.dic"
    dic.write_text("le,le.DET:ms\n")
    grm = tmp_path / "g.grm"
    grm.write_text("graph G\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    bad = tmp_path / "d.txt"
    bad.write_bytes(b"caf\xe9 latin-1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 5
    assert "InvalidEncoding" in err


def test_duplicate_doc_ids_rejected(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "d.txt").write_text("Un chat.\n")
    (tmp_path / "b" / "d.txt").write_text("Un chien.\n")
    (tmp_path / "ok.dic").write_text("un,un.DET:ms\n")
    (tmp_path / "g.grm").write_text("graph G\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = */d.txt\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 2
    assert "duplicate doc id" in err


def test_malformed_gold_exit_code(tmp_path, capsys):
    for name, payload in [
        ("ok.dic", "le,le.DET:ms\n"),
        ("g.grm", "graph G\ninit 0\nfinal 1\ntrans 0 1 <DET>\n"),
        ("d.txt", "Le chat.\n"),
        ("gold.tsv", "doc1\tnot-an-int\t5\tPN\tE1\tchat\n"),
    ]:
        (tmp_path / name).write_text(payload)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lexicon = ok.dic\npn_grammar = g.grm\nsvc_grammar = g.grm\n"
                   "corpus = d.txt\ngold = gold.tsv\nout = out\n")
    code, _, err = run_cli(capsys, "run", "-c", str(cfg))
    assert code == 6
    assert "MalformedGold" in err


def test_inflect_subcommand(capsys):
    code, out, _ = run_cli(capsys, "inflect", "-c", CFG)
    assert code == 0
    assert "données,donner.V+Supp:Kfp" in out.splitlines()
    assert "attentions,attention.N+NCA+PN+SV=accorder+SV=avoir+SV=prêter:fp" \
        not in out  # prêter link is not in the fixture
    assert "attentions,attention.N+NCA+PN+SV=accorder+SV=avoir:fp" in out.splitlines()


def test_index_subcommand(capsys):
    code, out, _ = run_cli(capsys, "index", "-c", CFG)
    assert code == 0
    assert out.startswith("entries=")
    assert "forms=" in out and "analyses=" in out


def test_tag_subcommand_single_doc(capsys):
    code, out, _ = run_cli(capsys, "tag", "-c", CFG, "--doc", "doc2")
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first[2] == "Le"
    assert "le.DET:ms" in first[3]


def test_locate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "locate", "-c", CFG, "--grammar", "pn")
    assert code == 0
    rows = [r.split("\t") for r in out.strip().split("\n")]
    assert len(rows) == 12
    assert all(r[5] == "PN_main" for r in rows)


def test_concord_subcommand_matches_pipeline(tmp_path, capsys):
    cfg = parse_config(CFG)
    result = run_pipeline(cfg, str(tmp_path))
    pipeline_payload = (tmp_path / "pn_concordance.tsv").read_text()
    code, out, _ = run_cli(capsys, "concord", "-c", CFG, "--grammar", "pn")
    assert code == 0
    assert out == pipeline_payload


def test_classify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "classify", "-c", CFG)
    assert code == 0
    assert "experimental\t12\t4\t3\t9\t0.2500\t25%" in out


def test_repeated_subcategory_is_config_error(tmp_path, capsys):
    cfg = copied_fixtures(tmp_path, lambda text: text.replace(
        "subcats = NCA NCF CV", "subcats = NCA NCA"))
    code, out, err = run_cli(capsys, "classify", "-c", str(cfg))
    assert code == 2
    assert out == ""
    assert "ConfigError" in err and "repeated subcategory 'NCA'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("lexicon", "lexicon/base.dic lexicon/base.dic"),
    ("lemmas", "lexicon/pn.lem lexicon/nouns.lem lexicon/./pn.lem"),
    ("paradigms", "lexicon/paradigms.par lexicon/paradigms.par"),
    ("svc_grammar", "grammars/svc.grm grammars/../grammars/svc.grm"),
])
def test_repeated_path_is_config_error(tmp_path, capsys, key, value):
    """A file named twice under one key would be read twice: its entries
    counted twice, or its paradigms and graphs refused as duplicates."""
    cfg = copied_fixtures(tmp_path, set_key(key, value))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "run", "-c", str(cfg), "--out", str(out_dir))
    assert code == 2
    assert out == ""
    repeated = os.path.normpath(cfg.parent / value.split()[0])
    assert f"ConfigError: {key}: repeated file: {repeated}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["policy", "case_policy", "alignment", "rounding"])
def test_bad_enumerated_value_is_named(tmp_path, capsys, key):
    cfg = copied_fixtures(tmp_path, set_key(key, "sideways"))
    code, out, err = run_cli(capsys, "index", "-c", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"lexgram: ConfigError: bad {key} 'sideways'\n"


def test_tag_dumps_each_document_tagged_alone(tmp_path, capsys):
    """``tag`` prints the joined corpus; it must equal the documents
    tagged and dumped one at a time, an empty one and a one-token one
    included."""
    cfg = copied_fixtures(tmp_path, lambda text: text)
    (cfg.parent / "corpus" / "doc1b.txt").write_text("", encoding="utf-8")
    (cfg.parent / "corpus" / "doc3.txt").write_text("Débat", encoding="utf-8")
    run = pipeline.Run(parse_config(str(cfg)))
    assert [doc_id for doc_id, _ in run.docs] == ["doc1", "doc1b", "doc2", "doc3"]
    expected = "".join(
        dump_tagged(tag(tokenize(text), run.index, text, run.cfg.case_policy).tokens)
        for _, text in run.docs)
    code, out, err = run_cli(capsys, "tag", "-c", str(cfg))
    assert (code, err) == (0, "")
    assert out == expected
    assert out.splitlines()[-1].split("\t")[:3] == ["0", "6", "Débat"]


def test_every_annotator_is_averaged(tmp_path):
    """A third annotator, a copy of E1, enters the average rows and both
    correction rows."""
    cfg = copied_fixtures(tmp_path, lambda text: text)
    gold = cfg.parent / "gold" / "annotations.tsv"
    lines = gold.read_text(encoding="utf-8").splitlines(keepends=True)
    copies = [line.replace("\tE1\t", "\tE3\t") for line in lines if "\tE1\t" in line]
    gold.write_text("".join(lines + copies), encoding="utf-8")
    rows, correction = pipeline.Run(parse_config(str(cfg))).evaluation
    value = {(r.section, r.label, r.annotator): r.value for r in rows}
    for label in ("PN", "SVC"):
        assert value["recall", label, "E3"] == value["recall", label, "E1"]
        for section in ("recall", "precision"):
            each = [value[section, label, a] for a in ("E1", "E2", "E3")]
            assert value[section, label, "average"] == pytest.approx(sum(each) / 3)
    assert round(value["recall", "PN", "average"], 4) == 0.8671  # 0.8776 for E1, E2
    assert correction == tuple((value["precision", label, "average"],
                                value["recall", label, "average"]) for label in ("PN", "SVC"))
    p, r = correction[0]
    assert value["correction", "PN", "-"] == pytest.approx(12 * p / r)


def test_classify_composes_with_pipeline(tmp_path, capsys):
    # without a gold file, the pipeline's classification report equals the
    # classify subcommand output byte for byte
    text = open(CFG).read().replace("gold = gold/annotations.tsv\n", "")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text
                        .replace("lexicon/", fixture_path("lexicon") + "/")
                        .replace("grammars/", fixture_path("grammars") + "/")
                        .replace("corpus/", fixture_path("corpus") + "/")
                        .replace("out = ../out", "out = out"))
    cfg = parse_config(str(cfg_path))
    run_pipeline(cfg, str(tmp_path / "out"))
    payload = (tmp_path / "out" / "classification.tsv").read_text()
    code, out, _ = run_cli(capsys, "classify", "-c", str(cfg_path))
    assert code == 0
    assert out == payload


def test_eval_subcommand(capsys):
    code, out, _ = run_cli(capsys, "eval", "-c", CFG)
    assert code == 0
    assert "recall\tPN\tE1\t13\t11\t-\t0.8462\t85%" in out
    assert "precision\tSVC\taverage\t-\t-\t-\t0.6250\t63%" in out


def test_report_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "report", "-c", CFG, "--out", str(tmp_path))
    assert code == 0
    assert "noun matches:          12" in out
    assert "corrected proportion:  0.1791 (18%)" in out


def test_verify_tables_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-tables")
    assert code == 0
    lines = out.strip().split("\n")
    assert sum(1 for l in lines if l.startswith("PASS")) == 28
    assert sum(1 for l in lines if l.startswith("FLAG")) == 2
    assert not any(l.startswith("FAIL") for l in lines)


def test_eval_without_gold_is_config_error(tmp_path, capsys):
    text = open(CFG).read().replace("gold = gold/annotations.tsv\n", "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("lexicon/", fixture_path("lexicon") + "/")
                   .replace("grammars/", fixture_path("grammars") + "/")
                   .replace("corpus/", fixture_path("corpus") + "/"))
    code, _, err = run_cli(capsys, "eval", "-c", str(cfg))
    assert code == 2


def test_index_on_long_surface_form(tmp_path, capsys):
    lexicon = tmp_path / "long.dic"
    lexicon.write_text("a" * 3000 + ",x.N\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lexicon = {lexicon}\n"
                   f"pn_grammar = {fixture_path('grammars', 'pn.grm')}\n"
                   f"svc_grammar = {fixture_path('grammars', 'svc.grm')}\n"
                   f"corpus = {fixture_path('corpus', '*.txt')}\n")
    code, out, _ = run_cli(capsys, "index", "-c", str(cfg))
    assert code == 0
    assert out == "entries=1\tforms=1\tanalyses=1\n"


# Each case: static lexicon lines, paradigm file, lemma files, and the error
# `lexgram index` must report.  P deletes one character, so it needs a
# lemma of two.
_ERROR_ORDER = [
    # static lexicon errors come before paradigm errors, and those before
    # lemma parse errors
    (["nocomma"], "paradigm P: ", [["a.N:P"], ["bad"]],
     "MalformedEntry: missing comma after surface form (", "s.dic, line 1, column 7)"),
    ([], "paradigm P: ", [["bad"]], "MalformedParadigm: paradigm 'P' has no rules (", "p.par)"),
    # a lemma file is parsed whole before any of its rows is inflected
    ([], "paradigm P: L s:ms", [["a.N:Missing", "ab.N+SV=avoir:P", "bad"]],
     "MalformedEntry: missing dot after lemma (", "l0.lem, line 3, column 3)"),
    # and inflected before the next file is read
    ([], "paradigm P: L s:ms", [["a.N:P"], ["bad"]],
     "LemmaTooShort: lemma 'a', paradigm 'P': deleting from 'a' would empty the form", ""),
    # within a row: unknown paradigm, then a lemma too short, then the link
    ([], "paradigm P: L s:ms", [["a.N+SV=avoir:Missing"]],
     "UnknownParadigm: lemma 'a' names unknown paradigm 'Missing'", ""),
    ([], "paradigm P: L s:ms", [["a.N+SV=avoir:P"]], "LemmaTooShort: lemma 'a'", ""),
    ([], "paradigm P: L s:ms", [["ab.N+SV=avoir:P", "x.N:Missing"]],
     "MalformedEntry: support-verb link on an entry without the PN feature", ""),
]


@pytest.mark.parametrize("static,paradigms,lemmas,error,where", _ERROR_ORDER)
def test_lexicon_error_order(tmp_path, capsys, static, paradigms, lemmas, error, where):
    keys = [f"paradigms = {tmp_path / 'p.par'}",
            f"pn_grammar = {fixture_path('grammars', 'pn.grm')}",
            f"svc_grammar = {fixture_path('grammars', 'svc.grm')}",
            f"corpus = {fixture_path('corpus', '*.txt')}"]
    (tmp_path / "p.par").write_text(paradigms + "\n", encoding="utf-8")
    if static:
        (tmp_path / "s.dic").write_text("\n".join(static) + "\n", encoding="utf-8")
        keys.append(f"lexicon = {tmp_path / 's.dic'}")
    for i, rows in enumerate(lemmas):
        (tmp_path / f"l{i}.lem").write_text("\n".join(rows) + "\n", encoding="utf-8")
    keys.append("lemmas = " + " ".join(str(tmp_path / f"l{i}.lem") for i in range(len(lemmas))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(keys) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "index", "-c", str(cfg))
    assert (code, out) == (3, "")
    assert err.startswith("lexgram: " + error) and err.rstrip("\n").endswith(where), err


@pytest.mark.parametrize("cmd,to_out", [("eval", False), ("eval", True), ("run", True),
                                        ("classify", False)])
def test_unknown_eval_docs_is_config_error(tmp_path, capsys, cmd, to_out):
    cfg = copied_fixtures(tmp_path, lambda text: text + "eval_docs = doc1 doc9 docX\n")
    out_dir = tmp_path / "out"
    argv = [cmd, "-c", str(cfg)] + (["--out", str(out_dir)] if to_out else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "lexgram: ConfigError: eval_docs not in corpus: doc9 docX\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("subcats", ["", "NCF", "NCA NCF CV"],
                         ids=lambda subcats: "-".join(subcats.split()) or "none")
def test_run_walks_once_per_grammar_within_a_successor_budget(tmp_path, capsys, monkeypatch,
                                                              subcats):
    """A fixture run locates each grammar once for its matches and, with
    subcategories, walks each grammar family once over every subcategory
    scope, whatever the number of subcategories or documents; it fills its
    DFAs with at most 430 successor computations (810 when each scope of
    each grammar was located on its own)."""
    cfg = copied_fixtures(tmp_path, set_key("subcats", subcats))
    many = tmp_path / "fixtures" / "many"
    many.mkdir()
    for i in range(50):
        (many / f"d{i:02}.txt").write_text(
            f"Marie fait attention à ce détail {i}. Le vol restait sans suite.\n",
            encoding="utf-8")
    many_cfg = cfg.with_name("many.cfg")
    many_cfg.write_text(cfg.read_text(encoding="utf-8").replace("corpus/*.txt", "many/*.txt"),
                        encoding="utf-8")
    counts = count_walks(monkeypatch)
    located = []
    real = pipeline.locate

    def counted(*args):
        located.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "locate", counted)
    for config, budget in ((cfg, 430), (many_cfg, None)):
        counts.update(walks=0, successors=0)
        located.clear()
        out = tmp_path / config.stem
        code, _, _ = run_cli(capsys, "run", "-c", str(config), "--out", str(out))
        assert code == 0
        assert len(located) == 2
        assert counts["walks"] == (4 if subcats else 2)
        if budget is not None:
            assert counts["successors"] <= budget
        report = (out / "classification.tsv").read_text(encoding="utf-8")
        rows = report.split("# subcategory")[1].splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == [*subcats.split(), "all"]
    if "NCF" in subcats:
        assert "\nNCF\t50\t" in report

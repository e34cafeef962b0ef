"""The shared input-file format, and bad input in every resource reader.

Each reader is fuzzed with random text, text built from the format's own
tokens, and random bytes: only ``LexgramError`` subclasses may escape
it, and ``main`` must end a run over the same file in its documented
exit code, never in a traceback.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from lexgram.cli import main
from lexgram.errors import LexgramError, MalformedEntry, MalformedGold, MalformedGraph
from lexgram.evaluation import load_gold
from lexgram.inflect import load_lemma_entries, load_paradigms, parse_lemma_entry
from lexgram.lexicon import load_lexicon, parse_entry
from lexgram.pipeline import RunConfig, load_corpus, parse_config
from lexgram.rtn import load_grammar, parse_graph_file
from lexgram import source
from lexgram.source import content_lines, read_text

from conftest import reference_content_lines

# a complete run on which every reader has one file; `run` exits 0 on it
FILES = {
    "run.cfg": "lexicon = base.dic\nlemmas = nouns.lem\nparadigms = nouns.par\n"
               "pn_grammar = g.grm\nsvc_grammar = g.grm\ncorpus = *.txt\n"
               "gold = gold.tsv\nout = out\n",
    "base.dic": "le,le.DET:ms\n",
    "nouns.lem": "chat.N+PN+NCA:N\n",
    "nouns.par": "paradigm N: <e>:ms ; s:mp\n",
    "g.grm": "graph G\ninit 0\nfinal 2\ntrans 0 1 <DET>\ntrans 1 2 <N>\n",
    "d.txt": "Le chat dort.\n",
    "gold.tsv": "d\t0\t7\tPN\tE1\tchat\nd\t0\t7\tSVC\tE1\tchat\n",
}

# each file's reader and the exit code its errors map to
READERS = {
    "run.cfg": (parse_config, 2),
    "base.dic": (load_lexicon, 3),
    "nouns.lem": (load_lemma_entries, 3),
    "nouns.par": (lambda path: load_paradigms([path]), 3),
    "g.grm": (lambda path: load_grammar([path]), 4),
    "gold.tsv": (load_gold, 6),
    "d.txt": (lambda path: load_corpus(RunConfig(corpus=path)), 5),
}
# the exit codes of a run whose fuzzed file its reader accepts: a config
# chooses every other input and the output directory, so any stage can
# still fail; another file can still leave nothing to score (6) or, read
# as lemmas or paradigms, name a paradigm that is not there (3)
ACCEPTED = {"run.cfg": (0, 2, 3, 4, 5, 6)}

FRAGMENTS = {
    "run.cfg": ["lexicon = base.dic", "lemmas = nouns.lem", "paradigms = nouns.par",
                "pn_grammar = g.grm", "svc_grammar = g.grm", "corpus = *.txt",
                "gold = gold.tsv", "eval_docs = d", "policy = ", "width = ", "subcats = ",
                "case_policy = exact", "alignment = exact", "rounding = half-even",
                "pn_main = G", "all", "-1", "7", "NCA", "=", " ", "\n", "\r", "#"],
    "base.dic": ["le", "chat", ",", ".", "+", ":", "\\", "\\,", "N", "DET", "PN",
                 "SV=avoir", "ms", " ", "\n", "\r\n", "#"],
    "nouns.lem": ["chat", ".", "+", ":", "\\", "N", "PN", "NCA", "SV=avoir", " ",
                  "\n", "\r", "#"],
    "nouns.par": ["paradigm ", "N", ":", ";", "<e>", "L", "s", "ms", "mp", " ", "\n",
                  "\r", "#"],
    "g.grm": ["graph ", "G", "H", "init ", "final ", "trans ", "0 ", "1 ", "2 ", "<DET>",
              "<N>", "<le.DET+PN-NCA:ms!g>", "<N!g>", ":G", ":H", "<E>", '"chat"',
              '"Le"~', "<", ">", "!", " ", "\n", "\r\n", "#", "  # c", "G # c",
              ":G   # call", "_", "-", "\u00c9"],
    "gold.tsv": ["d", "\t", "0", "7", "-3", "PN", "SVC", "E1", "E2", "chat", " ", "\n",
                 "\r", "#"],
    "d.txt": ["Le", "chat", "dort", "le", ".", " ", "'", "l'", "-", "12", "\n", "\r",
              "«", "É"],
}


def _piece(name: str) -> st.SearchStrategy[str]:
    return st.one_of(st.sampled_from(FRAGMENTS[name]), st.text(max_size=3))


def _built_from(name: str) -> st.SearchStrategy[str]:
    return st.lists(_piece(name), max_size=30).map("".join)


def _near_valid(name: str) -> st.SearchStrategy[str]:
    """The file in ``FILES`` after up to three edits, each dropping a line
    or splicing a fragment or a short random string into one."""
    def edited(edits: list) -> str:
        lines = FILES[name].splitlines(keepends=True)
        for at, column, text, drop in edits:
            at %= len(lines)
            lines[at] = "" if drop else lines[at][:column] + text + lines[at][column:]
        return "".join(lines)

    edit = st.tuples(st.integers(0, 20), st.integers(0, 40), _piece(name), st.booleans())
    return st.lists(edit, max_size=3).map(edited)


def _payloads(name: str) -> st.SearchStrategy[bytes]:
    text = st.one_of(st.text(), _built_from(name), _near_valid(name))
    return st.one_of(text.map(lambda s: s.encode("utf-8")), st.binary(max_size=200))


def write_files(directory: str, name: str, payload: bytes) -> None:
    """``FILES`` in ``directory``, with ``name`` holding ``payload``."""
    for fname, text in FILES.items():
        with open(os.path.join(directory, fname), "wb") as handle:
            handle.write(payload if fname == name else text.encode("utf-8"))


def run_in(directory: str) -> tuple[int, str]:
    """The exit code and standard error of ``lexgram run`` in ``directory``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "-c", os.path.join(directory, "run.cfg")])
    return code, err.getvalue()


def test_fixture_run_succeeds(tmp_path):
    write_files(str(tmp_path), "d.txt", FILES["d.txt"].encode("utf-8"))
    assert run_in(str(tmp_path)) == (0, "")


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_reader_fuzz(name, data):
    reader, exit_code = READERS[name]
    payload = data.draw(_payloads(name))
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory, name, payload)
        try:
            reader(os.path.join(directory, name))
            rejected = False
        except LexgramError:
            rejected = True
        code, err = run_in(directory)
    event(f"exit {code}, reader {'rejects' if rejected else 'accepts'}")
    assert code == exit_code if rejected else code in ACCEPTED.get(name, (0, exit_code, 6))
    assert (code == 0) == (err == "")
    assert "Traceback" not in err


_NAME_CHARS = st.one_of(st.sampled_from(list("Gg09_-#:. \t~\u00c9\u0663\xa0")),
                       st.characters(blacklist_categories=("Cs",),
                                     blacklist_characters="\r\n"))


@given(name=st.text(_NAME_CHARS, max_size=8))
def test_graph_names_and_call_targets(name):
    """A graph name or a call target is ASCII letters, digits, ``_`` and
    ``-``; anything else, a trailing comment included, is rejected.  The
    blanks around a graph name and after a label do not count."""
    def accepts(text):
        try:
            return parse_graph_file(text)[0]
        except MalformedGraph:
            return None

    def valid(text):
        return re.fullmatch(r"[A-Za-z0-9_-]+", text) is not None

    graph = accepts(f"graph {name}\ninit 0\nfinal 1\ntrans 0 1 <DET>\n")
    assert (graph is not None) == valid(name.strip())
    assert graph is None or graph.name == name.strip()
    caller = accepts(f"graph G\ninit 0\nfinal 1\ntrans 0 1 :{name}\n")
    assert (caller is not None) == valid(name.rstrip())
    assert caller is None or caller.call_targets() == [name.rstrip()]


@given(st.one_of(st.text(), _built_from("base.dic"), _built_from("nouns.lem")))
def test_entry_line_parsers_raise_only_malformed_entry(line):
    for parse in (parse_entry, parse_lemma_entry):
        try:
            parse(line)
        except MalformedEntry:
            pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_exit_code(name, tmp_path):
    write_files(str(tmp_path), name, b"caf\xe9 " + FILES[name].encode("utf-8"))
    code, err = run_in(str(tmp_path))
    assert code == READERS[name][1]
    assert err.startswith("lexgram: ") and "not UTF-8" in err
    assert str(tmp_path / name) in err
    assert "Traceback" not in err


def test_corpus_glob_matching_a_directory_exit_code(tmp_path):
    write_files(str(tmp_path), "d.txt", FILES["d.txt"].encode("utf-8"))
    (tmp_path / "e.txt").mkdir()
    code, err = run_in(str(tmp_path))
    assert code == 5
    assert "InvalidEncoding" in err and str(tmp_path / "e.txt") in err


def test_content_lines_break_at_lf_crlf_and_cr_only():
    text = "a\r\nb\rc\n\n  # note\n \t\n\x0bd\x0ce\x85f g\nlast"
    assert list(content_lines(text)) == [
        (1, "a"), (2, "b"), (3, "c"), (7, "\x0bd\x0ce\x85f g"), (8, "last")]


# pieces of line-oriented text: every break, blank and whitespace-only
# lines (Python's whitespace beyond ASCII too), comments after leading
# whitespace and non-ASCII content
LINE_PIECES = ["a", "bc", "é", "中文", "x y", "#", "# c", " # c", "\t#", "a#b", " ", "\t",
               "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n", "\n\n", "\r\n", "\r"]


@pytest.mark.parametrize("block", [1, 2, 3, 7, source.BLOCK])
@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join))
@example(text="")
@example(text="ab\r\ncd\ref\r")
@example(text="a\rb\r\r\nc\n \x85\n  # c\r\u2028d")
def test_content_lines_equal_the_line_by_line_reader(block, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(source, "BLOCK", block)
        assert list(content_lines(text)) == list(reference_content_lines(text))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_content_lines_across_default_blocks(newline):
    # lines of every length around the block size, with breaks, blank and
    # comment lines falling on and beside each block edge
    lines = []
    for i in range(source.BLOCK // 5):
        lines.append(["", "  # c", "\x85", "é" * (i % 97), "x\ty" * (i % 13)][i % 5])
    text = newline.join(lines)
    assert list(content_lines(text)) == list(reference_content_lines(text))


def test_read_text_is_strict_utf8(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfx\r\n")
    assert read_text(str(path), MalformedEntry) == "\ufeffx\r\n"
    path.write_bytes(b"x\xff")
    with pytest.raises(MalformedEntry, match="not UTF-8"):
        read_text(str(path), MalformedEntry)
    with pytest.raises(MalformedEntry, match="cannot read"):
        read_text(str(tmp_path / "missing"), MalformedEntry)


@pytest.mark.parametrize("error, message", [
    (MalformedEntry("bad", 7, 3, "a.dic"), "bad (a.dic, line 3, column 7)"),
    (MalformedEntry("bad", 1), "bad (column 1)"),
    (MalformedEntry("bad", line=1, path="a.dic"), "bad (a.dic, line 1)"),
    (MalformedEntry("bad"), "bad"),
    (MalformedGold("bad", 12, "g.tsv"), "bad (g.tsv, line 12)"),
    (MalformedGold("bad", 1), "bad (line 1)"),
    (MalformedGold("bad", path="g.tsv"), "bad (g.tsv)"),
    (MalformedGold("bad"), "bad"),
])
def test_error_locations(error, message):
    # only the parts given are named; 1 is a line or column like any other
    assert str(error) == message

"""Output oracle for the `lexgram run` benchmark.

The expectations do not come from the code under test:

- classification rows are k times ``fixtures/corpus/ledger.tsv``, the
  hand-derived ledger;
- metrics counts are k times the fixture values recorded in
  ``expected.json`` (checked by hand against the fixture gold file), and
  the ratios, averages and corrections are recomputed from those counts;
- concordance spans are the fixture spans of ``expected.json`` moved to
  wherever the generator placed their sentence, and the context columns
  are cut from the generated text;
- the spans also equal ``rtn.locate_recursive``, the reference
  interpreter, over the same tagged documents.

``check`` returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import hashlib
import json
import os

from workloads import Sentence, Workload, fixture_sentences, read_config, sentence_of

OUTPUTS = ("pn_concordance.tsv", "svc_concordance.tsv", "classification.tsv", "metrics.tsv")
SCOPES = ("all", "NCA", "NCF", "CV")


def load_expected(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_ledger(path: str) -> dict[str, dict[str, int]]:
    """scope -> {pn, svc_raw, with_sv, without_sv}."""
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            scope, pn, svc_raw, with_sv, without_sv = line.split()
            rows[scope] = {"pn": int(pn), "svc_raw": int(svc_raw),
                           "with_sv": int(with_sv), "without_sv": int(without_sv)}
    return rows


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file in the output directory."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle
                if line.strip() and not line.startswith("#")]


def _ratio(part: int, whole: int) -> str:
    return f"{part / whole if whole else 0.0:.4f}"


def check_classification(path: str, ledger: dict, k: int) -> list[str]:
    problems = []
    got = {row[0]: row for row in _rows(path)}
    want = ledger["all"]
    exp = got.get("experimental")
    expect = [str(k * want[c]) for c in ("pn", "svc_raw", "with_sv", "without_sv")]
    if exp is None or exp[1:5] != expect or exp[5] != _ratio(want["with_sv"], want["pn"]):
        problems.append(f"classification experimental row {exp} != {expect}")
    for scope in SCOPES:
        row, want = got.get(scope), ledger[scope]
        # subcategory columns: scope pn pn_pct svc svc_pct ratio ratio_pct svc_raw ...
        expect = [str(k * want["pn"]), str(k * want["with_sv"]), str(k * want["svc_raw"])]
        if row is None or [row[1], row[3], row[7]] != expect \
                or row[5] != _ratio(want["with_sv"], want["pn"]) \
                or int(row[1]) - int(row[3]) != k * want["without_sv"]:
            problems.append(f"classification {scope} row {row} != pn/svc/svc_raw {expect}")
    return problems


def check_metrics(path: str, expected: dict, ledger: dict, k: int) -> list[str]:
    """Per-annotator counts scale by k; ratios, averages and corrections are
    recomputed from the recorded fixture counts."""
    problems = []
    got = {(r[0], r[1], r[2]): r for r in _rows(path)}
    averaged = {}
    for label, by_annotator in expected["metrics"].items():
        ps, rs = [], []
        for annotator, c in sorted(by_annotator.items()):
            r, p = c["matched"] / c["gold"], c["matched"] / c["system"]
            rs.append(r)
            ps.append(p)
            want = {("recall", label, annotator): [str(k * c["gold"]), str(k * c["matched"]), "-", f"{r:.4f}"],
                    ("precision", label, annotator): ["-", str(k * c["matched"]), str(k * c["system"]), f"{p:.4f}"]}
            for key, cells in want.items():
                row = got.get(key)
                if row is None or row[3:7] != cells:
                    problems.append(f"metrics {key} {row} != {cells}")
        p_avg, r_avg = (ps[0] + ps[1]) / 2.0, (rs[0] + rs[1]) / 2.0
        averaged[label] = (p_avg, r_avg)
        for section, value in (("recall", r_avg), ("precision", p_avg)):
            row = got.get((section, label, "average"))
            if row is None or row[6] != f"{value:.4f}":
                problems.append(f"metrics {section} {label} average {row} != {value:.4f}")
    for label, n in (("PN", k * ledger["all"]["pn"]), ("SVC", k * ledger["all"]["with_sv"])):
        p, r = averaged[label]
        row = got.get(("correction", label, "-"))
        cells = [str(n), f"{n * p / r:.4f}"]
        if row is None or [row[3], row[6]] != cells:
            problems.append(f"metrics correction {label} {row} != {cells}")
    if len(got) != sum(2 * len(a) + 2 for a in expected["metrics"].values()) + 2:
        problems.append(f"metrics has {len(got)} rows")
    return problems


def expected_spans(wl: Workload, sentences: list[Sentence],
                   fixture_spans: list) -> list[tuple[str, int, int]]:
    """Fixture spans moved into the generated documents, in text order."""
    by_sentence: dict[int, list[tuple[int, int]]] = {}
    for doc_id, start, end, center in fixture_spans:
        i = sentence_of(sentences, doc_id, start, end)
        s0 = sentences[i].start
        if sentences[i].text.encode("utf-8")[start - s0:end - s0].decode("utf-8") != center:
            raise ValueError(f"expected span {doc_id}:{start}-{end} is not {center!r}")
        by_sentence.setdefault(i, []).append((start - s0, end - s0))
    out = []
    for doc_id, placed in wl.layout.items():
        for idx, offset in placed:
            for rs, re_ in by_sentence.get(idx, ()):
                out.append((doc_id, offset + rs, offset + re_))
    return sorted(out)


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def check_concordance(path: str, wl: Workload, spans: list[tuple[str, int, int]],
                      width: int) -> list[str]:
    """Rows in text order, one per expected span, with contexts of at most
    ``width`` characters cut from the generated document."""
    rows = _rows(path) if os.path.getsize(path) else []
    got = [(r[0], int(r[1]), int(r[2])) for r in rows]
    name = os.path.basename(path)
    if got != spans:
        missing = sorted(set(spans) - set(got))[:3]
        extra = sorted(set(got) - set(spans))[:3]
        return [f"{name}: {len(got)} rows, {len(spans)} expected;"
                f" missing {missing}, unexpected {extra}"]
    char_at: dict[str, dict[int, int]] = {}
    for doc_id, start, end, left, center, right in rows:
        text = wl.docs[doc_id]
        if doc_id not in char_at:
            table, b = {}, 0
            for c, ch in enumerate(text):
                table[b] = c
                b += len(ch.encode("utf-8"))
            table[b] = len(text)
            char_at[doc_id] = table
        cs, ce = char_at[doc_id][int(start)], char_at[doc_id][int(end)]
        want = (_clean(text[max(0, cs - width):cs]), _clean(text[cs:ce]),
                _clean(text[ce:ce + width]))
        if (left, center, right) != want:
            return [f"{name} {doc_id}:{start}: {(left, center, right)} != {want}"]
    return []


def reference_spans(wl: Workload) -> dict[str, list[tuple[str, int, int]]]:
    """PN and SVC spans of ``rtn.locate_recursive`` over the tagged docs."""
    from lexgram import lexicon, pipeline, rtn, textproc

    cfg = pipeline.parse_config(wl.config)
    index = lexicon.build_index(pipeline.build_entries(cfg))
    grammars = pipeline.load_grammars(cfg)
    out: dict[str, list[tuple[str, int, int]]] = {"pn": [], "svc": []}
    for doc_id, text in sorted(wl.docs.items()):
        tagged = textproc.tag(textproc.tokenize(text), index, text, cfg.case_policy)
        for which, grammar in (("pn", grammars.pn), ("svc", grammars.svc)):
            out[which].extend((doc_id, m.start_byte, m.end_byte)
                              for m in rtn.locate_recursive(grammar, tagged, cfg.policy))
    return {which: sorted(spans) for which, spans in out.items()}


def check(wl: Workload, out_dir: str, fixtures: str, expected: dict) -> list[str]:
    """Every oracle on one run's output directory."""
    ledger = load_ledger(os.path.join(fixtures, "corpus", "ledger.tsv"))
    names = sorted(os.listdir(out_dir))
    want_names = sorted(OUTPUTS if wl.has_gold else OUTPUTS[:3])
    if names != want_names:
        return [f"output files {names} != {want_names}"]
    problems = check_classification(os.path.join(out_dir, "classification.tsv"), ledger, wl.k)
    if wl.has_gold:
        problems += check_metrics(os.path.join(out_dir, "metrics.tsv"), expected, ledger, wl.k)
    sentences = fixture_sentences(fixtures)
    width = int(read_config(wl.config)["width"])
    reference = reference_spans(wl)
    for which in ("pn", "svc"):
        spans = expected_spans(wl, sentences, expected[f"{which}_spans"])
        if reference[which] != spans:
            problems.append(f"{which}: locate_recursive gives {len(reference[which])} spans,"
                            f" the fixture spans {len(spans)}")
        problems += check_concordance(os.path.join(out_dir, f"{which}_concordance.tsv"),
                                      wl, spans, width)
    return problems

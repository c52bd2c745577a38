import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citequery import cli
from citequery.catalog import builtin_catalog, serialize_validated_set
from citequery.cli import (
    REPORTS, SAMPLE_COLUMNS, OutputWriter, _annotations_from_file, _read_sample_csv,
    main,
)
from citequery.engine import RECORD_ORDER, Span, run_all
from citequery.ingest import numbered_csv_columns
from conftest import GOLDEN_CORPUS, GOLDEN_MATCHES, write_golden_citations
from naive_scanner import scan_all
from synth import citance_records, lead_last_citances, lead_words, random_citances, write_jsonl


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(r for r in handle if not r.startswith("#")))


def header_lines(path):
    lines = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            lines.append(line.rstrip("\n"))
    return lines


@pytest.fixture()
def golden_args():
    return ["--corpus", str(GOLDEN_CORPUS), "--mode", "presegmented"]


class TestIngestCheck:
    def test_golden(self, golden_args, capsys):
        assert main(["ingest-check", *golden_args]) == 0
        out = capsys.readouterr().out
        assert "documents=9" in out and "citances=51" in out and "errors=0" in out

    def test_reports_error_lines(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"year": 2000, "sentences": []}\n')
        assert main(["ingest-check", "--corpus", str(corpus)]) == 0
        assert "line=1 error=missing_doc_id" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["ingest-check", "--corpus", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_rawtext_mode(self, tmp_path, capsys):
        corpus = tmp_path / "raw.jsonl"
        corpus.write_text(json.dumps({
            "doc_id": "d1", "year": 2010, "doc_type": "other",
            "body": "This works <ref id=r1/>. It fails <ref id=r2/>.",
        }) + "\n")
        assert main(["ingest-check", "--corpus", str(corpus),
                     "--mode", "rawtext"]) == 0
        assert "citances=2" in capsys.readouterr().out


class TestMatch:
    def test_reproduces_golden_csv(self, golden_args, tmp_path):
        out = tmp_path / "out"
        assert main(["match", *golden_args, "--out", str(out)]) == 0
        produced = (out / "matches.csv").read_text().splitlines()
        produced = [line for line in produced if not line.startswith("#")]
        expected = GOLDEN_MATCHES.read_text().splitlines()
        assert produced == expected

    def test_summary_counts(self, golden_args, tmp_path):
        out = tmp_path / "out"
        main(["match", *golden_args, "--out", str(out)])
        rows = {r["signal"]: r for r in read_csv(out / "match_summary.csv")}
        assert len(rows) == 13
        assert rows["challenge*"]["standalone"] == "10"
        assert rows["challenge*"]["studies"] == "4"
        assert rows["no consensus"]["standalone"] == "3"
        assert rows["questionable"]["results"] == "1"
        standalone_total = sum(int(r["standalone"]) for r in rows.values())
        assert standalone_total == 42

    def test_jsonl_contains_text(self, golden_args, tmp_path):
        out = tmp_path / "out"
        main(["match", *golden_args, "--out", str(out)])
        lines = [
            json.loads(line)
            for line in (out / "matches.jsonl").read_text().splitlines()
            if not line.startswith("#")
        ]
        first = lines[0]
        assert first["doc_id"] == "g01"
        assert "challenge" in first["text"]

    def test_lead_words_met_after_lead_less_citances(self, tmp_path, catalog):
        """``match`` and ``sample`` drop a citance whose words are all known
        to start no signal; each lead word here first comes right after a
        lead-less citance of the same other words, so a word wrongly known
        as lead-free drops a matched citance."""
        citances = lead_last_citances(random_citances(150, seed=6), lead_words(catalog))
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
        write_jsonl(citance_records(citances), corpus)
        expected = scan_all(citances, catalog)
        assert main(["match", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert main(["sample", "--corpus", str(corpus), "--out", str(out / "s"),
                     "--n", "1000"]) == 0
        spans = [(r.signal_span, r.filter_span or Span("", "", "")) for r in expected]
        assert [tuple(row.values()) for row in read_csv(out / "matches.csv")] == [
            tuple(map(str, (*RECORD_ORDER(r), s.start, s.end, f.start, f.end)))
            for r, (s, f) in zip(expected, spans)]
        assert sorted((r["doc_id"], int(r["sentence_index"]), r["query_id"])
                      for r in read_csv(out / "s" / "sample.csv")) \
            == sorted(map(RECORD_ORDER, expected))

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        out = tmp_path / "out"
        assert main(["match", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert read_csv(out / "matches.csv") == []

    def test_missing_corpus_nonzero_with_path(self, tmp_path, capsys):
        missing = tmp_path / "gone.jsonl"
        code = main(["match", "--corpus", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_custom_query_file(self, golden_args, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "query craton.standalone\nsignal controvers*|debat*\nfilter none\n"
        )
        out = tmp_path / "out"
        assert main(["match", *golden_args, "--queries", str(queries),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "matches.csv")
        assert {r["query_id"] for r in rows} == {"craton.standalone"}
        # 4 controvers* citances plus 6 debat* citances: without the builtin
        # context exclusions, "public debate" and "senate debates" match too.
        assert len(rows) == 10

    def test_summary_row_is_the_main_pattern_in_canonical_form(self, golden_args, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("query d.standalone\nsignal Controvers*|debat*\nfilter none\n\n"
                           "query d.studies\nsignal No  Consensus\nfilter studies\n")
        out = tmp_path / "out"
        assert main(["match", *golden_args, "--queries", str(queries),
                     "--out", str(out)]) == 0
        assert [r["signal"] for r in read_csv(out / "match_summary.csv")] == [
            "controvers*", "no consensus"]

    def test_summary_cell_sums_the_queries_sharing_it(self, golden_args, tmp_path, capsys):
        """Two queries with one main signal and one filter set share a cell,
        which counts the records of both."""
        queries = tmp_path / "queries.txt"
        queries.write_text("query a\nsignal controvers*\n\n"
                           "query b\nsignal controvers*\nexclude citance_phrase:remains\n")
        out = tmp_path / "out"
        assert main(["match", *golden_args, "--queries", str(queries),
                     "--out", str(out)]) == 0
        records = read_csv(out / "matches.csv")
        assert sorted({r["query_id"] for r in records}) == ["a", "b"]
        assert read_csv(out / "match_summary.csv") == [
            {"signal": "controvers*", "standalone": str(len(records))}]
        matched = {(r["doc_id"], r["sentence_index"]) for r in records}
        assert capsys.readouterr().out == (
            f"citances matched: {len(matched)}; records: {len(records)}\n")

    def test_bad_query_file_is_data_error(self, golden_args, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("query a\nsignal cont*overs\nfilter none\n")
        code = main(["match", *golden_args, "--queries", str(queries),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "wildcard" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "sample"])
    def test_query_file_is_read_before_the_corpus(self, tmp_path, capsys, command):
        corpus, queries, out = tmp_path / "gone.jsonl", tmp_path / "gone.q", tmp_path / "o"
        code = main([command, "--corpus", str(corpus), "--queries", str(queries),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read query file {queries}: ")
        assert not out.exists()

    def test_non_utf8_line_after_malformed_records_is_the_only_error(self, tmp_path, capsys):
        corpus, out = tmp_path / "bad.jsonl", tmp_path / "o"
        corpus.write_bytes(GOLDEN_CORPUS.read_bytes() + b'{"year": 2000}\nnot json\n'
                           b'{"doc_id": "g01", "year": 2001, "sentences": []}\n'
                           b'{"doc_id": "caf\xe9"}\n')
        line = len(GOLDEN_CORPUS.read_bytes().splitlines()) + 4
        assert main(["match", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: corpus file {corpus}: line {line}: not valid UTF-8\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["match"], ["sample"], ["report", "--which", "top"],
    ], ids=["match", "sample", "report-top"])
    def test_unpaired_surrogates_are_load_errors(self, tmp_path, argv):
        # Valid JSON whose strings no UTF-8 output can hold: the cued citance
        # would be matched, sampled and counted by the top tables.
        cited = {"ref_id": "r1", "cited_doc_id": "x\udfff"}
        bad = [
            {"doc_id": "s1", "year": 2010, "sentences": [
                {"text": "It remains controversial \ud800 <ref id=r1/>.", "refs": []}]},
            {"doc_id": "s\udc80", "year": 2010, "sentences": [
                {"text": "It remains controversial <ref id=r1/>.", "refs": [cited]}]},
        ]
        golden = GOLDEN_CORPUS.read_text(encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        outputs = []
        for extra in ([json.dumps(r) + "\n" for r in bad], []):
            corpus.write_text(golden + "".join(extra), encoding="utf-8")
            out = tmp_path / f"out{len(extra)}"
            code, err = run_quietly([*argv, "--corpus", str(corpus), "--out", str(out)])
            assert code == 0, err
            outputs.append((err, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        lines = len(golden.splitlines())
        assert outputs[0][0] == f"line={lines + 1} error=bad_json\nline={lines + 2} error=bad_json\n"
        assert outputs[0][1] == outputs[1][1]

    def test_jsonl_lines_are_json_dumps_of_each_record(self, tmp_path):
        texts = ['It remains controversial "quoted" \\ back\tslash <ref id=r0/>.',
                 "Debated \x01 results \u2028 and \U0001F600 studies <ref id=r1/>."]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({
            "doc_id": doc_id, "year": 2010,
            "sentences": [{"text": text, "refs": []} for text in texts],
        }) + "\n" for doc_id in ('d"\\\t\u2028', "d\U0001F600")), encoding="utf-8")
        out = tmp_path / "out"
        assert run_quietly(["match", "--corpus", str(corpus), "--out", str(out)])[0] == 0
        with open(out / "matches.jsonl", encoding="utf-8", newline="") as handle:
            lines = [line for line in handle.read().split("\n")[:-1] if line[0] != "#"]
        rows = read_csv(out / "matches.csv")
        assert len(lines) == len(rows) > 4
        for line, row in zip(lines, rows):
            start = lambda key: int(row[key]) if row[key] else None
            record = {
                "doc_id": row["doc_id"], "sentence_index": int(row["sentence_index"]),
                "query_id": row["query_id"],
                "signal": [start("signal_start"), start("signal_end")],
                "filter": [start("filter_start"), start("filter_end")]
                if row["filter_start"] else None,
                "text": texts[int(row["sentence_index"])],
            }
            assert line == json.dumps(record, ensure_ascii=False)

    def test_a_ref_cited_twice_in_a_sentence_matches_as_two_refs(self, tmp_path):
        """Every marker is cut from the words, a repeated one included."""
        text = 'This remains controversial <ref id="r1"/> in several recent studies {}.'
        rows = []
        for second, refs in (("r1", ["r1"]), ("r2", ["r1", "r2"])):
            corpus, out = tmp_path / f"{second}.jsonl", tmp_path / second
            corpus.write_text(json.dumps({"doc_id": "d", "year": 2010, "sentences": [{
                "text": text.format(f'<ref id="{second}"/>'),
                "refs": [{"ref_id": r} for r in refs]}]}) + "\n")
            assert run_quietly(["match", "--corpus", str(corpus), "--out", str(out)])[0] == 0
            rows.append(read_csv(out / "matches.csv"))
        assert rows[0] == rows[1]
        assert "controvers.studies" in {row["query_id"] for row in rows[0]}

    @pytest.mark.parametrize("doc_id, query_id", [("d\rx", "q.a"), ("d", "q\ra")],
                             ids=["doc_id", "query_id"])
    def test_a_cell_holding_a_carriage_return_quotes_its_matches_row(
        self, tmp_path, doc_id, query_id
    ):
        corpus, queries = tmp_path / "corpus.jsonl", tmp_path / "queries.txt"
        corpus.write_text(json.dumps({"doc_id": doc_id, "year": 2010, "sentences": [
            {"text": "It remains controversial <ref id=r1/>.", "refs": []}]}) + "\n",
            encoding="utf-8")
        queries.write_bytes(f"query {query_id}\nsignal controvers*\n".encode("utf-8"))
        out = tmp_path / "out"
        assert run_quietly(["match", "--corpus", str(corpus), "--queries", str(queries),
                            "--out", str(out)])[0] == 0
        with open(out / "matches.csv", encoding="utf-8", newline="") as handle:
            body = [line for line in handle.read().split("\n") if not line.startswith("#")]
        assert body[1:] == [f'"{doc_id}","0","{query_id}","2","2","",""', ""]

    def test_memory_does_not_grow_with_lead_less_documents(self, tmp_path):
        """``match`` keeps what it matched, not what it read: four times the
        documents without a cue word raise its peak traced memory by less
        than ``bound``, while their corpus file grows by about 1.2 MB."""
        rng = random.Random(5)
        neutral = "the a of samples measured data from each station were averaged".split()

        def document(i, cue):
            words = rng.choices(neutral, k=18)
            sentences = [{"text": " ".join(words[:6] + (["remains", "controversial"] if cue
                                                        and s == 0 else []) + words[6:])
                          + f' <ref id="r{s}"/>.',
                          "refs": [{"ref_id": f"r{s}", "cited_doc_id": f"x{s}",
                                    "cited_authors": [{"family": "Other", "given": "c"}]}]}
                         for s in range(20)]
            return json.dumps({"doc_id": f"d{i:05d}", "year": 2010, "authors": [
                {"family": f"fam{i}", "given": "a"}], "sentences": sentences}) + "\n"

        cued = [document(i, i % 10 == 0) for i in range(60)]
        lead_less = [document(i, False) for i in range(60, 300)]
        peaks = []
        for lines in (cued, cued + lead_less):
            corpus = tmp_path / f"corpus{len(lines)}.jsonl"
            corpus.write_text("".join(lines), encoding="utf-8")
            out = tmp_path / f"out{len(lines)}"
            with mock.patch("sys.stdout", io.StringIO()):
                tracemalloc.start()
                try:
                    assert main(["match", "--corpus", str(corpus), "--out", str(out)]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert len(read_csv(out / "matches.csv")) > 0
        bound = 64 * 1024
        assert peaks[1] - peaks[0] < bound, peaks


class TestSampleAnnotateGate:
    def test_sample_default_size_is_50(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w") as handle:
            for i in range(70):
                record = {
                    "doc_id": f"d{i:03d}", "year": 2010,
                    "doc_type": "full-article",
                    "sentences": [{
                        "text": f"The mechanism remains controversial <ref id=\"x{i}\"/>.",
                        "refs": [{"ref_id": f"x{i}"}],
                    }],
                }
                handle.write(json.dumps(record) + "\n")
        out = tmp_path / "out"
        assert main(["sample", "--corpus", str(corpus), "--out", str(out)]) == 0
        rows = read_csv(out / "sample.csv")
        by_query = {}
        for row in rows:
            by_query.setdefault(row["query_id"], []).append(row)
        assert len(by_query["controvers.standalone"]) == 50
        assert all(row["label"] == "" for row in rows)

    def test_annotate_then_gate(self, golden_args, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        main(["sample", *golden_args, "--out", str(out), "--n", "3"])
        sample_path = out / "sample.csv"
        n_rows = len(read_csv(sample_path))

        def annotate(coder, keys):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(keys) + "\n"))
            path = out / f"{coder}.csv"
            assert main(["annotate", "--sample", str(sample_path),
                         "--coder", coder, "--out", str(path)]) == 0
            return path

        path_a = annotate("alice", ["v"] * n_rows)
        keys_b = ["v" if i % 2 == 0 else "i" for i in range(n_rows)]
        path_b = annotate("bob", keys_b)

        gate_out = tmp_path / "gate"
        assert main(["gate", "--annotations", str(path_a), str(path_b),
                     "--out", str(gate_out)]) == 0
        stats = {r["query_id"]: r for r in read_csv(gate_out / "stats.csv")}
        # alice says valid everywhere; bob alternates: agreement is the
        # fraction of bob's valid labels, per query.
        sample_rows = read_csv(sample_path)
        bob_valid = {}
        totals = {}
        for i, row in enumerate(sample_rows):
            totals[row["query_id"]] = totals.get(row["query_id"], 0) + 1
            if i % 2 == 0:
                bob_valid[row["query_id"]] = bob_valid.get(row["query_id"], 0) + 1
        for query_id, row in stats.items():
            expected = bob_valid.get(query_id, 0) / totals[query_id]
            assert float(row["pct_agree"]) == pytest.approx(expected)
            assert float(row["pct_valid"]) == pytest.approx(expected)
        validated = (gate_out / "validated.txt").read_text()
        assert "threshold 0.8" in validated

    def test_gated_set_goes_back_into_report_through_stats(
        self, golden_args, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        assert main(["sample", *golden_args, "--out", str(out), "--n", "3"]) == 0
        sample_path = out / "sample.csv"
        n_rows = len(read_csv(sample_path))
        paths = []
        for coder, keys in (("alice", ["v"] * n_rows),
                            ("bob", ["v" if i % 2 == 0 else "i" for i in range(n_rows)])):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(keys) + "\n"))
            paths.append(out / f"{coder}.csv")
            assert main(["annotate", "--sample", str(sample_path),
                         "--coder", coder, "--out", str(paths[-1])]) == 0
        gate_out = tmp_path / "gate"
        assert main(["gate", "--annotations", *map(str, paths), "--threshold", "0.6",
                     "--out", str(gate_out)]) == 0

        flagged_by = []

        def flag_citances(records, validated):
            flagged_by.append(validated)
            return real_flag_citances(records, validated)

        real_flag_citances = cli.flag_citances
        monkeypatch.setattr(cli, "flag_citances", flag_citances)
        assert main(["report", *golden_args, "--out", str(tmp_path / "report"),
                     "--which", "rates", "--stats", str(gate_out / "stats.csv"),
                     "--threshold", "0.6"]) == 0
        (used,) = flagged_by
        assert (gate_out / "validated.txt").read_text().endswith(
            "\n" + serialize_validated_set(used))
        sampled = {row["query_id"] for row in read_csv(sample_path)}
        assert used.query_ids and used.query_ids < sampled

    def test_gate_requires_two_files(self, tmp_path, capsys):
        assert main(["gate", "--annotations", "only_one.csv",
                     "--out", str(tmp_path)]) == 1

    def test_gate_rejects_same_coder(self, golden_args, tmp_path, monkeypatch):
        out = tmp_path / "out"
        main(["sample", *golden_args, "--out", str(out), "--n", "1"])
        sample_path = out / "sample.csv"
        n_rows = len(read_csv(sample_path))
        monkeypatch.setattr("sys.stdin", io.StringIO("v\n" * n_rows))
        main(["annotate", "--sample", str(sample_path), "--coder", "alice",
              "--out", str(out / "a.csv")])
        assert main(["gate", "--annotations", str(out / "a.csv"),
                     str(out / "a.csv"), "--out", str(tmp_path / "g")]) == 2

    def test_gate_reads_the_coder_of_a_file_with_no_labeled_row(self, tmp_path, capsys):
        # Both files say "# coder alice"; the second one's only row is skipped.
        head = "# coder alice\ndoc_id,sentence_index,query_id,text,label\n"
        labeled, skipped = tmp_path / "labeled.csv", tmp_path / "skipped.csv"
        labeled.write_text(head + "g04,4,controvers.standalone,some text,valid\n")
        skipped.write_text(head + "g04,4,controvers.standalone,some text,\n")
        assert main(["gate", "--annotations", str(labeled), str(skipped),
                     "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == \
            "error: gate requires annotations from two distinct coders\n"
        assert not (tmp_path / "g").exists()

    def test_gate_refuses_files_with_no_labeled_row(self, tmp_path, capsys):
        paths = []
        for coder in ("alice", "bob"):
            paths.append(tmp_path / f"{coder}.csv")
            paths[-1].write_text(f"# coder {coder}\ndoc_id,sentence_index,query_id,text,label\n"
                                 "g04,4,controvers.standalone,some text,\n")
        assert main(["gate", "--annotations", *map(str, paths),
                     "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == (
            f"error: annotation files {paths[0]} and {paths[1]}: "
            "no annotations for the given coders\n")
        assert not (tmp_path / "g").exists()

    def test_a_negative_zero_threshold_is_zero(self, tmp_path, capsys):
        paths = []
        for coder in ("alice", "bob"):
            paths.append(tmp_path / f"{coder}.csv")
            paths[-1].write_text(f"# coder {coder}\ndoc_id,sentence_index,query_id,text,label\n"
                                 "g04,4,controvers.standalone,some text,valid\n")
        written = {}
        # A negative decimal after "--threshold" is its value, not an option.
        for option in (["--threshold=0"], ["--threshold=-0"], ["--threshold=-0.0"],
                       ["--threshold=-0e1"], ["--threshold", "-0e1"]):
            out = tmp_path / f"g{len(written)}"
            assert main(["gate", "--annotations", *map(str, paths), *option,
                         "--out", str(out)]) == 0
            written[" ".join(option)] = (capsys.readouterr().out.replace(str(out), "OUT"),
                                         {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "threshold 0.0\n" in written["--threshold=0"][1]["validated.txt"].decode()
        for option, files in written.items():
            assert files == written["--threshold=0"], option

    def test_annotate_skip_leaves_blank(self, golden_args, tmp_path, monkeypatch):
        out = tmp_path / "out"
        main(["sample", *golden_args, "--out", str(out), "--n", "1"])
        sample_path = out / "sample.csv"
        n_rows = len(read_csv(sample_path))
        keys = ["s"] + ["v"] * (n_rows - 1)
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(keys) + "\n"))
        main(["annotate", "--sample", str(sample_path), "--coder", "c1",
              "--out", str(out / "c1.csv")])
        rows = read_csv(out / "c1.csv")
        assert rows[0]["label"] == ""
        assert all(r["label"] == "valid" for r in rows[1:])

    @pytest.mark.parametrize("coder", ["ann\nbob", "ann\r", "ann\rbob", " ann", "ann\t", "",
                                       "ab\udcff"])
    def test_annotate_rejects_a_coder_gate_cannot_read_back(self, tmp_path, capsys, coder):
        # Rejected before the sample is read: a missing sample would exit 2.
        # "ab\udcff" is how Python hands over the non-UTF-8 argument b"ab\xff".
        out = tmp_path / "a.csv"
        assert main(["annotate", "--sample", str(tmp_path / "missing.csv"),
                     "--coder", coder, "--out", str(out)]) == 1
        assert "--coder" in capsys.readouterr().err
        assert not out.exists()

    def test_annotate_refuses_the_coder_double_dash(self, tmp_path, capsys):
        # Python 3.11's argparse reads "--coder=--" as [], later ones as "--".
        out = tmp_path / "a.csv"
        assert main(["annotate", "--sample", str(tmp_path / "missing.csv"),
                     "--coder=--", "--out", str(out)]) == 1
        assert "--coder '--'" in capsys.readouterr().err
        args = cli.build_parser().parse_args(
            ["annotate", "--sample", "s.csv", "--coder", "c", "--out", str(out)])
        args.coder = "--"
        with pytest.raises(cli.UsageError, match="--coder '--'"):
            cli.cmd_annotate(args)
        assert not out.exists()

    def test_annotation_file_keeps_sampling_provenance(self, golden_args, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "out"
        main(["sample", *golden_args, "--out", str(out), "--n", "1", "--seed", "21"])
        sample_path = out / "sample.csv"
        n_rows = len(read_csv(sample_path))
        monkeypatch.setattr("sys.stdin", io.StringIO("v\n" * n_rows))
        main(["annotate", "--sample", str(sample_path), "--coder", "c1",
              "--out", str(out / "c1.csv")])
        header = header_lines(out / "c1.csv")
        assert "# seed 21" in header
        assert "# coder c1" in header


class TestReport:
    def test_rates_only(self, golden_args, tmp_path):
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out),
                     "--which", "rates"]) == 0
        rows = read_csv(out / "rates.csv")
        fields = {r["group"] for r in rows if r["grouping"] == "main_field"}
        assert fields == {"BioHealth", "LifeEarth", "MathComp", "PhysEngr", "SocHum"}
        assert not (out / "selfcite.csv").exists()

    def test_unknown_report_name(self, golden_args, tmp_path, capsys):
        code = main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "rates,nonsense"])
        assert code == 1
        err = capsys.readouterr().err
        assert "nonsense" in err and "rates" in err

    def test_unshipped_threshold_is_not_blamed_on_the_resolution_file(
        self, golden_args, tmp_path, capsys
    ):
        resolution = tmp_path / "resolution.txt"
        resolution.write_text("contrary.studies\n")
        assert main(["report", *golden_args, "--out", str(tmp_path / "o"), "--which", "rates",
                     "--threshold", "0.5", "--resolution", str(resolution)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no shipped validated set for threshold 0.5")

    def test_empty_corpus_stops_at_the_meso_report(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        code = main(["report", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     "--which", "rates,slopes,selfcite,age,position,meso,top"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: meso report undefined: no meso-field citances\n"
        assert not (tmp_path / "o").exists()

    def test_undefined_gap_after_earlier_reports_writes_nothing(
        self, golden_args, tmp_path, capsys
    ):
        citations = write_golden_citations(tmp_path / "citations.csv")
        code = main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "rates,gap", "--citations", str(citations),
                     "--doc-type", "other"])  # no golden paper is of type "other"
        assert code == 2
        assert capsys.readouterr().err == "error: citation gap undefined: no flagged papers\n"
        assert not (tmp_path / "o").exists()

    def test_repeated_report_name_is_reported_once(self, golden_args, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out),
                     "--which", "slopes,slopes"]) == 0
        assert capsys.readouterr().out == f"wrote 1 report(s) to {out}\n"
        rows = [tuple(r.values()) for r in read_csv(out / "long.csv")]
        assert rows and len(rows) == len(set(rows))

    def test_bare_report_writes_every_report_the_inputs_can_feed(self, golden_args, tmp_path):
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{name}.csv" for name, (_, needs_table) in REPORTS.items() if not needs_table]
            + ["long.csv"])

    def test_with_citations_the_default_is_every_report(self, golden_args, tmp_path):
        citations = write_golden_citations(tmp_path / "citations.csv")
        outs = [tmp_path / "default", tmp_path / "every"]
        for out, which in zip(outs, ([], ["--which", ",".join(REPORTS)])):
            assert main(["report", *golden_args, "--out", str(out), *which,
                         "--citations", str(citations)]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted([f"{name}.csv" for name in REPORTS] + ["long.csv"])
        for name in files:  # the # config line included
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_impact_requires_citations(self, golden_args, tmp_path):
        assert main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "impact"]) == 2
        assert not (tmp_path / "o").exists()

    def test_full_report_with_citations(self, golden_args, tmp_path):
        citations = write_golden_citations(tmp_path / "citations.csv")
        out = tmp_path / "out"
        code = main(["report", *golden_args, "--out", str(out),
                     "--which", ",".join(REPORTS), "--citations", str(citations)])
        assert code == 0
        for name in ("rates", "selfcite", "age", "position", "meso", "top",
                     "impact", "gap", "long"):
            assert (out / f"{name}.csv").exists(), name

    def test_impact_skips_rows_with_zero_expected_mean(self, golden_args, tmp_path):
        # Every paper is cited once a year up to 2011 and never after, so
        # the k=3 cohorts expect zero citations and their ratio is undefined.
        citations = tmp_path / "citations.csv"
        with open(citations, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("doc_id", "pub_year", "year", "citations"))
            papers = [("x-zhao-2001", 2001), ("x-kusky-2003", 2003),
                      ("x-munro-2003", 2003)]
            papers += [(f"g0{i}", 2008) for i in range(1, 10)]
            for paper, pub in papers:
                for year in range(pub, 2018):
                    writer.writerow((paper, pub, year, int(year <= 2011)))
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out),
                     "--which", "impact", "--citations", str(citations)]) == 0
        rows = read_csv(out / "impact.csv")
        assert [(r["field"], r["k"]) for r in rows] == [("All", "1"), ("All", "2")]

    def test_validated_only_matching_flags_as_the_full_catalog(
        self, golden_args, tmp_path, monkeypatch
    ):
        # Every other catalog query is validated; report then matches only those.
        catalog = builtin_catalog()
        stats = tmp_path / "stats.csv"
        stats.write_text("query_id,n,pct_agree,pct_valid,kappa\n" + "".join(
            f"{q.query_id},50,1.0,{0.9 if i % 2 else 0.5},1.0\n" for i, q in enumerate(catalog)))
        argv = ["report", *golden_args, "--stats", str(stats),
                "--which", "rates,selfcite,age,position,meso,top"]
        assert main([*argv, "--out", str(tmp_path / "validated")]) == 0
        seen = {}

        def run_full_catalog(citances, queries):
            seen["asked"] = {q.query_id for q in queries}
            records = run_all(citances, catalog)
            seen["matched"] = {r.query_id for r in records}
            return records

        monkeypatch.setattr(cli, "run_all", run_full_catalog)
        assert main([*argv, "--out", str(tmp_path / "full")]) == 0
        validated = {q.query_id for q in catalog[1::2]}
        assert seen["asked"] == validated
        assert seen["matched"] & validated and seen["matched"] - validated  # both kinds matched
        rates = read_csv(tmp_path / "full" / "rates.csv")
        assert sum(int(r["disagreement_count"]) for r in rates) > 0
        for path in sorted((tmp_path / "full").iterdir()):
            assert path.read_bytes() == (tmp_path / "validated" / path.name).read_bytes()

    def test_stats_file_gating(self, golden_args, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_text(
            "query_id,n,pct_agree,pct_valid,kappa\n"
            "controvers.standalone,50,1.0,0.9,1.0\n"
            "challenge.standalone,50,1.0,0.2,0.1\n"
        )
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out),
                     "--which", "rates", "--stats", str(stats)]) == 0
        rows = read_csv(out / "rates.csv")
        total = sum(
            int(r["disagreement_count"]) for r in rows
            if r["grouping"] == "main_field"
        )
        # Only controvers.standalone is validated: citances g04s2, g04s4,
        # g04s5, g05s4.
        assert total == 4

    def test_stats_and_resolution_exclude_each_other(self, golden_args, tmp_path, capsys):
        # Rejected before any file is read: the resolution file does not exist.
        out = tmp_path / "out"
        assert main(["report", *golden_args, "--out", str(out), "--which", "rates",
                     "--stats", str(tmp_path / "stats.csv"),
                     "--resolution", str(tmp_path / "resolution.txt")]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


SAMPLE_HEAD = "# seed 0\ndoc_id,sentence_index,query_id,text,label\n"
ANNOTATION_HEAD = "# seed 0\n# coder ann\ndoc_id,sentence_index,query_id,text,label\n"
STATS_HEAD = "query_id,n,pct_agree,pct_valid,kappa\n"
CITATIONS_HEAD = "# exported\ndoc_id,pub_year,year,citations\n"
# The test files are written as Latin-1, so a character past it is given as its UTF-8 bytes.
ARABIC_4 = "\u0664".encode("utf-8").decode("latin-1")
ARABIC_DECIMAL = "\u0660.\u0668".encode("utf-8").decode("latin-1")

# kind -> (problem -> (file content, or None for no file; the line the
# message must name)). A malformed corpus record is a load error, not a
# data error, so the corpus has no bad-row case; that covers a record whose
# strings hold an unpaired surrogate (see test_unpaired_surrogates_are_load_errors).
HOSTILE = {
    "corpus": {
        "non_utf8": ('{"doc_id": "a", "year": 2001, "sentences": []}\n{"doc_id": "caf\xe9"}\n', 2),
    },
    "query": {
        "non_utf8": ("query a.standalone\nsignal caf\xe9\nfilter none\n", 2),
        "bad_row": ("query a.standalone\nsignal cafe\nfilter sometimes\n", 3),
        "no_query_line": ("# queries\n\nsignal foo\nfilter none\n", 3),
        "no_id": ("query a\nsignal foo\n\nquery \nsignal bar\n", 4),
        "empty_signal": ("query a\nsignal foo||bar\n", 2),
        "exclude_no_colon": ("query a\nsignal foo\nexclude citance_phrase\n", 3),
        "bad_window": ("query a\nsignal foo\nexclude cooccurrence_window:x,y window=ten\n", 3),
        "bad_maxgap": ("query a\nsignal foo\nmaxgap four\n", 3),
        "no_exclusion_pattern": ("query a\nsignal foo\nexclude citance_phrase: , \n", 3),
        "long_carveout": ("query a\nsignal foo\nexclude token_carveout:foo bar\n", 3),
        "one_group": ("query a\nsignal foo\nexclude cooccurrence_window:x window=3\n", 3),
        "window_not_allowed": ("query a\nsignal foo\nexclude citance_phrase:x window=3\n", 3),
        "negative_maxgap": ("query a\nsignal foo\n\nquery b\nsignal bar\nmaxgap -1\n", 4),
        "repeated_signal": ("query a\nsignal foo\nsignal bar\n", 3),
        "repeated_filter": ("query a\nsignal foo\nfilter none\nfilter studies\n", 4),
        "repeated_maxgap": ("query a\nsignal foo\nmaxgap 2\nfilter none\nmaxgap 3\n", 5),
        "huge_maxgap": ("query a\nsignal foo\nmaxgap " + "9" * 5000 + "\n", 3),
        "no_query": ("# comments only\n\n  # and blanks\n", None),
    },
    "resolution": {
        "non_utf8": ("contrary.studies\n# caf\xe9\n", 2),
        "bad_row": ("# ids\ncontrary.studies\nnonsense.standalone\n", 3),
    },
    "stats": {
        "non_utf8": (STATS_HEAD + "caf\xe9.standalone,50,1.0,0.9,1.0\n", 2),
        "bad_row": (STATS_HEAD + "controvers.standalone,50,1.0,0.9,1.0\n"
                    "challenge.standalone,50,1.0,high,0.1\n", 3),
        "csv_error": (STATS_HEAD + "controvers.standalone,50,1.0,0.9\r1.0\n", 2),
        "repeated_row": (STATS_HEAD + "controvers.standalone,50,1.0,0.9,1.0\n"
                         "controvers.standalone,50,1.0,0.1,1.0\n", 3),
        "out_of_range": (STATS_HEAD + "controvers.standalone,50,1.0,0.9,1.0\n"
                         "challenge.standalone,50,1.0,7,0.1\n", 3),
        "nan": (STATS_HEAD + "controvers.standalone,50,1.0,nan,1.0\n", 2),
        "unknown_id": (STATS_HEAD + "controvers.standalone,50,1.0,0.9,1.0\n"
                       "nonsense.query,50,1.0,0.9,1.0\n", 3),
        "short_row": (STATS_HEAD + "controvers.standalone,50,1.0\n", 2),
        "header_only": ("q,p\n", 1),
        "decimal_underscore": (STATS_HEAD + "controvers.standalone,50,1.0,0.8_0,1.0\n", 2),
        "decimal_spaces": (STATS_HEAD + 'controvers.standalone,50,1.0," 0.8 ",1.0\n', 2),
        "decimal_arabic": (STATS_HEAD + f"controvers.standalone,50,1.0,{ARABIC_DECIMAL},1.0\n",
                           2),
    },
    "sample": {
        "non_utf8": (SAMPLE_HEAD + "g04,4,controvers.standalone,caf\xe9,\n", 3),
        "bad_row": (SAMPLE_HEAD + 'g04,4,controvers.standalone,"two\nlines",\n'
                    "g05,4,controvers.standalone\n", 5),
        "bad_index": (SAMPLE_HEAD + "g04,four,controvers.standalone,t,\n", 3),
    },
    "annotation": {
        "non_utf8": (ANNOTATION_HEAD + "g04,4,controvers.standalone,caf\xe9,valid\n", 4),
        "bad_row": (ANNOTATION_HEAD + "g04,four,controvers.standalone,some text,valid\n", 4),
        "short_row": (ANNOTATION_HEAD + "g04,4,controvers.standalone\n", 4),
        "conflicting_labels": (ANNOTATION_HEAD + "g04,4,controvers.standalone,t,valid\n"
                               "g04,4,controvers.standalone,t,invalid\n", None),
        "missing_label": (ANNOTATION_HEAD + "g04,4,controvers.standalone,t,valid\n"
                          "g05,4,controvers.standalone,t,valid\n", None),
        "index_underscore": (ANNOTATION_HEAD + "g04,0_4,controvers.standalone,t,valid\n", 4),
        "index_plus": (ANNOTATION_HEAD + "g04,4,controvers.standalone,t,valid\n"
                       "g05,+4,controvers.standalone,t,valid\n", 5),
        "index_arabic": (ANNOTATION_HEAD + f"g04,{ARABIC_4},controvers.standalone,t,valid\n", 4),
        "index_spaces": (ANNOTATION_HEAD + 'g04," 4 ",controvers.standalone,t,valid\n', 4),
        "index_before_non_utf8": (ANNOTATION_HEAD + "g04,four,controvers.standalone,t,valid\n"
                                  "g05,4,controvers.standalone,caf\xe9,valid\n", 4),
    },
    "citations": {
        "non_utf8": (CITATIONS_HEAD + "g01,2008,2009,3\ncaf\xe9,2008,2009,3\n", 4),
        "bad_row": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2009,three\n", 4),
        "csv_error": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008\r,2009,3\n", 4),
        "repeated_row": (CITATIONS_HEAD + "p1,2000,2001,3\np1,2000,2001,7\n", 4),
        "conflicting_pub_year": (CITATIONS_HEAD + "p1,2000,2001,3\np1,1999,2002,7\n", 4),
        "missing_column": ("doc_id,pub_year,year\ng01,2008,2009\n", 1),
        "header_only": ("doc,pub,yr,cites\n", 1),
        "short_row": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2009\n", 4),
        "short_row_reordered": ("# exported\npub_year,year,citations,doc_id\n2008,2009,3\n", 3),
        "negative_count": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2009,-5\n", 4),
        "underscore": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2009,1_0\n", 4),
        "plus_sign": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,+4,3\n", 4),
        "arabic_digit": (CITATIONS_HEAD + f"g01,{ARABIC_4},2009,3\n", 3),
        "spaces": (CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2009, 4 \n", 4),
    },
}
# The whole message, after its location, of each (kind, problem) that pins one.
MESSAGES = {
    ("query", "no_query_line"): "block missing 'query' line",
    ("query", "no_id"): "query line missing id",
    ("query", "empty_signal"): "empty signal pattern",
    ("query", "exclude_no_colon"): "exclude line needs '<kind>:<patterns>'",
    ("query", "bad_window"): "bad window value 'ten'",
    ("query", "bad_maxgap"): "bad maxgap value 'four'",
    ("query", "no_exclusion_pattern"): "exclusion rule has no patterns",
    ("query", "long_carveout"): "token_carveout patterns must be single-token",
    ("query", "one_group"): "cooccurrence_window requires exactly 2 pattern groups",
    ("query", "window_not_allowed"): "window not allowed for citance_phrase",
    ("query", "negative_maxgap"): "max_gap must be >= 0",
    ("query", "repeated_signal"): "repeated 'signal' line",
    ("query", "repeated_filter"): "repeated 'filter' line",
    ("query", "repeated_maxgap"): "repeated 'maxgap' line",
    ("query", "huge_maxgap"): f"bad maxgap value {'9' * 5000!r}",
    ("query", "no_query"): "no query",
    ("annotation", "conflicting_labels"):
        "conflicting labels for ('g04', 4, 'controvers.standalone') by ann",
    ("annotation", "missing_label"):
        "units missing a label from one coder: [('g05', 4, 'controvers.standalone')]",
    ("citations", "conflicting_pub_year"): "conflicting pub_year for 'p1'",
    ("stats", "short_row"): "bad row (no 'pct_valid')",
    ("stats", "header_only"): "bad header (no 'query_id')",
    ("stats", "decimal_underscore"): "pct_valid '0.8_0' is not in [0, 1]",
    ("stats", "decimal_spaces"): "pct_valid ' 0.8 ' is not in [0, 1]",
    ("stats", "decimal_arabic"): "pct_valid '\u0660.\u0668' is not in [0, 1]",
    ("sample", "bad_row"): "bad row (no 'text')",
    ("annotation", "short_row"): "bad row (no 'text')",
    ("citations", "missing_column"): "bad header (no 'citations')",
    ("citations", "header_only"): "bad header (no 'doc_id')",
    ("citations", "short_row"): "bad row (no 'citations')",
    ("citations", "short_row_reordered"): "bad row (no 'doc_id')",
    ("citations", "underscore"): "bad row ('1_0' is not an integer)",
    ("citations", "plus_sign"): "bad row ('+4' is not an integer)",
    ("citations", "arabic_digit"): "bad row ('\u0664' is not an integer)",
    ("citations", "spaces"): "bad row (' 4 ' is not an integer)",
    ("annotation", "index_underscore"): "bad row ('0_4' is not an integer)",
    ("annotation", "index_plus"): "bad row ('+4' is not an integer)",
    ("annotation", "index_arabic"): "bad row ('\u0664' is not an integer)",
    ("annotation", "index_spaces"): "bad row (' 4 ' is not an integer)",
    ("annotation", "index_before_non_utf8"): "bad row ('four' is not an integer)",
    ("sample", "bad_index"): "bad row ('four' is not an integer)",
}
HOSTILE_CASES = [
    pytest.param(kind, problem, content, line, id=f"{kind}-{problem}")
    for kind, problems in HOSTILE.items()
    for problem, (content, line) in {"missing": (None, None), **problems}.items()
]
# Errors between the two files gate reads, which the message names both.
BETWEEN_FILES = {("annotation", "conflicting_labels"), ("annotation", "missing_label")}


def reader_argv(kind, path, tmp_dir, corpus=GOLDEN_CORPUS):
    """A command line that hands ``path`` to the reader of ``kind``."""
    out = str(Path(tmp_dir) / "out")
    other = Path(tmp_dir) / "bob.csv"  # the second coder for gate
    other.write_text("# coder bob\ndoc_id,sentence_index,query_id,text,label\n"
                     "g04,4,controvers.standalone,some text,valid\n", encoding="utf-8")
    with_corpus = ["--corpus", str(corpus), "--out", out]
    return {
        "corpus": ["match", "--corpus", str(path), "--out", out],
        "query": ["match", *with_corpus, "--queries", str(path)],
        "resolution": ["report", *with_corpus, "--which", "rates", "--resolution", str(path)],
        "stats": ["report", *with_corpus, "--which", "rates", "--stats", str(path)],
        "sample": ["annotate", "--sample", str(path), "--coder", "c", "--out", out + ".csv"],
        "annotation": ["gate", "--annotations", str(path), str(other), "--out", out],
        "citations": ["report", *with_corpus, "--which", "impact", "--citations", str(path)],
    }[kind]


def run_quietly(argv, stdin=""):
    """main() with stdin fed from ``stdin``; returns (exit code, stderr)."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), mock.patch("sys.stderr", err), \
            mock.patch("sys.stdout", io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


class TestHostileInput:
    """Every input file that is missing, not UTF-8 or malformed exits 2
    with a message naming the file and, where one applies, the line, and
    leaves no output (``--out`` included)."""

    @pytest.mark.parametrize("kind, problem, content, line", HOSTILE_CASES)
    def test_located_exit_2(self, tmp_path, capsys, kind, problem, content, line):
        path = tmp_path / f"{kind}.input"
        if content is not None:
            path.write_bytes(content.encode("latin-1"))
        assert main(reader_argv(kind, path, tmp_path)) == 2
        assert not list(tmp_path.glob("out*"))
        err = capsys.readouterr().err
        if content is None:
            where = f"cannot read {kind} file {path}"
        elif (kind, problem) in BETWEEN_FILES:
            where = f"annotation files {path} and {tmp_path / 'bob.csv'}"
        else:
            where = f"{kind} file {path}" + ("" if line is None else f": line {line}")
        assert f"error: {where}: " in err
        if problem == "non_utf8":
            assert "not valid UTF-8" in err
        if problem == "repeated_row":
            assert {"stats": "repeated row for 'controvers.standalone'",
                    "citations": "repeated row for ('p1', 2001)"}[kind] in err
        if (kind, problem) in MESSAGES:
            assert err == f"error: {where}: {MESSAGES[kind, problem]}\n"
        if problem in ("out_of_range", "nan"):
            assert "is not in [0, 1]" in err
        if problem == "unknown_id":
            assert "unknown query id 'nonsense.query'" in err


RAWTEXT_WITH_LOAD_ERRORS = "\n".join([
    json.dumps({"doc_id": "d1", "year": 2010, "doc_type": "other",
                "authors": [{"family": "Zhao", "given": "G"}],
                "body": "This works <ref id=r1/>. It fails <ref id=r2/> <ref id='r3'/>.",
                "refs": [{"ref_id": "r1", "cited_year": 2001}]}),
    "not json",
    json.dumps({"doc_id": "d1", "year": 2011, "body": "Again <ref id=r1/>."}),
    json.dumps({"doc_id": "d2", "year": "2011", "body": "Bad year."}),
]) + "\n"
LABELED = ("# coder {}\ndoc_id,sentence_index,query_id,text,label\n"
           "g04,4,controvers.standalone,t,valid\ng05,4,controvers.standalone,t,{}\n")


def premise_case(name, tmp_dir):
    """Command line, stdin, exit code and a fragment of its output of the
    ``name`` case of test_no_command_makes_cyclic_garbage."""
    def write(file_name, text):  # as Latin-1, like the HOSTILE contents
        (tmp_dir / file_name).write_bytes(text.encode("latin-1"))
        return str(tmp_dir / file_name)

    out = str(tmp_dir / "out")
    golden = ["--corpus", str(GOLDEN_CORPUS), "--out", out]
    if name.endswith(("-deep", "-surrogate")):
        corpus = write("corpus.jsonl", "[" * 100000 + "\n" if name.endswith("-deep")
                       else '{"doc_id": "\\ud800", "year": 2001, "sentences": []}\n')
        argv = [name.rsplit("-", 1)[0], "--corpus", corpus]
        if argv[0] == "report":
            argv += ["--out", out, "--which", "rates"]
        return argv, "", 0, "error=bad_json"
    if name == "report-bad-citations":
        path = write("citations.csv", HOSTILE["citations"]["bad_row"][0])
        return reader_argv("citations", path, tmp_dir), "", 2, ""
    if name == "gate-index-before-non-utf8":
        path = write("labeled.csv", HOSTILE["annotation"]["index_before_non_utf8"][0])
        return reader_argv("annotation", path, tmp_dir), "", 2, ""
    if name == "match-output-is-a-directory":
        (tmp_dir / "out" / "matches.csv").mkdir(parents=True)
        return ["match", *golden], "", 2, ""
    return {
        "ingest-check": (["ingest-check", "--corpus", str(GOLDEN_CORPUS)], "", 0,
                         "documents=9 citances=51 errors=0"),
        "match": (["match", *golden], "", 0, "records: "),
        "sample": (["sample", *golden, "--n", "2"], "", 0, "sampled "),
        "report-presegmented": (
            ["report", *golden, "--citations",
             str(write_golden_citations(tmp_dir / "citations.csv"))], "", 0, "wrote 9 report(s)"),
        "report-rawtext": (["report", "--corpus", write("raw.jsonl", RAWTEXT_WITH_LOAD_ERRORS),
                            "--mode", "rawtext", "--out", out, "--which", "rates"], "", 0,
                           "error=dup_doc_id"),
        "annotate": (["annotate", "--sample", write("sample.csv", LABELED.format("x", "")),
                      "--coder", "ann", "--out", out + ".csv"], "v\ni\n", 0, "labeled 1"),
        "gate": (["gate", "--annotations", write("a.csv", LABELED.format("ann", "valid")),
                  write("b.csv", LABELED.format("bob", "invalid")), "--out", out], "", 0,
                 "gated 1 queries"),
    }[name]


class TestCollectorPolicy:
    """main() runs every command with the cyclic collector off: that is
    safe only while no command makes cyclic garbage, and in-process callers
    must find the collector as they left it."""

    @pytest.mark.parametrize("name", [
        "ingest-check", "match", "sample", "report-presegmented", "report-rawtext",
        "annotate", "gate", "ingest-check-deep", "report-deep", "ingest-check-surrogate",
        "report-surrogate", "report-bad-citations", "gate-index-before-non-utf8",
        "match-output-is-a-directory",
    ])
    def test_no_command_makes_cyclic_garbage(self, tmp_path, capsys, monkeypatch, name):
        argv, stdin, code, fragment = premise_case(name, tmp_path)
        args = cli.build_parser().parse_args(argv)  # argparse's parser is cyclic itself
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        collecting, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.disable()
        try:
            try:
                result = args.func(args)
            except cli.DataError:
                result = 2
            unreachable = gc.collect()
        finally:
            gc.set_debug(debug)
            if collecting:
                gc.enable()
        garbage, gc.garbage[:] = gc.garbage[:], []
        assert (result, unreachable, garbage) == (code, 0, [])
        assert fragment in "".join(capsys.readouterr())

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, code", [
        (["ingest-check", "--corpus", str(GOLDEN_CORPUS)], 0),
        (["report", "--corpus", str(GOLDEN_CORPUS), "--which", "rates"], 0),
        (["report", "--corpus", "absent.jsonl", "--which", "rates"], 2),
        (["ingest-check", "--corpus", str(GOLDEN_CORPUS), "--nonsense"], 1),
    ], ids=["ingest-check", "report", "missing-corpus", "unknown-option"])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capsys, monkeypatch,
                                                      argv, code, collecting):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "report":
            argv = [*argv, "--out", "out"]
        was, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if collecting else gc.disable)()
        try:
            result = main(argv)
            after = gc.isenabled(), gc.get_freeze_count()
        finally:
            (gc.enable if was else gc.disable)()
        assert (result, *after) == (code, collecting, frozen)


# A well-formed input of each kind whose first line is text a BOM would spoil.
WELL_FORMED = {
    "corpus": GOLDEN_CORPUS.read_text(encoding="utf-8"),
    "query": "query craton.standalone\nsignal controvers*|debat*\nfilter none\n",
    "stats": STATS_HEAD + "controvers.standalone,10,0.9,0.9,0.8\n",
    "annotation": ANNOTATION_HEAD + "g04,4,controvers.standalone,some text,valid\n",
    "citations": CITATIONS_HEAD + "g01,2008,2009,3\ng02,2008,2010,5\n",
}


class TestByteOrderMark:
    """A UTF-8 byte order mark opening an input file is read past, as
    spreadsheet programs write one, and lines keep their numbers."""

    @pytest.mark.parametrize("kind", WELL_FORMED)
    def test_a_bom_changes_no_output(self, tmp_path, kind):
        path = tmp_path / f"{kind}.input"
        runs = []
        for bom in ("", "\ufeff"):
            path.write_text(bom + WELL_FORMED[kind], encoding="utf-8")
            run = tmp_path / ("bom" if bom else "plain")
            run.mkdir()
            result = run_quietly(reader_argv(kind, path, run))
            runs.append((result, {
                p.name: [line for line in p.read_text(encoding="utf-8").splitlines()
                         if not line.startswith("# config ")]
                for p in (run / "out").iterdir()}))
        assert runs[0] == runs[1]
        assert runs[0][0][0] == 0

    def test_only_line_1_drops_a_bom(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        first = GOLDEN_CORPUS.read_text(encoding="utf-8").splitlines(True)[0]
        corpus.write_text("\ufeff" + GOLDEN_CORPUS.read_text(encoding="utf-8")
                          + "not json\n\ufeff" + first, encoding="utf-8")
        assert main(["ingest-check", "--corpus", str(corpus)]) == 0
        out, err = capsys.readouterr()
        assert "documents=9 citances=51 errors=2" in out
        assert err == "line=10 error=bad_json\nline=11 error=bad_json\n"

    def test_a_csv_row_keeps_its_line_number(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text("\ufeff" + STATS_HEAD + "nonsense.query,10,0.9,0.9,0.8\n",
                         encoding="utf-8")
        assert main(reader_argv("stats", stats, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: stats file {stats}: line 2: unknown query id 'nonsense.query'\n")


# The first file each output-writing command makes in its --out directory.
OUTPUTS = {"match": ("matches.csv", "matches.jsonl", "match_summary.csv"),
           "sample": ("sample.csv",), "gate": ("stats.csv", "validated.txt"),
           "report": ("rates.csv", "age.csv", "top.csv", "long.csv")}
FIRST_OUTPUT = {command: names[0] for command, names in OUTPUTS.items()}


def writer_argv(command, tmp_dir):
    """A command line for ``command`` that lacks only ``--out``."""
    if command != "gate":
        return [command, "--corpus", str(GOLDEN_CORPUS),
                *(["--which", "rates,age,top"] if command == "report" else [])]
    paths = []
    for coder in ("alice", "bob"):
        paths.append(Path(tmp_dir) / f"{coder}.csv")
        paths[-1].write_text(f"# coder {coder}\ndoc_id,sentence_index,query_id,text,label\n"
                             "g04,4,controvers.standalone,some text,valid\n")
    return ["gate", "--annotations", *map(str, paths)]


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 naming it, not in a traceback."""

    @pytest.mark.parametrize("output_is_a_directory", [False, True])
    @pytest.mark.parametrize("command", FIRST_OUTPUT)
    def test_out_cannot_be_written(self, tmp_path, command, output_is_a_directory):
        out = tmp_path / "out"
        if output_is_a_directory:
            blocked = out / FIRST_OUTPUT[command]
            blocked.mkdir(parents=True)
        else:
            blocked = out
            out.write_text("")
        code, err = run_quietly([*writer_argv(command, tmp_path), "--out", str(out)])
        assert code == 2
        assert err.startswith(f"error: cannot write output {blocked}: ")
        assert ("Is a directory" if output_is_a_directory else "File exists") in err

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_writes_exactly_its_outputs(self, tmp_path, command):
        out = tmp_path / "out"
        assert run_quietly([*writer_argv(command, tmp_path), "--out", str(out)])[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS[command])

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, names in OUTPUTS.items() for name in names])
    def test_an_unwritable_output_leaves_no_other(self, tmp_path, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, err = run_quietly([*writer_argv(command, tmp_path), "--out", str(out)])
        assert code == 2
        assert err.startswith(f"error: cannot write output {out / name}: ")
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, names in OUTPUTS.items() if command != "gate"
        for name in names])
    def test_a_taken_name_fails_before_the_corpus_is_read(
        self, tmp_path, monkeypatch, command, name
    ):
        def unread(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "read_citing", unread)
        monkeypatch.setattr(cli, "load_corpus", unread)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, err = run_quietly([*writer_argv(command, tmp_path), "--out", str(out)])
        assert code == 2
        assert err.startswith(f"error: cannot write output {out / name}: ")

    def test_the_check_leaves_a_fifo_unopened(self, tmp_path):
        # Opened, a FIFO waits for a reader; closed, it ends the reader's input.
        fifo = tmp_path / "matches.csv"
        os.mkfifo(fifo)
        check = threading.Thread(target=cli._check_output, args=(fifo,), daemon=True)
        check.start()
        check.join(timeout=5)
        blocked = check.is_alive()
        if blocked:  # a reader lets the check's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            check.join(timeout=5)
        assert not blocked

    def test_annotate_refuses_its_out_before_the_first_prompt(self, tmp_path):
        sample = tmp_path / "sample.csv"
        sample.write_text(SAMPLE_HEAD + "g04,4,controvers.standalone,some text,\n")
        code, err = run_quietly(["annotate", "--sample", str(sample), "--coder", "c",
                                 "--out", str(tmp_path)], stdin="v\n")
        assert code == 2
        assert err.startswith(f"error: cannot write output {tmp_path}: ")
        assert "Is a directory" in err and "label [v/i/s/q]" not in err
        # The check truncates nothing: a sample can be labeled in place.
        code, err = run_quietly(["annotate", "--sample", str(sample), "--coder", "c",
                                 "--out", str(sample)], stdin="v\n")
        assert code == 0, err
        assert "label [v/i/s/q]: " in err
        assert sample.read_text().endswith("g04,4,controvers.standalone,some text,valid\n")

    @pytest.mark.parametrize("parent_is_a_file", [False, True])
    def test_annotate_out_cannot_be_written(self, tmp_path, parent_is_a_file):
        sample = tmp_path / "sample.csv"
        sample.write_text(SAMPLE_HEAD + "g04,4,controvers.standalone,some text,\n")
        out = tmp_path / "labeled"
        if parent_is_a_file:
            out.write_text("")
            out = out / "c.csv"
        else:
            out.mkdir()
        code, err = run_quietly(["annotate", "--sample", str(sample), "--coder", "c",
                                 "--out", str(out)])
        assert code == 2
        assert f"error: cannot write output {out}: " in err
        assert ("File exists" if parent_is_a_file else "Is a directory") in err


TINY_CORPUS = json.dumps({
    "doc_id": "g04", "year": 2010, "main_field": "SocHum",
    "sentences": [{"text": "It remains controversial <ref id=r1/>.",
                   "refs": [{"ref_id": "r1", "cited_doc_id": "g01"}]}],
}) + "\n"
FUZZ_HEADS = {
    "corpus": "", "query": "query a.standalone\n", "resolution": "",
    "stats": STATS_HEAD, "sample": SAMPLE_HEAD, "annotation": ANNOTATION_HEAD,
    "citations": CITATIONS_HEAD,
}
fuzz_bytes = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet=st.sampled_from(list('ab1,."#\n\r\t\x00\xe9<>{}[]:\u2028')),
            max_size=120).map(lambda t: t.encode("utf-8")),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FUZZ_HEADS)), st.booleans(), fuzz_bytes)
def test_readers_exit_0_or_2_on_arbitrary_bytes(kind, with_head, payload):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "tiny.jsonl"
        corpus.write_text(TINY_CORPUS, encoding="utf-8")
        path = Path(tmp) / "input"
        path.write_bytes((FUZZ_HEADS[kind] if with_head else "").encode("utf-8") + payload)
        code, err = run_quietly(reader_argv(kind, path, tmp, corpus))
    assert code in (0, 2), err  # any other failure propagates out of main()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 3000) | st.floats(allow_nan=False)
    | st.text(alphabet="ab <ref id=r1/>.\"'\ud800", max_size=20),  # json.dumps escapes \ud800
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["doc_id", "year", "doc_type", "main_field", "meso_field",
                         "authors", "family", "given", "sentences", "body", "text",
                         "refs", "ref_id", "cited_year", "cited_authors", "cited_doc_id"]),
        inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(json_values, max_size=4), st.sampled_from(["presegmented", "rawtext"]))
def test_corpus_records_of_any_shape_load_or_are_load_errors(records, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code, err = run_quietly(["ingest-check", "--corpus", str(path), "--mode", mode])
        assert code == 0, err
        code, err = run_quietly([
            "report", "--corpus", str(path), "--mode", mode, "--out", str(Path(tmp) / "out"),
            "--which", "rates,slopes,selfcite,age,position,meso,top",
        ])
    assert code in (0, 2), err


def per_row_csv(header, rows) -> str:
    """What ``_write_csv`` writes, one row at a time: a row with a "\r" in
    a text cell is quoted in full, any other row only where csv must."""
    out = io.StringIO()
    minimal = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    minimal.writerow(header)
    for row in rows:
        carriage_return = any(isinstance(cell, str) and "\r" in cell for cell in row)
        (quoted if carriage_return else minimal).writerow(row)
    return out.getvalue()


csv_cells = st.none() | st.integers() | st.floats() | st.text(
    alphabet='ab 1,"\n\r\t\xe9\u2028\U0001f600', max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(csv_cells, max_size=5), max_size=8))
@example([["a", 1]] * 5000 + [["b\rc", None, 2.5]])  # a "\r" in the second run of rows
@example([[None, "x\r"]] + [["y", 0.1]] * 4100)  # a "\r" in the first run only
def test_write_csv_writes_what_a_per_row_writer_writes(rows):
    handle = io.StringIO()
    cli._write_csv(handle, ("h1", "h,2"), (tuple(row) for row in rows))
    # As lists of lines, so a failure names the first line that differs.
    assert handle.getvalue().split("\n") == per_row_csv(("h1", "h,2"), rows).split("\n")


LONG_TEXT = "x" * 131_072 + "\n# coder mallory\n#\n" + "y" * 10
sample_text = st.lists(
    st.sampled_from(list('ab #,"\n\r\t\x00\u2028\xe9') + ["\n#", "\n# coder x\n", "\r\n"]),
    max_size=20,
).map("".join)
sample_rows = st.lists(
    st.tuples(sample_text, st.integers(0, 10**6), sample_text, sample_text),
    min_size=1, max_size=6,
)
# "--" is refused as a coder (see test_annotate_refuses_the_coder_double_dash).
coder_names = st.text(alphabet="abcxyz-_.", min_size=1, max_size=8).filter(lambda c: c != "--")


@settings(max_examples=40, deadline=None)
@given(sample_rows, coder_names)
@example([("#g01", 3, "controvers.standalone", LONG_TEXT)], "mallory-2")
def test_sample_round_trips_through_annotate_and_gate_readers(rows, coder):
    columns = SAMPLE_COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        writer = OutputWriter(Path(tmp), {"corpus": "c"}, 9, ["sample.csv"])  # as `sample` writes
        writer.write_csv("sample.csv", columns, [(*row, "") for row in rows])
        sample, annotated = Path(tmp) / "sample.csv", Path(tmp) / "annotated.csv"
        sample.write_bytes(b"\xef\xbb\xbf" + sample.read_bytes())  # a BOM, as spreadsheets save
        header = writer.header.splitlines(keepends=True)
        with numbered_csv_columns(sample, columns) as (_, _, comments):
            assert comments == header

        sample_rows, sample_coder, provenance = _read_sample_csv(sample)
        assert sample_rows == [[d, i, q, t, ""] for d, i, q, t in rows]
        assert sample_coder is None
        assert provenance == header

        code, err = run_quietly(["annotate", "--sample", str(sample), f"--coder={coder}",
                                 "--out", str(annotated)], stdin="v\n" * len(rows))
        assert code == 0, err
        with numbered_csv_columns(annotated, columns) as (_, _, comments):
            assert comments == [*header, f"# coder {coder}\n"]
        annotated_rows, annotated_coder, provenance = _read_sample_csv(annotated)
        assert annotated_rows == [[d, i, q, t, "valid"] for d, i, q, t in rows]
        assert annotated_coder == coder
        assert provenance == header
        file_coder, records = _annotations_from_file(str(annotated))
        assert file_coder == coder
    assert [(r.doc_id, r.sentence_index, r.query_id, r.coder_id) for r in records] == [
        (d, i, q, coder) for d, i, q, _ in rows
    ]


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "0"],
    ["sample", "--n", "-2"],
    ["report", "--which", "top", "--top-n", "-1"],
    ["report", "--which", "top", "--top-n", "0"],
    ["report", "--which", "gap", "--horizon", "-3"],
    ["report", "--which", "gap", "--horizon", "0"],
    ["report", "--which", "gap", "--horizon", "ten"],
    ["report", "--which", "gap", "--horizon", "1_0"],
    ["report", "--which", "gap", "--horizon", "201"],
    ["report", "--which", "top", "--top-n", "+4"],
    ["report", "--which", "top", "--top-n", " 4 "],
    ["sample", "--n", "\u0664"],
], ids=lambda argv: f"{argv[-2]}={argv[-1]}")
def test_counts_below_one_are_usage_errors(argv, tmp_path, capsys):
    # The corpus does not exist: a count is refused before any file is read.
    command, *options = argv
    out = tmp_path / "out"
    assert main([command, "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
                 *options]) == 1
    assert "is not an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    (["--which", "gap", "--doc-type", "fullarticle"], "invalid choice: 'fullarticle'"),
    (["--which", ","], "--which names no report; valid names: rates,"),
    (["--which", ""], "--which names no report; valid names: rates,"),
])
def test_report_options_are_refused_before_any_file_is_read(options, message, tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    assert main(["report", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
                 *options]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", "1.5"],
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", "-0.1"],
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", "-1e-3"],
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", "nan"],
    ["gate", "--annotations", "a.csv", "b.csv", "--threshold", "1.5"],
    ["gate", "--annotations", "a.csv", "b.csv", "--threshold", "inf"],
    ["gate", "--annotations", "a.csv", "b.csv", "--threshold", "high"],
    ["gate", "--annotations", "a.csv", "b.csv", "--threshold", "0.8_0"],
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", " 0.8 "],
    ["report", "--corpus", "absent.jsonl", "--which", "rates", "--threshold", "\u0660.\u0668"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_thresholds_outside_zero_one_are_usage_errors(argv, tmp_path, capsys):
    # None of the named files exists: a threshold is refused before any read.
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"{argv[-1]!r} is not a number in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["1_0", "+4", " 4 ", "\u0664", "four"])
def test_a_seed_not_written_as_an_integer_is_a_usage_error(seed, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["match", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
                 "--seed", seed]) == 1
    assert f"argument --seed: invalid integer value: {seed!r}" in capsys.readouterr().err
    assert not out.exists()


class TestReportSpeed:
    def test_full_report_set_on_10k_citances_under_10s(self, tmp_path):
        import time

        from synth import planted_field_corpus

        records, _ = planted_field_corpus(
            {"SocHum": (5000, 0.61), "BioHealth": (5000, 0.41)}
        )
        for i, record in enumerate(records):
            record["meso_field"] = i % 40
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(records, corpus)
        citations = tmp_path / "citations.csv"
        with open(citations, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("doc_id", "pub_year", "year", "citations"))
            for record in records[:50]:
                for year in range(2001, 2010):
                    writer.writerow((record["doc_id"], record["year"], year, 2))
        started = time.perf_counter()
        code = main([
            "report", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
            "--citations", str(citations),
        ])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 10.0, f"report run took {elapsed:.1f}s"


class TestDeterminism:
    def test_headers_present(self, golden_args, tmp_path):
        out = tmp_path / "out"
        main(["match", *golden_args, "--out", str(out), "--seed", "7"])
        lines = header_lines(out / "matches.csv")
        assert lines[0].startswith("# citequery ")
        assert lines[1].startswith("# config ")
        assert lines[2] == "# seed 7"

    def test_byte_identical_runs(self, golden_args, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            for command in ("match", "report"):
                assert main([command, *golden_args, "--out", str(out),
                             "--seed", "3",
                             *(["--which", "rates,selfcite,meso"]
                               if command == "report" else [])]) == 0
            outputs.append({
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
            })
        assert outputs[0] == outputs[1]

    def test_gate_hashes_the_annotation_paths_resolved(self, tmp_path, monkeypatch):
        for coder in ("ann", "bob"):
            (tmp_path / f"{coder}.csv").write_text(ANNOTATION_HEAD.replace("ann", coder)
                                                   + "g04,4,controvers.standalone,t,valid\n")
        monkeypatch.chdir(tmp_path)
        headers = []
        for out, prefix in (("relative", ""), ("absolute", f"{tmp_path}/")):
            assert run_quietly(["gate", "--annotations", f"{prefix}ann.csv", f"{prefix}bob.csv",
                                "--out", out])[0] == 0
            headers.append(header_lines(tmp_path / out / "stats.csv"))
        assert headers[0] == headers[1]


def test_python_dash_m_runs_the_cli(golden_args, tmp_path):
    """``python -m citequery.cli`` is the CLI: same files, same exit code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "citequery.cli", "match", *golden_args,
         "--out", str(tmp_path / "module")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == main(["match", *golden_args, "--out", str(tmp_path / "main")])
    assert result.returncode == 0, result.stderr
    files = sorted(path.name for path in (tmp_path / "main").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "module").iterdir())
    for name in files:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``match`` and ``report`` print and write the same bytes under two
    string hash seeds, so no output follows set or dict order of strings."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    citations = write_golden_citations(tmp_path / "citations.csv")
    seen = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"seed{seed}"
        printed = []
        for argv in (["match", "--out", str(out / "match")],
                     ["report", "--out", str(out / "report"), "--citations", str(citations)]):
            result = subprocess.run(
                [sys.executable, "-m", "citequery.cli", argv[0], "--corpus", str(GOLDEN_CORPUS),
                 *argv[1:]], capture_output=True, timeout=120, env=env)
            assert result.returncode == 0, result.stderr
            printed.append((result.stdout.replace(str(out).encode(), b"<out>"), result.stderr))
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        assert len(files) > 2
        seen.append((printed, files))
    assert seen[0] == seen[1]


def test_traced_harness_runs_a_full_report(tmp_path):
    """The benchmark's per-layer harness still finds every analytics entry
    point it wraps on ``citequery.cli``."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    citations = write_golden_citations(tmp_path / "citations.csv")
    result = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), str(spans), str(root / "src"),
         "report", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path / "out"),
         "--which", ",".join(REPORTS), "--citations", str(citations)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(spans.read_text())
    names = {span[0] for span in traced["spans"]}
    for name in ("analytics.flag", "analytics.rate_by", "analytics.impact",
                 "analytics.gap", "analytics.other"):
        assert name in names, name
    # Every rate grouping comes from one pass, every impact entry from one fold.
    counts = traced["counts"]
    assert counts["analytics.impact.calls"] == 1
    assert counts["analytics.rate_by.calls"] == 1

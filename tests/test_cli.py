import csv
import io
import json

import pytest

from citequery.cli import main
from conftest import GOLDEN_CORPUS, GOLDEN_MATCHES


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

    def test_bad_query_file_is_data_error(self, golden_args, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("query a\nsignal cont*overs\nfilter none\n")
        code = main(["match", *golden_args, "--queries", str(queries),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "wildcard" in capsys.readouterr().err


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

    def test_impact_requires_citations(self, golden_args, tmp_path):
        assert main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "impact"]) == 2

    def test_full_report_with_citations(self, golden_args, tmp_path):
        citations = tmp_path / "citations.csv"
        with open(citations, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("doc_id", "pub_year", "year", "citations"))
            for paper, pub in (("x-zhao-2001", 2001), ("x-kusky-2003", 2003),
                               ("x-munro-2003", 2003)):
                for year in range(pub, 2016):
                    writer.writerow((paper, pub, year, 2))
            for doc in ("g01", "g02", "g03", "g04", "g05", "g06", "g07", "g08", "g09"):
                for year in range(2009, 2018):
                    writer.writerow((doc, 2008, year, 1))
        out = tmp_path / "out"
        code = main(["report", *golden_args, "--out", str(out),
                     "--which", "rates,slopes,selfcite,age,position,meso,top,impact,gap",
                     "--citations", str(citations)])
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


class TestHostileInput:
    """Malformed input files exit 2 with the file and line, not a traceback."""

    def test_non_utf8_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.jsonl"
        good = GOLDEN_CORPUS.read_bytes().splitlines(keepends=True)[0]
        corpus.write_bytes(good + '{"doc_id": "caf\u00e9"}\n'.encode("latin-1"))
        assert main(["match", "--corpus", str(corpus), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err and "line 2" in err and "UTF-8" in err

    def test_non_integer_citation_cell(self, golden_args, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        citations.write_text(
            "# exported\ndoc_id,pub_year,year,citations\n"
            "g01,2008,2009,3\ng02,2008,2009,three\n"
        )
        assert main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "impact", "--citations", str(citations)]) == 2
        err = capsys.readouterr().err
        assert str(citations) in err and "line 4" in err

    def test_non_numeric_pct_valid(self, golden_args, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text(
            "query_id,n,pct_agree,pct_valid,kappa\n"
            "controvers.standalone,50,1.0,0.9,1.0\n"
            "challenge.standalone,50,1.0,high,0.1\n"
        )
        assert main(["report", *golden_args, "--out", str(tmp_path / "o"),
                     "--which", "rates", "--stats", str(stats)]) == 2
        err = capsys.readouterr().err
        assert str(stats) in err and "line 3" in err

    def test_non_integer_sentence_index_in_gate(self, tmp_path, capsys):
        paths = []
        for coder, index in (("ann", "4"), ("bob", "four")):
            path = tmp_path / f"{coder}.csv"
            path.write_text(
                f"# seed 0\n# coder {coder}\n"
                "doc_id,sentence_index,query_id,text,label\n"
                f"g04,{index},controvers.standalone,some text,valid\n"
            )
            paths.append(str(path))
        assert main(["gate", "--annotations", *paths, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert paths[1] in err and "line 4" in err


class TestReportSpeed:
    def test_full_report_set_on_10k_citances_under_10s(self, tmp_path):
        import time

        from synth import planted_field_corpus, write_jsonl

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

    def test_byte_identical_runs_and_threads(self, golden_args, tmp_path, monkeypatch):
        outputs = []
        for name, threads in (("a", "1"), ("b", "4")):
            monkeypatch.setenv("CITEQUERY_THREADS", threads)
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

"""Correctness checks on the outputs of ``citequery match`` and ``report``.

Every check returns a list of problems; an empty list means the output
passed. The checks run outside the timed region. They compare against
facts the generator planted, against each other (files a command wrote
must agree), and against the test suite's independent brute-force
scanner, imported read-only from ``tests/naive_scanner.py``.
"""

from __future__ import annotations

import csv
import json
import random
import re
import sys
from pathlib import Path

from workloads import Workload

ORACLE_SAMPLE = 200  # candidate citances compared with the oracle per run

REPORT_FILES = {
    "rates": "rates.csv", "slopes": "slopes.csv", "selfcite": "selfcite.csv",
    "age": "age.csv", "position": "position.csv", "meso": "meso.csv",
    "top": "top.csv", "impact": "impact.csv", "gap": "gap.csv",
}
_ERROR_LINE = re.compile(r"^line=(\d+) error=(\w+)$")
_MATCH_STDOUT = re.compile(r"citances matched: (\d+); records: (\d+)")


def read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    lines = [line for line in data.decode("utf-8").splitlines(keepends=True)
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


def load_errors(stderr: str) -> dict[int, str]:
    found = {}
    for line in stderr.splitlines():
        m = _ERROR_LINE.match(line.strip())
        if m:
            found[int(m.group(1))] = m.group(2)
    return found


class Reference:
    """What the program's outputs must agree with, computed once per run.

    Loads the corpus in this process through the program's own ingest
    layer, then evaluates a seeded sample of citances with the oracle.
    """

    def __init__(self, workload: Workload, seed: int, tests_dir: Path):
        if str(tests_dir) not in sys.path:
            sys.path.insert(0, str(tests_dir))
        from citequery.catalog import builtin_catalog, default_validated_set
        from citequery.ingest import iter_citances, load_corpus
        from naive_scanner import scan_citance, token_ok

        self.workload = workload
        queries = builtin_catalog()
        self.validated = default_validated_set(0.80).query_ids
        corpus = load_corpus(workload.corpus, workload.mode)
        self.doc_fields = {d.doc_id: d.main_field for d in corpus.documents}
        self.sentence_count = sum(len(d.sentences) for d in corpus.documents)
        citances = list(iter_citances(corpus.documents))
        self.citance_count = len(citances)
        self.field_totals: dict[str, int] = {}
        for c in citances:
            name = self.doc_fields[c.doc_id]
            self.field_totals[name] = self.field_totals.get(name, 0) + 1

        # A record needs a signal span, so a citance can only match when
        # one of its words satisfies the lead token of a signal pattern.
        leads = {p.tokens[0] for q in queries for p in q.signal_patterns}
        vocab = {w for c in citances for w in c.words}
        hot = {w for w in vocab if any(token_ok(t, w) for t in leads)}
        candidates = [c for c in citances if not hot.isdisjoint(c.words)]
        self.candidate_keys = {(c.doc_id, c.sentence_index) for c in candidates}
        rng = random.Random(f"oracle:{workload.name}:{seed}")
        sample = (candidates if len(candidates) <= ORACLE_SAMPLE
                  else rng.sample(candidates, ORACLE_SAMPLE))
        self.sample_keys = {(c.doc_id, c.sentence_index) for c in sample}
        self.sample_rows = sorted(
            _record_row(r) for c in sample for r in scan_citance(c, queries)
        )


def _record_row(r) -> tuple:
    f = r.filter_span
    return (r.doc_id, str(r.sentence_index), r.query_id,
            str(r.signal_span.start), str(r.signal_span.end),
            "" if f is None else str(f.start), "" if f is None else str(f.end))


def check_match(files: dict[str, bytes], stdout: str, stderr: str,
                ref: Reference) -> list[str]:
    problems = []
    loaded = (ref.sentence_count, ref.citance_count)
    if loaded != (ref.workload.sentences, ref.workload.citances):
        problems.append(f"corpus loads as {loaded} sentences and citances, generated "
                        f"{(ref.workload.sentences, ref.workload.citances)}")
    errors = load_errors(stderr)
    if errors != ref.workload.malformed:
        problems.append(f"load errors {errors} != planted {ref.workload.malformed}")
    missing = {"matches.csv", "matches.jsonl", "match_summary.csv"} - set(files)
    if missing:
        return problems + [f"missing output files {sorted(missing)}"]

    rows = [tuple(r.values()) for r in _csv_rows(files["matches.csv"])]
    jsonl = [json.loads(line) for line in files["matches.jsonl"].decode("utf-8").splitlines()
             if not line.startswith("#")]
    as_rows = [
        (j["doc_id"], str(j["sentence_index"]), j["query_id"],
         str(j["signal"][0]), str(j["signal"][1]),
         "" if j["filter"] is None else str(j["filter"][0]),
         "" if j["filter"] is None else str(j["filter"][1]))
        for j in jsonl
    ]
    if as_rows != rows:
        problems.append(f"matches.jsonl ({len(as_rows)} records) disagrees with "
                        f"matches.csv ({len(rows)} rows)")
    summary = sum(int(v) for r in _csv_rows(files["match_summary.csv"])
                  for k, v in r.items() if k != "signal")
    keys = {(r[0], int(r[1])) for r in rows}
    m = _MATCH_STDOUT.search(stdout)
    if m is None or (int(m.group(1)), int(m.group(2))) != (len(keys), len(rows)) \
            or summary != len(rows):
        problems.append(f"counts disagree: stdout {stdout.strip()!r}, "
                        f"{len(rows)} csv rows over {len(keys)} citances, summary {summary}")
    if rows != sorted(rows, key=lambda r: (r[0], int(r[1]), r[2])):
        problems.append("matches.csv is not sorted by (doc_id, sentence_index, query_id)")
    stray = keys - ref.candidate_keys
    if stray:
        problems.append(f"{len(stray)} matched citances carry no signal word, e.g. {min(stray)}")
    sampled = sorted(r for r in rows if (r[0], int(r[1])) in ref.sample_keys)
    if sampled != ref.sample_rows:
        diff = set(sampled) ^ set(ref.sample_rows)
        problems.append(f"engine and oracle disagree on {len(diff)} records of "
                        f"{len(ref.sample_keys)} sampled citances, e.g. {min(diff)}")
    return problems


def flagged_by_field(files: dict[str, bytes], ref: Reference) -> dict[str, int]:
    """Flagged citances per main field, from a match run's matches.csv."""
    flagged = {(r["doc_id"], r["sentence_index"]) for r in _csv_rows(files["matches.csv"])
               if r["query_id"] in ref.validated}
    counts: dict[str, int] = {}
    for doc_id, _ in flagged:
        name = ref.doc_fields[doc_id]
        counts[name] = counts.get(name, 0) + 1
    return counts


def check_report(files: dict[str, bytes], stderr: str, ref: Reference,
                 match_flagged: dict[str, int] | None) -> list[str]:
    """``match_flagged`` is None when no match output passed its checks;
    the report is then compared with the planted facts only."""
    problems = []
    errors = load_errors(stderr)
    if errors != ref.workload.malformed:
        problems.append(f"load errors {errors} != planted {ref.workload.malformed}")
    expected = {REPORT_FILES[n] for n in ref.workload.reports.split(",")} | {"long.csv"}
    missing = expected - set(files)
    if missing:
        return problems + [f"missing report files {sorted(missing)}"]

    rates = {r["group"]: r for r in _csv_rows(files["rates.csv"])
             if r["grouping"] == "main_field"}
    got = {g: (int(r["disagreement_count"]), int(r["citance_count"])) for g, r in rates.items()}
    totals = {g: n for g, (_, n) in got.items()}
    if totals != ref.field_totals:
        problems.append(f"rates.csv main_field citances {totals} != corpus {ref.field_totals}")
    if match_flagged is not None:
        flagged = {g: f for g, (f, _) in got.items()}
        want = {g: match_flagged.get(g, 0) for g in ref.field_totals}
        if flagged != want:
            problems.append(f"rates.csv main_field flags {flagged} != matches.csv {want}")
    planted = {g: (v["flagged"], v["total"]) for g, v in ref.workload.planted_fields.items()}
    if planted and got != planted:
        problems.append(f"rates.csv main_field counts {got} != planted {planted}")
    if ref.workload.planted_self:
        rows = {r["group"]: [int(r["disagreement_count"]), int(r["citance_count"])]
                for r in _csv_rows(files["selfcite.csv"])}
        if rows != ref.workload.planted_self:
            problems.append(f"selfcite.csv {rows} != planted {ref.workload.planted_self}")
    return problems

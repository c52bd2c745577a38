"""Command-line pipeline driver.

Each stage of the pipeline is a subcommand whose artifacts are plain
CSV/JSONL files: ``ingest-check``, ``match``, ``sample``, ``annotate``,
``gate`` and ``report``. Every output file starts with a comment header
recording the tool version, a digest of the analytic configuration and
the seed, so equal configurations produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import IO, Sequence

from . import __version__
from .analytics import (
    GROUPINGS,
    CitationTable,
    citation_gap,
    field_slopes,
    flag_citances,
    impact_ratio,
    meso_log_ratio,
    numbered_csv_rows,
    rate_by,
    self_citation_ratio,
    top_tables,
)
from .catalog import (
    QueryFileError,
    ValidatedSet,
    builtin_catalog,
    default_validated_set,
    parse_query_file,
    serialize_validated_set,
)
from .engine import run_all
from .ingest import Document, LoadResult, iter_citances, load_corpus
from .validation import (
    DEFAULT_SAMPLE_SIZE,
    AnnotationRecord,
    compute_stats,
    gate_queries,
    sample_matches,
)

REPORT_NAMES = (
    "rates", "slopes", "selfcite", "age", "position", "meso", "top", "impact", "gap",
)

_USAGE_EXIT = 1
_DATA_EXIT = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class OutputWriter:
    """Creates output files with the standard comment header."""

    def __init__(self, out_dir: Path, config: dict, seed: int):
        self.out_dir = out_dir
        self.header = (
            f"# citequery {__version__}\n"
            f"# config {_digest(config)}\n"
            f"# seed {seed}\n"
        )
        out_dir.mkdir(parents=True, exist_ok=True)

    def open(self, name: str) -> IO[str]:
        handle = open(self.out_dir / name, "w", encoding="utf-8", newline="")
        handle.write(self.header)
        return handle


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(handle: IO[str], header: Sequence[str], rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format(v) for v in row])


def _load_corpus_or_die(path: str, mode: str) -> LoadResult:
    try:
        result = load_corpus(path, mode)
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"corpus file {path}: {exc}")
    for error in result.errors:
        print(error.report(), file=sys.stderr)
    return result


def _load_queries(spec: str):
    if spec == "builtin":
        return builtin_catalog()
    try:
        text = Path(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read query file {spec}: {exc}")
    try:
        return parse_query_file(text)
    except QueryFileError as exc:
        raise DataError(f"query file {spec}: {exc}")


def _validated_set(args, queries) -> ValidatedSet:
    if getattr(args, "stats", None):
        try:
            stats_rows = _read_stats_csv(Path(args.stats))
        except OSError as exc:
            raise DataError(f"cannot read stats file {args.stats}: {exc}")
        return gate_queries(stats_rows, args.threshold)
    try:
        return default_validated_set(args.threshold, args.resolution)
    except (ValueError, OSError) as exc:
        raise DataError(str(exc))


def _read_stats_csv(path: Path) -> dict[str, float]:
    stats = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for line, row in numbered_csv_rows(handle):
            try:
                stats[row["query_id"]] = float(row["pct_valid"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"stats file {path}: line {line}: bad row ({exc})") from None
    return stats


def _config(args, keys: Sequence[str]) -> dict:
    resolved = {}
    for key in keys:
        value = getattr(args, key, None)
        if key in ("corpus", "queries", "resolution", "stats", "citations", "sample") \
                and value not in (None, "builtin"):
            value = str(Path(value).resolve())
        resolved[key] = value
    return resolved


def _match_records(args):
    corpus = _load_corpus_or_die(args.corpus, args.mode)
    queries = _load_queries(args.queries)
    records = run_all(iter_citances(corpus.documents), queries)
    return corpus, queries, records


# --- subcommands ----------------------------------------------------------


def cmd_ingest_check(args) -> int:
    result = _load_corpus_or_die(args.corpus, args.mode)
    citances = sum(1 for _ in iter_citances(result.documents))
    print(
        f"documents={len(result.documents)} citances={citances} "
        f"errors={len(result.errors)}"
    )
    return 0


def cmd_match(args) -> int:
    corpus, queries, records = _match_records(args)
    writer = OutputWriter(
        Path(args.out), _config(args, ("corpus", "mode", "queries")), args.seed
    )

    with writer.open("matches.csv") as handle:
        _write_csv(
            handle,
            ("doc_id", "sentence_index", "query_id",
             "signal_start", "signal_end", "filter_start", "filter_end"),
            (
                (r.doc_id, r.sentence_index, r.query_id,
                 r.signal_span.start, r.signal_span.end,
                 r.filter_span.start if r.filter_span else None,
                 r.filter_span.end if r.filter_span else None)
                for r in records
            ),
        )

    texts = {
        (doc.doc_id, s.index): s.text
        for doc in corpus.documents for s in doc.sentences if s.refs
    }
    with writer.open("matches.jsonl") as handle:
        for r in records:
            handle.write(json.dumps({
                "doc_id": r.doc_id,
                "sentence_index": r.sentence_index,
                "query_id": r.query_id,
                "signal": [r.signal_span.start, r.signal_span.end],
                "filter": [r.filter_span.start, r.filter_span.end] if r.filter_span else None,
                "text": texts[(r.doc_id, r.sentence_index)],
            }, ensure_ascii=False) + "\n")

    by_query: dict[str, int] = {}
    for r in records:
        by_query[r.query_id] = by_query.get(r.query_id, 0) + 1
    signals: dict[str, dict[str, int]] = {}
    filter_sets: list[str] = []
    for q in queries:
        signals.setdefault(q.signal_id, {})[q.filter_set] = by_query.get(q.query_id, 0)
        if q.filter_set not in filter_sets:
            filter_sets.append(q.filter_set)
    with writer.open("match_summary.csv") as handle:
        _write_csv(
            handle,
            ["signal"] + filter_sets,
            (
                [signal] + [cells.get(f, 0) for f in filter_sets]
                for signal, cells in signals.items()
            ),
        )

    print(f"citances matched: {len({(r.doc_id, r.sentence_index) for r in records})}; "
          f"records: {len(records)}")
    return 0


def cmd_sample(args) -> int:
    corpus, queries, records = _match_records(args)
    writer = OutputWriter(
        Path(args.out), _config(args, ("corpus", "mode", "queries", "n")), args.seed
    )
    texts = {
        (doc.doc_id, s.index): s.text
        for doc in corpus.documents for s in doc.sentences if s.refs
    }
    by_query: dict[str, list] = {}
    for record in records:
        by_query.setdefault(record.query_id, []).append(record)
    rows = []
    for query_id in sorted(by_query):
        for doc_id, sentence_index in sample_matches(
            by_query[query_id], args.n, args.seed
        ):
            rows.append(
                (doc_id, sentence_index, query_id, texts[(doc_id, sentence_index)], "")
            )
    with writer.open("sample.csv") as handle:
        _write_csv(
            handle, ("doc_id", "sentence_index", "query_id", "text", "label"), rows
        )
    print(f"sampled {len(rows)} citances over {len(by_query)} queries")
    return 0


def _read_sample_csv(path: Path) -> tuple[list[tuple[int, dict]], str | None, list[str]]:
    """Numbered rows, the coder named in a ``# coder`` line, and the
    other comment lines."""
    coder = None
    header: list[str] = []
    with open(path, newline="", encoding="utf-8") as handle:
        lines = handle.readlines()
    for line in lines:
        if line.startswith("# coder "):
            coder = line[len("# coder "):].strip()
        elif line.startswith("#"):
            header.append(line)
    return list(numbered_csv_rows(lines)), coder, header


def cmd_annotate(args) -> int:
    try:
        numbered, _, provenance = _read_sample_csv(Path(args.sample))
    except OSError as exc:
        raise DataError(f"cannot read sample file {args.sample}: {exc}")
    rows = [row for _, row in numbered]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    labeled = 0
    print(f"annotating {len(rows)} citances as coder {args.coder!r}; "
          "keys: v=valid i=invalid s=skip q=quit", file=sys.stderr)
    stop = False
    for i, row in enumerate(rows):
        if stop or row.get("label"):
            continue
        print(f"\n[{i + 1}/{len(rows)}] query {row['query_id']}", file=sys.stderr)
        print(row["text"], file=sys.stderr)
        while True:
            print("label [v/i/s/q]: ", end="", file=sys.stderr, flush=True)
            key = sys.stdin.readline()
            if not key:
                stop = True
                break
            key = key.strip().lower()
            if key in ("v", "valid"):
                row["label"] = "valid"
                labeled += 1
                break
            if key in ("i", "invalid"):
                row["label"] = "invalid"
                labeled += 1
                break
            if key in ("s", "skip"):
                break
            if key in ("q", "quit"):
                stop = True
                break
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        # Sampling provenance (version, config digest, seed) rides along.
        handle.writelines(provenance)
        handle.write(f"# coder {args.coder}\n")
        _write_csv(
            handle,
            ("doc_id", "sentence_index", "query_id", "text", "label"),
            (
                (r["doc_id"], r["sentence_index"], r["query_id"], r["text"],
                 r.get("label", ""))
                for r in rows
            ),
        )
    print(f"\nlabeled {labeled} citances -> {out_path}", file=sys.stderr)
    return 0


def _annotations_from_file(path: Path) -> list[AnnotationRecord]:
    rows, coder, _ = _read_sample_csv(path)
    coder_id = coder or path.stem
    records = []
    for line, row in rows:
        label = (row.get("label") or "").strip().lower()
        if label not in ("valid", "invalid"):
            continue  # unlabeled or skipped rows are left to the metrics to flag
        try:
            records.append(AnnotationRecord(
                row["doc_id"], int(row["sentence_index"]), row["query_id"],
                coder_id, label,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"annotation file {path}: line {line}: bad row ({exc})") from None
    return records


def cmd_gate(args) -> int:
    path_a, path_b = (Path(p) for p in args.annotations)
    try:
        records_a = _annotations_from_file(path_a)
        records_b = _annotations_from_file(path_b)
    except OSError as exc:
        raise DataError(str(exc))
    coders = (records_a[0].coder_id if records_a else path_a.stem,
              records_b[0].coder_id if records_b else path_b.stem)
    if coders[0] == coders[1]:
        raise DataError("gate requires annotations from two distinct coders")
    try:
        stats = compute_stats(records_a + records_b, coders)
    except ValueError as exc:
        raise DataError(str(exc))
    validated = gate_queries(stats, args.threshold)
    writer = OutputWriter(
        Path(args.out), _config(args, ("annotations", "threshold")), args.seed
    )
    with writer.open("stats.csv") as handle:
        _write_csv(
            handle,
            ("query_id", "n", "pct_agree", "pct_valid", "kappa"),
            ((s.query_id, s.n, s.pct_agree, s.pct_valid, s.kappa) for s in stats),
        )
    with writer.open("validated.txt") as handle:
        handle.write(serialize_validated_set(validated))
    print(f"gated {len(stats)} queries at {args.threshold}: "
          f"{len(validated.query_ids)} kept")
    return 0


def _write_report(
    writer: OutputWriter, name: str, args, corpus_docs: list[Document],
    flags, long_rows: list,
) -> None:
    if name == "rates":
        rows = []
        for grouping in ("main_field", "year", "field_year"):
            for row in rate_by(flags, corpus_docs, grouping):
                group = (
                    f"{row.group[0]}:{row.group[1]}"
                    if grouping == "field_year" else row.group
                )
                rows.append((grouping, group, row.disagreement_count,
                             row.citance_count, row.rate))
                long_rows.append((group, f"rate_{grouping}", row.rate))
        with writer.open("rates.csv") as handle:
            _write_csv(
                handle,
                ("grouping", "group", "disagreement_count", "citance_count", "rate"),
                rows,
            )
    elif name == "slopes":
        slopes = field_slopes(flags, corpus_docs)
        with writer.open("slopes.csv") as handle:
            _write_csv(handle, ("main_field", "slope"), sorted(slopes.items()))
        long_rows.extend((field, "slope", value) for field, value in sorted(slopes.items()))
    elif name == "selfcite":
        rows = rate_by(flags, corpus_docs, "self_citation")
        with writer.open("selfcite.csv") as handle:
            _write_csv(
                handle,
                ("group", "disagreement_count", "citance_count", "rate"),
                ((r.group, r.disagreement_count, r.citance_count, r.rate) for r in rows),
            )
        try:
            ratio = self_citation_ratio(flags, corpus_docs)
            long_rows.append(("all", "selfcite_ratio", ratio))
        except ValueError:
            pass
    elif name in ("age", "position"):
        grouping = "age_bin" if name == "age" else "position_bin"
        rows = rate_by(flags, corpus_docs, grouping)
        with writer.open(f"{name}.csv") as handle:
            _write_csv(
                handle,
                ("bin", "disagreement_count", "citance_count", "rate"),
                ((r.group, r.disagreement_count, r.citance_count, r.rate) for r in rows),
            )
        long_rows.extend((r.group, f"rate_{grouping}", r.rate) for r in rows)
    elif name == "meso":
        rows = meso_log_ratio(flags, corpus_docs)
        with writer.open("meso.csv") as handle:
            _write_csv(
                handle,
                ("meso_field", "rate", "log_ratio", "n_citances"),
                ((r.meso_field, r.rate, r.log_ratio, r.n_citances) for r in rows),
            )
        long_rows.extend((r.meso_field, "meso_log_ratio", r.log_ratio) for r in rows)
    elif name == "top":
        issuers, receivers = top_tables(flags, corpus_docs, args.top_n)
        with writer.open("top.csv") as handle:
            _write_csv(
                handle,
                ("table", "doc_id", "count"),
                [("issuers", d, c) for d, c in issuers]
                + [("receivers", d, c) for d, c in receivers],
            )
    elif name in ("impact", "gap"):
        if not args.citations:
            raise DataError(f"report {name!r} requires --citations")
        try:
            table = CitationTable.from_csv(args.citations)
        except OSError as exc:
            raise DataError(f"cannot read citations file {args.citations}: {exc}")
        except ValueError as exc:
            raise DataError(f"citations file {args.citations}: {exc}")
        if name == "impact":
            fields = sorted({d.main_field for d in corpus_docs if d.main_field})
            rows = []
            for k in (1, 2, 3):
                for field in [None] + fields:
                    try:
                        report = impact_ratio(flags, corpus_docs, table, k, field)
                    except ValueError:
                        continue
                    rows.append((field or "All", k, report.records,
                                 report.mean_disagreement, report.mean_expected,
                                 report.d))
                    long_rows.append((field or "All", f"impact_d_t+{k}", report.d))
            with writer.open("impact.csv") as handle:
                _write_csv(
                    handle,
                    ("field", "k", "records", "mean_disagreement",
                     "mean_expected", "d"),
                    rows,
                )
        else:
            try:
                rows = citation_gap(flags, corpus_docs, table,
                                    doc_type=args.doc_type, horizon=args.horizon)
            except ValueError as exc:
                raise DataError(str(exc))
            with writer.open("gap.csv") as handle:
                _write_csv(
                    handle,
                    ("k", "mean_flagged", "mean_unflagged", "gap"),
                    ((r.k, r.mean_flagged, r.mean_unflagged, r.gap) for r in rows),
                )
            long_rows.extend((r.k, "citation_gap", r.gap) for r in rows)


def cmd_report(args) -> int:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    unknown = [w for w in which if w not in REPORT_NAMES]
    if unknown:
        raise UsageError(
            f"unknown report name(s) {unknown}; valid names: {', '.join(REPORT_NAMES)}"
        )
    corpus, queries, records = _match_records(args)
    validated = _validated_set(args, queries)
    flags = flag_citances(records, validated)
    writer = OutputWriter(
        Path(args.out),
        _config(args, ("corpus", "mode", "queries", "threshold", "resolution",
                       "stats", "which", "citations", "doc_type", "horizon", "top_n")),
        args.seed,
    )
    long_rows: list = []
    for name in which:
        _write_report(writer, name, args, corpus.documents, flags, long_rows)
    with writer.open("long.csv") as handle:
        _write_csv(handle, ("group", "metric", "value"), long_rows)
    print(f"wrote {len(which)} report(s) to {args.out}")
    return 0


# --- parser ---------------------------------------------------------------


def _add_corpus_args(parser):
    parser.add_argument("--corpus", required=True, help="JSON Lines corpus file")
    parser.add_argument("--mode", choices=("presegmented", "rawtext"),
                        default="presegmented")


def _add_query_args(parser):
    parser.add_argument("--queries", default="builtin",
                        help="'builtin' or a query file path")


def _add_common_out(parser):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="citequery", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a corpus file")
    _add_corpus_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("match", help="run queries and write match records")
    _add_corpus_args(p)
    _add_query_args(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("sample", help="draw annotation samples per query")
    _add_corpus_args(p)
    _add_query_args(p)
    _add_common_out(p)
    p.add_argument("--n", type=int, default=DEFAULT_SAMPLE_SIZE,
                   help="sample size per query")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("annotate", help="label a sample interactively")
    p.add_argument("--sample", required=True, help="sample CSV to label")
    p.add_argument("--coder", required=True, help="coder identifier")
    p.add_argument("--out", required=True, help="labeled CSV path")
    p.set_defaults(func=cmd_annotate, seed=0)

    p = sub.add_parser("gate", help="compute stats and gate the validated set")
    p.add_argument("--annotations", nargs=2, required=True,
                   metavar=("CODER_A_CSV", "CODER_B_CSV"))
    p.add_argument("--threshold", type=float, default=0.80)
    _add_common_out(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("report", help="compute analytics reports")
    _add_corpus_args(p)
    _add_query_args(p)
    _add_common_out(p)
    p.add_argument("--threshold", type=float, default=0.80)
    p.add_argument("--resolution", help="override the validated-set resolution file")
    p.add_argument("--stats", help="gate from a stats CSV instead of the defaults")
    p.add_argument("--which", default=",".join(REPORT_NAMES),
                   help="comma-separated report names")
    p.add_argument("--citations", help="per-paper yearly citation counts CSV")
    p.add_argument("--doc-type", dest="doc_type",
                   help="restrict the gap report to one document type")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--top-n", dest="top_n", type=int, default=10)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT


def entrypoint() -> None:
    raise SystemExit(main())

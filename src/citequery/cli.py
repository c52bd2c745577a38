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
import gc
import hashlib
import io
import json
import os
import re
import stat
import sys
from collections import Counter
from contextlib import AbstractContextManager, contextmanager, suppress
from importlib import import_module
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterator, Sequence

from . import __version__
from .catalog import (
    DEFAULT_SAMPLE_SIZE,
    ValidatedSet,
    builtin_catalog,
    default_validated_set,
    parse_query_file,
    serialize_validated_set,
    shipped_threshold,
)
from .engine import RECORD_ORDER, CatalogMatcher, MatchRecord, run_all
from .ingest import (
    DECIMAL, DOC_TYPES, Citance, Document, LoadError, integer, iter_citances, load_corpus,
    numbered_csv_columns, numbered_lines, read_citing,
)
from .tokens import tokenize_all

# The analytics and validation layers are imported by the first command that
# calls them (see _bind), so match, ingest-check and every command's set-up
# run without them.
_ANALYTICS = ("CitationTable", "citation_gap", "field_slopes", "flag_citances", "impact_ratio",
              "meso_log_ratio", "rate_by", "self_citation_ratio", "top_tables")
_LAYER_OF = dict.fromkeys(_ANALYTICS, "analytics") | dict.fromkeys(
    ("AnnotationRecord", "compute_stats", "gate_queries", "sample_matches"), "validation")

REPORTS = {  # name -> (the rate_by groupings it reads, whether it needs --citations)
    "rates": (("main_field", "year", "field_year"), False), "slopes": (("field_year",), False),
    "selfcite": (("self_citation",), False), "age": (("age_bin",), False),
    "position": (("position_bin",), False), "meso": (("meso_field",), False),
    "top": ((), False), "impact": ((), True), "gap": ((), True),
}
SAMPLE_COLUMNS = ("doc_id", "sentence_index", "query_id", "text", "label")
_ANSWERS = {"v": "valid", "i": "invalid", "s": "skip", "q": "quit"}  # annotate keys
_encode_json = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps builds one a call

_USAGE_EXIT = 1
_DATA_EXIT = 2


def _bind(*names: str) -> None:
    """Bind each of ``names`` in this module's globals from the layer that
    defines it, importing the layer on first use. A name already bound, as a
    caller's wrapper of it may be, is kept."""
    scope = globals()
    for name in names:
        if name not in scope:
            scope[name] = getattr(import_module(f".{_LAYER_OF[name]}", __package__), name)


def __getattr__(name: str):  # PEP 562: ``cli.rate_by`` before a command has bound it
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative DECIMAL ("-0e1") is a value, not an option; argparse's own
        # rule admits only "-1" and "-.5". Subparsers are _Parsers too.
        self._negative_number_matcher = re.compile(rf"(?=-)(?:{DECIMAL.pattern})\Z")

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _count(text: str) -> int:
    """argparse type of the count options: an integer of at least 1."""
    try:
        value = integer(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def _horizon(text: str) -> int:
    """argparse type of --horizon: a count of at most 200, the span of the
    years a corpus may hold (1900-2100). The gap report has a row a year."""
    value = _count(text)
    if value > 200:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1 and <= 200")
    return value


def _unit_interval(text: str) -> float | None:
    """``text`` as a number in [0, 1] if DECIMAL writes it, else None."""
    value = float(text) if DECIMAL.fullmatch(text) else -1.0
    # An overflow to inf is out too, and abs reads a "-0" as 0.0, not -0.0.
    return abs(value) if 0.0 <= value <= 1.0 else None


def _fraction(text: str) -> float:
    """argparse type of the threshold options: a number in [0, 1]."""
    value = _unit_interval(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return value


def _digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class OutputWriter:
    """Creates the output files ``names`` with the standard comment header.
    Each name is checked at once if ``out_dir`` exists, else when it is made."""

    def __init__(self, out_dir: Path, config: dict, seed: int, names: Sequence[str]):
        self.out_dir = out_dir
        self.header = (
            f"# citequery {__version__}\n"
            f"# config {_digest(config)}\n"
            f"# seed {seed}\n"
        )
        self.names = names
        if out_dir.exists():  # so a taken name fails before the corpus is read
            self._make()

    def _make(self) -> None:
        with _writing(self.out_dir):
            self.out_dir.mkdir(parents=True, exist_ok=True)
        for name in self.names:
            _check_output(self.out_dir / name)

    @contextmanager
    def open(self, name: str) -> Iterator[IO[str]]:
        if not self.out_dir.exists():
            self._make()
        path = self.out_dir / name
        with _writing(path), open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.header)
            yield handle

    def write_csv(self, name: str, header: Sequence[str], rows) -> None:
        with self.open(name) as handle:
            _write_csv(handle, header, rows)


def _write_csv(handle: IO[str], header: Sequence[str], rows) -> None:
    """csv writes None as an empty cell, a float by ``repr`` and any other
    value by ``str``. Rows are formatted in runs of up to 4096, one csv
    call per run; a run whose text holds a "\r" is formatted row by row."""
    writer = csv.writer(handle, lineterminator="\n")
    # With a "\n" terminator csv leaves a bare "\r" unquoted, and no reader
    # could tell it from a line break, so such rows are quoted in full.
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    rows = iter(rows)
    while run := list(islice(rows, 4096)):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(run)
        text = buffer.getvalue()
        if "\r" not in text:
            handle.write(text)
            continue
        for row in run:
            for cell in row:
                if isinstance(cell, str) and "\r" in cell:
                    quoted.writerow(row)
                    break
            else:
                writer.writerow(row)


class _reading(AbstractContextManager):
    """Turn a failure to read or parse the ``kind`` input file at ``path``
    into a DataError naming the file (and the line, which the readers'
    ValueErrors carry). This and ``_writing`` are classes because, from
    Python 3.12, a generator context manager raising in place of the error
    thrown into it leaves a cycle through its frame: cyclic garbage."""

    def __init__(self, kind: str, path) -> None:
        self.kind, self.path = kind, path

    def __exit__(self, _, exc, __) -> None:
        if isinstance(exc, OSError):
            raise DataError(f"cannot read {self.kind} file {self.path}: {exc}") from None
        if isinstance(exc, ValueError):
            raise DataError(f"{self.kind} file {self.path}: {exc}") from None


class _writing(AbstractContextManager):
    """Turn a failure to create or write the output ``path`` into a DataError."""

    def __init__(self, path) -> None:
        self.path = path

    def __exit__(self, _, exc, __) -> None:
        if isinstance(exc, OSError):
            raise DataError(f"cannot write output {self.path}: {exc}") from None


def _check_output(path: Path) -> None:
    """Raise DataError unless ``path`` is absent, a FIFO or opens for writing;
    it is neither created nor truncated. Opening a FIFO would wait for a
    reader, and closing it would end that reader's input before the write."""
    with _writing(path), suppress(FileNotFoundError):
        if not stat.S_ISFIFO(os.stat(path).st_mode):
            os.close(os.open(path, os.O_WRONLY))


def _print_errors(errors: list[LoadError]) -> None:
    for error in errors:
        print(error.report(), file=sys.stderr)


@contextmanager
def _citing_documents(args) -> Iterator[tuple[Iterator, list[LoadError]]]:
    """``read_citing`` over ``--corpus`` and its load errors, which are
    printed once the corpus has been read through."""
    errors: list[LoadError] = []
    with _reading("corpus", args.corpus):
        yield read_citing(args.corpus, args.mode, errors), errors
    _print_errors(errors)


def _load_queries(spec: str):
    if spec == "builtin":
        return builtin_catalog()
    with _reading("query", spec):
        return parse_query_file("".join(text for _, text in numbered_lines(spec)))


def _validated_set(args, query_ids: set[str]) -> ValidatedSet:
    if args.stats:
        _bind("gate_queries")
        with _reading("stats", args.stats):
            return gate_queries(_read_stats_csv(args.stats, query_ids), args.threshold)
    try:
        shipped_threshold(args.threshold)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    with _reading("resolution", args.resolution):
        return default_validated_set(args.threshold, args.resolution)


def _read_stats_csv(path: str, query_ids: set[str]) -> dict[str, float]:
    """Percent valid by query id; every id must be one of ``query_ids``."""
    stats = {}
    with numbered_csv_columns(path, ("query_id", "pct_valid")) as (rows, line, _):
        for query_id, cell in rows:
            pct_valid = _unit_interval(cell)
            if pct_valid is None:
                raise ValueError(f"line {line()}: pct_valid {cell!r} is not in [0, 1]")
            if query_id not in query_ids:
                raise ValueError(f"line {line()}: unknown query id {query_id!r}")
            if query_id in stats:
                raise ValueError(f"line {line()}: repeated row for {query_id!r}")
            stats[query_id] = pct_valid
    return stats


def _config(args) -> dict:
    """What the ``# config`` digest hashes: every parsed option but the
    output directory and the seed, each input path resolved."""
    config = {}
    for key, value in vars(args).items():
        if key in ("out", "seed", "command", "func"):
            continue
        if key in ("corpus", "queries", "resolution", "stats", "citations") \
                and value not in (None, "builtin"):
            value = str(Path(value).resolve())
        elif key == "annotations":
            value = [str(Path(path).resolve()) for path in value]
        config[key] = value
    return config


def _match_records(args, queries):
    """The match records of ``queries`` in ``run_all``'s order, and the text
    of each matched citance. The corpus is streamed: a document's citances
    are tokenized together as it is read, and each is dropped at once if no
    word of it can start a signal, else matched; only matched texts are kept."""
    matcher = CatalogMatcher(queries)
    match, lead_free = matcher.match_citance, matcher.lead_free
    records: list[MatchRecord] = []
    texts: dict[tuple[str, int], str] = {}
    with _citing_documents(args) as (documents, _):
        for doc_id, citing in documents:
            for (index, text), words in zip(citing, tokenize_all([t for _, t in citing])):
                if lead_free.issuperset(words):
                    continue
                found = match(Citance(doc_id, index, words))
                if found:
                    records += found
                    texts[doc_id, index] = text
    records.sort(key=RECORD_ORDER)
    return records, texts


# --- subcommands ----------------------------------------------------------


def cmd_ingest_check(args) -> int:
    documents = citances = 0
    with _citing_documents(args) as (read, errors):
        for _, citing in read:
            documents += 1
            citances += len(citing)
    print(f"documents={documents} citances={citances} errors={len(errors)}")
    return 0


def cmd_match(args) -> int:
    queries = _load_queries(args.queries)
    writer = OutputWriter(Path(args.out), _config(args), args.seed,
                          ("matches.csv", "matches.jsonl", "match_summary.csv"))
    records, texts = _match_records(args, queries)

    writer.write_csv(
        "matches.csv",
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

    # Each line is json.dumps of {doc_id, sentence_index, query_id, signal,
    # filter, text}; a citance's doc id and text are encoded once, around
    # the middle of each of its lines.
    ends = {
        key: (f'{{"doc_id": {_encode_json(key[0])}, "sentence_index": {key[1]}, "query_id": ',
              f', "text": {_encode_json(text)}}}\n')
        for key, text in texts.items()
    }
    query_ids = {q.query_id: _encode_json(q.query_id) for q in queries}
    with writer.open("matches.jsonl") as handle:
        for r in records:
            head, tail = ends[r.doc_id, r.sentence_index]
            s, f = r.signal_span, r.filter_span
            filtered = f"[{f.start}, {f.end}]" if f else "null"
            handle.write(f'{head}{query_ids[r.query_id]}, "signal": [{s.start}, {s.end}], '
                         f'"filter": {filtered}{tail}')

    # A cell sums the records of every query with its signal and filter set.
    by_query = Counter(map(attrgetter("query_id"), records))
    signals: dict[str, Counter[str]] = {}
    filter_sets: list[str] = []
    for q in queries:
        signals.setdefault(q.signal_id, Counter())[q.filter_set] += by_query[q.query_id]
        if q.filter_set not in filter_sets:
            filter_sets.append(q.filter_set)
    writer.write_csv(
        "match_summary.csv",
        ["signal"] + filter_sets,
        ([signal] + [cells[f] for f in filter_sets] for signal, cells in signals.items()),
    )

    print(f"citances matched: {len(texts)}; records: {len(records)}")
    return 0


def cmd_sample(args) -> int:
    _bind("sample_matches")
    queries = _load_queries(args.queries)
    writer = OutputWriter(Path(args.out), _config(args), args.seed, ("sample.csv",))
    records, texts = _match_records(args, queries)
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
    writer.write_csv("sample.csv", SAMPLE_COLUMNS, rows)
    print(f"sampled {len(rows)} citances over {len(by_query)} queries")
    return 0


def _read_sample_csv(path: str) -> tuple[list[list], str | None, list[str]]:
    """The rows as ``SAMPLE_COLUMNS`` lists (``sentence_index`` an int, checked
    as its row is read; a missing label None), the coder named in a ``# coder``
    line of the leading comment block, and the block's other lines."""
    rows = []
    with numbered_csv_columns(path, SAMPLE_COLUMNS[:-1], SAMPLE_COLUMNS[-1:]) as (
            cells, line, comments):
        for doc_id, index, query_id, text, label in cells:
            try:
                rows.append([doc_id, integer(index), query_id, text, label])
            except ValueError as exc:
                raise ValueError(f"line {line()}: bad row ({exc})") from None
    coder, provenance = None, []
    for text in comments:
        if text.startswith("# coder "):
            coder = text[len("# coder "):].strip()
        else:
            provenance.append(text)
    return rows, coder, provenance


def cmd_annotate(args) -> int:
    # The coder is written on one "# coder" line that gate reads back stripped.
    # "--" ends the options, and Python 3.11's argparse reads "--coder=--" as [].
    # A non-UTF-8 argument arrives holding lone surrogates, which no file can encode.
    coder = "--" if args.coder == [] else args.coder
    if coder in ("", "--") or coder != coder.strip() or "\n" in coder or "\r" in coder \
            or any("\ud800" <= c <= "\udfff" for c in coder):
        raise UsageError(f"--coder {coder!r}: must be non-empty, not '--', valid UTF-8, on "
                         "one line, with no leading or trailing whitespace")
    with _reading("sample", args.sample):
        rows, _, provenance = _read_sample_csv(args.sample)
    out_path = Path(args.out)
    with _writing(out_path):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    _check_output(out_path)  # before the session, so no label is given in vain
    labeled = 0
    print(f"annotating {len(rows)} citances as coder {args.coder!r}; "
          "keys: v=valid i=invalid s=skip q=quit", file=sys.stderr)
    for i, row in enumerate(rows):
        _, _, query_id, text, label = row
        if label:
            continue
        print(f"\n[{i + 1}/{len(rows)}] query {query_id}", file=sys.stderr)
        print(text, file=sys.stderr)
        answer = None
        while answer not in _ANSWERS.values():
            print("label [v/i/s/q]: ", end="", file=sys.stderr, flush=True)
            key = sys.stdin.readline()
            key = key.strip().lower() if key else "quit"  # end of input quits
            answer = _ANSWERS.get(key, key)
        if answer == "quit":
            break
        if answer != "skip":
            row[-1] = answer
            labeled += 1
    with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as handle:
        # Sampling provenance (version, config digest, seed) rides along.
        handle.writelines(provenance)
        handle.write(f"# coder {args.coder}\n")
        _write_csv(handle, SAMPLE_COLUMNS, rows)
    print(f"\nlabeled {labeled} citances -> {out_path}", file=sys.stderr)
    return 0


def _annotations_from_file(path: str) -> tuple[str, list[AnnotationRecord]]:
    """The file's coder (its ``# coder`` line, else its stem) and labeled rows."""
    rows, coder, _ = _read_sample_csv(path)
    coder_id = coder or Path(path).stem
    records = []
    for doc_id, index, query_id, _, label in rows:
        label = (label or "").strip().lower()
        if label in ("valid", "invalid"):  # unlabeled or skipped rows are left to the metrics
            records.append(AnnotationRecord(doc_id, index, query_id, coder_id, label))
    return coder_id, records


def cmd_gate(args) -> int:
    _bind("AnnotationRecord", "compute_stats", "gate_queries")
    coders, records = [], []
    for path in args.annotations:
        with _reading("annotation", path):
            coder, file_records = _annotations_from_file(path)
        coders.append(coder)
        records += file_records
    if coders[0] == coders[1]:
        raise DataError("gate requires annotations from two distinct coders")
    try:
        stats = compute_stats(records, tuple(coders))
    except ValueError as exc:
        raise DataError(f"annotation files {' and '.join(args.annotations)}: {exc}")
    validated = gate_queries({s.query_id: s.pct_valid for s in stats}, args.threshold)
    writer = OutputWriter(Path(args.out), _config(args), args.seed,
                          ("stats.csv", "validated.txt"))
    writer.write_csv(
        "stats.csv", ("query_id", "n", "pct_agree", "pct_valid", "kappa"),
        ((s.query_id, s.n, s.pct_agree, s.pct_valid, s.kappa) for s in stats),
    )
    with writer.open("validated.txt") as handle:
        handle.write(serialize_validated_set(validated))
    print(f"gated {len(stats)} queries at {args.threshold}: "
          f"{len(validated.query_ids)} kept")
    return 0


def _report(name: str, args, docs: list[Document], flags, table: CitationTable | None,
            rates: dict) -> tuple[Sequence[str], list, list]:
    """Report ``name`` as the header and rows of its file, ``name``.csv, and
    its ``long.csv`` rows; a row from analytics, a named tuple, gives its fields
    in order. A report the inputs leave undefined raises DataError."""
    rate_columns = ("disagreement_count", "citance_count", "rate")
    if name == "rates":
        rows, long_rows = [], []
        for grouping in REPORTS["rates"][0]:
            for row in rates[grouping]:
                group = (
                    f"{row.group[0]}:{row.group[1]}"
                    if grouping == "field_year" else row.group
                )
                rows.append((grouping, group, row.disagreement_count,
                             row.citance_count, row.rate))
                long_rows.append((group, f"rate_{grouping}", row.rate))
        return ("grouping", "group", *rate_columns), rows, long_rows
    if name == "slopes":
        slopes = sorted(field_slopes(rates["field_year"]).items())
        return (("main_field", "slope"), slopes,
                [(field, "slope", value) for field, value in slopes])
    if name in ("selfcite", "age", "position"):
        (grouping,), _ = REPORTS[name]
        groups = rates[grouping]
        rows = [(*r, r.rate) for r in groups]
        if name != "selfcite":
            return (("bin", *rate_columns), rows,
                    [(r.group, f"rate_{grouping}", r.rate) for r in groups])
        try:
            long_rows = [("all", "selfcite_ratio", self_citation_ratio(groups))]
        except ValueError:
            long_rows = []
        return ("group", *rate_columns), rows, long_rows
    if name == "meso":
        try:
            meso = meso_log_ratio(rates["meso_field"])
        except ValueError as exc:
            raise DataError(f"meso report undefined: {exc}")
        return (("meso_field", "rate", "log_ratio", "n_citances"), meso,
                [(r.meso_field, "meso_log_ratio", r.log_ratio) for r in meso])
    if name == "top":
        issuers, receivers = top_tables(flags, docs, args.top_n)
        return (("table", "doc_id", "count"),
                [("issuers", d, c) for d, c in issuers]
                + [("receivers", d, c) for d, c in receivers], [])
    if name == "impact":
        reports = impact_ratio(flags, docs, table, (1, 2, 3))
        fields = sorted({field for field, _ in reports if field})
        rows, long_rows = [], []
        for k in (1, 2, 3):
            for field in [None] + fields:
                if (field, k) in reports:
                    report = reports[field, k]
                    rows.append((field or "All", *report, report.d))
                    long_rows.append((field or "All", f"impact_d_t+{k}", report.d))
        return (("field", "k", "records", "mean_disagreement", "mean_expected", "d"),
                rows, long_rows)
    try:  # gap
        gap = citation_gap(flags, docs, table, doc_type=args.doc_type, horizon=args.horizon)
    except ValueError as exc:
        raise DataError(str(exc))
    return (("k", "mean_flagged", "mean_unflagged", "gap"),
            [(*r, r.gap) for r in gap],
            [(r.k, "citation_gap", r.gap) for r in gap])


def cmd_report(args) -> int:
    _bind(*_ANALYTICS)
    if args.which is None:  # every report the inputs can feed
        args.which = ",".join(name for name, (_, needs_table) in REPORTS.items()
                              if args.citations or not needs_table)
    which = list(dict.fromkeys(w.strip() for w in args.which.split(",") if w.strip()))
    unknown = [w for w in which if w not in REPORTS]
    if unknown or not which:
        problem = f"unknown report name(s) {unknown}" if unknown else "--which names no report"
        raise UsageError(f"{problem}; valid names: {', '.join(REPORTS)}")
    # Cheap inputs, and the output names when --out exists, are checked
    # before the corpus is loaded and matched.
    queries = _load_queries(args.queries)
    validated = _validated_set(args, {q.query_id for q in queries})
    needs_table = [name for name in which if REPORTS[name][1]]
    if needs_table and not args.citations:
        raise DataError(f"report {needs_table[0]!r} requires --citations")
    with _reading("citations", args.citations):
        table = CitationTable.from_csv(args.citations) if needs_table else None
    writer = OutputWriter(Path(args.out), _config(args), args.seed,
                          [f"{name}.csv" for name in which] + ["long.csv"])
    with _reading("corpus", args.corpus):
        corpus = load_corpus(args.corpus, args.mode)
    _print_errors(corpus.errors)
    # Only a validated query can flag a citance, and no query's records
    # depend on the others, so the rest are never matched.
    queries = [q for q in queries if q.query_id in validated.query_ids]
    flags = flag_citances(run_all(iter_citances(corpus.documents), queries), validated)
    groupings = dict.fromkeys(g for name in which for g in REPORTS[name][0])
    rates = rate_by(flags, corpus.documents, groupings) if groupings else {}
    # Every report is computed before --out is made, so an undefined one writes nothing.
    reports = [_report(name, args, corpus.documents, flags, table, rates) for name in which]
    for name, (header, rows, _) in zip(which, reports):
        writer.write_csv(f"{name}.csv", header, rows)
    writer.write_csv("long.csv", ("group", "metric", "value"),
                     [row for *_, long_rows in reports for row in long_rows])
    print(f"wrote {len(reports)} report(s) to {args.out}")
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
    parser.add_argument("--seed", type=integer, default=0)


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
    p.add_argument("--n", type=_count, default=DEFAULT_SAMPLE_SIZE,
                   help="sample size per query")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("annotate", help="label a sample interactively")
    p.add_argument("--sample", required=True, help="sample CSV to label")
    p.add_argument("--coder", required=True, help="coder identifier")
    p.add_argument("--out", required=True, help="labeled CSV path")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("gate", help="compute stats and gate the validated set")
    p.add_argument("--annotations", nargs=2, required=True,
                   metavar=("CODER_A_CSV", "CODER_B_CSV"))
    p.add_argument("--threshold", type=_fraction, default=0.80)
    _add_common_out(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("report", help="compute analytics reports")
    _add_corpus_args(p)
    _add_query_args(p)
    _add_common_out(p)
    p.add_argument("--threshold", type=_fraction, default=0.80)
    validated_from = p.add_mutually_exclusive_group()
    validated_from.add_argument("--resolution",
                                help="override the validated-set resolution file")
    validated_from.add_argument("--stats", help="gate from a stats CSV instead of the defaults")
    p.add_argument("--which", help="comma-separated report names (default: every "
                   "report the inputs can feed)")
    p.add_argument("--citations", help="per-paper yearly citation counts CSV")
    p.add_argument("--doc-type", dest="doc_type", choices=DOC_TYPES,
                   help="restrict the gap report to one document type")
    p.add_argument("--horizon", type=_horizon, default=10)
    p.add_argument("--top-n", dest="top_n", type=_count, default=10)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # No command makes cyclic garbage (a test runs each under gc.DEBUG_SAVEALL),
    # so a collection would only walk live objects: the collector stays off
    # until the command returns, then is left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    gc.freeze()  # module state lives until exit: the shutdown collection skips it
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

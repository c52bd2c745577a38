"""Run one citequery CLI command with a span around each layer call.

Usage: python3 traced.py SPANS_JSON SRC_DIR CLI_ARG...

The program is not edited: this script replaces, in this process only,
the public functions the CLI reaches with wrappers that record a span
(name, start, end, parent, run id) in memory, plus a few counts taken
from their return values. ``report`` runs also time the validation
layer's per-query sampling over the command's match records. Spans and
counts are written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            self.add(f"{name}.calls", 1)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return traced


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer, cli, ingest, engine) -> dict:
    """Wrap the layer entry points; returns objects captured for later use."""
    captured: dict = {}

    def loaded(result, path, *_):
        tracer.add("ingest.docs", len(result.documents))
        tracer.add("ingest.errors", len(result.errors))
        tracer.add("ingest.bytes", os.path.getsize(path))
        tracer.counts["ingest.rss_mb"] = _rss_mb()

    def extracted(citances, *_):
        tracer.add("tokens.citances", len(citances))
        tracer.add("tokens.words", sum(len(c.words) for c in citances))

    def matched(records, *_):
        captured["records"] = records
        tracer.add("engine.records", len(records))
        tracer.add("engine.matched", len({(r.doc_id, r.sentence_index) for r in records}))
        tracer.counts["engine.rss_mb"] = _rss_mb()

    cli.load_corpus = tracer.wrap("ingest.load", cli.load_corpus, loaded)
    ingest.split_sentences = tracer.wrap("ingest.split", ingest.split_sentences)
    ingest.extract_citances = tracer.wrap("tokens.extract", ingest.extract_citances, extracted)
    cli.run_all = tracer.wrap("engine.run_all", cli.run_all, matched)
    cli.builtin_catalog = tracer.wrap("catalog.build", cli.builtin_catalog)
    cli.default_validated_set = tracer.wrap("catalog.validated", cli.default_validated_set)

    class TracedMatcher(engine.CatalogMatcher):
        def __init__(self, queries):
            with tracer.span("engine.compile"):
                super().__init__(queries)

    engine.CatalogMatcher = TracedMatcher

    class TracedTable(cli.CitationTable):
        @classmethod
        def from_csv(cls, path):
            with tracer.span("analytics.citations_read"):
                return super().from_csv(path)

    cli.CitationTable = TracedTable
    cli.flag_citances = tracer.wrap("analytics.flag", cli.flag_citances)
    for name, span in (("rate_by", "analytics.rate_by"), ("impact_ratio", "analytics.impact"),
                       ("citation_gap", "analytics.gap"), ("field_slopes", "analytics.other"),
                       ("self_citation_ratio", "analytics.other"),
                       ("meso_log_ratio", "analytics.other"), ("top_tables", "analytics.other")):
        setattr(cli, name, tracer.wrap(span, getattr(cli, name)))
    return captured


def main(argv: list[str]) -> int:
    spans_path, src, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    command = cli_args[0]
    tracer = Tracer(command)
    from citequery import cli, engine, ingest, validation

    captured = install(tracer, cli, ingest, engine)
    with tracer.span("cli.command"):
        code = cli.main(cli_args)
    if command == "report" and code == 0:
        by_query: dict[str, list] = {}
        for record in captured.get("records", ()):
            by_query.setdefault(record.query_id, []).append(record)
        with tracer.span("validation.sample"):
            for query_id in sorted(by_query):
                validation.sample_matches(by_query[query_id], validation.DEFAULT_SAMPLE_SIZE, 0)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

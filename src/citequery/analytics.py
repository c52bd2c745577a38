"""Corpus analytics over flagged citances.

A citance is flagged when at least one validated query matched it;
every aggregate here is a deterministic fold over the corpus and the
set of flagged ``(doc_id, sentence_index)`` keys: rates by
field/year/meso-field/self-citation/age/position, per-year trend
slopes, log-ratio data for the meso-field map, top issuer and receiver
tables, the expected-citation ratio around the first disagreement
citation, and the issuer citation gap. Floats are summed by ``math.fsum``,
which gives the same total on every Python; ``sum`` does not (3.12 changed it).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import compress, count, repeat
from operator import add
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .catalog import ValidatedSet
from .engine import MatchRecord
from .ingest import NON_SELF, SELF, UNKNOWN, Document, Sentence
from .ingest import Integers, numbered_csv_columns

CitanceKey = tuple[str, int]
Flags = AbstractSet[CitanceKey]

AGE_BIN_WIDTH = 5
POSITION_BINS = 20
LOG_RATIO_CLAMP = 2.0  # log2 of the 4x truncation


class RateRow(NamedTuple):
    group: object
    disagreement_count: int
    citance_count: int

    @property
    def rate(self) -> float:
        """Percentage of the group's citances that carry disagreement."""
        return 100.0 * self.disagreement_count / self.citance_count


class MesoRow(NamedTuple):
    meso_field: int
    rate: float
    log_ratio: float
    n_citances: int


class ImpactReport(NamedTuple):
    k: int
    records: int
    mean_disagreement: float
    mean_expected: float

    @property
    def d(self) -> float:
        return self.mean_disagreement / self.mean_expected


class GapRow(NamedTuple):
    k: int
    mean_flagged: float
    mean_unflagged: float

    @property
    def gap(self) -> float:
        return self.mean_flagged - self.mean_unflagged


def flag_citances(
    matches: Iterable[MatchRecord], validated: ValidatedSet
) -> frozenset[CitanceKey]:
    """Keys of the citances matched by at least one validated query."""
    return frozenset(
        (record.doc_id, record.sentence_index)
        for record in matches if record.query_id in validated.query_ids
    )


@cache  # ages are differences of publication years: a few hundred values
def age_bin(age: int) -> str:
    if age < 0:
        return "<0"
    low = (age // AGE_BIN_WIDTH) * AGE_BIN_WIDTH
    return f"{low}-{low + AGE_BIN_WIDTH - 1}"


def age_bin_sort_key(label: str) -> int:
    return -1 if label == "<0" else int(label.split("-")[0])


_POSITION_LABELS = tuple(f"{low}-{low + 100 // POSITION_BINS}"
                         for low in range(0, 100, 100 // POSITION_BINS))


def citance_self_class(sentence: Sentence) -> str:
    """Self when any reference is a self-citation; unknown only when all are unknown."""
    classes = {r.self_citation for r in sentence.refs}
    return SELF if SELF in classes else NON_SELF if NON_SELF in classes else UNKNOWN


def _flagged_citances(flags: Flags, documents: Iterable[Document]):
    """Each document, in order, with its citing sentences a key of ``flags``
    names. The keys are indexed by doc id first, so a document no key names
    costs one lookup and a flagged one a pass over its own sentences."""
    index: dict[str, list[int]] = {}  # doc id -> the sentence indices named in it
    for doc_id, sentence_index in flags:
        index.setdefault(doc_id, []).append(sentence_index)
    for doc in documents:
        named = index.get(doc.doc_id)
        if named:
            named = set(named)
            yield doc, [sentence for sentence in doc.sentences
                        if sentence.index in named and sentence.refs]
        else:
            yield doc, ()


def _known(value):
    return UNKNOWN if value is None else value


# Per grouping, the group all citances of a document count in, or else the
# groups of a list of its citances, given the document and its position
# denominator: one per citance, or one per reference for ``age_bin``.
_DOC_GROUPS = {
    "main_field": lambda doc: _known(doc.main_field),
    "year": lambda doc: doc.year,
    "field_year": lambda doc: (_known(doc.main_field), doc.year),
    "meso_field": lambda doc: _known(doc.meso_field),
}
_CITANCE_GROUPS = {
    "self_citation": lambda doc, sentences, denominator: [
        s.refs[0].self_citation if len(s.refs) == 1 else citance_self_class(s) for s in sentences],
    "age_bin": lambda doc, sentences, denominator: [
        UNKNOWN if ref.cited_year is None else age_bin(doc.year - ref.cited_year)
        for s in sentences for ref in s.refs],
    "position_bin": lambda doc, sentences, denominator: [
        _POSITION_LABELS[min(POSITION_BINS - 1, int(s.index / denominator * POSITION_BINS))]
        for s in sentences],
}
GROUPINGS = (*_DOC_GROUPS, *_CITANCE_GROUPS)


def _label_sort_key(group) -> tuple:
    """Known labels in their own order (a grouping's known labels share one
    type, so meso field 7 comes before 10), ``unknown`` last."""
    return (1, "") if group == UNKNOWN else (0, group)


# Groupings whose groups do not sort by their label, ``unknown`` last.
_SORT_KEYS = {
    "age_bin": lambda g: (1, "") if g == UNKNOWN else (0, age_bin_sort_key(g)),
    "position_bin": _POSITION_LABELS.index,
}


def rate_by(
    flags: Flags,
    documents: Sequence[Document],
    groupings: Iterable[str],
) -> dict[str, list[RateRow]]:
    """Disagreement rate per group of each of ``groupings``, in one pass.

    Groups with absent metadata are reported as ``unknown``. For
    ``age_bin`` the counted unit is the citance-reference pair (a
    citance citing papers of several ages contributes to each of their
    bins); every other grouping counts citances. Age bins are 5-year
    bins plus ``<0`` for citations of younger papers; position bins are
    twenty 5%-wide bins over the citance's position in its document.
    ``groupings`` may be any iterable; a repeated name is read once.
    """
    tallies = {grouping: (Counter(), Counter()) for grouping in groupings}  # citances, flagged
    unknown = tallies.keys() - set(GROUPINGS)
    if unknown:
        raise ValueError(f"unknown groupings {sorted(unknown)}; one of {GROUPINGS}")
    per_doc = [(_DOC_GROUPS[g], *tallies[g]) for g in tallies if g in _DOC_GROUPS]
    per_citance = [(_CITANCE_GROUPS[g], *tallies[g]) for g in tallies if g in _CITANCE_GROUPS]
    for doc, flagged in _flagged_citances(flags, documents):
        citing = [sentence for sentence in doc.sentences if sentence.refs]
        for group_of, totals, positives in per_doc if citing else ():
            group = group_of(doc)
            totals[group] += len(citing)
            positives[group] += len(flagged)
        denominator = max(1, len(doc.sentences) - 1)
        for groups_of, totals, positives in per_citance:
            totals.update(groups_of(doc, citing, denominator))
            if flagged:
                positives.update(groups_of(doc, flagged, denominator))

    return {
        grouping: [
            RateRow(group, positives[group], totals[group])
            for group in sorted(totals, key=_SORT_KEYS.get(grouping, _label_sort_key))
        ]
        for grouping, (totals, positives) in tallies.items()
    }


def yearly_slope(rates_by_year: Mapping[int, float]) -> float:
    """Ordinary least-squares slope of rate against year."""
    if len(rates_by_year) < 2:
        raise ValueError("need rates for at least two years")
    years = sorted(rates_by_year)
    n = len(years)
    mean_x = sum(years) / n
    mean_y = math.fsum(rates_by_year[y] for y in years) / n
    sxx = math.fsum((y - mean_x) ** 2 for y in years)
    sxy = math.fsum((y - mean_x) * (rates_by_year[y] - mean_y) for y in years)
    return sxy / sxx


def field_slopes(rows: Iterable[RateRow]) -> dict[object, float]:
    """Per-field OLS slope of the yearly rate, from ``field_year`` rows."""
    by_field: dict[object, dict[int, float]] = {}
    for row in rows:
        field, year = row.group
        by_field.setdefault(field, {})[year] = row.rate
    return {
        field: yearly_slope(rates)
        for field, rates in sorted(by_field.items(), key=lambda kv: str(kv[0]))
        if len(rates) >= 2
    }


def self_citation_ratio(rows: Iterable[RateRow]) -> float:
    """Non-self over self disagreement rate, from ``self_citation`` rows."""
    rows = {row.group: row for row in rows}
    if SELF not in rows or rows[SELF].disagreement_count == 0:
        raise ValueError("self-citation ratio undefined: no flagged self citances")
    if NON_SELF not in rows:
        raise ValueError("self-citation ratio undefined: no non-self citances")
    return rows[NON_SELF].rate / rows[SELF].rate


def meso_log_ratio(rows: Iterable[RateRow]) -> list[MesoRow]:
    """Per-meso-field log2 rate ratio to the unweighted mean, from ``meso_field`` rows.

    Truncated to [-2, +2] (4x above or below the mean); zero-rate fields
    emit the lower clamp.
    """
    rows = [row for row in rows if row.group != UNKNOWN]
    if not rows:
        raise ValueError("no meso-field citances")
    mean_rate = math.fsum(row.rate for row in rows) / len(rows)
    out = []
    for row in rows:
        # Rates are never negative, so a positive rate makes the mean positive.
        ratio = math.log2(row.rate / mean_rate) if row.rate else -LOG_RATIO_CLAMP
        clamped = max(-LOG_RATIO_CLAMP, min(LOG_RATIO_CLAMP, ratio))
        out.append(MesoRow(row.group, row.rate, clamped, row.citance_count))
    return out


def top_tables(
    flags: Flags,
    documents: Sequence[Document],
    n: int = 10,
) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """(top issuers, top receivers) of disagreement citances.

    Issuers are ranked by flagged citances in the document; receivers by
    flagged citances whose references include the document, counting a
    citance once per cited document. Ties break by doc_id.
    """
    issued: dict[str, int] = {}
    received: dict[str, int] = {}
    for doc, flagged in _flagged_citances(flags, documents):
        for sentence in flagged:
            issued[doc.doc_id] = issued.get(doc.doc_id, 0) + 1
            cited = {r.cited_doc_id for r in sentence.refs if r.cited_doc_id}
            for doc_id in cited:
                received[doc_id] = received.get(doc_id, 0) + 1

    def top(counts: dict[str, int]) -> list[tuple[str, int]]:
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    return top(issued), top(received)


class CitationTable:
    """Per-paper yearly citation counts plus publication years.

    Years absent from the table count as zero citations received.
    """

    def __init__(self, pub_years: Mapping[str, int],
                 counts: Mapping[tuple[str, int], int]):
        self.pub_years = dict(pub_years)
        self.yearly: dict[str, dict[int, int]] = {}  # doc_id -> {year: citations}
        for (doc_id, year), citations in counts.items():
            self.yearly.setdefault(doc_id, {})[year] = citations

    @classmethod
    def from_csv(cls, path: str | Path) -> "CitationTable":
        """Read ``doc_id,pub_year,year,citations`` rows; a malformed or
        repeated row, or a negative count, raises ValueError naming its line."""
        table = cls({}, {})
        pub_years, yearly = table.pub_years, table.yearly
        numbers = Integers()  # each distinct cell text is checked once
        run_id = run_pub = None  # the doc_id and pub_year texts of the previous row
        with numbered_csv_columns(path, ("doc_id", "pub_year", "year", "citations")) as (
                rows, line, _):
            for doc_id, pub_text, year, citations in rows:
                try:
                    pub_year, year, citations = numbers[pub_text], numbers[year], numbers[citations]
                except ValueError as exc:
                    raise ValueError(f"line {line()}: bad row ({exc})") from None
                if citations < 0:
                    raise ValueError(f"line {line()}: bad row (negative citations {citations})")
                if doc_id != run_id or pub_text != run_pub:  # a paper's rows come in runs
                    if pub_years.setdefault(doc_id, pub_year) != pub_year:
                        raise ValueError(f"line {line()}: conflicting pub_year for {doc_id!r}")
                    years = yearly.setdefault(doc_id, {})
                    run_id, run_pub = doc_id, pub_text
                if year in years:
                    raise ValueError(f"line {line()}: repeated row for {(doc_id, year)!r}")
                years[year] = citations
        return table


def first_disagreement_years(
    flags: Flags, documents: Sequence[Document]
) -> dict[str, int]:
    """Earliest citing-paper year per cited paper over flagged citances."""
    first: dict[str, int] = {}
    for doc, flagged in _flagged_citances(flags, documents):
        for sentence in flagged:
            for ref in sentence.refs:
                if not ref.cited_doc_id:
                    continue
                current = first.get(ref.cited_doc_id)
                if current is None or doc.year < current:
                    first[ref.cited_doc_id] = doc.year
    return first


def impact_ratio(
    flags: Flags,
    documents: Sequence[Document],
    table: CitationTable,
    ks: Sequence[int],
) -> dict[tuple[str | None, int], ImpactReport]:
    """Cohort-weighted citation ratio at each ``k`` years after first
    disagreement, over all papers (field ``None``) and per main field.

    Papers are grouped into cells by (citations received in the year of
    their first disagreement citation, years since publication at that
    point). A cell's disagreement mean is taken over its first-flagged
    papers, its expected mean over every tabulated paper of the same
    field at the same cell, whether or not it was ever flagged. Both are
    weighted by the cell's number of first-flagged papers; their ratio
    exceeds one when disagreement-cited papers outperform expectation.
    A (field, k) without first-flagged papers or expected citations is left out.
    """
    fields = {d.doc_id: (None, d.main_field) if d.main_field else (None,) for d in documents}
    # t -> c -> field -> [p first-flagged papers, n papers in the cell, and per
    # k the citations at t + k summed over the p (sums_p) and the n (sums_n)]
    cells: dict[int, dict[int, dict]] = {}
    for doc_id, year in first_disagreement_years(flags, documents).items():
        pub = table.pub_years.get(doc_id)
        if pub is not None:
            counts = table.yearly.get(doc_id, {})
            by_field = cells.setdefault(year - pub, {}).setdefault(counts.get(year, 0), {})
            for field in fields.get(doc_id, (None,)):
                cell = by_field.setdefault(field, [0, [], [0] * len(ks), None])
                cell[0] += 1
                cell[2] = [s + counts.get(year + k, 0) for s, k in zip(cell[2], ks)]
    # The population: every tabulated paper's publication year, counts and fields.
    pubs = list(table.pub_years.values())
    yearly = [table.yearly.get(doc_id, {}) for doc_id in table.pub_years]
    fields_of = [fields.get(doc_id, (None,)) for doc_id in table.pub_years]
    for t, by_c in cells.items():
        # Until this t ends, a cell's n slot lists the indexes of its papers;
        # then it becomes their number, and their sums at t + k fill sums_n.
        at_t = list(map(dict.get, yearly, map(add, pubs, repeat(t)), repeat(0)))
        for i in compress(count(), map(by_c.__contains__, at_t)):
            for cell in filter(None, map(by_c[at_t[i]].get, fields_of[i])):
                cell[1].append(i)
        for by_field in by_c.values():
            for cell in by_field.values():
                counts = list(map(yearly.__getitem__, cell[1]))
                at = list(map(pubs.__getitem__, cell[1]))
                cell[1], cell[3] = len(at), [
                    sum(map(dict.get, counts, map(add, at, repeat(t + k)), repeat(0))) for k in ks]

    ordered: dict[str | None, list] = {}
    for c, t in sorted((c, t) for t, by_c in cells.items() for c in by_c):
        for field, cell in cells[t][c].items():
            ordered.setdefault(field, []).append(cell)
    reports = {}
    for field, group in ordered.items():
        weight = sum(p for p, _, _, _ in group)
        for i, k in enumerate(ks):
            mean_disagreement = math.fsum(
                p * (sums_p[i] / p) for p, _, sums_p, _ in group) / weight
            mean_expected = math.fsum(
                p * (sums_n[i] / n) for p, n, _, sums_n in group) / weight
            if mean_expected != 0:
                reports[field, k] = ImpactReport(k, weight, mean_disagreement, mean_expected)
    return reports


def citation_gap(
    flags: Flags,
    documents: Sequence[Document],
    table: CitationTable,
    doc_type: str | None = None,
    horizon: int = 10,
) -> list[GapRow]:
    """Mean-citation gap between flag-issuing and other papers, per year.

    A paper issues a flag when a key of ``flags`` names one of its citing
    sentences. Optionally restricted to one document type (e.g. full
    research articles). Papers absent from the citation table count zero.
    """
    absent: dict[int, int] = {}
    flagged, other = [], []  # (year counts, year) per paper
    for doc, citing in _flagged_citances(flags, documents):
        if doc_type is None or doc.doc_type == doc_type:
            (flagged if citing else other).append((table.yearly.get(doc.doc_id, absent), doc.year))
    if not flagged:
        raise ValueError("citation gap undefined: no flagged papers")
    if not other:
        raise ValueError("citation gap undefined: no unflagged papers")

    def mean(papers, k: int) -> float:
        return sum(counts.get(year + k, 0) for counts, year in papers) / len(papers)

    return [GapRow(k, mean(flagged, k), mean(other, k)) for k in range(1, horizon + 1)]

"""Corpus analytics over flagged citances.

A citance is flagged when at least one validated query matched it;
every aggregate here is a deterministic fold over the corpus and the
set of flagged ``(doc_id, sentence_index)`` keys: rates by
field/year/meso-field/self-citation/age/position, per-year trend
slopes, log-ratio data for the meso-field map, top issuer and receiver
tables, the expected-citation ratio around the first disagreement
citation, and the issuer citation gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

from .catalog import ValidatedSet
from .engine import MatchRecord
from .ingest import NON_SELF, SELF, UNKNOWN, Document, Sentence, is_self_citation
from .ingest import numbered_csv_rows

CitanceKey = tuple[str, int]
Flags = AbstractSet[CitanceKey]

AGE_BIN_WIDTH = 5
POSITION_BINS = 20
LOG_RATIO_CLAMP = 2.0  # log2 of the 4x truncation


@dataclass(frozen=True)
class RateRow:
    group: object
    disagreement_count: int
    citance_count: int

    @property
    def rate(self) -> float:
        """Percentage of the group's citances that carry disagreement."""
        return 100.0 * self.disagreement_count / self.citance_count


@dataclass(frozen=True)
class MesoRow:
    meso_field: int
    rate: float
    log_ratio: float
    n_citances: int
    zero_rate: bool = False


@dataclass(frozen=True)
class ImpactReport:
    k: int
    records: int
    mean_disagreement: float
    mean_expected: float

    @property
    def d(self) -> float:
        return self.mean_disagreement / self.mean_expected


@dataclass(frozen=True)
class GapRow:
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


def age_bin(age: int) -> str:
    if age < 0:
        return "<0"
    low = (age // AGE_BIN_WIDTH) * AGE_BIN_WIDTH
    return f"{low}-{low + AGE_BIN_WIDTH - 1}"


def age_bin_sort_key(label: str) -> int:
    return -1 if label == "<0" else int(label.split("-")[0])


def position_bin(fraction: float) -> str:
    index = min(POSITION_BINS - 1, int(fraction * POSITION_BINS))
    width = 100 // POSITION_BINS
    return f"{index * width}-{(index + 1) * width}"


def position_bin_sort_key(label: str) -> int:
    return int(label.split("-")[0])


def citance_self_class(doc: Document, sentence: Sentence) -> str:
    """Self when any reference is a self-citation; unknown only when all
    references lack cited-author data."""
    classes = {is_self_citation(doc.authors, r.cited_authors) for r in sentence.refs}
    if SELF in classes:
        return SELF
    if NON_SELF in classes:
        return NON_SELF
    return UNKNOWN


def _iter_citing_sentences(documents: Iterable[Document]):
    for doc in documents:
        total = len(doc.sentences)
        denominator = max(1, total - 1)
        for sentence in doc.sentences:
            if sentence.refs:
                yield doc, sentence, sentence.index / denominator


def _known(value):
    return UNKNOWN if value is None else value


# The groups one citing sentence counts in, per grouping, given its
# document and its position fraction within the document.
_GROUPS = {
    "main_field": lambda doc, sentence, fraction: (_known(doc.main_field),),
    "year": lambda doc, sentence, fraction: (doc.year,),
    "field_year": lambda doc, sentence, fraction: ((_known(doc.main_field), doc.year),),
    "meso_field": lambda doc, sentence, fraction: (_known(doc.meso_field),),
    "self_citation": lambda doc, sentence, fraction: (citance_self_class(doc, sentence),),
    "age_bin": lambda doc, sentence, fraction: tuple(
        UNKNOWN if ref.cited_year is None else age_bin(doc.year - ref.cited_year)
        for ref in sentence.refs
    ),
    "position_bin": lambda doc, sentence, fraction: (position_bin(fraction),),
}
GROUPINGS = tuple(_GROUPS)


def _label_sort_key(group) -> tuple:
    return (1, "") if group == UNKNOWN else (0, str(group))


# Groupings whose groups do not sort by their label, ``unknown`` last.
_SORT_KEYS = {
    "age_bin": lambda g: (1, "") if g == UNKNOWN else (0, age_bin_sort_key(g)),
    "position_bin": position_bin_sort_key,
}


def rate_by(
    flags: Flags,
    documents: Sequence[Document],
    grouping: str,
) -> list[RateRow]:
    """Disagreement rate per group.

    Groups with absent metadata are reported as ``unknown``. For
    ``age_bin`` the counted unit is the citance-reference pair (a
    citance citing papers of several ages contributes to each of their
    bins); every other grouping counts citances. Age bins are 5-year
    bins plus ``<0`` for citations of younger papers; position bins are
    twenty 5%-wide bins over the citance's position in its document.
    """
    if grouping not in _GROUPS:
        raise ValueError(f"unknown grouping {grouping!r}; one of {GROUPINGS}")
    groups_of = _GROUPS[grouping]
    totals: dict[object, int] = {}
    positives: dict[object, int] = {}
    for doc, sentence, fraction in _iter_citing_sentences(documents):
        flagged = (doc.doc_id, sentence.index) in flags
        for group in groups_of(doc, sentence, fraction):
            totals[group] = totals.get(group, 0) + 1
            if flagged:
                positives[group] = positives.get(group, 0) + 1

    return [
        RateRow(group, positives.get(group, 0), totals[group])
        for group in sorted(totals, key=_SORT_KEYS.get(grouping, _label_sort_key))
    ]


def yearly_slope(rates_by_year: Mapping[int, float]) -> float:
    """Ordinary least-squares slope of rate against year."""
    if len(rates_by_year) < 2:
        raise ValueError("need rates for at least two years")
    years = sorted(rates_by_year)
    n = len(years)
    mean_x = sum(years) / n
    mean_y = sum(rates_by_year[y] for y in years) / n
    sxx = sum((y - mean_x) ** 2 for y in years)
    sxy = sum((y - mean_x) * (rates_by_year[y] - mean_y) for y in years)
    return sxy / sxx


def field_slopes(
    flags: Flags, documents: Sequence[Document]
) -> dict[object, float]:
    """Per-field OLS slope of the yearly disagreement rate."""
    rows = rate_by(flags, documents, "field_year")
    by_field: dict[object, dict[int, float]] = {}
    for row in rows:
        field, year = row.group
        by_field.setdefault(field, {})[year] = row.rate
    return {
        field: yearly_slope(rates)
        for field, rates in sorted(by_field.items(), key=lambda kv: str(kv[0]))
        if len(rates) >= 2
    }


def self_citation_ratio(
    flags: Flags, documents: Sequence[Document]
) -> float:
    """Disagreement rate of non-self citances over that of self citances."""
    rows = {row.group: row for row in rate_by(flags, documents, "self_citation")}
    if SELF not in rows or rows[SELF].disagreement_count == 0:
        raise ValueError("self-citation ratio undefined: no flagged self citances")
    if NON_SELF not in rows:
        raise ValueError("self-citation ratio undefined: no non-self citances")
    return rows[NON_SELF].rate / rows[SELF].rate


def meso_log_ratio(
    flags: Flags, documents: Sequence[Document]
) -> list[MesoRow]:
    """Per-meso-field log2 rate ratio against the unweighted mean rate.

    Truncated to [-2, +2] (4x above or below the mean); zero-rate fields
    emit the lower clamp with an explicit marker.
    """
    rows = [
        row for row in rate_by(flags, documents, "meso_field")
        if row.group != UNKNOWN
    ]
    if not rows:
        raise ValueError("no meso-field citances")
    mean_rate = sum(row.rate for row in rows) / len(rows)
    out = []
    for row in rows:
        if row.rate == 0.0 or mean_rate == 0.0:
            out.append(MesoRow(row.group, row.rate, -LOG_RATIO_CLAMP,
                               row.citance_count, zero_rate=True))
        else:
            ratio = math.log2(row.rate / mean_rate)
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
    for doc, sentence, _ in _iter_citing_sentences(documents):
        if (doc.doc_id, sentence.index) not in flags:
            continue
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
        self._counts = dict(counts)

    @classmethod
    def from_csv(cls, path: str | Path) -> "CitationTable":
        """Read ``doc_id,pub_year,year,citations`` rows; a malformed row
        raises ValueError naming its line."""
        pub_years: dict[str, int] = {}
        counts: dict[tuple[str, int], int] = {}
        for line, row in numbered_csv_rows(path):
            try:
                doc_id = row["doc_id"]
                pub_year = int(row["pub_year"])
                key = (doc_id, int(row["year"]))
                counts[key] = int(row["citations"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {line}: bad row ({exc})") from None
            if pub_years.setdefault(doc_id, pub_year) != pub_year:
                raise ValueError(f"line {line}: conflicting pub_year for {doc_id!r}")
        return cls(pub_years, counts)

    def citations(self, doc_id: str, year: int) -> int:
        return self._counts.get((doc_id, year), 0)


def first_disagreement_years(
    flags: Flags, documents: Sequence[Document]
) -> dict[str, int]:
    """Earliest citing-paper year per cited paper over flagged citances."""
    first: dict[str, int] = {}
    for doc, sentence, _ in _iter_citing_sentences(documents):
        if (doc.doc_id, sentence.index) not in flags:
            continue
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
    k: int,
    field: str | None = None,
) -> ImpactReport:
    """Cohort-weighted citation ratio at ``k`` years after first disagreement.

    Papers are grouped into cells by (citations received in the year of
    their first disagreement citation, years since publication at that
    point). A cell's disagreement mean is taken over its first-flagged
    papers, its expected mean over every tabulated paper of the same
    field at the same cell, whether or not it was ever flagged. Both are
    weighted by the cell's number of first-flagged papers; their ratio
    exceeds one when disagreement-cited papers outperform expectation.
    """
    doc_fields = {d.doc_id: d.main_field for d in documents}

    def in_field(doc_id: str) -> bool:
        return field is None or doc_fields.get(doc_id) == field

    # (c, t) -> [citations at t + k summed over first-flagged papers, their
    # number, the same sum over the cell's whole population, its size]
    cells: dict[tuple[int, int], list[int]] = {}
    for doc_id, year in first_disagreement_years(flags, documents).items():
        if doc_id in table.pub_years and in_field(doc_id):
            t = year - table.pub_years[doc_id]
            cell = cells.setdefault((table.citations(doc_id, year), t), [0, 0, 0, 0])
            cell[0] += table.citations(doc_id, year + k)
            cell[1] += 1
    if not cells:
        raise ValueError("impact ratio undefined: no disagreement-cited papers in table")
    population = [(d, pub) for d, pub in table.pub_years.items() if in_field(d)]
    for t in {t for _, t in cells}:
        for doc_id, pub in population:
            cell = cells.get((table.citations(doc_id, pub + t), t))
            if cell is not None:
                cell[2] += table.citations(doc_id, pub + t + k)
                cell[3] += 1

    ordered = [cells[key] for key in sorted(cells)]
    weight = sum(p for _, p, _, _ in ordered)
    mean_disagreement = sum(p * (flagged / p) for flagged, p, _, _ in ordered) / weight
    mean_expected = sum(p * (total / n) for _, p, total, n in ordered) / weight
    if mean_expected == 0:
        raise ValueError("impact ratio undefined: expected citation mean is zero")
    return ImpactReport(k, weight, mean_disagreement, mean_expected)


def citation_gap(
    flags: Flags,
    documents: Sequence[Document],
    table: CitationTable,
    doc_type: str | None = None,
    horizon: int = 10,
) -> list[GapRow]:
    """Mean-citation gap between flag-issuing and other papers, per year.

    Optionally restricted to one document type (e.g. full research
    articles). Papers absent from the citation table count zero.
    """
    issuers = {doc_id for doc_id, _ in flags}
    rows = []
    flagged_docs = []
    other_docs = []
    for doc in documents:
        if doc_type is not None and doc.doc_type != doc_type:
            continue
        (flagged_docs if doc.doc_id in issuers else other_docs).append(doc)
    if not flagged_docs:
        raise ValueError("citation gap undefined: no flagged papers")
    if not other_docs:
        raise ValueError("citation gap undefined: no unflagged papers")
    for k in range(1, horizon + 1):
        mean_flagged = sum(
            table.citations(d.doc_id, d.year + k) for d in flagged_docs
        ) / len(flagged_docs)
        mean_other = sum(
            table.citations(d.doc_id, d.year + k) for d in other_docs
        ) / len(other_docs)
        rows.append(GapRow(k, mean_flagged, mean_other))
    return rows

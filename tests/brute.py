"""Brute-force recomputations that pin the package's faster paths.

``brute_impact`` recomputes the expected-citation ratio independently of
citequery.analytics: an explicit double loop over papers and cohort
cells, used to pin the cohort-weighted aggregation.

``brute_rates`` recounts one ``rate_by`` grouping citance by citance
(reference by reference for ``age_bin``) with plain loops and its own bin
labels and group order. ``brute_flagged`` recounts what ``top_tables`` and
``first_disagreement_years`` read, testing every citing sentence's key.

``oracle_corpus`` loads corpus records by the definitional route: every
marker's attributes parsed in full by ``parse_ref_markers``, each
sentence's refs its listed entries and then one per marker of an id they
do not list, a raw body's refs placed in sentences by ``split_sentences``,
and the self-citation class decided over every pair of a citing and a
cited author. It pins the reader's plain-marker path, its ref checks and
its initials lookup.

``oracle_citation_table`` reads a citation counts CSV the way
``CitationTable.from_csv`` did before it moved to one C-level pass: each
line decoded and numbered by a generator, the leading ``#`` block
dropped, a ``csv.reader`` over what is left and each row's cells picked
and converted one at a time, with every numeric cell checked against the
integer rule spelled out by hand.
"""

from __future__ import annotations

import csv
import unicodedata
from itertools import dropwhile

from citequery.ingest import (
    DOC_TYPES, MAIN_FIELDS, NON_SELF, SELF, UNKNOWN, Document, LoadError, RecordError,
    RefLink, Sentence, parse_ref_markers, split_sentences,
)


def brute_impact(
    first_years: dict[str, int],
    pub_years: dict[str, int],
    counts: dict[tuple[str, int], int],
    k: int,
) -> tuple[float, float, float]:
    """Returns (mean_disagreement, mean_expected, d)."""
    cells: dict[tuple[int, int], list[str]] = {}
    for doc_id, year in first_years.items():
        if doc_id not in pub_years:
            continue
        t = year - pub_years[doc_id]
        c = counts.get((doc_id, year), 0)
        cells.setdefault((c, t), []).append(doc_id)

    total_weight = 0
    weighted_disagreement = 0.0
    weighted_expected = 0.0
    for (c, t), members in cells.items():
        dis_values = []
        for doc_id in members:
            dis_values.append(counts.get((doc_id, pub_years[doc_id] + t + k), 0))
        cohort_values = []
        for doc_id, pub in pub_years.items():
            if counts.get((doc_id, pub + t), 0) == c:
                cohort_values.append(counts.get((doc_id, pub + t + k), 0))
        p = len(members)
        total_weight += p
        weighted_disagreement += p * (sum(dis_values) / len(dis_values))
        weighted_expected += p * (sum(cohort_values) / len(cohort_values))
    mean_disagreement = weighted_disagreement / total_weight
    mean_expected = weighted_expected / total_weight
    return mean_disagreement, mean_expected, mean_disagreement / mean_expected


def brute_rates(flags, documents, grouping: str) -> list[tuple[object, int, int]]:
    """(group, flagged, citances) rows of ``grouping``, in ``rate_by``'s order."""
    def known(value):
        return UNKNOWN if value is None else value

    flagged: dict[object, int] = {}
    totals: dict[object, int] = {}
    for doc in documents:
        last = len(doc.sentences) - 1
        for sentence in doc.sentences:
            if not sentence.refs:
                continue
            if grouping == "main_field":
                groups = [known(doc.main_field)]
            elif grouping == "year":
                groups = [doc.year]
            elif grouping == "field_year":
                groups = [(known(doc.main_field), doc.year)]
            elif grouping == "meso_field":
                groups = [known(doc.meso_field)]
            elif grouping == "self_citation":
                classes = [ref.self_citation for ref in sentence.refs]
                groups = [SELF if SELF in classes else NON_SELF if NON_SELF in classes
                          else UNKNOWN]
            elif grouping == "age_bin":
                groups = []
                for ref in sentence.refs:
                    if ref.cited_year is None:
                        groups.append(UNKNOWN)
                    elif doc.year < ref.cited_year:
                        groups.append("<0")
                    else:
                        low = (doc.year - ref.cited_year) // 5 * 5
                        groups.append(f"{low}-{low + 4}")
            elif grouping == "position_bin":
                fraction = sentence.index / max(1, last)
                low = 5 * min(19, int(fraction * 20))
                groups = [f"{low}-{low + 5}"]
            else:
                raise ValueError(grouping)
            for group in groups:
                totals[group] = totals.get(group, 0) + 1
                if (doc.doc_id, sentence.index) in flags:
                    flagged[group] = flagged.get(group, 0) + 1

    def order(group):
        if group == UNKNOWN:
            return (1, 0, "")
        if grouping == "age_bin":
            return (0, -1 if group == "<0" else int(group.split("-")[0]), "")
        if grouping == "position_bin":
            return (0, int(group.split("-")[0]), "")
        return (0, 0, group)  # each grouping's known labels share one type

    return [(group, flagged.get(group, 0), totals[group]) for group in sorted(totals, key=order)]


def brute_flagged(flags, documents):
    """(issued, received, first): flagged citances per citing document and
    per cited document (a citance counted once per cited id), and the
    earliest citing year per cited id, each in corpus order of first sight."""
    issued: dict[str, int] = {}
    received: dict[str, int] = {}
    first: dict[str, int] = {}
    for doc in documents:
        for sentence in doc.sentences:
            if not sentence.refs or (doc.doc_id, sentence.index) not in flags:
                continue
            issued[doc.doc_id] = issued.get(doc.doc_id, 0) + 1
            cited = [ref.cited_doc_id for ref in sentence.refs if ref.cited_doc_id]
            for doc_id in dict.fromkeys(cited):
                received[doc_id] = received.get(doc_id, 0) + 1
            for doc_id in cited:
                first[doc_id] = min(first.get(doc_id, doc.year), doc.year)
    return issued, received, first


def nfkd_fold(value: str) -> str:
    """Name folding by its definition: NFKD, marks dropped, casefolded, stripped."""
    decomposed = unicodedata.normalize("NFKD", value)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).casefold().strip()


def oracle_self_class(citing, cited) -> str:
    """A ref's self-citation class by its definition, over every pair of a
    citing and a cited author."""
    def key(author):
        given = nfkd_fold(author.get("given") or "")
        return nfkd_fold(author["family"]), next((c for c in given if c.isalpha()), None)

    if not cited:
        return UNKNOWN
    for family, initial in map(key, citing or []):
        for other, theirs in map(key, cited):
            if family == other and (initial is None or theirs is None or initial == theirs):
                return SELF
    return NON_SELF


def _authors_ok(raw) -> bool:
    return raw is None or isinstance(raw, list) and all(
        isinstance(a, dict) and isinstance(a.get("family"), str) and nfkd_fold(a["family"])
        and (a.get("given") is None or isinstance(a.get("given"), str)) for a in raw)


def _check_ref(ref, seen: set) -> str:
    ref_id = ref.get("ref_id") if isinstance(ref, dict) else None
    if isinstance(ref_id, str) and ref_id in seen:
        raise RecordError("dup_ref_id")
    if not (isinstance(ref_id, str) and ref_id
            and (ref.get("cited_year") is None or type(ref["cited_year"]) is int)
            and (ref.get("cited_doc_id") is None or isinstance(ref["cited_doc_id"], str))
            and _authors_ok(ref.get("cited_authors"))):
        raise RecordError("bad_ref")
    seen.add(ref_id)
    return ref_id


def _marker_ref(attrs: dict, seen: set) -> dict:
    """A marker as a ``refs`` entry: its cited_year an int only when it is
    ASCII digits after an optional leading minus."""
    year = attrs.get("cited_year")
    digits = year[1:] if year is not None and year.startswith("-") else year
    if digits and all(c in "0123456789" for c in digits):
        try:
            year = int(year)
        except ValueError:  # past int's digit limit
            pass
    ref = {"ref_id": attrs.get("id", ""), "cited_doc_id": attrs.get("cited_doc_id"),
           "cited_year": year}
    _check_ref(ref, seen)
    return ref


def oracle_document(obj, mode: str) -> Document:
    """One record's Document; raises RecordError as the reader does."""
    if not isinstance(obj, dict):
        raise RecordError("not_object")
    if not isinstance(obj.get("doc_id"), str) or not obj["doc_id"]:
        raise RecordError("missing_doc_id")
    year = obj.get("year")
    if year is None:
        raise RecordError("missing_year")
    if not isinstance(year, int) or not 1900 <= year <= 2100:
        raise RecordError("bad_year")
    if obj.get("doc_type", "other") not in DOC_TYPES:
        raise RecordError("bad_doc_type")
    if obj.get("main_field") is not None and obj["main_field"] not in MAIN_FIELDS:
        raise RecordError("bad_main_field")
    meso = obj.get("meso_field")
    if meso is not None and (type(meso) is not int or meso < 0):
        raise RecordError("bad_meso_field")
    if not _authors_ok(obj.get("authors")):
        raise RecordError("bad_authors")

    def link(ref):
        return RefLink(ref["ref_id"], ref.get("cited_doc_id"), ref.get("cited_year"),
                       oracle_self_class(obj.get("authors"), ref.get("cited_authors")))

    seen: set = set()
    if mode == "rawtext":
        if "body" not in obj:
            raise RecordError("missing_body")
        if not isinstance(obj["body"], str):
            raise RecordError("bad_body")
        links = [(link(_marker_ref(attrs, seen)), span)
                 for span, attrs in parse_ref_markers(obj["body"])]
        sentences = split_sentences(obj["body"], links)
    else:
        if "sentences" not in obj:
            raise RecordError("missing_sentences")
        if not isinstance(obj["sentences"], list):
            raise RecordError("bad_sentences")
        sentences = []
        for index, item in enumerate(obj["sentences"]):
            text = item.get("text") if isinstance(item, dict) else None
            refs = item.get("refs") if isinstance(item, dict) else None
            refs = [] if refs is None else refs
            if not isinstance(text, str) or not isinstance(refs, list):
                raise RecordError("bad_sentences")
            # Ids the refs array does not list are refs of their own, after
            # the array's.
            listed = {_check_ref(ref, seen) for ref in refs}
            refs = [*refs, *(_marker_ref(attrs, seen) for _, attrs in parse_ref_markers(text)
                             if attrs.get("id", "") not in listed)]
            sentences.append(Sentence(index, text, tuple(map(link, refs))))
    return Document(obj["doc_id"], year, obj.get("doc_type", "other"), obj.get("main_field"),
                    meso, tuple(sentences))


def oracle_corpus(records, mode: str) -> tuple[list[Document], list[LoadError]]:
    """The documents and load errors of a corpus holding ``records``, one a
    line: a record repeating a loaded record's doc_id is dup_doc_id."""
    documents, errors, loaded = [], [], set()
    for line, obj in enumerate(records, start=1):
        try:
            doc = oracle_document(obj, mode)
            if doc.doc_id in loaded:
                raise RecordError("dup_doc_id")
        except RecordError as exc:
            errors.append(LoadError(line, exc.code))
        else:
            loaded.add(doc.doc_id)
            documents.append(doc)
    return documents, errors


def _is_integer(cell: str) -> bool:
    digits = cell[1:] if cell.startswith("-") else cell
    return digits != "" and all(c in "0123456789" for c in digits)


def oracle_citation_table(path) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
    """``(pub_years, yearly)`` of a citation counts CSV, or the ValueError
    ``CitationTable.from_csv`` must raise for it."""
    csv.field_size_limit(2**31 - 1)
    names = ("doc_id", "pub_year", "year", "citations")
    last = 0

    def lines():
        nonlocal last
        with open(path, "rb") as handle:
            for last, raw in enumerate(handle, start=1):
                try:
                    yield raw.decode("utf-8-sig" if last == 1 else "utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"line {last}: not valid UTF-8") from None

    pub_years: dict[str, int] = {}
    yearly: dict[str, dict[int, int]] = {}
    try:
        rows = csv.reader(dropwhile(lambda text: text.startswith("#"), lines()))
        header = next(rows, None)
        if header is None:
            raise ValueError("no header row")
        at = {name: i for i, name in enumerate(header)}
        for name in names:
            if name not in at:
                raise ValueError(f"line {last}: bad header (no {name!r})")
        for row in rows:
            if not row:
                continue
            cells = []
            for name in names:
                if at[name] >= len(row):
                    raise ValueError(f"line {last}: bad row (no {name!r})")
                cells.append(row[at[name]])
            doc_id = cells[0]
            for cell in cells[1:]:
                if not _is_integer(cell):
                    raise ValueError(f"line {last}: bad row ({cell!r} is not an integer)")
            pub_year, year, citations = (int(cell) for cell in cells[1:])
            if citations < 0:
                raise ValueError(f"line {last}: bad row (negative citations {citations})")
            if pub_years.setdefault(doc_id, pub_year) != pub_year:
                raise ValueError(f"line {last}: conflicting pub_year for {doc_id!r}")
            years = yearly.setdefault(doc_id, {})
            if year in years:
                raise ValueError(f"line {last}: repeated row for {(doc_id, year)!r}")
            years[year] = citations
    except csv.Error as exc:
        raise ValueError(f"line {last}: {exc}") from None
    return pub_years, yearly

"""Corpus ingestion: documents, sentences, reference links and citances.

The interchange format is UTF-8 JSON Lines, one document per line. A
record carries either a pre-segmented ``sentences`` array or a raw
``body`` string with inline ``<ref .../>`` markers; in the latter case
the rule-based sentence splitter below is applied. A citance is any
sentence carrying at least one reference link.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import dropwhile
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .tokens import tokenize

DOC_TYPES = ("full-article", "review", "short-communication", "other")
MAIN_FIELDS = ("BioHealth", "LifeEarth", "MathComp", "PhysEngr", "SocHum")

SELF = "self"
NON_SELF = "non-self"
UNKNOWN = "unknown"

# Trailing-period chunks whose period never ends a sentence, plus
# single-letter initials handled separately.
ABBREVIATIONS = frozenset(
    {"al", "e.g", "i.e", "fig", "figs", "eq", "eqs", "et", "vs", "cf",
     "dr", "no", "ref", "refs"}
)

_REF_MARKER = re.compile(r"<ref\b([^<>]*?)/>")
_MARKER_ATTR = re.compile(r"(\w+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s/>]+))")
_TERMINATORS = ".!?"


def _fold(value: str) -> str:
    """Lowercase and strip diacritics from a name component."""
    if value.isascii():  # NFKD and mark removal change no ASCII; casefold is lower
        return value.lower().strip()
    decomposed = unicodedata.normalize("NFKD", value)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    return stripped.casefold().strip()


@dataclass(frozen=True)
class AuthorName:
    family: str
    given_initial: str | None = None

    @classmethod
    def from_parts(cls, family: str, given: str | None = None) -> "AuthorName":
        folded = _fold(family)
        if not folded:
            raise ValueError("author family name empty after normalization")
        initial = None
        if given:
            for c in _fold(given):
                if c.isalpha():
                    initial = c
                    break
        return cls(folded, initial)


@dataclass(frozen=True)
class RefLink:
    ref_id: str
    cited_doc_id: str | None = None
    cited_year: int | None = None
    cited_authors: tuple[AuthorName, ...] | None = None
    span: tuple[int, int] | None = None  # marker offsets within the sentence text


@dataclass(frozen=True)
class Sentence:
    index: int
    text: str
    refs: tuple[RefLink, ...] = ()


@dataclass(frozen=True)
class Document:
    doc_id: str
    year: int
    doc_type: str = "other"
    main_field: str | None = None
    meso_field: int | None = None
    authors: tuple[AuthorName, ...] = ()
    sentences: tuple[Sentence, ...] = ()


@dataclass(frozen=True)
class Citance:
    """A citing sentence: its key plus its words."""

    doc_id: str
    sentence_index: int
    words: tuple[str, ...]


class RecordError(ValueError):
    """A malformed corpus record; ``code`` is a short machine-readable tag."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


@dataclass(frozen=True)
class LoadError:
    line: int
    code: str

    def report(self) -> str:
        return f"line={self.line} error={self.code}"


@dataclass
class LoadResult:
    documents: list[Document] = field(default_factory=list)
    errors: list[LoadError] = field(default_factory=list)


def parse_ref_markers(text: str) -> list[tuple[tuple[int, int], dict[str, str]]]:
    """Find inline ``<ref .../>`` markers; returns (span, attributes) pairs."""
    found = []
    for m in _REF_MARKER.finditer(text):
        attrs = {a.group(1): a.group(2) or a.group(3) or a.group(4) or ""
                 for a in _MARKER_ATTR.finditer(m.group(1))}
        found.append(((m.start(), m.end()), attrs))
    return found


def _is_abbreviation(text: str, dot_index: int) -> bool:
    """True when the period at ``dot_index`` ends a known abbreviation."""
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    chunk = text[start:dot_index].lower()
    core = chunk.lstrip("([{'\"").rstrip(".")
    if not core:
        return False
    if core in ABBREVIATIONS:
        return True
    return len(core) == 1 and core.isalpha()


def sentence_spans(
    text: str, protected_spans: Sequence[tuple[int, int]] = ()
) -> list[tuple[int, int]]:
    """Character spans of the sentences in ``text``.

    A boundary is a terminator (``.``, ``!``, ``?``) followed by
    whitespace and an uppercase letter or digit, never inside a
    protected span and never after a listed abbreviation or a
    single-letter initial. Spans are trimmed of surrounding whitespace;
    everything dropped between consecutive spans is whitespace.
    """
    n = len(text)
    protected = sorted(protected_spans)
    k = 0  # protected spans before k end at or before the current index
    boundaries: list[int] = []  # index one past the terminator
    for i, c in enumerate(text):
        if c not in _TERMINATORS:
            continue
        while k < len(protected) and protected[k][1] <= i:
            k += 1
        if k < len(protected) and protected[k][0] <= i:
            continue
        j = i + 1
        if j >= n or not text[j].isspace():
            continue
        while j < n and text[j].isspace():
            j += 1
        if j >= n or not (text[j].isupper() or text[j].isdigit()):
            continue
        if c == "." and _is_abbreviation(text, i):
            continue
        boundaries.append(i + 1)

    spans: list[tuple[int, int]] = []
    start = 0
    for cut in boundaries + [n]:
        segment_start, segment_end = start, cut
        while segment_start < segment_end and text[segment_start].isspace():
            segment_start += 1
        while segment_end > segment_start and text[segment_end - 1].isspace():
            segment_end -= 1
        if segment_end > segment_start:
            spans.append((segment_start, segment_end))
        start = cut
    return spans


def split_sentences(text: str, refs: Sequence[RefLink] = ()) -> list[Sentence]:
    """Split raw text into sentences, distributing refs by marker span.

    ``refs`` carry document-level marker spans; the returned sentences
    hold the same links rebased to sentence-local offsets. No sentence
    boundary is ever placed inside a marker span.
    """
    spans = sentence_spans(text, [r.span for r in refs if r.span is not None])
    starts = [start for start, _ in spans]
    local: list[list[RefLink]] = [[] for _ in spans]
    for r in refs:
        if r.span is None:
            continue
        # Sentences are disjoint, so only the last one starting at or
        # before the marker can hold it.
        index = bisect_right(starts, r.span[0]) - 1
        if index >= 0 and r.span[1] <= spans[index][1]:
            start = starts[index]
            local[index].append(RefLink(
                r.ref_id, r.cited_doc_id, r.cited_year, r.cited_authors,
                (r.span[0] - start, r.span[1] - start),
            ))
    return [
        Sentence(index, text[start:end], tuple(local[index]))
        for index, (start, end) in enumerate(spans)
    ]


def _require_str(obj: dict, key: str, code: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise RecordError(code)
    return value


def _parse_authors(raw, code: str) -> tuple[AuthorName, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise RecordError(code)
    authors = []
    for item in raw:
        if (not isinstance(item, dict) or not isinstance(item.get("family"), str)
                or not isinstance(item.get("given"), (str, type(None)))):
            raise RecordError(code)
        try:
            authors.append(AuthorName.from_parts(item["family"], item.get("given")))
        except ValueError:
            raise RecordError(code)
    return tuple(authors)


def _parse_ref_obj(obj, seen_ids: set[str], spans: dict[str, tuple[int, int]]) -> RefLink:
    if not isinstance(obj, dict):
        raise RecordError("bad_ref")
    ref_id = _require_str(obj, "ref_id", "bad_ref")
    if ref_id in seen_ids:
        raise RecordError("dup_ref_id", ref_id)
    seen_ids.add(ref_id)
    cited_year = obj.get("cited_year")
    if cited_year is not None and type(cited_year) is not int:  # a JSON true is no year
        raise RecordError("bad_ref", "cited_year")
    cited_authors = obj.get("cited_authors")
    authors = _parse_authors(cited_authors, "bad_ref") if cited_authors is not None else None
    cited_doc = obj.get("cited_doc_id")
    if cited_doc is not None and not isinstance(cited_doc, str):
        raise RecordError("bad_ref", "cited_doc_id")
    return RefLink(ref_id, cited_doc, cited_year, authors, spans.get(ref_id))


def _marker_ref(attrs: dict[str, str], span: tuple[int, int], seen_ids: set[str]) -> RefLink:
    ref_id = attrs.get("id", "")
    if not ref_id:
        raise RecordError("bad_ref", "marker without id")
    if ref_id in seen_ids:
        raise RecordError("dup_ref_id", ref_id)
    seen_ids.add(ref_id)
    year = attrs.get("cited_year")
    cited_year = None
    if year is not None:
        try:
            cited_year = int(year)
        except ValueError:
            raise RecordError("bad_ref", "cited_year")
    return RefLink(ref_id, attrs.get("cited_doc_id"), cited_year, None, span)


def _parse_presegmented(raw, seen_ids: set[str]) -> tuple[Sentence, ...]:
    if not isinstance(raw, list):
        raise RecordError("bad_sentences")
    sentences = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict):
            raise RecordError("bad_sentences")
        text = item.get("text")
        if not isinstance(text, str):
            raise RecordError("bad_sentences", "missing text")
        raw_refs = item.get("refs")
        if raw_refs is None:
            raw_refs = []
        elif not isinstance(raw_refs, list):
            raise RecordError("bad_sentences", "refs")
        # Markers in the text give spans, the last of an id its span; ids absent
        # from the refs array become links of their own, after the array's.
        markers = parse_ref_markers(text) if "<ref" in text else []
        spans = {attrs.get("id", ""): span for span, attrs in markers}
        refs = [_parse_ref_obj(o, seen_ids, spans) for o in raw_refs]
        if markers:
            listed = {r.ref_id for r in refs}
            refs.extend(_marker_ref(attrs, span, seen_ids)
                        for span, attrs in markers if attrs.get("id", "") not in listed)
        sentences.append(Sentence(index, text, tuple(refs)))
    return tuple(sentences)


def _parse_rawtext(body, seen_ids: set[str]) -> tuple[Sentence, ...]:
    if not isinstance(body, str):
        raise RecordError("bad_body")
    refs = [_marker_ref(attrs, span, seen_ids) for span, attrs in parse_ref_markers(body)]
    return tuple(split_sentences(body, refs))


def record_to_document(obj, mode: str) -> Document:
    """Validate one decoded JSON record and build a Document.

    Raises RecordError with a stable code for malformed records.
    """
    if not isinstance(obj, dict):
        raise RecordError("not_object")
    if "doc_id" not in obj or not isinstance(obj["doc_id"], str) or not obj["doc_id"]:
        raise RecordError("missing_doc_id")
    if "year" not in obj or obj["year"] is None:
        raise RecordError("missing_year")
    year = obj["year"]
    if not isinstance(year, int) or not 1900 <= year <= 2100:
        raise RecordError("bad_year", repr(year))
    doc_type = obj.get("doc_type", "other")
    if doc_type not in DOC_TYPES:
        raise RecordError("bad_doc_type", repr(doc_type))
    main_field = obj.get("main_field")
    if main_field is not None and main_field not in MAIN_FIELDS:
        raise RecordError("bad_main_field", repr(main_field))
    meso_field = obj.get("meso_field")
    if meso_field is not None and (type(meso_field) is not int or meso_field < 0):
        raise RecordError("bad_meso_field", repr(meso_field))
    authors = _parse_authors(obj.get("authors"), "bad_authors")

    seen_ids: set[str] = set()
    if mode == "presegmented":
        if "sentences" not in obj:
            raise RecordError("missing_sentences")
        sentences = _parse_presegmented(obj["sentences"], seen_ids)
    elif mode == "rawtext":
        if "body" not in obj:
            raise RecordError("missing_body")
        sentences = _parse_rawtext(obj["body"], seen_ids)
    else:
        raise ValueError(f"unknown mode: {mode!r}")

    return Document(
        doc_id=obj["doc_id"],
        year=year,
        doc_type=doc_type,
        main_field=main_field,
        meso_field=meso_field,
        authors=authors,
        sentences=sentences,
    )


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, each with its 1-based number.

    The file is streamed and decoded one line at a time, so it is never
    held in memory whole. Lines end at ``\\n`` and keep their terminator.
    An unreadable file raises OSError, and a line that is not UTF-8 a
    ValueError naming it.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"line {lineno}: not valid UTF-8") from None


def numbered_csv_columns(
    path: str | Path, required: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[int, tuple[str | None, ...]]]:
    """Each non-blank data row of a UTF-8 CSV file as its cells under the
    columns ``required`` and then ``optional``, paired with the 1-based
    number of the row's last line.

    ``#`` lines before the header row are comments. After the header every
    line is data, so a quoted field may hold lines that start with ``#``.
    A repeated column name reads its last column. A row without a cell
    under a required column, because the header or the row is too short
    for it, raises ValueError("line N: bad row (no 'column')"); a missing
    optional cell reads None. Malformed CSV raises ValueError naming its line.
    """
    # A citance text may pass csv's 128 KiB default field limit; this is
    # the largest limit every platform accepts.
    csv.field_size_limit(2**31 - 1)
    last = 0

    def data() -> Iterator[str]:
        nonlocal last
        for last, text in dropwhile(lambda item: item[1].startswith("#"),
                                    numbered_lines(path)):
            yield text

    names = (*required, *optional)
    try:
        rows = csv.reader(data())
        at = {name: i for i, name in enumerate(next(rows, []))}
        indices = [at.get(name) for name in names]
        # A row reaching every column is read in one call, any other cell by
        # cell (as is every row of one column: itemgetter(i) gives no tuple).
        whole = len(indices) > 1 and None not in indices
        width = max(indices) + 1 if whole else 0
        get = itemgetter(*indices)
        for row in filter(None, rows):
            if whole and len(row) >= width:
                yield last, get(row)
                continue
            cells = tuple(None if i is None or i >= len(row) else row[i] for i in indices)
            if None in cells[:len(required)]:
                raise ValueError(f"line {last}: bad row (no {names[cells.index(None)]!r})")
            yield last, cells
    except csv.Error as exc:
        raise ValueError(f"line {last}: {exc}") from None


def load_corpus(path: str | Path, mode: str = "presegmented") -> LoadResult:
    """Load a JSON Lines corpus file.

    Malformed records, and records repeating an earlier record's
    ``doc_id``, are skipped and collected as LoadErrors carrying their
    1-based line numbers; an unreadable file raises OSError, and a line
    that is not UTF-8 a ValueError naming it.
    """
    if mode not in ("presegmented", "rawtext"):
        raise ValueError(f"unknown mode: {mode!r}")
    result = LoadResult()
    loaded: set[str] = set()
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # also over-long numbers and deep nesting
            result.errors.append(LoadError(lineno, "bad_json"))
            continue
        try:
            doc = record_to_document(obj, mode)
            if doc.doc_id in loaded:
                raise RecordError("dup_doc_id")
        except RecordError as exc:
            result.errors.append(LoadError(lineno, exc.code))
        else:
            loaded.add(doc.doc_id)
            result.documents.append(doc)
    return result


def extract_citances(doc: Document) -> list[Citance]:
    """Citances of a document: its ref-bearing sentences, tokenized."""
    citances = []
    for sentence in doc.sentences:
        if not sentence.refs:
            continue
        spans = sorted(r.span for r in sentence.refs if r.span is not None)
        citances.append(
            Citance(
                doc_id=doc.doc_id,
                sentence_index=sentence.index,
                words=tokenize(sentence.text, spans),
            )
        )
    return citances


def iter_citances(documents: Iterable[Document]) -> Iterator[Citance]:
    for doc in documents:
        yield from extract_citances(doc)


def is_self_citation(
    citing: Sequence[AuthorName], cited: Sequence[AuthorName] | None
) -> str:
    """Classify a citing/cited author-list pair: self, non-self or unknown.

    Two names agree when their family names match and, where both carry
    a given initial, the initials match as well. An absent or empty
    cited list yields ``unknown``.
    """
    if not cited:
        return UNKNOWN
    for a in citing:
        for b in cited:
            if a.family != b.family:
                continue
            if a.given_initial and b.given_initial and a.given_initial != b.given_initial:
                continue
            return SELF
    return NON_SELF

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
from contextlib import contextmanager, suppress
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tokens import REF_MARKER, tokenize_all

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

_MARKER_ATTR = re.compile(r"(\w+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s/>]+))")
# The one form of every integer and every decimal number an input or option
# gives: ASCII digits after an optional "-" (a decimal may hold a "." and an
# exponent), so "1_0", "+4", " 4 ", "٤", "nan" and "inf" are no numbers.
INTEGER = re.compile(r"-?[0-9]+")
DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_OPTIONAL_STR = (str, type(None))
_TERMINATORS = ".!?"
# A JSON \u escape of a UTF-16 surrogate; json.loads keeps an unpaired one
# as a str that no output file can encode. Scanned left to right, the second
# regex skips an escaped backslash whole, so only a real escape matches; its
# group 1 is set by one that is no half of a high-low pair.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_UNPAIRED_SURROGATE = re.compile(r"\\(?:\\|u[dD][89abAB]..\\u[dD][c-fC-F]|(u[dD][89a-fA-F]))")


def integer(text: str) -> int:
    """``text`` as an int if INTEGER writes it, else ValueError."""
    if INTEGER.fullmatch(text):
        return int(text)  # past int's digit limit this raises ValueError too
    raise ValueError(f"{text!r} is not an integer")


class Integers(dict):
    """``integer`` of each text looked up, worked out once per distinct text."""

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        self[text] = value = integer(text)
        return value


def _fold(value: str) -> str:
    """Lowercase and strip diacritics from a name component."""
    if value.isascii():  # NFKD and mark removal change no ASCII; casefold is lower
        return value.lower().strip()
    decomposed = unicodedata.normalize("NFKD", value)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    return stripped.casefold().strip()


class RefLink(NamedTuple):
    ref_id: str
    cited_doc_id: str | None = None
    cited_year: int | None = None
    self_citation: str = UNKNOWN  # SELF, NON_SELF or UNKNOWN; see _self_class


class Sentence(NamedTuple):
    index: int
    text: str
    refs: tuple[RefLink, ...] = ()


class Document(NamedTuple):
    doc_id: str
    year: int
    doc_type: str = "other"
    main_field: str | None = None
    meso_field: int | None = None
    sentences: tuple[Sentence, ...] = ()


class Citance(NamedTuple):
    """A citing sentence: its key plus its words."""

    doc_id: str
    sentence_index: int
    words: tuple[str, ...]


class RecordError(ValueError):
    """A malformed corpus record; ``code`` is a short machine-readable tag."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


class LoadError(NamedTuple):
    line: int
    code: str

    def report(self) -> str:
        return f"line={self.line} error={self.code}"


class LoadResult(NamedTuple):
    documents: list[Document]
    errors: list[LoadError]


def parse_ref_markers(text: str) -> list[tuple[tuple[int, int], dict[str, str]]]:
    """Find inline ``<ref .../>`` markers; returns (span, attributes) pairs."""
    return [(m.span(), {name: double or single or bare  # findall reads "" for an absent group
                        for name, double, single, bare in _MARKER_ATTR.findall(m[1])})
            for m in REF_MARKER.finditer(text)]


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


def _sentence_links(text: str, links: Sequence[tuple[object, tuple[int, int]]]):
    """Split raw text into (index, text, items) sentences. A sentence holds
    the item of each ``(item, span)`` link whose marker span lies within it,
    and no sentence boundary is ever placed inside a marker span."""
    spans = sentence_spans(text, [span for _, span in links])
    starts = [start for start, _ in spans]
    held: list[list] = [[] for _ in spans]
    for item, (start, end) in links:
        # Sentences are disjoint, so only the last one starting at or
        # before the marker can hold it.
        index = bisect_right(starts, start) - 1
        if index >= 0 and end <= spans[index][1]:
            held[index].append(item)
    return [(index, text[start:end], held[index]) for index, (start, end) in enumerate(spans)]


def split_sentences(
    text: str, links: Sequence[tuple[RefLink, tuple[int, int]]] = ()
) -> list[Sentence]:
    """Split raw text into sentences, each holding the ref of every
    ``(ref, span)`` link whose marker span (offsets in ``text``) lies
    within it. No sentence boundary is ever placed inside a marker span."""
    return [Sentence(index, sentence, tuple(refs))
            for index, sentence, refs in _sentence_links(text, links)]


# Validation. Every load error code but bad_json and dup_doc_id is raised
# below, each in one helper, and ``record_to_document``, ``load_corpus`` and
# ``read_citing`` all validate through ``_checked_sentences``.


def _valid_authors(raw) -> bool:
    """Whether ``raw`` is absent (None) or a list of author objects, each
    with a string ``family`` that is not empty once folded (by ``_fold``)
    and an optional string ``given``."""
    if raw is None:
        return True
    if not isinstance(raw, list):
        return False
    for item in raw:
        if not isinstance(item, dict):
            return False
        family = item.get("family")
        if (not isinstance(family, str) or not isinstance(item.get("given"), _OPTIONAL_STR)
                or not (family.strip() if family.isascii() else _fold(family))):
            return False
    return True


def _check_ref(ref, seen_ids: set[str]) -> str:
    """Check one ``refs`` entry, claim its id in ``seen_ids`` and return it."""
    ref_id = ref.get("ref_id") if isinstance(ref, dict) else None
    if not isinstance(ref_id, str) or not ref_id:  # "" is never seen, so is bad_ref
        raise RecordError("bad_ref")
    if ref_id in seen_ids:
        raise RecordError("dup_ref_id", ref_id)
    year, doc = ref.get("cited_year"), ref.get("cited_doc_id")
    if ((year is not None and type(year) is not int)  # a JSON true is no year
            or (doc is not None and not isinstance(doc, str))
            or not _valid_authors(ref.get("cited_authors"))):
        raise RecordError("bad_ref")
    seen_ids.add(ref_id)
    return ref_id


def _marker_ref(attrs: dict[str, str], seen_ids: set[str]) -> dict:
    """A ``<ref .../>`` marker's attributes as a checked ``refs`` entry."""
    year = attrs.get("cited_year")
    if year is not None:
        with suppress(ValueError):  # a string that is no integer stays, and is refused
            year = integer(year)
    ref = {"ref_id": attrs.get("id", ""), "cited_doc_id": attrs.get("cited_doc_id"),
           "cited_year": year}
    _check_ref(ref, seen_ids)
    return ref


def _checked_sentences(obj, mode: str) -> list[tuple[int, str, list]]:
    """Check one decoded JSON record and return its sentences as (index,
    text, refs): refs are the checked ``refs`` entries, then, in marker
    order, the attributes of each marker of an id they do not list, in
    that shape.

    Raises RecordError with a stable code for malformed records.
    """
    if not isinstance(obj, dict):
        raise RecordError("not_object")
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise RecordError("missing_doc_id")
    year = obj.get("year")
    if year is None:
        raise RecordError("missing_year")
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
    if not _valid_authors(obj.get("authors")):
        raise RecordError("bad_authors")

    seen_ids: set[str] = set()
    if mode == "rawtext":
        if "body" not in obj:
            raise RecordError("missing_body")
        body = obj["body"]
        if not isinstance(body, str):
            raise RecordError("bad_body")
        return _sentence_links(body, [(_marker_ref(attrs, seen_ids), span)
                                      for span, attrs in parse_ref_markers(body)])
    if mode != "presegmented":
        raise ValueError(f"unknown mode: {mode!r}")
    if "sentences" not in obj:
        raise RecordError("missing_sentences")
    raw = obj["sentences"]
    if not isinstance(raw, list):
        raise RecordError("bad_sentences")
    sentences = []
    for index, item in enumerate(raw):
        text, refs = ((item.get("text"), item.get("refs")) if isinstance(item, dict)
                      else (None, None))
        if refs is None:
            refs = []
        if not isinstance(text, str) or not isinstance(refs, list):
            raise RecordError("bad_sentences")
        # The plain marker of a listed id free of '"', '<' and '>' is one that
        # parse_ref_markers reads as that id. When each is found after the one
        # before (so the search stays linear) and the text holds no other "<ref",
        # they are all its markers, once each: the regex is skipped.
        end = 0
        marked = plain = "<ref" in text
        for ref in refs:
            ref_id = _check_ref(ref, seen_ids)
            if plain:
                marker = f'<ref id="{ref_id}"/>'
                at = text.find(marker, end)
                end = at + len(marker)
                plain = at >= 0 and '"' not in ref_id and "<" not in ref_id and ">" not in ref_id
        # Else ids absent from the refs array become refs of their own, after
        # the array's.
        if marked and not (plain and text.count("<ref") == len(refs)):
            listed = {ref["ref_id"] for ref in refs}
            refs = [*refs, *(_marker_ref(attrs, seen_ids) for _, attrs in parse_ref_markers(text)
                             if attrs.get("id", "") not in listed)]
        sentences.append((index, text, refs))
    return sentences


def _initial(given) -> str | None:
    """The first letter of a folded given name, or None when it has none."""
    return next(filter(str.isalpha, _fold(given or "")), None)


def _self_class(initials: dict[str, set[str | None]], cited: list | None) -> str:
    """A ref's self-citation class, from the citing authors' initials by
    folded family name and the ref's ``cited_authors``: self when a cited
    and a citing author share a family name and, where both have one, an
    initial; unknown when no cited author is listed; non-self otherwise."""
    if not cited:
        return UNKNOWN
    for author in cited:
        mine = initials.get(_fold(author["family"]))
        if mine is not None and (None in mine or _initial(author.get("given")) in {None, *mine}):
            return SELF
    return NON_SELF


def _document(obj: dict, sentences: list[tuple[int, str, list]]) -> Document:
    """The Document of a record and its ``_checked_sentences``."""
    initials: dict[str, set[str | None]] = {}
    for author in obj.get("authors") or ():
        initials.setdefault(_fold(author["family"]), set()).add(_initial(author.get("given")))
    return Document(
        doc_id=obj["doc_id"],
        year=obj["year"],
        doc_type=obj.get("doc_type", "other"),
        main_field=obj.get("main_field"),
        meso_field=obj.get("meso_field"),
        sentences=tuple([
            Sentence(index, text, tuple([
                RefLink(ref["ref_id"], ref.get("cited_doc_id"), ref.get("cited_year"),
                        _self_class(initials, ref.get("cited_authors")))
                for ref in refs]) if refs else ())
            for index, text, refs in sentences]),
    )


def record_to_document(obj, mode: str) -> Document:
    """Validate one decoded JSON record and build a Document.

    Raises RecordError with a stable code for malformed records.
    """
    return _document(obj, _checked_sentences(obj, mode))


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, each with its 1-based number.

    The file is streamed and decoded one line at a time, so it is never
    held in memory whole. Lines end at ``\\n`` and keep their terminator,
    and a UTF-8 byte order mark opening line 1 is dropped. An unreadable
    file raises OSError, and a line that is not UTF-8 a ValueError naming it.
    """
    # A corpus line runs to about 8 KB, the size of the default buffer.
    with open(path, "rb", buffering=1 << 16) as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                yield lineno, raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"line {lineno}: not valid UTF-8") from None


@contextmanager
def numbered_csv_columns(
    path: str | Path, required: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[Iterator[tuple[str | None, ...]], Callable[[], int], list[str]]]:
    """A context manager over a UTF-8 CSV file giving ``(rows, line,
    comments)``: ``rows`` iterates each non-blank data row as its cells
    under the columns ``required`` and then ``optional``, ``line()`` is the
    1-based number of the last line of the row read last, and ``comments``
    the ``#`` lines before the header row as read (a byte order mark dropped).

    After the header every line is data, so a quoted field may hold lines
    that start with ``#``. A repeated column name reads its last column.
    A file with no header row raises ValueError("no header row"), a header
    without a required column ValueError("line N: bad header (no
    'column')"), and a row too short to reach one ValueError("line N: bad
    row (no 'column')"); a missing optional cell reads None. A line that is
    not UTF-8 or malformed CSV raises, while its row is read, a ValueError
    naming its line. The file is decoded one line at a time, as rows are read.
    """
    # A citance text may pass csv's 128 KiB default field limit; this is
    # the largest limit every platform accepts.
    csv.field_size_limit(2**31 - 1)
    names = (*required, *optional)
    comments: list[str] = []
    reader = None

    def line() -> int:
        return len(comments) + (reader.line_num if reader else 0)

    with open(path, "rb") as handle:
        lines = map(bytes.decode, handle)
        try:
            text = handle.readline().decode("utf-8-sig")
            while text.startswith("#"):
                comments.append(text)
                text = next(lines, "")
            if not text:
                raise ValueError("no header row")
            reader = csv.reader(chain((text,), lines))
            at = {name: i for i, name in enumerate(next(reader))}
            indices = [at.get(name) for name in names]
            if None in indices[:len(required)]:
                raise ValueError(f"line {line()}: bad header (no {names[indices.index(None)]!r})")
            # A row reaching every column is read in one itemgetter call, any
            # other cell by cell (as is every row of one column: itemgetter(i)
            # gives no tuple). Rows come in runs of one length, so the choice
            # is made once a run, and a run of whole rows is read in C.
            get = itemgetter(*indices) if len(indices) > 1 and None not in indices else None
            width = max(indices) + 1 if get else 0

            def cells(run: tuple[int, Iterator[list[str]]]) -> Iterator[tuple[str | None, ...]]:
                length, rows = run
                if get and length >= width:
                    return map(get, rows)
                for name, i in zip(required, indices):
                    if i >= length:
                        raise ValueError(f"line {line()}: bad row (no {name!r})")
                return (tuple(None if i is None or i >= length else row[i] for i in indices)
                        for row in rows)

            rows = chain.from_iterable(map(cells, groupby(filter(None, reader), len)))
            yield rows, line, comments
        except csv.Error as exc:
            raise ValueError(f"line {line()}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"line {line() + 1}: not valid UTF-8") from None


def _checked_records(
    path: str | Path, mode: str, errors: list[LoadError]
) -> Iterator[tuple[dict, list[tuple[int, str, list]]]]:
    """Each record of a corpus file that loads, with its
    ``_checked_sentences``; load errors go to ``errors`` (see load_corpus)."""
    if mode not in ("presegmented", "rawtext"):
        raise ValueError(f"unknown mode: {mode!r}")
    loaded: set[str] = set()
    for lineno, line in numbered_lines(path):
        try:
            obj = json.loads(line)
            if _SURROGATE_ESCAPE.search(line) and any(
                    m[1] for m in _UNPAIRED_SURROGATE.finditer(line)):
                json.dumps(obj, ensure_ascii=False).encode("utf-8")  # raises on a lone one
        except (ValueError, RecursionError):  # also over-long numbers and deep nesting
            if line.strip(" \t\r\n"):  # a line of JSON whitespace alone is blank
                errors.append(LoadError(lineno, "bad_json"))
            continue
        try:
            sentences = _checked_sentences(obj, mode)
            if obj["doc_id"] in loaded:
                raise RecordError("dup_doc_id")
        except RecordError as exc:
            errors.append(LoadError(lineno, exc.code))
        else:
            loaded.add(obj["doc_id"])
            yield obj, sentences


def load_corpus(path: str | Path, mode: str = "presegmented") -> LoadResult:
    """Load a JSON Lines corpus file.

    Malformed records, and records repeating an earlier record's
    ``doc_id``, are skipped and collected as LoadErrors carrying their
    1-based line numbers; an unreadable file raises OSError, and a line
    that is not UTF-8 a ValueError naming it.
    """
    result = LoadResult([], [])
    result.documents.extend(
        _document(obj, sentences)
        for obj, sentences in _checked_records(path, mode, result.errors))
    return result


def read_citing(
    path: str | Path, mode: str, errors: list[LoadError]
) -> Iterator[tuple[str, list[tuple[int, str]]]]:
    """The documents ``load_corpus`` loads, one at a time and without
    building them: each is its doc id and, per citance, the sentence index
    and text. Load errors are appended to ``errors`` as read, and the file
    raises as in ``load_corpus``.
    """
    for obj, sentences in _checked_records(path, mode, errors):
        yield obj["doc_id"], [(index, text) for index, text, refs in sentences if refs]


def extract_citances(doc: Document) -> list[Citance]:
    """Citances of a document: its ref-bearing sentences, tokenized."""
    citing = [sentence for sentence in doc.sentences if sentence.refs]
    words = tokenize_all([sentence.text for sentence in citing])
    return [Citance(doc.doc_id, s.index, w) for s, w in zip(citing, words)]


def iter_citances(documents: Iterable[Document]) -> Iterator[Citance]:
    for doc in documents:
        yield from extract_citances(doc)

import csv
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citequery.analytics import GROUPINGS, RateRow, rate_by
from citequery.catalog import ValidatedSet, default_validated_set
from citequery.ingest import (
    NON_SELF,
    SELF,
    UNKNOWN,
    Document,
    LoadError,
    LoadResult,
    RecordError,
    RefLink,
    Sentence,
    extract_citances,
    load_corpus,
    numbered_csv_columns,
    numbered_lines,
    parse_ref_markers,
    read_citing,
    record_to_document,
    sentence_spans,
    split_sentences,
    _fold,
)
from citequery.tokens import tokenize
from brute import nfkd_fold, oracle_corpus, oracle_self_class
from conftest import GOLDEN_CORPUS
from synth import write_corpus


def csv_columns(path, required, optional=()):
    """Every row ``numbered_csv_columns`` reads, as (line, cells) pairs."""
    with numbered_csv_columns(path, required, optional) as (rows, line, _):
        return [(line(), cells) for cells in rows]


def write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def record(doc_id="d1", year=2010, **overrides):
    base = {
        "doc_id": doc_id,
        "year": year,
        "doc_type": "full-article",
        "main_field": "BioHealth",
        "meso_field": 7,
        "authors": [{"family": "Zhao", "given": "G"}],
        "sentences": [
            {"text": "A plain sentence.", "refs": []},
            {"text": "A citing sentence.", "refs": [{"ref_id": "r1"}]},
        ],
    }
    base.update(overrides)
    return base


class TestLoadCorpus:
    def test_two_records(self, tmp_path):
        path = write_lines(tmp_path, [json.dumps(record("a")), json.dumps(record("b"))])
        result = load_corpus(path)
        assert [d.doc_id for d in result.documents] == ["a", "b"]
        assert result.errors == []

    def test_the_corpus_model_and_rate_rows_are_named_tuples(self, tmp_path):
        # A named tuple equals the plain tuple of its fields, so the equality
        # tests cannot tell these types from bare tuples.
        path = tmp_path / "corpus.jsonl"
        path.write_text(GOLDEN_CORPUS.read_text(encoding="utf-8") + "{}\n", encoding="utf-8")
        result = load_corpus(path)
        sentences = [s for d in result.documents for s in d.sentences]
        rates = rate_by(frozenset(), result.documents, GROUPINGS)
        for values, kind in (
            ([result], LoadResult), (result.documents, Document), (sentences, Sentence),
            ([r for s in sentences for r in s.refs], RefLink), (result.errors, LoadError),
            ([row for rows in rates.values() for row in rows], RateRow),
            ([default_validated_set(0.80)], ValidatedSet),
        ):
            assert values and {type(v) for v in values} == {kind}, kind
            assert issubclass(kind, tuple) and kind._fields, kind

    def test_refs_but_no_sentences_yields_no_citances(self, tmp_path):
        path = write_lines(tmp_path, [json.dumps(record(sentences=[]))])
        result = load_corpus(path)
        assert len(result.documents) == 1
        assert extract_citances(result.documents[0]) == []

    def test_rawtext_splitting(self, tmp_path):
        body = "This works <ref id=r1/>. It fails <ref id=r2/>."
        path = write_lines(tmp_path, [json.dumps(record(body=body, sentences=None))])
        result = load_corpus(path, mode="rawtext")
        (doc,) = result.documents
        assert len(doc.sentences) == 2
        assert [len(s.refs) for s in doc.sentences] == [1, 1]
        assert doc.sentences[0].refs[0].ref_id == "r1"
        assert doc.sentences[1].refs[0].ref_id == "r2"

    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"doc_id": None}, "missing_doc_id"),
            ({"year": None}, "missing_year"),
            ({"year": 1492}, "bad_year"),
            ({"doc_type": "thesis"}, "bad_doc_type"),
            ({"main_field": "Alchemy"}, "bad_main_field"),
            ({"meso_field": -3}, "bad_meso_field"),
            ({"meso_field": True}, "bad_meso_field"),
        ],
    )
    def test_record_level_errors(self, tmp_path, mutation, code):
        bad = record()
        bad.update(mutation)
        path = write_lines(tmp_path, [json.dumps(bad), json.dumps(record("ok"))])
        result = load_corpus(path)
        assert [d.doc_id for d in result.documents] == ["ok"]
        assert [(e.line, e.code) for e in result.errors] == [(1, code)]
        assert result.errors[0].report() == f"line=1 error={code}"

    def test_bad_json_line(self, tmp_path):
        path = write_lines(tmp_path, ["{not json", json.dumps(record())])
        result = load_corpus(path)
        assert [e.code for e in result.errors] == ["bad_json"]
        assert len(result.documents) == 1

    @pytest.mark.parametrize("line, codes", [
        ("", []), (" \t\r", []),
        ("\f", ["bad_json"]), ("\u00a0", ["bad_json"]), ("\u2028", ["bad_json"]),
    ], ids=["empty", "json_whitespace", "form_feed", "nbsp", "line_separator"])
    def test_only_json_whitespace_makes_a_blank_line(self, tmp_path, line, codes):
        # str.strip() would empty each of these lines; JSON allows only
        # space, tab, CR and LF between values.
        path = write_lines(tmp_path, [json.dumps(record("a")), line, json.dumps(record("b"))])
        (errors, lean), (full_errors, full) = lean_and_full(path, "presegmented")
        assert [(e.line, e.code) for e in full_errors] == [(2, code) for code in codes]
        assert (errors, lean) == (full_errors, full)
        assert [d for d in full if isinstance(d, str)] == ["a", "b"]

    def test_duplicate_ref_id(self, tmp_path):
        bad = record(sentences=[
            {"text": "One <ref id=r1/>.", "refs": [{"ref_id": "r1"}]},
            {"text": "Two.", "refs": [{"ref_id": "r1"}]},
        ])
        path = write_lines(tmp_path, [json.dumps(bad)])
        result = load_corpus(path)
        assert [e.code for e in result.errors] == ["dup_ref_id"]

    def test_a_listed_id_marked_twice_loads(self):
        text = 'A <ref id="r1"/> and again <ref id="r1"/>.'
        doc = record_to_document(record(sentences=[
            {"text": text, "refs": [{"ref_id": "r1", "cited_year": 2001}]}]), "presegmented")
        assert doc.sentences[0].refs == (RefLink("r1", None, 2001, UNKNOWN),)

    def test_a_listed_id_needs_no_marker(self):
        doc = record_to_document(record(sentences=[
            {"text": "No marker here.", "refs": [{"ref_id": "r1", "cited_doc_id": "p"}]}]),
            "presegmented")
        assert doc.sentences[0].refs == (RefLink("r1", "p"),)

    def test_marker_only_ids_follow_the_listed_refs_in_marker_order(self):
        text = "See <ref id=m2/>, <ref id=r1/> and <ref id=m1 cited_year=1999/>."
        doc = record_to_document(record(sentences=[
            {"text": text, "refs": [{"ref_id": "r1"}]}]), "presegmented")
        refs = doc.sentences[0].refs
        assert [r.ref_id for r in refs] == ["r1", "m2", "m1"]
        assert [r.cited_year for r in refs] == [None, None, 1999]

    @pytest.mark.parametrize("attribute, year", [
        ("cited_year=2001", 2001), ('cited_year="-12"', -12), ("cited_year='0042'", 42),
        ("cited_year=2_001", None), ('cited_year=" 2001 "', None), ("cited_year=+2001", None),
        ("cited_year=\u0662\u0660\u0660\u0661", None), ("cited_year=2001.0", None),
        ("cited_year=-", None), ("cited_year=\uff12\uff10\uff10\uff11", None),
    ], ids=["digits", "negative", "leading_zeros", "underscore", "spaces", "plus",
            "arabic_indic", "decimal_point", "minus_alone", "fullwidth"])
    @pytest.mark.parametrize("mode", ["presegmented", "rawtext"])
    def test_a_marker_year_is_an_ascii_integer_literal(self, attribute, year, mode):
        # Anything else stays a string, which no cited_year may be: bad_ref.
        text = f"See <ref id=m {attribute}/>."
        obj = record(body=text) if mode == "rawtext" else record(sentences=[{"text": text}])
        if year is None:
            with pytest.raises(RecordError, match="^bad_ref$"):
                record_to_document(obj, mode)
        else:
            (ref,) = record_to_document(obj, mode).sentences[0].refs
            assert (ref.ref_id, ref.cited_year) == ("m", year)

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_duplicate_doc_id_keeps_the_first_record(self, tmp_path):
        lines = [json.dumps(record("a", 2001)), json.dumps(record("b")),
                 json.dumps(record("a", 2002))]
        result = load_corpus(write_lines(tmp_path, lines))
        assert [(d.doc_id, d.year) for d in result.documents] == [("a", 2001), ("b", 2010)]
        assert [e.report() for e in result.errors] == ["line=3 error=dup_doc_id"]

    def test_malformed_record_does_not_claim_its_doc_id(self, tmp_path):
        lines = [json.dumps(record("a", year=1492)), json.dumps(record("a"))]
        result = load_corpus(write_lines(tmp_path, lines))
        assert [d.doc_id for d in result.documents] == ["a"]
        assert [(e.line, e.code) for e in result.errors] == [(1, "bad_year")]

    @pytest.mark.parametrize(
        "mutation, code",
        [
            ({"authors": [{"family": "Zhao", "given": 7}]}, "bad_authors"),
            ({"sentences": [{"text": "T <ref id=r1/>.", "refs": 5}]}, "bad_sentences"),
            ({"sentences": [{"text": "T.", "refs": [
                {"ref_id": "r1", "cited_authors": [{"family": "x", "given": ["g"]}]},
            ]}]}, "bad_ref"),
            ({"sentences": [{"text": "T.", "refs": [{"ref_id": "r1", "cited_year": True}]}]},
             "bad_ref"),
            ({"sentences": [{"text": "T.", "refs": [{"ref_id": "r1", "cited_year": False}]}]},
             "bad_ref"),
            ({"sentences": [{"text": "T.", "refs": {}}]}, "bad_sentences"),
            ({"sentences": [{"text": "T.", "refs": False}]}, "bad_sentences"),
            ({"sentences": [{"text": "T.", "refs": 0}]}, "bad_sentences"),
            ({"sentences": [{"text": "T.", "refs": ""}]}, "bad_sentences"),
        ],
    )
    def test_wrongly_typed_fields_are_load_errors(self, tmp_path, mutation, code):
        result = load_corpus(write_lines(tmp_path, [json.dumps(record(**mutation))]))
        assert [(e.line, e.code) for e in result.errors] == [(1, code)]

    @pytest.mark.parametrize(
        "line", ['{"doc_id": "a", "year": 1' + "0" * 5000 + "}", "[" * 100_000],
        ids=["over_long_integer", "deep_nesting"],
    )
    def test_json_the_decoder_refuses_is_bad_json(self, tmp_path, line):
        result = load_corpus(write_lines(tmp_path, [line, json.dumps(record())]))
        assert [(e.line, e.code) for e in result.errors] == [(1, "bad_json")]
        assert len(result.documents) == 1

    @pytest.mark.parametrize("mode, mutation", [
        ("presegmented", {"doc_id": "d\udc80"}),
        ("presegmented", {"sentences": [{"text": "Debated \ud800 <ref id=r1/>."}]}),
        ("presegmented", {"sentences": [
            {"text": "T.", "refs": [{"ref_id": "r1", "cited_doc_id": "\udfff"}]}]}),
        ("presegmented", {"authors": [{"family": "Zh\udbffao"}]}),
        ("rawtext", {"doc_id": "d\udc80"}),
        ("rawtext", {"body": "Lone \ud800 here <ref id=r1/>."}),
        # As JSON: "d\\ud83d\ude00" and "d\ud83d\\ude00" are escaped text beside a
        # lone escape, and "d\ud83d\ud83d\ude00" a lone escape before a pair.
        ("presegmented", {"doc_id": "d\\ud83d\ude00"}),
        ("presegmented", {"doc_id": "d\ud83d\\ude00"}),
        ("presegmented", {"doc_id": "d\ud83d\U0001F600"}),
    ], ids=["doc_id", "text", "cited_doc_id", "author", "rawtext_doc_id", "rawtext_body",
            "escaped_high_then_low", "high_then_escaped_low", "high_then_pair"])
    def test_unpaired_surrogate_is_bad_json(self, tmp_path, mode, mutation):
        # json.dumps escapes the surrogate, so the file is valid UTF-8 and JSON.
        body = {"body": "Plain <ref id=r1/>."} if mode == "rawtext" else {}
        lines = [json.dumps({**record("bad", **body), **mutation}),
                 json.dumps(record("good", **body))]
        (errors, lean), (full_errors, full) = lean_and_full(write_lines(tmp_path, lines), mode)
        assert [(e.line, e.code) for e in full_errors] == [(1, "bad_json")]
        assert (errors, lean) == (full_errors, full)
        assert full[0] == "good"

    @pytest.mark.parametrize("text", [
        "Debated \\ud800 \U0001F600 <ref id=r1/>.",
        "Debated \\\U0001F600 <ref id=r1/>.",
    ], ids=["escaped_then_pair", "backslash_then_pair"])
    def test_paired_and_escaped_surrogates_load(self, tmp_path, text):
        # A pair is one non-BMP character; "\\ud800" is a backslash and text,
        # and "\\\ud83d\ude00" a backslash and a pair.
        line = json.dumps(record("d\U0001F600", sentences=[{"text": text}]))
        assert "\\ud83d\\ude00" in line
        result = load_corpus(write_lines(tmp_path, [line]))
        assert result.errors == []
        assert result.documents[0].doc_id == "d\U0001F600"
        assert result.documents[0].sentences[0].text == text


class TestNumberedReaders:
    def test_lines_keep_terminators_and_split_only_at_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\r\nb\u2028c\n\nd".encode("utf-8"))
        assert list(numbered_lines(path)) == [
            (1, "a\r\n"), (2, "b\u2028c\n"), (3, "\n"), (4, "d"),
        ]

    def test_non_utf8_line_is_named(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"fine\nstill fine\ncaf\xe9\n")
        with pytest.raises(ValueError, match="^line 3: not valid UTF-8$"):
            list(numbered_lines(path))

    def test_only_leading_hash_lines_are_comments(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            '# one\n# two\nkey,text\n#k,plain\nk2,"first\n# coder mallory\nlast"\n',
            encoding="utf-8",
        )
        assert csv_columns(path, ("key", "text")) == [
            (4, ("#k", "plain")),
            (7, ("k2", "first\n# coder mallory\nlast")),
        ]
        with numbered_csv_columns(path, ("key",)) as (_, _, comments):
            assert comments == ["# one\n", "# two\n"]

    def test_field_over_csv_default_limit_reads_back(self, tmp_path):
        path = tmp_path / "f.csv"
        text = "x" * 200_000
        path.write_text(f"key,text\nk,{text}\n", encoding="utf-8")
        assert csv_columns(path, ("key", "text")) == [(2, ("k", text))]

    def test_malformed_csv_is_named(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"key,text\nk,fine\nk,bare\rreturn\n")
        with pytest.raises(ValueError, match="^line 3: new-line character"):
            csv_columns(path, ("key", "text"))

    @pytest.mark.parametrize("text", ["", "# only\n# comments\n"])
    def test_a_file_without_a_header_row_is_refused(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"^no header row$"):
            csv_columns(path, (), ("key",))

    def test_cells_follow_the_named_columns_not_the_header_order(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("b,a,b,c\n1,2,3,4\n5,6,7\n8,9\n", encoding="utf-8")
        with numbered_csv_columns(path, ("a", "b"), ("c", "d")) as (rows, line, comments):
            assert comments == []
            assert (next(rows), line()) == (("2", "3", "4", None), 2)
            assert (next(rows), line()) == (("6", "7", None, None), 3)
            with pytest.raises(ValueError, match=r"^line 4: bad row \(no 'b'\)$"):
                next(rows)


csv_cells = st.text(alphabet=st.one_of(st.sampled_from(list(',"#\n\r x')),
                                     st.characters(blacklist_categories=("Cs",))),
                   max_size=8)
csv_names = st.text(alphabet="abcd", min_size=1, max_size=2)
csv_header = st.lists(csv_names.filter(lambda name: "d" not in name), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(csv_header, st.lists(st.lists(csv_cells, max_size=6), max_size=8),
       st.sampled_from(["", 'x,"open\n', "k,bare\rreturn\n"]),
       st.lists(csv_names, min_size=1, max_size=4, unique=True), st.integers(0, 4))
@example(["a", "a", "b"], [["1"], [], ["1", "2", "3", "4"]], "", ["a", "b"], 0)
@example(["a", "a", "b"], [["1", "2", "3"], ["1"]], "", ["b", "a", "d"], 2)
@example(["b", "a"], [["1", "2"], ["1"]], "", ["a", "b"], 1)
@example(["b", "a"], [], "", ["a", "c"], 2)
@example([], [["1"]], "", ["a"], 1)
def test_csv_rows_read_as_dict_reader(tmp_path_factory, header, rows, tail, names, split):
    """Cells and line numbers equal ``csv.DictReader``'s ``row.get(name)``
    over CSV text with short rows, long rows, blank lines, repeated and
    absent column names and quoted line breaks. A required name absent from
    DictReader's fieldnames raises a located error at the header, data row
    or not, and the first required cell that DictReader reads as None one
    at its row."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)  # an empty row is a blank line
    text = buffer.getvalue() + tail
    required, optional = names[:split], names[split:]
    lines = [raw.decode("utf-8") for raw in io.BytesIO(text.encode("utf-8"))]
    reader = csv.DictReader(iter(lines))
    expected = []
    try:
        absent = [name for name in required if name not in reader.fieldnames]
        if absent:
            expected.append(f"line {reader.line_num}: bad header (no {absent[0]!r})")
        for row in reader if not absent else ():
            cells = tuple(row.get(name) for name in names)
            if None in cells[:len(required)]:
                absent = names[cells.index(None)]
                expected.append(f"line {reader.line_num}: bad row (no {absent!r})")
                break
            expected.append((reader.line_num, cells))
    except csv.Error as exc:
        expected.append(f"line {reader.reader.line_num}: {exc}")
    path = tmp_path_factory.getbasetemp() / "dict_reader.csv"
    path.write_bytes(text.encode("utf-8"))
    found = []
    try:
        with numbered_csv_columns(path, required, optional) as (rows, line, _):
            found.extend((line(), cells) for cells in rows)
    except ValueError as exc:
        found.append(str(exc))
    assert found == expected


class TestSplitSentences:
    def test_two_sentences(self):
        sentences = split_sentences("A result. Another result.")
        assert [s.text for s in sentences] == ["A result.", "Another result."]

    def test_abbreviation_suppresses_split(self):
        sentences = split_sentences("Smith et al. (2004) argue X.")
        assert [s.text for s in sentences] == ["Smith et al. (2004) argue X."]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []

    def test_terminator_without_uppercase_keeps_going(self):
        assert len(split_sentences("pH 7.4 was used. see below")) == 1

    def test_question_and_exclamation(self):
        texts = [s.text for s in split_sentences("Really? Yes! Fine.")]
        assert texts == ["Really?", "Yes!", "Fine."]

    def test_single_letter_initial(self):
        assert len(split_sentences("As J. Smith showed, it holds.")) == 1

    def test_no_split_inside_ref_span(self):
        body = 'Results <ref id="a. B"/>. Next sentence.'
        links = [(RefLink(attrs.get("id", "")), span) for span, attrs in parse_ref_markers(body)]
        sentences = split_sentences(body, links)
        assert [s.text for s in sentences] == ['Results <ref id="a. B"/>.', "Next sentence."]

    def test_dropped_material_is_whitespace_only(self):
        text = "First point. Second point!  Third?"
        spans = sentence_spans(text)
        rebuilt = []
        position = 0
        for start, end in spans:
            assert text[position:start].strip() == ""
            rebuilt.append(text[start:end])
            position = end
        assert text[position:].strip() == ""
        assert "".join(rebuilt) == "First point.Second point!Third?"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(["alpha.", "Beta", "G.", "see fig.", "done!", "why?"]),
        min_size=0, max_size=8,
    ),
    st.integers(min_value=0, max_value=6),
)
def test_split_never_inside_marker(words, n_refs):
    parts = list(words)
    for i in range(n_refs):
        parts.insert(min(i * 2, len(parts)), f'<ref id="r{i}. X"/>')
    text = " ".join(parts)
    marker_spans = [span for span, _ in parse_ref_markers(text)]
    cuts = []
    position = 0
    for start, end in sentence_spans(text, marker_spans):
        cuts.extend([start, end])
        assert text[position:start].strip() == ""
        position = end
    for cut in cuts:
        for start, end in marker_spans:
            assert not (start < cut < end)


marker_texts = st.sampled_from(['<ref id="r{}"/>', '<ref id="r{}. X"/>', "<ref id=r{} cited_year=2001/>"])
split_parts = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(["alpha.", "Beta", "G.", "see fig.", "done!", "why?", "7.4", "Q."]),
            marker_texts,
        ),
        st.sampled_from([" ", "  ", "\n", " \t"]),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(split_parts)
def test_each_ref_lands_in_the_sentence_holding_its_marker(parts):
    text = "".join(part.format(i) + sep for i, (part, sep) in enumerate(parts))
    links = [(RefLink(attrs["id"]), span) for span, attrs in parse_ref_markers(text)]
    spans = sentence_spans(text, [span for _, span in links])
    sentences = split_sentences(text, links)
    assert [s.text for s in sentences] == [text[start:end] for start, end in spans]
    for start, end in spans:  # no boundary inside a marker
        for _, (first, last) in links:
            assert not (first < start < last) and not (first < end < last)
    for r, (first, last) in links:  # every marker's id is unique
        (index,) = [i for i, (start, end) in enumerate(spans) if start <= first and last <= end]
        assert [x for x in sentences[index].refs if x.ref_id == r.ref_id] == [r]
    assert sum(len(s.refs) for s in sentences) == len(links)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="a.A!?1 \n", max_size=40),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), max_size=6),
)
@example("a. A? B! 1", [(1, 1), (4, 4), (0, 4)])  # spans starting and ending at terminators
def test_protected_spans_only_remove_the_boundaries_they_cover(text, starts_and_widths):
    protected = [(start, start + width) for start, width in starts_and_widths]
    plain = [end for _, end in sentence_spans(text)]
    guarded = [end for _, end in sentence_spans(text, protected)]
    # Every span but the last ends one past a boundary's terminator.
    covered = [end for end in plain[:-1] if any(s <= end - 1 < e for s, e in protected)]
    assert guarded == [end for end in plain[:-1] if end not in covered] + plain[-1:]


class TestExtractCitances:
    def make_doc(self, n, ref_indexes):
        sentences = tuple(
            Sentence(i, f"Sentence {i}.",
                     (RefLink(f"r{i}"),) if i in ref_indexes else ())
            for i in range(n)
        )
        return Document("d", 2010, sentences=sentences)

    def test_no_refs_no_citances(self):
        assert extract_citances(self.make_doc(5, set())) == []


class TestSelfCitation:
    @staticmethod
    def self_class(authors, cited_authors):
        """The class the reader gives a ref listing ``cited_authors`` in a
        record by ``authors``."""
        doc = record_to_document(record(authors=authors, sentences=[
            {"text": "See.", "refs": [{"ref_id": "r1", "cited_authors": cited_authors}]}]),
            "presegmented")
        return doc.sentences[0].refs[0].self_citation

    def test_shared_family(self):
        citing = [{"family": "Zhao"}, {"family": "Sun"}]
        assert self.self_class(citing, [{"family": "Zhao"}, {"family": "Wilde"}]) == SELF

    def test_disjoint(self):
        assert self.self_class([{"family": "Kusky"}], [{"family": "Zhao"}]) == NON_SELF

    def test_absent_cited_authors(self):
        assert self.self_class([{"family": "Kusky"}], None) == UNKNOWN
        assert self.self_class([{"family": "Kusky"}], []) == UNKNOWN

    def test_initials_disambiguate(self):
        citing = [{"family": "Zhao", "given": "G"}]
        assert self.self_class(citing, [{"family": "Zhao", "given": "J"}]) == NON_SELF
        assert self.self_class(citing, [{"family": "Zhao"}]) == SELF

    def test_normalization(self):
        # Case and the combining grave of "ѐ" fold away; "Vincent" gives "v".
        citing = [{"family": "Lariviѐre", "given": "Vincent"}]
        assert self.self_class(citing, [{"family": "LARIVIЕ\u0300RE", "given": "v."}]) == SELF
        assert self.self_class(citing, [{"family": "lariviѐre", "given": "W"}]) == NON_SELF


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(st.characters(max_codepoint=127)), st.text()))
@example(" Zhao\t")
@example("Lariviѐre ÅNGSTRÖM ﬁsher İnan ß")
def test_fold_equals_the_nfkd_route(value):
    assert _fold(value) == nfkd_fold(value)


# Families that fold together through case and precomposed or combining
# marks, and givens whose first folded letter is shared, differs, or is absent.
# An ABSENT author list leaves its key out of the record.
ABSENT = object()
name_families = st.one_of(
    st.sampled_from(["Zhao", "ZHAO", "zhao ", "Ünal", "U\u0308nal", "ünal"]),
    st.sampled_from(["Zhao", "Ørsted", "İnan", "i\u0307nan"]),
    st.text(max_size=5).filter(nfkd_fold),  # a family empty once folded is bad_authors
)
name_givens = st.one_of(
    st.none(),
    st.sampled_from(["", " ", "-", ".", "G", "g.", "Gu", "J", "É", "e\u0301", "\u0301e", "ß"]),
    st.text(max_size=4),
)
author_lists = st.one_of(
    st.sampled_from([ABSENT, None]),
    st.lists(st.fixed_dictionaries({"family": name_families}, optional={"given": name_givens}),
             max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(author_lists, st.lists(author_lists, min_size=1, max_size=4))
@example([{"family": "Zhao", "given": "G"}], [[{"family": "zhao", "given": "J."}]])
@example([{"family": "Ünal", "given": "é"}], [[{"family": "U\u0308NAL", "given": "-E"}], []])
# Two citing authors share a family name with the initials G and J; the
# third has no given name, under another family name and under the same.
@example([{"family": "Zhao", "given": "G"}, {"family": "zhao", "given": "J."},
          {"family": "Sun"}],
         [[{"family": "Zhao", "given": "J"}], [{"family": "Zhao", "given": "K"}],
          [{"family": "ZHAO"}], [{"family": "Zhao", "given": "g"}],
          [{"family": "Sun", "given": "Q"}], [{"family": "Wilde", "given": "G"}]])
@example([{"family": "Zhao", "given": "G"}, {"family": "Zhao", "given": "J"},
          {"family": "zhao", "given": "-"}],
         [[{"family": "Zhao", "given": "K"}], [{"family": "Sun", "given": "G"}]])
def test_self_citation_equals_the_oracle(authors, cited_lists):
    def setting(obj, key, value):
        return obj if value is ABSENT else {**obj, key: value}

    refs = [setting({"ref_id": f"r{i}"}, "cited_authors", cited)
            for i, cited in enumerate(cited_lists)]
    base = {k: v for k, v in record().items() if k not in ("authors", "sentences")}
    presegmented = setting(  # the unlisted marker m is a ref of its own
        {**base, "sentences": [{"text": "See <ref id=m/>.", "refs": refs}]}, "authors", authors)
    citing = None if authors is ABSENT else authors
    (sentence,) = record_to_document(presegmented, "presegmented").sentences
    assert [r.self_citation for r in sentence.refs] == [
        oracle_self_class(citing, ref.get("cited_authors")) for ref in refs] + [UNKNOWN]

    rawtext = {**presegmented, "body": "See <ref id=r0/>. Also <ref id=r1/>."}
    doc = record_to_document(rawtext, "rawtext")
    assert [r.self_citation for s in doc.sentences for r in s.refs] == [UNKNOWN, UNKNOWN]


ref_links = st.builds(
    RefLink,
    ref_id=st.uuids().map(str),
    cited_doc_id=st.one_of(st.none(), st.text(alphabet="xyz1", min_size=1, max_size=6)),
    cited_year=st.one_of(st.none(), st.integers(min_value=1900, max_value=2100)),
    self_citation=st.sampled_from([SELF, NON_SELF, UNKNOWN]),
)

documents = st.builds(
    Document,
    doc_id=st.text(alphabet="abc123", min_size=1, max_size=8),
    year=st.integers(min_value=1900, max_value=2100),
    doc_type=st.sampled_from(["full-article", "review", "short-communication", "other"]),
    main_field=st.one_of(st.none(), st.sampled_from(["BioHealth", "SocHum"])),
    meso_field=st.one_of(st.none(), st.integers(min_value=0, max_value=900)),
    sentences=st.lists(
        st.builds(
            lambda text, refs: (text, refs),
            st.text(
                alphabet="abc DEF.?!'-",
                min_size=1, max_size=40,
            ).filter(lambda t: "<" not in t),
            st.lists(ref_links, max_size=2),
        ),
        max_size=4,
    ).map(
        lambda items: tuple(
            Sentence(i, text, tuple(refs)) for i, (text, refs) in enumerate(items)
        )
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(documents, max_size=5))
def test_round_trip(docs):
    buffer = io.StringIO()
    write_corpus(docs, buffer)
    buffer.seek(0)
    reloaded = []
    for line in buffer:
        reloaded.append(record_to_document(json.loads(line), "presegmented"))
    assert reloaded == list(docs)


def reload_presegmented(docs):
    buffer = io.StringIO()
    write_corpus(docs, buffer)
    buffer.seek(0)
    return [record_to_document(json.loads(line), "presegmented") for line in buffer]


def test_round_trip_of_loaded_documents(golden_documents):
    assert reload_presegmented(golden_documents) == list(golden_documents)


def test_round_trip_of_rawtext_documents(tmp_path):
    body = (
        "Intro text without citations. This works <ref id=r1 cited_year=2004/>. "
        "It fails <ref id=r2/>! See fig. 3 for <ref id=r3/> details."
    )
    path = write_lines(tmp_path, [json.dumps(record(body=body, sentences=None))])
    loaded = load_corpus(path, mode="rawtext").documents
    assert reload_presegmented(loaded) == loaded
    (doc,) = loaded
    assert [len(s.refs) for s in doc.sentences] == [0, 1, 1, 1]
    assert doc.sentences[3].text.startswith("See fig. 3")  # fig. never splits
    assert doc.sentences[1].refs[0].cited_year == 2004


def test_citance_count_equals_ref_bearing_sentences(golden_documents):
    for doc in golden_documents:
        citances = extract_citances(doc)
        assert len(citances) == sum(1 for s in doc.sentences if s.refs)
        assert {c.sentence_index for c in citances} == {
            s.index for s in doc.sentences if s.refs
        }


# --- the lean reader against load_corpus + iter_citances --------------------

# A ref of a generated sentence: whether the refs array lists it, how many
# markers name it in the text, and its cited author (non-ASCII included).
lean_refs = st.lists(st.tuples(st.booleans(), st.integers(0, 2),
                               st.sampled_from(["Zhao", "Ünal", "Ørsted"])), max_size=3)
lean_words = st.lists(st.sampled_from(["remains", "controversial", "no", "consensus",
                                       "data", "x's", "e.g.", "Debated", "1.5"]),
                      min_size=1, max_size=5)


def lean_record(doc_id, mode, sentences):
    """A record whose sentence s holds the words and refs drawn for it; ref
    ids are unique within the record, so only repeated unlisted markers
    are malformed."""
    texts, arrays = [], []
    for s, (words, refs) in enumerate(sentences):
        parts, listed = [w.capitalize() if i == 0 else w for i, w in enumerate(words)], []
        for k, (in_array, markers, family) in enumerate(refs):
            ref_id = f"r{s}_{k}"
            parts[1:1] = [f'<ref id="{ref_id}" cited_year=2001/>'] * markers
            if in_array:
                listed.append({"ref_id": ref_id, "cited_doc_id": "x", "cited_year": 2001,
                               "cited_authors": [{"family": family, "given": "é"}]})
        texts.append(" ".join(parts) + ".")
        arrays.append(listed)
    record = {"doc_id": doc_id, "year": 2010, "authors": [{"family": "Ünal", "given": "A"}]}
    if mode == "rawtext":
        record["body"] = " ".join(texts)
    else:
        record["sentences"] = [{"text": t, "refs": a} for t, a in zip(texts, arrays)]
    return record


def _first_ref(record):
    return next(r for s in record.get("sentences", []) for r in s["refs"])


LOAD_ERROR_MUTATIONS = {
    # name: (mode it applies to or None for both, the load error code, edit)
    "not_object": (None, "not_object", None),  # the record is wrapped in a list
    "missing_doc_id": (None, "missing_doc_id", lambda r: r.pop("doc_id")),
    "empty_doc_id": (None, "missing_doc_id", lambda r: r.update(doc_id="")),
    "missing_year": (None, "missing_year", lambda r: r.pop("year")),
    "bad_year": (None, "bad_year", lambda r: r.update(year=1850)),
    "bool_year": (None, "bad_year", lambda r: r.update(year=True)),
    "bad_doc_type": (None, "bad_doc_type", lambda r: r.update(doc_type="paper")),
    "bad_main_field": (None, "bad_main_field", lambda r: r.update(main_field="Art")),
    "bad_meso_field": (None, "bad_meso_field", lambda r: r.update(meso_field=True)),
    # NFKD leaves only a combining mark, which folding drops: an empty name
    "bad_authors": (None, "bad_authors", lambda r: r.update(
        authors=[{"family": "\u0301\u0308"}])),
    "authors_not_list": (None, "bad_authors", lambda r: r.update(authors="Zhao")),
    "missing_sentences": ("presegmented", "missing_sentences", lambda r: r.pop("sentences")),
    "missing_body": ("rawtext", "missing_body", lambda r: r.pop("body")),
    "bad_sentences": ("presegmented", "bad_sentences", lambda r: r["sentences"].append(
        {"text": 3})),
    "bad_sentence_refs": ("presegmented", "bad_sentences", lambda r: r["sentences"].append(
        {"text": "Fine.", "refs": {}})),
    "bad_body": ("rawtext", "bad_body", lambda r: r.update(body=7)),
    "marker_without_id": (None, "bad_ref", lambda r: r.update(
        body=r["body"] + " See <ref cited_year=1/>.") if "body" in r
        else r["sentences"].append({"text": "See <ref/>."})),
    "marker_bad_year": (None, "bad_ref", lambda r: r.update(
        body=r["body"] + " See <ref id=m cited_year=soon/>.") if "body" in r
        else r["sentences"].append({"text": "See <ref id=m cited_year=soon/>."})),
    "repeated_marker": (None, "dup_ref_id", lambda r: r.update(
        body=r["body"] + " See <ref id=m/> <ref id=m/>.") if "body" in r
        else r["sentences"].append({"text": "See <ref id=m/> <ref id=m/>."})),
    "ref_bad_year": ("presegmented", "bad_ref", lambda r: r["sentences"].append(
        {"text": "See.", "refs": [{"ref_id": "q", "cited_year": "2001"}]})),
    "ref_empty_author": ("presegmented", "bad_ref", lambda r: r["sentences"].append(
        {"text": "See.", "refs": [{"ref_id": "q", "cited_authors": [{"family": " "}]}]})),
    "ref_listed_twice": ("presegmented", "dup_ref_id", lambda r: r["sentences"].append(
        {"text": "See <ref id=q/>.", "refs": [{"ref_id": "q"}, {"ref_id": "q"}]})),
    "ref_listed_again": ("presegmented", "dup_ref_id", lambda r: r["sentences"].extend(
        [{"text": "See.", "refs": [{"ref_id": "q"}]}, {"text": "See <ref id=q/>."}])),
}


def mutated_line(record, mutation):
    """The JSON line of ``record`` after the edit ``mutation`` names."""
    if mutation == "bad_json":
        return json.dumps(record)[:-1]
    if mutation == "not_object":
        record = [record]
    elif mutation is not None:
        LOAD_ERROR_MUTATIONS[mutation][2](record)
    return json.dumps(record, ensure_ascii=False)


def lean_and_full(path, mode):
    """(errors, citances) of ``read_citing`` and of ``load_corpus`` +
    ``iter_citances``; a citance is its key, words and text."""
    errors, lean = [], []
    for doc_id, citing in read_citing(path, mode, errors):
        lean.append(doc_id)
        lean += [(doc_id, index, tokenize(text), text) for index, text in citing]
    result = load_corpus(path, mode)
    full = []
    for doc in result.documents:
        texts = {s.index: s.text for s in doc.sentences}
        full.append(doc.doc_id)
        full += [(c.doc_id, c.sentence_index, c.words, texts[c.sentence_index])
                 for c in extract_citances(doc)]
    return (errors, lean), (result.errors, full)


@pytest.mark.parametrize("mode", ["presegmented", "rawtext"])
def test_every_mutation_is_the_load_error_it_names(tmp_path, mode):
    """The mutations the differential test draws reach every load error code."""
    base = [[(["Data", "x's"], [(True, 1, "Zhao")])]]
    lines, expected = [], []
    for mutation, (only, code, _) in LOAD_ERROR_MUTATIONS.items():
        if only in (None, mode):
            lines.append(mutated_line(lean_record("d", mode, base[0]), mutation))
            expected.append(code)
    lines += [mutated_line(lean_record("d", mode, base[0]), "bad_json"),
              mutated_line(lean_record("d", mode, base[0]), None),
              mutated_line(lean_record("d", mode, base[0]), None)]
    expected += ["bad_json", "dup_doc_id"]
    path = write_lines(tmp_path, lines)
    (errors, _), (full_errors, _) = lean_and_full(path, mode)
    assert [e.code for e in full_errors] == expected
    assert errors == full_errors
    codes = {"bad_json", "not_object", "missing_doc_id", "missing_year", "bad_year",
             "bad_doc_type", "bad_main_field", "bad_meso_field", "bad_authors", "bad_ref",
             "dup_ref_id", "dup_doc_id",
             "missing_sentences" if mode == "presegmented" else "missing_body",
             "bad_sentences" if mode == "presegmented" else "bad_body"}
    assert set(expected) == codes


lean_docs = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]),  # repeats are dup_doc_id
              st.lists(st.tuples(lean_words, lean_refs), min_size=1, max_size=4),
              st.one_of(st.none(), st.none(), st.sampled_from(
                  ["bad_json", *LOAD_ERROR_MUTATIONS]))),
    max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["presegmented", "rawtext"]), lean_docs)
def test_lean_reader_agrees_with_load_corpus(tmp_path_factory, mode, docs):
    """``read_citing`` loads the documents and reports the load errors (line
    and code) that ``load_corpus`` does, and its citances have the keys,
    words and texts of ``iter_citances`` over the loaded documents. Refs
    are drawn as listed with no marker, listed with one or two markers,
    or marker-only (two markers of one unlisted id are dup_ref_id)."""
    lines = []
    for doc_id, sentences, mutation in docs:
        if mutation is not None and LOAD_ERROR_MUTATIONS.get(mutation, (None,))[0] \
                not in (None, mode):
            mutation = None
        lines.append(mutated_line(lean_record(doc_id, mode, sentences), mutation))
    path = tmp_path_factory.mktemp("lean") / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    lean, full = lean_and_full(path, mode)
    assert lean == full


# --- the reader against the definitional oracle -----------------------------

# Marker forms, each filled with a ref id: plain, bare, single-quoted and
# spaced; other attributes before or after the id; a repeated id; xid=;
# an empty id; no attributes; ids holding a slash or a quote; cited_year
# literals; and texts that are not whole markers.
MARKER_FORMS = [
    '<ref id="{}"/>', "<ref id={}/>", "<ref id='{}'/>", '<ref  id = "{}" />',
    '<ref\nid="{}"\t/>', '<ref cited_year=1999 id="{}"/>',
    '<ref id="{}" cited_doc_id=x cited_year="2001"/>', '<ref id="r9" id="{}"/>',
    '<ref id="{}" id="r9"/>', '<ref xid="{}"/>', '<ref xid="r9" id="{}"/>',
    '<ref id="{}" xid="r9"/>', '<ref id=""/>', "<ref/>", '<ref id="a/{}"/>', '<ref id={}"/>',
    "<ref id={} cited_year=2_001/>", "<ref id={} cited_year=-3/>", '<ref id="{}">',
    '<ref id="{}"/ >', '<refs id="{}"/>',
]
# Ids, listed and filled into the forms, holding a quote, "<", ">", "/" or a
# space: the marker regex reads the plain marker of some as another id or
# as no marker, and that of others as the id itself.
ODD_IDS = ['a"b', "p<q", "x>y", "s/t", "u v"]
oracle_sentences = st.lists(
    st.tuples(
        st.lists(st.one_of(st.sampled_from(["Debated", "data", "x's.", "No"]),
                           st.tuples(st.sampled_from(MARKER_FORMS),
                                     st.sampled_from(["r0", "r1", "r2", "r9", *ODD_IDS]))
                           .map(lambda pair: pair[0].format(pair[1]))),
                 min_size=1, max_size=5),
        # The refs array: listed ids, each with or without cited authors.
        st.one_of(st.none(), st.lists(st.tuples(
            st.sampled_from(["r0", "r1", "r2", *ODD_IDS]),
            st.sampled_from([None, "Zhao", "Sun"])), max_size=2)),
    ),
    min_size=1, max_size=3,
)


def oracle_record(doc_id, mode, sentences):
    texts, arrays = [], []
    for s, (words, listed) in enumerate(sentences):
        texts.append(" ".join(words) + ".")
        arrays.append(None if listed is None else [
            {"ref_id": ref_id, "cited_year": 2001} if family is None
            else {"ref_id": ref_id, "cited_authors": [{"family": family, "given": "G"}]}
            for ref_id, family in listed])
    obj = {"doc_id": doc_id, "year": 2010, "authors": [{"family": "Zhao", "given": "G"}]}
    if mode == "rawtext":
        obj["body"] = " ".join(texts)
    else:
        obj["sentences"] = [{"text": t, "refs": a} for t, a in zip(texts, arrays)]
    return obj


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["presegmented", "rawtext"]),
       st.lists(st.tuples(st.sampled_from(["a", "b"]), oracle_sentences), min_size=1,
                max_size=3))
@example("presegmented", [("a", [(['See <ref xid="r1"/>'], [("r1", None)])])])
@example("presegmented", [("a", [(['See <ref id="r1" id="r2"/>'], [("r1", None)])])])
@example("rawtext", [("a", [(['See <ref id="r1" id="r2"/>', '<ref id="r1"/>'], None)])])
# Listed ids whose plain marker the marker regex reads as the ref a or as
# no marker; a listed plain marker written twice; and a sentence holding as
# many "<ref" as refs, one of them no marker, or its refs listed out of
# marker order.
@example("presegmented", [("a", [(['See <ref id="a"b"/>'], [('a"b', None)])])])
@example("presegmented", [("a", [(['See <ref id="p<q"/>'], [("p<q", None)])])])
@example("presegmented", [("a", [(['See <ref id="x>y"/>'], [("x>y", None)])])])
@example("presegmented", [("a", [(['See <ref id="r1"/>', '<ref id="r1"/>'], [("r1", None)])])])
@example("presegmented", [("a", [(['See <ref id="r1"/>', '<refs id="r2"/>'],
                                  [("r1", None), ("r2", None)])])])
@example("presegmented", [("a", [(['See <ref id="r2"/>', '<ref id="r1"/>'],
                                  [("r1", None), ("r2", None)])])])
# Plain markers that fail the string-search proof and are read by the marker
# regex: an unlisted one is a ref of its own after the listed ones, and a
# plain and a bare marker of one unlisted id are dup_ref_id.
@example("presegmented", [("a", [(['See <ref id="r1"/>', '<ref id="r9"/>'], [("r1", None)])])])
@example("presegmented", [("a", [(["<ref id=r9/>", '<ref id="r9"/>'], None)])])
def test_the_reader_equals_the_oracle(tmp_path_factory, mode, docs):
    """``load_corpus`` gives the oracle's documents and load errors, and
    ``read_citing`` its citing sentences and load errors, over records
    mixing every marker form, listed and unlisted."""
    records = [oracle_record(doc_id, mode, sentences) for doc_id, sentences in docs]
    path = tmp_path_factory.mktemp("oracle") / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    documents, errors = oracle_corpus(records, mode)
    assert load_corpus(path, mode) == LoadResult(documents, errors)
    read_errors = []
    assert list(read_citing(path, mode, read_errors)) == [
        (doc.doc_id, [(s.index, s.text) for s in doc.sentences if s.refs]) for doc in documents]
    assert read_errors == errors

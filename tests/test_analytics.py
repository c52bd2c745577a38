import csv
import io
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citequery.analytics import (
    GROUPINGS,
    CitationTable,
    RateRow,
    citation_gap,
    first_disagreement_years,
    flag_citances,
    impact_ratio,
    meso_log_ratio,
    rate_by,
    self_citation_ratio,
    top_tables,
    yearly_slope,
)
from citequery.catalog import ValidatedSet, default_validated_set
from citequery.engine import MatchRecord, Span, run_all
from citequery.ingest import NON_SELF, SELF, UNKNOWN, Document, RefLink, Sentence
from brute import brute_flagged, brute_impact, brute_rates, oracle_citation_table


def match(doc_id, index, query_id):
    return MatchRecord(doc_id, index, query_id, Span(0, 0, "x"))


def rows_of(flags, docs, grouping):
    """The rate rows of one grouping."""
    return rate_by(flags, docs, [grouping])[grouping]


def make_doc(doc_id, n_citances, year=2010, field="BioHealth", meso=None,
             doc_type="full-article", make_ref=None):
    sentences = []
    for i in range(n_citances):
        ref = make_ref(doc_id, i) if make_ref else RefLink(f"{doc_id}r{i}")
        sentences.append(Sentence(i, f"Sentence {i}.", (ref,)))
    return Document(doc_id, year, doc_type, field, meso, tuple(sentences))


class TestFlagCitances:
    VALIDATED = ValidatedSet(0.8, frozenset({"controvers.standalone", "no_consensus.standalone"}))

    def test_multiple_validated_queries_flag_once(self):
        matches = [match("d", 3, "controvers.standalone"),
                   match("d", 3, "no_consensus.standalone")]
        assert flag_citances(matches, self.VALIDATED) == frozenset({("d", 3)})

    def test_only_nonvalidated_matches_not_flagged(self):
        matches = [match("d", 1, "differ.standalone"), match("d", 2, "controvers.standalone")]
        assert flag_citances(matches, self.VALIDATED) == frozenset({("d", 2)})

    def test_no_matches(self):
        assert flag_citances([], self.VALIDATED) == frozenset()


class TestRateBy:
    def test_recovers_planted_field_ordering(self):
        planted = {"SocHum": (2000, 12), "BioHealth": (2500, 10),
                   "LifeEarth": (2000, 6), "PhysEngr": (2000, 3),
                   "MathComp": (2000, 1)}
        docs, keys = [], set()
        for i, (field, (total, flagged)) in enumerate(sorted(planted.items())):
            doc = make_doc(f"d{i}", total, field=field)
            docs.append(doc)
            keys.update((doc.doc_id, j) for j in range(flagged))
        rows = {r.group: r for r in rows_of(keys, docs, "main_field")}
        rates = {field: rows[field].rate for field in planted}
        assert rates["SocHum"] > rates["BioHealth"] > rates["LifeEarth"] \
            > rates["PhysEngr"] > rates["MathComp"]
        assert rows["SocHum"].disagreement_count == 12
        assert rows["SocHum"].citance_count == 2000

    def test_all_flagged_rate_100(self):
        docs = [make_doc("d", 5)]
        keys = {("d", i) for i in range(5)}
        (row,) = rows_of(keys, docs, "main_field")
        assert row.rate == 100.0

    def test_position_mass_in_first_bin(self):
        doc = make_doc("d", 40)
        rows = rows_of({("d", 0), ("d", 1)}, [doc], "position_bin")
        by_bin = {r.group: r for r in rows}
        assert by_bin["0-5"].disagreement_count == 2
        assert sum(r.disagreement_count for r in rows) == 2

    def test_field_year_marginalizes(self):
        docs = [
            make_doc("a", 30, year=2001, field="SocHum"),
            make_doc("b", 20, year=2002, field="SocHum"),
            make_doc("c", 10, year=2001, field="MathComp"),
        ]
        flags = {("a", 0), ("a", 1), ("b", 0), ("c", 0)}
        cells = rows_of(flags, docs, "field_year")
        by_field = {}
        by_year = {}
        for row in cells:
            field, year = row.group
            by_field[field] = by_field.get(field, 0) + row.disagreement_count
            by_year[year] = by_year.get(year, 0) + row.disagreement_count
        assert by_field == {
            r.group: r.disagreement_count for r in rows_of(flags, docs, "main_field")
        }
        assert by_year == {
            r.group: r.disagreement_count for r in rows_of(flags, docs, "year")
        }

    def test_partition_totals_match_flag_count(self):
        docs = [
            make_doc("a", 10, field="SocHum"),
            make_doc("b", 10, field=None),
        ]
        flags = {("a", 2), ("a", 3), ("b", 9)}
        groupings = ("main_field", "year", "field_year", "position_bin",
                     "self_citation", "meso_field")
        for grouping, rows in rate_by(flags, docs, groupings).items():
            assert sum(r.disagreement_count for r in rows) == 3, grouping
            assert sum(r.citance_count for r in rows) == 20

    def test_absent_metadata_goes_to_unknown(self):
        docs = [make_doc("a", 4, field=None)]
        (row,) = rows_of(set(), docs, "main_field")
        assert row.group == "unknown"

    def test_number_labels_sort_as_numbers(self):
        docs = [make_doc("a", 2, meso=10), make_doc("b", 2), make_doc("c", 2, meso=7)]
        flags = {("a", 0), ("c", 0), ("c", 1)}
        assert [r.group for r in rows_of(flags, docs, "meso_field")] == [7, 10, "unknown"]
        assert [r.meso_field for r in meso_log_ratio(rows_of(flags, docs, "meso_field"))] \
            == [7, 10]

    def test_age_bins_count_reference_pairs(self):
        def ref(doc_id, i):
            years = {0: 2008, 1: 2012, 2: None}
            return RefLink(f"{doc_id}r{i}", cited_year=years[i])

        doc = make_doc("d", 3, year=2010, make_ref=ref)
        rows = {r.group: r for r in rows_of({("d", 1)}, [doc], "age_bin")}
        assert rows["0-4"].citance_count == 1       # age 2
        assert rows["<0"].disagreement_count == 1   # age -2, flagged
        assert rows["unknown"].citance_count == 1

    @staticmethod
    def position_doc(n, ref_indexes):
        sentences = tuple(
            Sentence(i, f"Sentence {i}.", (RefLink(f"r{i}"),) if i in ref_indexes else ())
            for i in range(n)
        )
        return Document("d", 2010, sentences=sentences)

    def test_position_fractions(self):
        # Citances 0 and 9 of ten sentences sit at fractions 0.0 and 1.0.
        rows = rows_of({("d", 9)}, [self.position_doc(10, {0, 9})], "position_bin")
        assert [(r.group, r.disagreement_count, r.citance_count) for r in rows] == [
            ("0-5", 0, 1), ("95-100", 1, 1),
        ]

    def test_single_sentence_clamp(self):
        rows = rows_of({("d", 0)}, [self.position_doc(1, {0})], "position_bin")
        assert [(r.group, r.citance_count) for r in rows] == [("0-5", 1)]

    def test_positions_monotone(self):
        # Fractions 1/13, 5/13, 6/13 and 13/13 fall in increasing bins.
        doc = self.position_doc(14, {1, 5, 6, 13})
        bins = []
        for index in (1, 5, 6, 13):
            rows = rows_of({("d", index)}, [doc], "position_bin")
            bins.extend(r.group for r in rows if r.disagreement_count)
        assert bins == ["5-10", "35-40", "45-50", "95-100"]

    def test_one_pass_equals_each_grouping_alone(self, golden_documents, golden_citances,
                                                 catalog):
        flags = flag_citances(run_all(golden_citances, catalog), default_validated_set(0.80))
        assert flags
        together = rate_by(flags, golden_documents, GROUPINGS)
        assert list(together) == list(GROUPINGS)
        for grouping in GROUPINGS:
            assert together[grouping] == rows_of(flags, golden_documents, grouping), grouping

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            rate_by(frozenset(), [], ["main_field", "made_up"])

    # Always present: a document without a citing sentence, and a one-sentence
    # document whose flagged citance cites a self and a non-self paper, one
    # of them younger than it and the other of unknown year.
    EDGE_DOCS = (
        Document("none", 2000, sentences=(Sentence(0, "s"), Sentence(1, "s"))),
        Document("one", 2000, sentences=(Sentence(0, "s", (
            RefLink("a", cited_year=2003, self_citation=SELF),
            RefLink("b", self_citation=NON_SELF))),)),
    )

    @staticmethod
    @st.composite
    def corpora(draw):
        """Documents whose doc ids and sentence indices may repeat, and flags
        that always name a sentence without refs, an absent document and a
        sentence past a document's end."""
        docs = []
        for i in range(draw(st.integers(0, 6))):
            sentences = []
            for position in range(draw(st.integers(1, 8))):
                refs = tuple(
                    RefLink(f"r{j}", draw(st.sampled_from((None, "", "d0", "d1", "one", "x"))),
                            cited_year=draw(st.none() | st.integers(1985, 2010)),
                            self_citation=draw(st.sampled_from((SELF, NON_SELF, UNKNOWN))))
                    for j in range(draw(st.integers(0, 3))))
                index = draw(st.sampled_from((position, position, position, 0)))
                sentences.append(Sentence(index, "s", refs))
            docs.append(Document(
                f"d{draw(st.integers(0, i))}", draw(st.integers(1995, 2005)), "other",
                draw(st.sampled_from((None, "SocHum", "MathComp"))),
                draw(st.sampled_from((None, 1, 2, 7, 10))), tuple(sentences)))
        docs.extend(TestRateBy.EDGE_DOCS)
        keys = [(doc.doc_id, sentence.index) for doc in docs for sentence in doc.sentences]
        uncited = [(doc.doc_id, s.index) for doc in docs for s in doc.sentences if not s.refs]
        flags = set(draw(st.lists(st.sampled_from(keys))))
        flags.add(draw(st.sampled_from(uncited)))
        return docs, frozenset(flags | {("one", 0), ("absent", 0), ("d0", 99)})

    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_every_grouping_equals_brute_force(self, corpus):
        """``rate_by``'s groupings, ``top_tables`` and
        ``first_disagreement_years`` equal a plain loop over every citing
        sentence."""
        docs, flags = corpus
        repeated = (g for g in (*GROUPINGS, "year", "age_bin"))
        rates = rate_by(flags, docs, repeated)
        assert list(rates) == list(GROUPINGS)
        for grouping in GROUPINGS:
            assert rates[grouping] == brute_rates(flags, docs, grouping), grouping
        issued, received, first = brute_flagged(flags, docs)
        for n in (2, 100):
            assert top_tables(flags, docs, n) == tuple(
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
                for counts in (issued, received))
        assert list(first_disagreement_years(flags, docs).items()) == list(first.items())

    def test_peak_memory_does_not_grow_with_documents(self):
        def ref(doc_id, i):
            return RefLink(f"{doc_id}r{i}", cited_year=1990 + i % 10,
                           self_citation=(SELF, NON_SELF, UNKNOWN)[i % 3])

        peaks = []
        for n in (100, 400):
            docs = [make_doc(f"d{i}", 20, year=2000 + i % 5, field=("SocHum", None)[i % 2],
                             meso=i % 3, make_ref=ref) for i in range(n)]
            flags = frozenset((doc.doc_id, j) for doc in docs for j in range(0, 20, 7))
            tracemalloc.start()
            try:
                rate_by(flags, docs, GROUPINGS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * 1024, peaks


class TestYearlySlope:
    def test_exact_line(self):
        assert yearly_slope({2000: 0.20, 2001: 0.18, 2002: 0.16}) == pytest.approx(-0.02)

    def test_constant(self):
        assert yearly_slope({2000: 0.3, 2001: 0.3, 2005: 0.3}) == 0.0

    def test_declining_field_fixture(self):
        # Linear decline from one-in-529 to one-in-809 citances over 16 years.
        start, end = 100.0 / 529.0, 100.0 / 809.0
        rates = {
            2000 + i: start + (end - start) * i / 15.0 for i in range(16)
        }
        assert yearly_slope(rates) == pytest.approx(-0.0045, abs=0.0005)

    def test_needs_two_years(self):
        with pytest.raises(ValueError):
            yearly_slope({2000: 0.2})


class TestSelfCitationRatio:
    @staticmethod
    def docs_with_self_split(n_self, n_non_self, flagged_self, flagged_non_self):
        def ref(doc_id, i):
            return RefLink(f"{doc_id}r{i}", self_citation=SELF if i < n_self else NON_SELF)

        doc = make_doc("d", n_self + n_non_self, make_ref=ref)
        keys = {("d", i) for i in range(flagged_self)}
        keys.update(("d", n_self + i) for i in range(flagged_non_self))
        return [doc], keys

    def test_planted_ratio(self):
        docs, flags = self.docs_with_self_split(500, 2500, 1, 12)
        assert self_citation_ratio(rows_of(flags, docs, "self_citation")) == pytest.approx(2.4)

    def test_identical_rates(self):
        docs, flags = self.docs_with_self_split(100, 100, 5, 5)
        assert self_citation_ratio(rows_of(flags, docs, "self_citation")) == pytest.approx(1.0)

    def test_no_self_citances_undefined(self):
        docs, flags = self.docs_with_self_split(0, 100, 0, 5)
        with pytest.raises(ValueError):
            self_citation_ratio(rows_of(flags, docs, "self_citation"))

    def test_unknown_class_excluded(self):
        def ref(doc_id, i):
            return RefLink(f"{doc_id}r{i}", self_citation=(SELF, NON_SELF, UNKNOWN)[i % 3])

        doc = make_doc("d", 30, make_ref=ref)
        # Flag every unknown citance; they must not affect the ratio.
        keys = {("d", i) for i in range(30) if i % 3 == 2}
        keys.add(("d", 0))   # one self flagged of 10
        keys.add(("d", 1))   # one non-self flagged of 10
        ratio = self_citation_ratio(rows_of(keys, [doc], "self_citation"))
        assert ratio == pytest.approx(1.0)


class TestMesoLogRatio:
    @staticmethod
    def three_field_fixture():
        # Rates 1%, 2%, 3% against unweighted mean 2%.
        docs = [
            make_doc("a", 100, meso=1),
            make_doc("b", 100, meso=2),
            make_doc("c", 100, meso=3),
        ]
        keys = {("a", 0), ("b", 0), ("b", 1), ("c", 0), ("c", 1), ("c", 2)}
        return docs, keys

    def test_hand_arithmetic(self):
        docs, flags = self.three_field_fixture()
        rows = {r.meso_field: r for r in meso_log_ratio(rows_of(flags, docs, "meso_field"))}
        assert rows[1].log_ratio == pytest.approx(-1.0)
        assert rows[2].log_ratio == pytest.approx(0.0)
        assert rows[3].log_ratio == pytest.approx(math.log2(1.5))

    def test_rate_equal_to_mean_is_zero(self):
        docs = [make_doc("a", 50, meso=1), make_doc("b", 50, meso=2)]
        flags = {("a", 0), ("b", 0)}
        rows = meso_log_ratio(rows_of(flags, docs, "meso_field"))
        assert all(r.log_ratio == 0.0 for r in rows)

    def test_clamped_at_two(self):
        # 8x the mean exceeds the 4x truncation.
        docs = [make_doc(f"d{i}", 1000, meso=i) for i in range(16)]
        keys = {("d0", j) for j in range(80)}
        rows = {r.meso_field: r for r in meso_log_ratio(rows_of(keys, docs, "meso_field"))}
        assert rows[0].log_ratio == 2.0

    def test_zero_rate_marker(self):
        docs = [make_doc("a", 100, meso=1), make_doc("b", 100, meso=2)]
        rows = {r.meso_field: r
                for r in meso_log_ratio(rows_of({("b", 0)}, docs, "meso_field"))}
        assert rows[1].rate == 0.0 and rows[1].log_ratio == -2.0
        assert rows[2].rate > 0.0

    def test_log_ratios_bounded(self):
        docs, flags = self.three_field_fixture()
        rows = meso_log_ratio(rows_of(flags, docs, "meso_field"))
        assert all(-2.0 <= r.log_ratio <= 2.0 for r in rows)

    def test_the_mean_rate_is_one_rounding_of_the_exact_sum(self):
        # Left to right, 0.2 + 0.4 + 0.3 adds up to 0.9000000000000001; sum()
        # gives that before Python 3.12 and 0.9 from 3.12 on, so a mean of
        # 0.30000000000000004 would put the last row's log ratio at -3.2e-16.
        rows = meso_log_ratio([RateRow(1, 2, 1000), RateRow(2, 4, 1000), RateRow(3, 3, 1000)])
        assert [r.rate for r in rows] == [0.2, 0.4, 0.3]
        assert rows[2].log_ratio == 0.0


class TestTopTables:
    def test_issuer_ranking(self):
        docs = [make_doc("a", 8), make_doc("b", 8)]
        keys = {("a", i) for i in range(5)} | {("b", i) for i in range(3)}
        issuers, _ = top_tables(keys, docs)
        assert issuers == [("a", 5), ("b", 3)]

    def test_receiver_counts_citances_not_links(self):
        def ref_pair(doc_id, i):
            return RefLink(f"{doc_id}r{i}", cited_doc_id="R")

        docs = [
            Document("a", 2010, sentences=tuple(
                Sentence(i, "s", (
                    RefLink(f"ar{i}a", cited_doc_id="R"),
                    RefLink(f"ar{i}b", cited_doc_id="R"),
                ))
                for i in range(4)
            )),
        ]
        keys = {("a", i) for i in range(4)}
        _, receivers = top_tables(keys, docs)
        assert receivers == [("R", 4)]

    def test_empty_flags(self):
        docs = [make_doc("a", 3)]
        issuers, receivers = top_tables(set(), docs)
        assert issuers == [] and receivers == []

    def test_ties_break_by_doc_id(self):
        docs = [make_doc("b", 2), make_doc("a", 2)]
        keys = {("a", 0), ("b", 0)}
        issuers, _ = top_tables(keys, docs)
        assert issuers == [("a", 1), ("b", 1)]


class TestCitationTableCsv:
    def test_columns_are_read_by_name(self, tmp_path):
        rows = [("P1", 2000, 2001, 3), ("P1", 2000, 2002, 0), ("Q2", 2003, 2004, 7)]
        standard = tmp_path / "standard.csv"
        standard.write_text("doc_id,pub_year,year,citations\n" + "".join(
            f"{d},{p},{y},{c}\n" for d, p, y, c in rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("# exported\ncitations,note,year,doc_id,pub_year\n" + "".join(
            f"{c},n{i},{y},{d},{p}\n" for i, (d, p, y, c) in enumerate(rows)))
        expected = CitationTable.from_csv(standard)
        assert expected.pub_years == {"P1": 2000, "Q2": 2003}
        assert expected.yearly == {"P1": {2001: 3, 2002: 0}, "Q2": {2004: 7}}
        table = CitationTable.from_csv(shuffled)
        assert (table.pub_years, table.yearly) == (expected.pub_years, expected.yearly)


# Cell texts a number column may hold: forms the integer rule refuses, and
# "07" beside "7", which read as one year.
NUMBER_FORMS = ["07", "7", "-3", "0", "1_0", "+4", "\u0664", " 4 ", "", "x", "4\n"]
# Lines a CSV file may hold that no row writer makes: not UTF-8, malformed.
FAULTS = [b"p9,2000,caf\xe9,1\n", b"p9,2000,20\r01,1\n", b'p9,"2000\n']


@st.composite
def citation_files(draw):
    """The bytes of a citation counts CSV: an optional byte order mark and
    comment block, the columns reordered, repeated, extra or missing, rows
    quoted or not, multi-line cells, CRLF, blank and short rows, and at most
    one fault line."""
    header = list(draw(st.permutations(["doc_id", "pub_year", "year", "citations", "note"])))
    header += draw(st.lists(st.sampled_from(header), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    cells = {
        "doc_id": st.sampled_from(["p1", "p2", "p,3", 'p"4', "p\n5", "#p6"]),
        "pub_year": st.sampled_from(["2000", "2000", "2000", "1999"]),
        "year": st.integers(1995, 2010).map(str),
        "citations": st.integers(0, 9).map(str),
        "note": st.sampled_from(["", "n", "a\nb", "#"]),
    }
    lines = [f"# {draw(st.sampled_from(['exported', 'a,b', '']))}\n"
             for _ in range(draw(st.integers(0, 2)))]
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(cells[name]) for name in header]
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NUMBER_FORMS))
        if draw(st.integers(0, 9)) == 0:
            row = row[:draw(st.integers(0, len(row)))]  # short, or blank when empty
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        ending = draw(st.sampled_from(["\n", "\r\n"]))
        csv.writer(buffer, lineterminator=ending, quoting=quoting).writerow(row)
    parts = [line.encode("utf-8") for line in lines]
    parts += io.BytesIO(buffer.getvalue().encode("utf-8")).readlines()
    fault = draw(st.sampled_from([None, None, None, *FAULTS]))
    if fault is not None:
        parts.insert(draw(st.integers(0, len(parts))), fault)
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + b"".join(parts)


def _read_or_refuse(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(citation_files())
@example(b"doc_id,pub_year,year,citations\np1,2000,7,1\np1,2000,07,2\n")
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,x\np2,2000,caf\xe9,1\n")
@example(b"#\xe9\ndoc_id,pub_year,year,citations\n")
# A paper's pub_year changing within its rows, and its rows split by
# another's: its pub_year and its years are checked again when it comes
# back, and a pub_year spelled two ways is one year.
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,1\np1,1999,2002,1\n")
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,1\np2,2000,2001,1\np1,1999,2002,1\n")
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,1\np2,2000,2001,1\np1,2000,2001,2\n")
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,1\np1,02000,2002,1\n")
@example(b"doc_id,pub_year,year,citations\np1,2000,2001,1\np1,02000,2002,1\np1,2000,2002,3\n")
@example(b"\xef\xbb\xbf# a\r\ncitations,year,doc_id,pub_year,year\r\n\r\n"
         b'"1","x","""p\n1""","2000","2001"\r\n')
def test_the_table_reader_equals_the_oracle(tmp_path_factory, content):
    """``from_csv`` reads the table, or refuses the file with the message
    and line, that the definitional reader does, the first fault in line
    order winning."""
    path = tmp_path_factory.getbasetemp() / "citations.csv"
    path.write_bytes(content)

    def read(path):
        table = CitationTable.from_csv(path)
        return table.pub_years, table.yearly

    assert _read_or_refuse(read, path) == _read_or_refuse(oracle_citation_table, path)


def citing_doc(doc_id, year, cited_ids):
    sentences = tuple(
        Sentence(i, "s", (RefLink(f"{doc_id}r{i}", cited_doc_id=cited),))
        for i, cited in enumerate(cited_ids)
    )
    return Document(doc_id, year, sentences=sentences)


class TestImpactRatio:
    def test_hand_fixture(self):
        # Two papers first flagged at (c=3, t=2); cohort of four papers.
        pub_years = {p: 2000 for p in ("P1", "P2", "Q3", "Q4")}
        counts = {
            ("P1", 2002): 3, ("P2", 2002): 3, ("Q3", 2002): 3, ("Q4", 2002): 3,
            ("P1", 2003): 4, ("P2", 2003): 2, ("Q3", 2003): 1, ("Q4", 2003): 3,
        }
        table = CitationTable(pub_years, counts)
        docs = [citing_doc("c1", 2002, ["P1", "P2"])]
        flags = {("c1", 0), ("c1", 1)}
        report = impact_ratio(flags, docs, table, [1])[None, 1]
        assert report.mean_disagreement == pytest.approx(3.0)
        assert report.mean_expected == pytest.approx(2.5)
        assert report.d == pytest.approx(1.2)
        assert report.records == 2

    def test_null_case_is_one(self):
        # Disagreement papers drawn identically from a homogeneous cohort.
        pub_years = {f"P{i}": 2000 for i in range(20)}
        counts = {}
        for i in range(20):
            counts[(f"P{i}", 2001)] = 2
            counts[(f"P{i}", 2002)] = 3
        table = CitationTable(pub_years, counts)
        docs = [citing_doc("c1", 2001, [f"P{i}" for i in range(0, 20, 2)])]
        flags = {("c1", i) for i in range(10)}
        assert impact_ratio(flags, docs, table, [1])[None, 1].d == pytest.approx(1.0)

    def test_zero_expected_mean_is_undefined(self):
        pub_years = {p: 2000 for p in ("P1", "Q2")}
        table = CitationTable(pub_years, {("P1", 2002): 0})
        docs = [citing_doc("c1", 2002, ["P1"])]
        flags = {("c1", 0)}
        assert impact_ratio(flags, docs, table, [1]) == {}
        # The same cell is reported once its population expects a citation.
        table = CitationTable(pub_years, {("P1", 2002): 0, ("Q2", 2003): 1})
        assert impact_ratio(flags, docs, table, [1])[None, 1].mean_expected == 0.5

    def test_all_row_style_fixture(self):
        pub_years = {}
        counts = {}
        citing = []
        # Cell (c=2, t=1): 120 papers, 60 first flagged in 2001.
        for i in range(120):
            paper = f"A{i:03d}"
            pub_years[paper] = 2000
            counts[(paper, 2001)] = 2
            if i < 60:  # flagged members: 48 x 3 + 12 x 2 = 168
                counts[(paper, 2002)] = 3 if i < 48 else 2
                citing.append(paper)
            else:       # other members: 48 x 3 + 12 x 4 = 192
                counts[(paper, 2002)] = 3 if i < 108 else 4
        doc_a = citing_doc("cA", 2001, citing)
        # Cell (c=5, t=3): 80 papers, 40 first flagged in 2003.
        citing_b = []
        for i in range(80):
            paper = f"B{i:03d}"
            pub_years[paper] = 2000
            counts[(paper, 2003)] = 5
            if i < 40:  # flagged: 25 x 3 + 15 x 4 = 135
                counts[(paper, 2004)] = 3 if i < 25 else 4
                citing_b.append(paper)
            else:       # others: 39 x 3 + 1 x 4 = 121
                counts[(paper, 2004)] = 3 if i < 79 else 4
        doc_b = citing_doc("cB", 2003, citing_b)

        docs = [doc_a, doc_b]
        flags = {("cA", i) for i in range(60)} | {("cB", i) for i in range(40)}
        table = CitationTable(pub_years, counts)
        report = impact_ratio(flags, docs, table, [1])[None, 1]
        assert report.mean_disagreement == pytest.approx(3.03)
        assert report.mean_expected == pytest.approx(3.08)
        assert abs(report.d - 0.983) <= 0.001

    def test_matches_brute_force(self):
        rng = random.Random(99)
        pub_years = {f"P{i:04d}": 2000 + rng.randrange(4) for i in range(800)}
        counts = {}
        for paper, pub in pub_years.items():
            for offset in range(0, 7):
                counts[(paper, pub + offset)] = rng.randrange(6)
        flagged_papers = rng.sample(sorted(pub_years), 120)
        docs = []
        flags = set()
        for i, paper in enumerate(flagged_papers):
            year = pub_years[paper] + rng.randrange(1, 5)
            doc = citing_doc(f"c{i:04d}", year, [paper])
            docs.append(doc)
            flags.add((doc.doc_id, 0))
        table = CitationTable(pub_years, counts)
        reports = impact_ratio(flags, docs, table, (1, 2, 3))
        first = first_disagreement_years(flags, docs)
        for k in (1, 2, 3):
            report = reports[None, k]
            expected = brute_impact(first, pub_years, counts, k)
            assert report.mean_disagreement == pytest.approx(expected[0], rel=1e-12)
            assert report.mean_expected == pytest.approx(expected[1], rel=1e-12)
            assert report.d == pytest.approx(expected[2], rel=1e-12)

    def test_field_restricted_matches_brute_force(self):
        rng = random.Random(2024)
        fields = ("BioHealth", "MathComp", "SocHum")
        pub_years = {f"P{i:04d}": 2000 + rng.randrange(4) for i in range(900)}
        paper_fields = {paper: rng.choice(fields) for paper in pub_years}
        counts = {
            (paper, pub + offset): rng.randrange(8)
            for paper, pub in pub_years.items() for offset in range(10)
        }
        docs = [Document(paper, pub, main_field=paper_fields[paper])
                for paper, pub in pub_years.items()]
        flags = set()
        for i, paper in enumerate(rng.sample(sorted(pub_years), 300)):
            doc = citing_doc(f"c{i:04d}", pub_years[paper] + rng.randrange(1, 7), [paper])
            docs.append(doc)
            flags.add((doc.doc_id, 0))
        table = CitationTable(pub_years, counts)
        first = first_disagreement_years(flags, docs)
        reports = impact_ratio(flags, docs, table, (1, 2, 3))
        for field in fields:
            field_pub = {p: y for p, y in pub_years.items() if paper_fields[p] == field}
            field_first = {p: y for p, y in first.items() if p in field_pub}
            cells = {(counts[(p, y)], y - pub_years[p]) for p, y in field_first.items()}
            assert len(cells) >= 20, field
            for k in (1, 2, 3):
                report = reports[field, k]
                expected = brute_impact(field_first, field_pub, counts, k)
                assert report.records == len(field_first)
                for got, want in zip(
                    (report.mean_disagreement, report.mean_expected, report.d), expected
                ):
                    assert abs(got - want) <= 1e-12 * abs(want), (field, k)

    def test_every_entry_matches_brute_force(self):
        # A table with gaps, rows dated before publication, first
        # disagreement before publication (t < 0), external papers with no
        # field, and a field whose papers are never flagged.
        rng = random.Random(77)
        fields = ("BioHealth", "MathComp", "SocHum", "PhysEngr")
        pub_years = {f"P{i:04d}": 2000 + rng.randrange(5) for i in range(1200)}
        paper_fields = {p: rng.choice(fields) for p in pub_years if rng.random() < 0.8}
        counts = {
            (paper, pub + offset): rng.randrange(5)
            for paper, pub in pub_years.items() for offset in range(-2, 9)
            if rng.random() < 0.7
        }
        docs = [Document(p, pub_years[p], main_field=f) for p, f in paper_fields.items()
                if f != "PhysEngr" or rng.random() < 0.5]
        flags = set()
        unflagged = {p for p, f in paper_fields.items() if f == "PhysEngr"}
        candidates = sorted(set(pub_years) - unflagged)
        for i, paper in enumerate(rng.sample(candidates, 400)):
            doc = citing_doc(f"c{i:04d}", pub_years[paper] + rng.randrange(-2, 6), [paper])
            docs.append(doc)
            flags.add((doc.doc_id, 0))
        table = CitationTable(pub_years, counts)
        first = first_disagreement_years(flags, docs)
        assert any(year < pub_years[p] for p, year in first.items())
        assert any(p not in paper_fields for p in first)
        doc_fields = {d.doc_id: d.main_field for d in docs}

        reports = impact_ratio(flags, docs, table, (1, 2, 3))
        expected_keys = set()
        for field in (None, *fields):
            field_pub = {p: y for p, y in pub_years.items()
                         if field is None or doc_fields.get(p) == field}
            field_first = {p: y for p, y in first.items() if p in field_pub}
            for k in (1, 2, 3):
                if not field_first:
                    continue
                expected_keys.add((field, k))
                report = reports[field, k]
                want = brute_impact(field_first, field_pub, counts, k)
                assert report.records == len(field_first)
                got = (report.mean_disagreement, report.mean_expected, report.d)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b), (field, k)
        assert set(reports) == expected_keys
        assert ("PhysEngr", 1) not in reports and ("SocHum", 1) in reports

    def test_every_entry_matches_brute_force_with_zero_count_cells(self):
        # First disagreements in years without a row and in years whose row
        # is 0, so c = 0 cells exist; t spans 0-25 and k reaches 10 years.
        rng = random.Random(2121)
        fields = ("BioHealth", "MathComp", "SocHum")
        pub_years = {f"P{i:04d}": 1990 + rng.randrange(6) for i in range(400)}
        paper_fields = {p: rng.choice(fields) for p in pub_years if rng.random() < 0.8}
        counts = {
            (paper, pub + offset): rng.randrange(4)
            for paper, pub in pub_years.items() for offset in range(36) if rng.random() < 0.6
        }
        docs = [Document(p, pub_years[p], main_field=f) for p, f in paper_fields.items()]
        flags = set()
        for i, paper in enumerate(rng.sample(sorted(pub_years), 200)):
            doc = citing_doc(f"c{i:04d}", pub_years[paper] + rng.randrange(26), [paper])
            docs.append(doc)
            flags.add((doc.doc_id, 0))
        table = CitationTable(pub_years, counts)
        first = first_disagreement_years(flags, docs)
        assert {year - pub_years[p] for p, year in first.items()} == set(range(26))
        assert any((p, year) not in counts for p, year in first.items())
        assert any(counts.get((p, year)) == 0 for p, year in first.items())

        ks = (1, 5, 10)
        reports = impact_ratio(flags, docs, table, ks)
        expected_keys = set()
        for field in (None, *fields):
            field_pub = {p: y for p, y in pub_years.items()
                         if field is None or paper_fields.get(p) == field}
            field_first = {p: y for p, y in first.items() if p in field_pub}
            for k in ks:
                expected_keys.add((field, k))
                report = reports[field, k]
                want = brute_impact(field_first, field_pub, counts, k)
                assert report.records == len(field_first)
                got = (report.mean_disagreement, report.mean_expected, report.d)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * abs(b), (field, k)
        assert set(reports) == expected_keys

    def test_empty_undefined(self):
        table = CitationTable({"P": 2000}, {("P", 2001): 1})
        docs = [citing_doc("c", 2001, ["P"])]
        assert impact_ratio(set(), docs, table, [1]) == {}


class TestCitationGap:
    @staticmethod
    def build(gap_per_year):
        docs = []
        pub_years = {}
        counts = {}
        for i in range(10):
            doc_id = f"f{i}"
            docs.append(make_doc(doc_id, 1, year=2000))
            pub_years[doc_id] = 2000
            for k in range(1, 5):
                counts[(doc_id, 2000 + k)] = 3 + gap_per_year
        for i in range(10):
            doc_id = f"n{i}"
            docs.append(make_doc(doc_id, 1, year=2000))
            pub_years[doc_id] = 2000
            for k in range(1, 5):
                counts[(doc_id, 2000 + k)] = 3
        flags = {(f"f{i}", 0) for i in range(10)}
        return docs, flags, CitationTable(pub_years, counts)

    def test_identical_series_zero_gap(self):
        docs, flags, table = self.build(0)
        assert all(r.gap == 0.0 for r in citation_gap(flags, docs, table, horizon=4))

    def test_planted_gap_recovered(self):
        docs, flags, table = self.build(2)
        rows = citation_gap(flags, docs, table, horizon=4)
        assert all(r.gap == pytest.approx(2.0) for r in rows)
        assert [r.k for r in rows] == [1, 2, 3, 4]

    def test_doc_type_filter(self):
        docs, flags, table = self.build(2)
        reviews = [
            Document("rv", 2000, "review",
                     sentences=(Sentence(0, "s", (RefLink("rvr0"),)),))
        ]
        with_reviews = docs + reviews
        rows = citation_gap(flags, with_reviews, table,
                            doc_type="full-article", horizon=2)
        assert all(r.gap == pytest.approx(2.0) for r in rows)

    def test_no_flagged_papers_error(self):
        docs, _, table = self.build(0)
        with pytest.raises(ValueError):
            citation_gap(set(), docs, table)

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citequery.catalog import ExclusionRule, Pattern, QuerySpec, parse_query_file
from citequery.engine import (
    CatalogMatcher,
    Span,
    apply_exclusions,
    match_pattern,
    run_all,
    run_query,
    span_gap,
    suppress_negation,
)
from conftest import GOLDEN_MATCHES
from naive_scanner import scan_all, scan_query
from synth import make_citance, random_citances


def pattern(text):
    return Pattern.parse(text)


class TestMatchPattern:
    def test_prefix(self):
        spans = match_pattern(["results", "differ", "markedly"], pattern("differ*"))
        assert spans == [Span(1, 1, "differ*")]

    def test_carveout_blocks_own_token(self):
        spans = match_pattern(
            ["a", "different", "model"], pattern("differ*"), [pattern("different*")]
        )
        assert spans == []

    def test_carveout_only_applies_to_matched_token(self):
        spans = match_pattern(
            ["results", "differ", "from", "different", "models"],
            pattern("differ*"),
            [pattern("different*")],
        )
        assert spans == [Span(1, 1, "differ*")]

    def test_multi_token(self):
        spans = match_pattern(
            ["there", "is", "no", "consensus", "on"], pattern("no consensus")
        )
        assert spans == [Span(2, 3, "no consensus")]

    def test_all_occurrences(self):
        spans = match_pattern(["conflict", "and", "conflicts"], pattern("conflict*"))
        assert [s.start for s in spans] == [0, 2]


class TestSuppressNegation:
    def test_no_conflict(self):
        words = ["there", "was", "no", "conflict", "of", "interest"]
        assert suppress_negation(words, Span(3, 3, "conflict*"), exempt=False) is False

    def test_window_of_two(self):
        words = ["results", "do", "not", "contradict", "this"]
        assert suppress_negation(words, Span(3, 3, "contradict*"), exempt=False) is False

    def test_negation_outside_window(self):
        words = ["not", "only", "results", "contradict", "this"]
        assert suppress_negation(words, Span(3, 3, "contradict*"), exempt=False) is True

    def test_exempt_kept(self):
        words = ["there", "is", "no", "consensus"]
        assert suppress_negation(words, Span(2, 3, "no consensus"), exempt=True) is True

    def test_tokens_inside_span_never_count(self):
        words = ["could", "not", "agree", "on"]
        assert suppress_negation(words, Span(1, 2, "not agree*"), exempt=False) is True


class TestApplyExclusions:
    def test_citance_phrase_rejects(self, catalog_by_id):
        query = catalog_by_id["disagree.standalone"]
        words = ["inter-rater", "disagreement", "on", "a", "likert", "scale"]
        spans = [Span(1, 1, "disagree*")]
        assert apply_exclusions(words, spans, query.exclusions) is None

    def test_cooccurrence_rejects(self, catalog_by_id):
        query = catalog_by_id["disprov.standalone"]
        words = ["to", "prove", "or", "disprove", "the", "theorem"]
        spans = [Span(3, 3, "disprov*")]
        assert apply_exclusions(words, spans, query.exclusions) is None

    def test_cooccurrence_beyond_window_kept(self, catalog_by_id):
        query = catalog_by_id["disprov.standalone"]
        words = ["proved"] + ["w"] * 10 + ["disproved"]
        spans = [Span(11, 11, "disprov*")]
        assert apply_exclusions(words, spans, query.exclusions) == spans

    def test_match_context_drops_only_modified_span(self, catalog_by_id):
        query = catalog_by_id["debat.standalone"]
        words = ["the", "public", "debate", "and", "a", "debate", "persists"]
        spans = [Span(2, 2, "debat*"), Span(5, 5, "debat*")]
        assert apply_exclusions(words, spans, query.exclusions) == [Span(5, 5, "debat*")]


def proximity_record(words, max_gap=4):
    """run_query's record for signal ``sig`` and filters ``f``, ``far``,
    ``near``, ``left`` and ``right``; the batch matcher must agree."""
    query = QuerySpec(
        "sig.methods", "sig", (pattern("sig"),), "methods",
        tuple(pattern(t) for t in ("f", "far", "near", "left", "right")),
        max_gap=max_gap,
    )
    citance = make_citance("d", 0, words)
    record = run_query(citance, query)
    assert CatalogMatcher([query]).match_citance(citance) == ([record] if record else [])
    return record


def placed(length, **at):
    words = ["w"] * length
    for word, index in at.items():
        words[index] = word
    return words


class TestCheckProximity:
    """The signal/filter proximity rule, pinned through ``run_query``."""

    def test_adjacent(self):
        record = proximity_record(placed(3, sig=1, f=2))
        assert record.filter_span == Span(2, 2, "f")

    def test_gap_four_is_in(self):
        record = proximity_record(placed(9, sig=2, f=7))
        assert record.filter_span == Span(7, 7, "f")

    def test_gap_five_is_out(self):
        assert proximity_record(placed(9, sig=2, f=8)) is None

    def test_order_agnostic_gap_four(self):
        record = proximity_record(placed(9, sig=7, f=2))
        assert record.filter_span == Span(2, 2, "f")

    def test_max_gap_is_per_query(self):
        assert proximity_record(placed(9, sig=2, f=7), max_gap=3) is None
        assert proximity_record(placed(9, sig=2, f=8), max_gap=5) is not None

    def test_first_in_span_order_wins(self):
        # Not the nearest filter: the first qualifying one in span order.
        record = proximity_record(placed(8, sig=5, far=1, near=7))
        assert record.filter_span == Span(1, 1, "far")

    def test_distance_tie_breaks_leftward(self):
        record = proximity_record(placed(8, sig=5, left=3, right=7))
        assert record.filter_span == Span(3, 3, "left")

    @pytest.mark.parametrize("f_start, f_end, gap", [
        (0, 0, 1), (2, 3, 0), (4, 4, 0), (8, 9, 3), (10, 10, 5),
    ])
    def test_gap_arithmetic_brute(self, f_start, f_end, gap):
        assert span_gap(Span(2, 4, "s"), Span(f_start, f_end, "f")) == gap


class TestRunQuery:
    def test_paper_positive_example(self, catalog_by_id):
        citance = make_citance("d", 0, [
            "however", "recent", "studies", "have", "challenged",
            "this", "survival", "benefit",
        ])
        record = run_query(citance, catalog_by_id["challenge.studies"])
        assert record.signal_span == Span(4, 4, "challenge*")
        assert record.filter_span == Span(2, 2, "studies")

    def test_engine_matches_human_invalid_case(self, catalog_by_id):
        citance = make_citance("d", 0, [
            "to", "facilitate", "conflict", "management", "and", "analysis",
            "in", "mcr", "the", "graph", "model", "for", "conflict",
            "resolution", "gmcr", "was", "used",
        ])
        record = run_query(citance, catalog_by_id["conflict.standalone"])
        assert record is not None
        assert record.signal_span.start == 2

    def test_absent(self, catalog_by_id):
        citance = make_citance("d", 0, ["the", "model", "performs", "well"])
        assert run_query(citance, catalog_by_id["controvers.standalone"]) is None

    def test_signal_chosen_by_qualifying_filter(self, catalog_by_id):
        # First conflict span has no methods filter within reach; second does.
        citance = make_citance("d", 0, [
            "to", "facilitate", "conflict", "management", "and", "analysis",
            "in", "mcr", "the", "graph", "model", "for", "conflict",
            "resolution", "gmcr", "was", "used",
        ])
        record = run_query(citance, catalog_by_id["conflict.methods"])
        assert record.signal_span == Span(12, 12, "conflict*")
        assert record.filter_span == Span(10, 10, "model*")


class TestRunAll:
    def test_empty_corpus(self, catalog):
        assert run_all([], catalog) == []

    def test_golden_fixture_exact(self, catalog, golden_citances):
        records = run_all(golden_citances, catalog)
        actual = [
            (r.doc_id, r.sentence_index, r.query_id,
             r.signal_span.start, r.signal_span.end,
             r.filter_span.start if r.filter_span else None,
             r.filter_span.end if r.filter_span else None)
            for r in records
        ]
        with open(GOLDEN_MATCHES, newline="", encoding="utf-8") as handle:
            expected = [
                (row["doc_id"], int(row["sentence_index"]), row["query_id"],
                 int(row["signal_start"]), int(row["signal_end"]),
                 int(row["filter_start"]) if row["filter_start"] else None,
                 int(row["filter_end"]) if row["filter_end"] else None)
                for row in csv.DictReader(handle)
            ]
        assert actual == expected

    def test_filtered_match_appears_under_standalone_too(self, catalog, golden_citances):
        records = run_all(golden_citances, catalog)
        keys = {(r.doc_id, r.sentence_index, r.query_id) for r in records}
        for doc_id, index, query_id in keys:
            signal_key, _, filter_set = query_id.partition(".")
            if filter_set != "standalone":
                assert (doc_id, index, f"{signal_key}.standalone") in keys

    def test_citance_can_match_several_queries(self, catalog, golden_citances):
        records = run_all(golden_citances, catalog)
        by_citance = {}
        for r in records:
            by_citance.setdefault((r.doc_id, r.sentence_index), set()).add(r.query_id)
        assert {"controvers.standalone", "no_consensus.standalone"} <= by_citance[("g04", 5)]

    def test_signal_sets_sharing_patterns_keep_own_exclusions(self):
        queries = parse_query_file(
            "query plain\nsignal debat*\nfilter none\n\n"
            "query public\nsignal debat*\nfilter none\n"
            "exclude match_context:public\n\n"
            "query plain.m\nsignal debat*\nfilter methods\nmaxgap 1\n\n"
            "query public.m\nsignal debat*\nfilter methods\n"
            "exclude match_context:public\nmaxgap 1\n"
        )
        assert len({q.signal_id for q in queries}) == 1
        citances = [
            make_citance("d", 0, ["a", "public", "debate", "on", "the", "model"]),
            make_citance("d", 1, ["the", "model", "debate", "and", "public", "debate"]),
        ] + random_citances(300, seed=8)
        expected = sorted(
            (r for c in citances for q in queries if (r := run_query(c, q))),
            key=lambda r: (r.doc_id, r.sentence_index, r.query_id),
        )
        records = run_all(citances, queries)
        assert records == expected
        first = {r.query_id for r in records if (r.doc_id, r.sentence_index) == ("d", 0)}
        assert first == {"plain"}
        second = {r.query_id: r.signal_span.start for r in records
                  if (r.doc_id, r.sentence_index) == ("d", 1)}
        assert second == {"plain": 2, "public": 2, "plain.m": 2, "public.m": 2}


class TestOracleEquivalence:
    def test_randomized_sample(self, catalog):
        citances = random_citances(1500, seed=11)
        records = run_all(citances, catalog)
        assert records == scan_all(citances, catalog)
        # Filtered matches imply the standalone match on the same citance.
        keys = {(r.doc_id, r.sentence_index, r.query_id) for r in records}
        for doc_id, index, query_id in keys:
            signal_key, _, filter_set = query_id.partition(".")
            if filter_set != "standalone":
                assert (doc_id, index, f"{signal_key}.standalone") in keys

    def test_negation_exempt_queries_never_suppressed(self, catalog):
        exempt = [q for q in catalog if q.negation_exempt]
        assert {q.signal_id for q in exempt} == {"no consensus"}
        citance = make_citance("d", 0, ["not", "no", "no", "consensus", "here"])
        for query in exempt:
            if query.filter_set == "standalone":
                assert run_query(citance, query) is not None


# Random QuerySpec generator for cross-checking the two engines on shapes
# beyond the builtin catalog.
words_st = st.sampled_from(
    "alpha beta gamma delta epsilon zeta eta theta iota kappa no not".split()
)
pattern_st = st.builds(
    lambda toks, star: Pattern(tuple(toks[:-1] + [toks[-1] + "*"]) if star else tuple(toks)),
    st.lists(words_st, min_size=1, max_size=2),
    st.booleans(),
)


@st.composite
def query_specs(draw):
    signal = draw(st.lists(pattern_st, min_size=1, max_size=2))
    filter_set = draw(st.sampled_from(["standalone", "methods"]))
    exclusions = []
    if draw(st.booleans()):
        exclusions.append(ExclusionRule("citance_phrase", (draw(pattern_st),)))
    if draw(st.booleans()):
        exclusions.append(
            ExclusionRule(
                "cooccurrence_window",
                (draw(pattern_st), draw(pattern_st)),
                window=draw(st.integers(min_value=1, max_value=5)),
            )
        )
    if draw(st.booleans()):
        exclusions.append(ExclusionRule("match_context", (draw(pattern_st),)))
    if draw(st.booleans()):
        single = draw(words_st)
        exclusions.append(ExclusionRule("token_carveout", (Pattern((single + "*",)),)))
    from citequery.catalog import FILTER_SETS

    return QuerySpec(
        query_id="random.q",
        signal_id=signal[0].text,
        signal_patterns=tuple(signal),
        filter_set=filter_set,
        filter_patterns=FILTER_SETS[filter_set],
        exclusions=tuple(exclusions),
        max_gap=draw(st.integers(min_value=0, max_value=5)),
        negation_exempt=signal[0].contains_negation_token,
    )


@settings(max_examples=300, deadline=None)
@given(
    query_specs(),
    st.lists(
        st.sampled_from(
            "alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "no not cannot nor neither model models method approach technique".split()
        ),
        min_size=0, max_size=25,
    ),
)
def test_random_query_engines_agree(query, words):
    citance = make_citance("d", 0, words)
    direct = run_query(citance, query)
    batch = CatalogMatcher([query]).match_citance(citance)
    oracle = scan_query(words, query)
    assert batch == ([direct] if direct else [])
    if oracle is None:
        assert direct is None
    else:
        assert direct is not None
        assert (direct.signal_span, direct.filter_span) == oracle

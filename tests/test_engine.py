import csv
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citequery.catalog import (
    FILTER_SET_NAMES, FILTER_SETS, ExclusionRule, Pattern, QuerySpec, parse_query_file,
)
from citequery.engine import RECORD_ORDER, CatalogMatcher, MatchRecord, Span, run_all
from citequery.ingest import Citance
from conftest import GOLDEN_MATCHES
from naive_scanner import scan_all, scan_citance, token_ok
from synth import (
    NEUTRAL_WORDS, lead_last_citances, lead_words, make_citance, random_citances,
)


def pattern(text):
    return Pattern.parse(text)


def match_words(words, query):
    """The matcher's record for ``query`` over a citance of ``words``, or
    None; the oracle must give the same."""
    citance = make_citance("d", 0, words)
    records = CatalogMatcher([query]).match_citance(citance)
    assert records == scan_citance(citance, [query])
    return records[0] if records else None


def standalone(*signals, exclusions=()):
    """A standalone query on the given signal patterns."""
    patterns = tuple(pattern(s) for s in signals)
    return QuerySpec("q.standalone", patterns, "standalone", exclusions=exclusions)


def signal_span(words, query):
    record = match_words(words, query)
    return record.signal_span if record else None


class TestMatchPattern:
    def test_prefix(self):
        assert signal_span(["results", "differ", "markedly"], standalone("differ*")) \
            == Span(1, 1, "differ*")

    def test_carveout_blocks_own_token(self):
        carve = (ExclusionRule("token_carveout", (pattern("different*"),)),)
        assert signal_span(["a", "different", "model"],
                           standalone("differ*", exclusions=carve)) is None

    def test_carveout_only_applies_to_matched_token(self):
        query = standalone(
            "differ*", exclusions=(ExclusionRule("token_carveout", (pattern("different*"),)),)
        )
        assert signal_span(["results", "differ", "from", "different", "models"], query) \
            == Span(1, 1, "differ*")
        # With the words swapped the carved occurrence comes first and is skipped.
        assert signal_span(["results", "different", "from", "differ", "models"], query) \
            == Span(3, 3, "differ*")

    def test_multi_token(self):
        assert signal_span(["there", "is", "no", "consensus", "on"],
                           standalone("no consensus")) == Span(2, 3, "no consensus")

    def test_all_occurrences(self):
        # A negated first occurrence leaves the second.
        assert signal_span(["no", "conflict", "and", "conflicts"], standalone("conflict*")) \
            == Span(3, 3, "conflict*")


class TestSuppressNegation:
    def test_no_conflict(self):
        words = ["there", "was", "no", "conflict", "of", "interest"]
        assert signal_span(words, standalone("conflict*")) is None

    def test_window_of_two(self):
        words = ["results", "do", "not", "contradict", "this"]
        assert signal_span(words, standalone("contradict*")) is None

    def test_negation_outside_window(self):
        words = ["not", "only", "results", "contradict", "this"]
        assert signal_span(words, standalone("contradict*")) == Span(3, 3, "contradict*")

    def test_exempt_kept(self):
        words = ["there", "is", "no", "consensus"]
        assert signal_span(words, standalone("no consensus")) == Span(2, 3, "no consensus")
        # Exempt by its own negation token, and every pattern of a query
        # whose main signal carries one.
        assert signal_span(["not", "no", "consensus"], standalone("no consensus")) \
            == Span(1, 2, "no consensus")
        assert signal_span(["we", "not", "disagree"], standalone("no consensus", "disagree*")) \
            == Span(2, 2, "disagree*")
        assert signal_span(["we", "not", "disagree"], standalone("disagree*")) is None

    def test_tokens_inside_span_never_count(self):
        words = ["could", "not", "agree", "on"]
        assert signal_span(words, standalone("not agree*")) == Span(1, 2, "not agree*")
        # "n*" is no negation token, so only the window could suppress this span.
        assert signal_span(words, standalone("n* agree*")) == Span(1, 2, "n* agree*")


class TestApplyExclusions:
    """Each case also runs without the query's exclusions, which must match."""

    def check(self, query, words, expected, unexcluded):
        assert signal_span(words, query) == expected
        assert signal_span(words, query._replace(exclusions=())) == unexcluded

    def test_citance_phrase_rejects(self, catalog_by_id):
        self.check(catalog_by_id["disagree.standalone"],
                   ["inter-rater", "disagreement", "on", "a", "likert", "scale"],
                   None, Span(1, 1, "disagree*"))

    def test_cooccurrence_rejects(self, catalog_by_id):
        self.check(catalog_by_id["disprov.standalone"],
                   ["to", "prove", "or", "disprove", "the", "theorem"],
                   None, Span(3, 3, "disprov*"))

    def test_cooccurrence_beyond_window_kept(self, catalog_by_id):
        self.check(catalog_by_id["disprov.standalone"], ["proved"] + ["w"] * 10 + ["disproved"],
                   Span(11, 11, "disprov*"), Span(11, 11, "disprov*"))

    def test_match_context_drops_only_modified_span(self, catalog_by_id):
        self.check(catalog_by_id["debat.standalone"],
                   ["the", "public", "debate", "and", "a", "debate", "persists"],
                   Span(5, 5, "debat*"), Span(2, 2, "debat*"))


def proximity_record(words, max_gap=4):
    """The record for signal ``sig`` and filters ``f``, ``far``, ``near``,
    ``left`` and ``right``."""
    query = QuerySpec("sig.methods", (pattern("sig"),), "methods", max_gap=max_gap)
    filters = tuple(pattern(t) for t in ("f", "far", "near", "left", "right"))
    with mock.patch.dict(FILTER_SETS, methods=filters):
        return match_words(words, query)


def placed(length, **at):
    words = ["w"] * length
    for word, index in at.items():
        words[index] = word
    return words


class TestCheckProximity:
    """The signal/filter proximity rule, pinned through ``CatalogMatcher``."""

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
        # A 3-word signal on words 2-4; the filter pattern is the words at
        # its own span, which may overlap the signal's.
        words = ["w"] * 11
        words[2:5] = ["sa", "sb", "sc"]
        for i in range(f_start, f_end + 1):
            if words[i] == "w":
                words[i] = f"f{i}"
        filter_pattern = Pattern(tuple(words[f_start:f_end + 1]))

        def record(max_gap):
            query = QuerySpec("s.methods", (pattern("sa sb sc"),), "methods", max_gap=max_gap)
            with mock.patch.dict(FILTER_SETS, methods=(filter_pattern,)):
                return match_words(words, query)

        found = record(gap)
        assert found.signal_span == Span(2, 4, "sa sb sc")
        assert found.filter_span == Span(f_start, f_end, filter_pattern.text)
        if gap > 0:
            assert record(gap - 1) is None


class TestRunQuery:
    """Builtin queries on hand-checked citances."""

    def test_paper_positive_example(self, catalog_by_id):
        record = match_words([
            "however", "recent", "studies", "have", "challenged",
            "this", "survival", "benefit",
        ], catalog_by_id["challenge.studies"])
        assert record.signal_span == Span(4, 4, "challenge*")
        assert record.filter_span == Span(2, 2, "studies")

    def test_engine_matches_human_invalid_case(self, catalog_by_id):
        record = match_words([
            "to", "facilitate", "conflict", "management", "and", "analysis",
            "in", "mcr", "the", "graph", "model", "for", "conflict",
            "resolution", "gmcr", "was", "used",
        ], catalog_by_id["conflict.standalone"])
        assert record is not None
        assert record.signal_span.start == 2

    def test_absent(self, catalog_by_id):
        assert match_words(["the", "model", "performs", "well"],
                           catalog_by_id["controvers.standalone"]) is None

    def test_signal_chosen_by_qualifying_filter(self, catalog_by_id):
        # First conflict span has no methods filter within reach; second does.
        record = match_words([
            "to", "facilitate", "conflict", "management", "and", "analysis",
            "in", "mcr", "the", "graph", "model", "for", "conflict",
            "resolution", "gmcr", "was", "used",
        ], catalog_by_id["conflict.methods"])
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

    def test_records_spans_and_citances_are_their_named_tuples(
        self, catalog_by_id, golden_citances
    ):
        # A named tuple equals the plain tuple of its fields, so the equality
        # tests cannot tell the record types from bare tuples.
        assert golden_citances and {type(c) for c in golden_citances} == {Citance}
        records = run_all(golden_citances, list(catalog_by_id.values()))
        assert records and {type(r) for r in records} == {MatchRecord}
        for r in records:
            assert type(r.signal_span) is Span
            filtered = bool(catalog_by_id[r.query_id].filter_patterns)
            assert type(r.filter_span) is (Span if filtered else type(None))
        assert any(r.filter_span for r in records)

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

    def test_citance_records_keep_catalog_order(self):
        # Signal definitions interleave: "b" and "c" share one, "a" sits between.
        queries = parse_query_file(
            "query b\nsignal debat*\nfilter none\n\n"
            "query a\nsignal conflict*\nfilter none\n\n"
            "query c\nsignal debat*\nfilter methods\n"
        )
        citance = make_citance("d", 0, ["the", "model", "debate", "and", "conflict"])
        records = CatalogMatcher(queries).match_citance(citance)
        assert [r.query_id for r in records] == ["b", "a", "c"]
        assert records == scan_citance(citance, queries)

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
        records = run_all(citances, queries)
        assert records == scan_all(citances, queries)
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

    def test_records_do_not_depend_on_what_the_matcher_has_seen(
        self, catalog, golden_citances
    ):
        # One matcher throughout: each pass meets the words the earlier
        # passes classified and marked lead-less.
        matcher = CatalogMatcher(catalog)
        noisy = random_citances(1500, seed=11)
        golden = (golden_citances, scan_all(golden_citances, catalog))
        for citances, expected in (golden, (noisy, scan_all(noisy, catalog)), golden):
            records = [r for c in citances for r in matcher.match_citance(c)]
            records.sort(key=lambda r: (r.doc_id, r.sentence_index, r.query_id))
            assert records == expected

    def test_known_lead_less_citances_are_not_classified(self, catalog):
        matcher = CatalogMatcher(catalog)
        stream = [make_citance("d", i, NEUTRAL_WORDS[i:] + NEUTRAL_WORDS[:i])
                  for i in range(len(NEUTRAL_WORDS))]
        assert [matcher.match_citance(c) for c in stream] == [[]] * len(stream)
        classifier = matcher._classifier
        lookups = []

        class WatchedCache(dict):
            def get(self, word, default=None):
                lookups.append(word)
                return super().get(word, default)

        with mock.patch.object(classifier, "cache", WatchedCache(classifier.cache)), \
                mock.patch.object(classifier, "classify", wraps=classifier.classify) as classify:
            for citance in stream:
                assert matcher.match_citance(citance) == []
            assert lookups == [] and classify.call_count == 0
            # A cue word sends the citance down the full path, word by word;
            # only the word never seen before is classified.
            cued = make_citance("d", 99, NEUTRAL_WORDS[:5] + ("controversial",))
            assert matcher.match_citance(cued) == scan_citance(cued, catalog) != []
            assert lookups == list(cued.words)
            assert classify.call_args_list == [mock.call("controversial")]

    def test_lead_free_words_are_classified_and_start_no_signal(self, catalog):
        leads = lead_words(catalog)
        citances = lead_last_citances(random_citances(150, seed=5), leads)
        expected = scan_all(citances, catalog)
        assert run_all(citances, catalog) == expected
        matcher = CatalogMatcher(catalog)
        records = [r for c in citances for r in matcher.match_citance(c)]
        assert sorted(records, key=RECORD_ORDER) == expected
        cache = matcher._classifier.cache
        assert len(matcher.lead_free) > 100
        assert [w for w in matcher.lead_free if w not in cache or not cache[w].isdisjoint(leads)
                or any(token_ok(t, w) for t in leads)] == []

    def test_negation_exempt_queries_never_suppressed(self, catalog):
        exempt = [q for q in catalog if q.negation_exempt]
        assert {q.signal_id for q in exempt} == {"no consensus"}
        citance = ["not", "no", "no", "consensus", "here"]
        for query in exempt:
            if query.filter_set == "standalone":
                assert match_words(citance, query) is not None


# Random QuerySpec generator for checking the matcher against the oracle
# on shapes beyond the builtin catalog.
words_st = st.sampled_from(
    "alpha beta gamma delta epsilon zeta eta theta iota kappa no not".split()
)
pattern_st = st.builds(
    lambda toks, star: Pattern(tuple(toks[:-1] + [toks[-1] + "*"]) if star else tuple(toks)),
    st.lists(words_st, min_size=1, max_size=2),
    st.booleans(),
)
VOCABULARY = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa "
    "no not cannot nor neither model models method approach technique "
    "study studies analysis idea theory hypothesis result findings data"
).split()


def _words_of(patterns):
    return sorted({token.rstrip("*") for p in patterns for token in p.tokens})


@st.composite
def citance_words(draw, queries):
    """0-25 words, a third each from the queries' signal tokens, their
    other tokens (stars dropped) and the vocabulary, so that queries often
    match."""
    signals = _words_of(p for q in queries for p in q.signal_patterns)
    others = _words_of(
        p for q in queries
        for p in q.filter_patterns + tuple(p for rule in q.exclusions for p in rule.patterns)
    ) or VOCABULARY
    word = st.sampled_from(signals) | st.sampled_from(others) | st.sampled_from(VOCABULARY)
    size = draw(st.integers(min_value=0, max_value=25))
    return draw(st.lists(word, min_size=size, max_size=size))


@st.composite
def query_specs(draw, signals=pattern_st):
    signal = draw(st.lists(signals, min_size=1, max_size=2))
    filter_set = draw(st.sampled_from(FILTER_SET_NAMES))
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

    return QuerySpec(
        query_id="random.q",
        signal_patterns=tuple(signal),
        filter_set=filter_set,
        exclusions=tuple(exclusions),
        max_gap=draw(st.integers(min_value=0, max_value=5)),
    )


@st.composite
def shared_catalogs(draw):
    """2-4 queries with distinct ids whose signals come from a pool of at
    most three patterns. A query may take an earlier one's whole signal
    definition, so signal groups are shared as well as filter sets and
    lead tokens."""
    pool = st.sampled_from(draw(st.lists(pattern_st, min_size=1, max_size=3, unique=True)))
    queries = []
    for i in range(draw(st.integers(min_value=2, max_value=4))):
        query = draw(query_specs(pool))
        if queries and draw(st.booleans()):
            source = draw(st.sampled_from(queries))
            query = query._replace(
                signal_patterns=source.signal_patterns, exclusions=source.exclusions,
            )
        queries.append(query._replace(query_id=f"q{i}"))
    return queries


@settings(max_examples=300, deadline=None)
@given(query_specs(), st.data())
def test_random_query_engines_agree(query, data):
    match_words(data.draw(citance_words([query])), query)


@settings(max_examples=200, deadline=None)
@given(shared_catalogs(), st.data())
def test_matcher_with_shared_groups_agrees_with_oracle(queries, data):
    # 1-4 citances in order through one matcher, so later ones meet a warm
    # word cache and lead-less set.
    matcher = CatalogMatcher(queries)
    for index in range(data.draw(st.integers(min_value=1, max_value=4))):
        citance = make_citance("d", index, data.draw(citance_words(queries)))
        assert matcher.match_citance(citance) == scan_citance(citance, queries)


@pytest.mark.parametrize("signal, fillers, other, expected", [
    ("agreement", 11, "disagree", "disagree.standalone"),  # co-occurrence, 12 apart
    ("controversial", 5, "studies", "controvers.standalone"),  # filter, gap 5
], ids=["cooccurrence", "proximity"])
def test_proximity_checks_are_not_quadratic(catalog, signal, fillers, other, expected):
    """5000 words each side of a near miss: every pair is out of reach, and
    checking all 25 million pairs takes seconds."""
    words = [signal] * 5000 + ["the"] * fillers + [other] * 5000
    citance = make_citance("d", 0, words)
    matcher = CatalogMatcher(catalog)
    start = time.perf_counter()
    records = matcher.match_citance(citance)
    elapsed = time.perf_counter() - start
    assert [r.query_id for r in records] == [expected]
    assert elapsed < 0.5

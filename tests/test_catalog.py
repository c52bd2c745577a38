import re

import pytest

from citequery.catalog import (
    FILTER_SET_NAMES,
    FILTER_SETS,
    Pattern,
    QueryFileError,
    QuerySpec,
    ValidatedSet,
    builtin_catalog,
    default_validated_set,
    parse_query_file,
    serialize_validated_set,
)
from synth import serialize_query_file


class TestBuiltinCatalog:
    def test_size(self, catalog):
        assert len(catalog) == 65

    def test_thirteen_signals_five_filters(self, catalog):
        signals = {q.signal_id for q in catalog}
        assert len(signals) == 13
        for signal in signals:
            filter_sets = {q.filter_set for q in catalog if q.signal_id == signal}
            assert filter_sets == set(FILTER_SET_NAMES)

    def test_no_consensus_variant(self, catalog_by_id):
        query = catalog_by_id["no_consensus.standalone"]
        assert Pattern.parse("lack of consensus") in query.signal_patterns
        assert query.negation_exempt

    def test_query_holds_only_what_its_block_states(self, catalog_by_id):
        assert list(QuerySpec._fields) == [
            "query_id", "signal_patterns", "filter_set", "exclusions", "max_gap",
        ]
        query = catalog_by_id["disagree.methods"]
        assert query.signal_id == "disagree*"
        assert query.filter_patterns is FILTER_SETS["methods"]
        assert catalog_by_id["disagree.standalone"].filter_patterns == ()

    def test_challenge_has_no_exclusions(self, catalog_by_id):
        assert catalog_by_id["challenge.standalone"].exclusions == ()

    def test_disagree_rules(self, catalog_by_id):
        query = catalog_by_id["disagree.results"]
        kinds = {rule.kind for rule in query.exclusions}
        assert kinds == {"citance_phrase", "cooccurrence_window"}
        cooccur = next(r for r in query.exclusions if r.kind == "cooccurrence_window")
        assert cooccur.window == 10
        assert [p.text for p in cooccur.patterns] == ["agree*", "disagree"]
        assert Pattern.parse("not agree*") in query.signal_patterns
        assert Pattern.parse("no agreement") in query.signal_patterns
        assert not query.negation_exempt

    def test_carveouts(self, catalog_by_id):
        differ = catalog_by_id["differ.standalone"]
        assert [p.text for r in differ.exclusions for p in r.patterns] == ["different*"]
        refut = catalog_by_id["refut.ideas"]
        assert [p.text for r in refut.exclusions for p in r.patterns] == ["refutab*"]

    def test_debat_contexts(self, catalog_by_id):
        rule = catalog_by_id["debat.standalone"].exclusions[0]
        assert rule.kind == "match_context"
        assert {p.text for p in rule.patterns} == {
            "parliament*", "congress*", "senate*", "polic*",
            "politic*", "public*", "societ*",
        }

    def test_filter_sets_contents(self):
        assert {p.text for p in FILTER_SETS["methods"]} == {
            "model*", "method*", "approach*", "technique*",
        }
        assert {p.text for p in FILTER_SETS["studies"]} == {
            "studies", "study", "previous work", "earlier work", "literature",
            "analysis", "analyses", "report", "reports",
        }

    def test_default_max_gap(self, catalog):
        assert all(q.max_gap == 4 for q in catalog)

    def test_no_dead_pattern_tokens(self, catalog, golden_citances):
        """Every pattern token in the catalog occurs in the golden corpus."""
        words = {w for c in golden_citances for w in c.words}

        def token_alive(token):
            if token.endswith("*"):
                return any(w.startswith(token[:-1]) for w in words)
            return token in words

        for query in catalog:
            patterns = list(query.signal_patterns) + list(query.filter_patterns)
            for rule in query.exclusions:
                patterns.extend(rule.patterns)
            for pattern in patterns:
                for token in pattern.tokens:
                    assert token_alive(token), f"dead token {token!r} in {query.query_id}"


class TestValidatedSets:
    def test_default_80(self):
        validated = default_validated_set(0.80)
        assert len(validated.query_ids) == 23
        assert "no_consensus.ideas" in validated.query_ids
        assert "contrast.ideas" in validated.query_ids
        assert "contrast.standalone" not in validated.query_ids
        assert "debat.ideas" not in validated.query_ids

    def test_default_70(self):
        validated = default_validated_set(0.70)
        assert len(validated.query_ids) == 36
        assert "contradict.standalone" in validated.query_ids
        assert "questionable.ideas" in validated.query_ids

    def test_70_superset_of_80(self):
        assert default_validated_set(0.80).query_ids < default_validated_set(0.70).query_ids

    def test_unknown_threshold(self):
        with pytest.raises(ValueError):
            default_validated_set(0.95)

    def test_resolution_override(self, tmp_path):
        resolution = tmp_path / "resolution.txt"
        resolution.write_text(
            "contrary.studies\nconflict.results\ncontradict.ideas\n"
            "contradict.methods\ndisprov.methods\nquestionable.ideas\n"
        )
        validated = default_validated_set(0.80, resolution)
        assert "contrary.studies" in validated.query_ids
        assert "contrary.results" not in validated.query_ids
        assert len(validated.query_ids) == 23

    def test_resolution_rejects_unknown_id(self, tmp_path):
        resolution = tmp_path / "resolution.txt"
        resolution.write_text("nonsense.standalone\n")
        with pytest.raises(ValueError):
            default_validated_set(0.80, resolution)

    def test_validated_set_round_trip(self):
        validated = ValidatedSet(0.8, frozenset({"debat.standalone", "contrary.studies"}))
        assert serialize_validated_set(validated) == \
            "threshold 0.8\ncontrary.studies\ndebat.standalone\n"
        assert serialize_validated_set(ValidatedSet(0.7, frozenset())) == "threshold 0.7\n"


class TestQueryFile:
    def test_catalog_round_trip(self, catalog):
        assert parse_query_file(serialize_query_file(catalog)) == catalog

    def test_duplicate_id(self):
        text = "query a\nsignal foo\nfilter none\n\nquery a\nsignal bar\nfilter none\n"
        with pytest.raises(QueryFileError, match="duplicate"):
            parse_query_file(text)

    def test_non_trailing_wildcard(self):
        with pytest.raises(QueryFileError, match="wildcard"):
            parse_query_file("query a\nsignal cont*overs\nfilter none\n")

    def test_unknown_exclusion_kind(self):
        text = "query a\nsignal foo\nfilter none\nexclude sometimes:bar\n"
        with pytest.raises(QueryFileError, match="unknown exclusion kind"):
            parse_query_file(text)

    def test_errors_carry_line_numbers(self):
        text = "query a\nsignal foo\nfilter nonsense\n"
        with pytest.raises(QueryFileError, match="line 3"):
            parse_query_file(text)

    def test_form_feed_does_not_end_a_line(self):
        # Lines end at "\n" only: a form feed neither closes the block nor
        # shifts the numbers of the lines after it.
        (query,) = parse_query_file("query a\f\nsignal conflict*\nfilter none\n")
        assert query.query_id == "a"
        assert [p.text for p in query.signal_patterns] == ["conflict*"]
        text = "query a\nsignal foo\f|bar\nfilter nonsense\n"
        with pytest.raises(QueryFileError, match="line 3"):
            parse_query_file(text)

    def test_cooccurrence_needs_window(self):
        text = "query a\nsignal foo\nfilter none\nexclude cooccurrence_window:x,y\n"
        with pytest.raises(QueryFileError, match="window"):
            parse_query_file(text)

    def test_comments_and_maxgap(self):
        text = (
            "# a comment\nquery a\nsignal foo*|bar baz\nfilter methods\nmaxgap 2\n"
        )
        (query,) = parse_query_file(text)
        assert query.max_gap == 2
        assert query.filter_set == "methods"
        assert [p.text for p in query.signal_patterns] == ["foo*", "bar baz"]

    @pytest.mark.parametrize("value", ["1_0", "+4", "\u0664"])
    @pytest.mark.parametrize("keyword, line", [
        ("maxgap", "maxgap {}"), ("window", "exclude cooccurrence_window:x,y window={}"),
    ], ids=["maxgap", "window"])
    def test_an_integer_is_ascii_digits(self, keyword, line, value):
        # int() would read each of these; the corpus's cited_year rule refuses them.
        message = f"line 3: bad {keyword} value {value!r}"
        with pytest.raises(QueryFileError, match=f"^{re.escape(message)}$"):
            parse_query_file(f"query a\nsignal foo\n{line.format(value)}\n")

    def test_only_a_blank_line_ends_a_block(self):
        (query,) = parse_query_file("query a\nsignal foo\n# note\n  # indented\nmaxgap 3\n")
        assert (query.query_id, query.max_gap) == ("a", 3)
        with pytest.raises(QueryFileError, match="line 4: block missing 'query' line"):
            parse_query_file("query a\nsignal foo\n \t\nmaxgap 3\n")
        # A comment between blocks is no block's first line.
        with pytest.raises(QueryFileError, match="line 5: block missing 'query' line"):
            parse_query_file("query a\nsignal foo\n\n# next\nmaxgap 3\n")


class TestPattern:
    def test_rejects_uppercase(self):
        with pytest.raises(ValueError):
            Pattern(("Upper",))

    def test_rejects_lonely_star(self):
        with pytest.raises(ValueError):
            Pattern(("*",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pattern(())

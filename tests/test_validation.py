import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citequery.catalog import builtin_catalog, default_validated_set
from citequery.engine import MatchRecord, Span
from citequery.validation import (
    AnnotationRecord,
    cohens_kappa,
    compute_stats,
    gate_queries,
    percent_agreement,
    percent_valid,
    sample_matches,
)

CODERS = ("alice", "bob")


def annotations(pairs, query_id="q"):
    """Build paired annotations from (label_a, label_b) tuples."""
    records = []
    for i, (a, b) in enumerate(pairs):
        records.append(AnnotationRecord("d", i, query_id, CODERS[0], a))
        records.append(AnnotationRecord("d", i, query_id, CODERS[1], b))
    return records


def pair_counts(both_valid, a_only, b_only, both_invalid):
    return (
        [("valid", "valid")] * both_valid
        + [("valid", "invalid")] * a_only
        + [("invalid", "valid")] * b_only
        + [("invalid", "invalid")] * both_invalid
    )


def matches(n, query_id="q"):
    return [
        MatchRecord(f"d{i:05d}", i % 7, query_id, Span(0, 0, "x")) for i in range(n)
    ]


class TestSampling:
    def test_fewer_available_than_requested(self):
        sampled = sample_matches(matches(40), n=50, seed=1)
        assert len(sampled) == 40

    def test_deterministic_per_seed(self):
        pool = matches(10000)
        assert sample_matches(pool, 50, seed=9) == sample_matches(pool, 50, seed=9)
        assert sample_matches(pool, 50, seed=9) != sample_matches(pool, 50, seed=10)

    def test_exactly_n_available(self):
        sampled = sample_matches(matches(50), n=50, seed=3)
        assert sorted(sampled) == sorted((m.doc_id, m.sentence_index) for m in matches(50))

    def test_permutation_invariant(self):
        pool = matches(500)
        shuffled = list(pool)
        random.Random(4).shuffle(shuffled)
        assert sample_matches(pool, 50, seed=2) == sample_matches(shuffled, 50, seed=2)

    def test_duplicate_citances_collapse(self):
        pool = matches(60) + matches(60)
        assert len(sample_matches(pool, 100, seed=0)) == 60

    def test_zero_matches_error(self):
        with pytest.raises(ValueError):
            sample_matches([], 50, seed=0)

    def test_mixed_queries_rejected(self):
        pool = matches(5, "a") + matches(5, "b")
        with pytest.raises(ValueError):
            sample_matches(pool, 3, seed=0)


class TestPercentAgreement:
    def test_ninety_percent_fixture(self):
        records = annotations(pair_counts(40, 3, 2, 5))
        assert percent_agreement(records, CODERS) == pytest.approx(0.90)

    def test_identical_labels(self):
        records = annotations(pair_counts(30, 0, 0, 20))
        assert percent_agreement(records, CODERS) == 1.0

    def test_corpus_wide_fixture(self):
        # 1000 paired labels shaped to the reported overall figures:
        # 85.5% agreement with kappa near 0.66.
        records = annotations(pair_counts(619, 73, 72, 236))
        assert percent_agreement(records, CODERS) == pytest.approx(0.855)
        assert cohens_kappa(records, CODERS) == pytest.approx(0.66, abs=0.005)

    def test_missing_labels_error_lists_units(self):
        records = annotations(pair_counts(3, 0, 0, 0))
        records.append(AnnotationRecord("d", 99, "q", "alice", "valid"))
        with pytest.raises(ValueError, match="99"):
            percent_agreement(records, CODERS)


class TestPercentValid:
    def test_98_percent(self):
        records = annotations(pair_counts(49, 0, 1, 0))
        assert percent_valid(records, CODERS) == pytest.approx(0.98)

    def test_all_invalid(self):
        records = annotations(pair_counts(0, 0, 0, 50))
        assert percent_valid(records, CODERS) == 0.0

    def test_80_percent(self):
        records = annotations(pair_counts(40, 2, 3, 5))
        assert percent_valid(records, CODERS) == pytest.approx(0.80)


class TestCohensKappa:
    def test_perfect_agreement_mixed_marginals(self):
        records = annotations(pair_counts(25, 0, 0, 25))
        assert cohens_kappa(records, CODERS) == pytest.approx(1.0)

    def test_independent_random_labels_near_zero(self):
        rng = random.Random(20240)
        pairs = [
            (rng.choice(["valid", "invalid"]), rng.choice(["valid", "invalid"]))
            for _ in range(10000)
        ]
        kappa = cohens_kappa(annotations(pairs), CODERS)
        assert abs(kappa) < 0.05

    def test_uniform_labels_undefined(self):
        records = annotations(pair_counts(30, 0, 0, 0))
        assert cohens_kappa(records, CODERS) is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["valid", "invalid"]),
                  st.sampled_from(["valid", "invalid"])),
        min_size=1, max_size=60,
    )
)
def test_valid_never_exceeds_agreement(pairs):
    records = annotations(pairs)
    assert percent_valid(records, CODERS) <= percent_agreement(records, CODERS)


class TestGate:
    def test_reference_validities(self):
        stats = {"a": 0.98, "b": 0.80, "c": 0.20}
        assert gate_queries(stats, 0.80).query_ids == {"a", "b"}

    def test_zero_threshold_keeps_all(self):
        stats = {"a": 0.98, "b": 0.80, "c": 0.0}
        assert gate_queries(stats, 0.0).query_ids == {"a", "b", "c"}

    def test_exact_threshold_is_kept(self):
        assert gate_queries({"edge": 40 / 50}, 0.80).query_ids == {"edge"}

    def test_robustness_fixture_yields_36(self, shipped_style_stats):
        assert len(gate_queries(shipped_style_stats, 0.70).query_ids) == 36
        assert len(gate_queries(shipped_style_stats, 0.80).query_ids) == 23

    @given(low=st.floats(min_value=0.0, max_value=1.0),
           high=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone(self, shipped_style_stats, low, high):
        low, high = min(low, high), max(low, high)
        assert gate_queries(shipped_style_stats, high).query_ids <= \
            gate_queries(shipped_style_stats, low).query_ids


@pytest.fixture(scope="module")
def shipped_style_stats():
    """Per-query validity values consistent with the shipped defaults:
    the 23-member set at or above 0.80, thirteen more in [0.70, 0.80),
    the rest below, with a handful of per-query values pinned exactly."""
    v80 = default_validated_set(0.80).query_ids
    v70 = default_validated_set(0.70).query_ids
    pinned = {
        "no_consensus.studies": 0.98,
        "no_consensus.methods": 0.98,
        "no_consensus.standalone": 0.94,
        "contrast.ideas": 0.80,
        "contrast.standalone": 0.20,
        "contrast.methods": 0.20,
    }
    stats = {}
    for query in builtin_catalog():
        qid = query.query_id
        if qid in pinned:
            stats[qid] = pinned[qid]
        elif qid in v80:
            stats[qid] = 0.90
        elif qid in v70:
            stats[qid] = 0.74
        else:
            stats[qid] = 0.40
    return stats


class TestComputeStats:
    def test_groups_by_query(self):
        records = annotations(pair_counts(8, 1, 1, 0), "q1") + \
            annotations(pair_counts(2, 0, 0, 8), "q2")
        stats = {s.query_id: s for s in compute_stats(records, CODERS)}
        assert stats["q1"].n == 10
        assert stats["q1"].pct_valid == pytest.approx(0.8)
        assert stats["q2"].pct_valid == pytest.approx(0.2)
        assert stats["q2"].pct_agree == pytest.approx(1.0)
        for query_id, s in stats.items():
            own = [r for r in records if r.query_id == query_id]
            assert (s.pct_agree, s.pct_valid, s.kappa) == (
                percent_agreement(own, CODERS), percent_valid(own, CODERS),
                cohens_kappa(own, CODERS))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no annotations for the given coders"):
            compute_stats([], CODERS)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            AnnotationRecord("d", 0, "q", "alice", "maybe")

"""Dual-coder validation of query output: sampling, agreement, gating.

For each query a fixed-size random sample of its matches is labeled
valid/invalid by two coders; per-query percent agreement, percent valid
and Cohen's kappa are computed from the paired labels, and queries at or
above a validity threshold form the validated set used downstream.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Mapping, NamedTuple, Sequence

from .catalog import DEFAULT_SAMPLE_SIZE, ValidatedSet
from .engine import MatchRecord

VALID = "valid"
INVALID = "invalid"

CitanceKey = tuple[str, int]


class AnnotationRecord(NamedTuple("AnnotationRecord", [
    ("doc_id", str), ("sentence_index", int), ("query_id", str), ("coder_id", str),
    ("label", str),
])):
    __slots__ = ()

    def __new__(cls, doc_id: str, sentence_index: int, query_id: str, coder_id: str, label: str):
        if label not in (VALID, INVALID):
            raise ValueError(f"label must be {VALID!r} or {INVALID!r}: {label!r}")
        return super().__new__(cls, doc_id, sentence_index, query_id, coder_id, label)

    @property
    def unit(self) -> tuple[str, int, str]:
        return (self.doc_id, self.sentence_index, self.query_id)


class ValidationStats(NamedTuple("ValidationStats", [
    ("query_id", str), ("n", int), ("pct_agree", float), ("pct_valid", float),
    ("kappa", float | None),
])):
    __slots__ = ()

    def __new__(cls, query_id: str, n: int, pct_agree: float, pct_valid: float,
                kappa: float | None):
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0.0 <= pct_valid <= pct_agree <= 1.0:
            raise ValueError("requires 0 <= pct_valid <= pct_agree <= 1")
        return super().__new__(cls, query_id, n, pct_agree, pct_valid, kappa)


def derive_seed(seed: int, query_id: str) -> int:
    """Stable per-query seed; independent of process hash randomization."""
    digest = hashlib.sha256(f"{seed}:{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_matches(
    matches: Sequence[MatchRecord], n: int = DEFAULT_SAMPLE_SIZE, seed: int = 0
) -> list[CitanceKey]:
    """Sample up to ``n`` distinct citances from one query's matches.

    Simple random sampling without replacement, reproducible per seed
    and invariant to the input ordering of the matches.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not matches:
        raise ValueError("no matches to sample")
    query_ids = {m.query_id for m in matches}
    if len(query_ids) != 1:
        raise ValueError(f"matches span several queries: {sorted(query_ids)}")
    keys = sorted({(m.doc_id, m.sentence_index) for m in matches})
    rng = random.Random(derive_seed(seed, query_ids.pop()))
    if n >= len(keys):
        return keys
    return rng.sample(keys, n)


def _paired_labels(
    annotations: Iterable[AnnotationRecord], coders: tuple[str, str]
) -> list[tuple[str, str]]:
    coder_a, coder_b = coders
    if coder_a == coder_b:
        raise ValueError("two distinct coders required")
    by_unit: dict[tuple[str, int, str], dict[str, str]] = {}
    for record in annotations:
        if record.coder_id not in coders:
            continue
        labels = by_unit.setdefault(record.unit, {})
        if record.coder_id in labels and labels[record.coder_id] != record.label:
            raise ValueError(f"conflicting labels for {record.unit} by {record.coder_id}")
        labels[record.coder_id] = record.label
    missing = sorted(u for u, labels in by_unit.items() if len(labels) != 2)
    if missing:
        raise ValueError(f"units missing a label from one coder: {missing}")
    if not by_unit:
        raise ValueError("no annotations for the given coders")
    return [
        (labels[coder_a], labels[coder_b])
        for _, labels in sorted(by_unit.items())
    ]


def _agreement(pairs: list[tuple[str, str]]) -> tuple[float, float, float | None]:
    """Percent agreement, percent valid and Cohen's kappa of paired labels."""
    n = len(pairs)
    observed = sum(1 for a, b in pairs if a == b) / n
    valid = sum(1 for a, b in pairs if a == b == VALID) / n
    a_valid = sum(1 for a, _ in pairs if a == VALID) / n
    b_valid = sum(1 for _, b in pairs if b == VALID) / n
    expected = a_valid * b_valid + (1 - a_valid) * (1 - b_valid)
    kappa = None if expected == 1.0 else (observed - expected) / (1 - expected)
    return observed, valid, kappa


def percent_agreement(
    annotations: Iterable[AnnotationRecord], coders: tuple[str, str]
) -> float:
    """Fraction of annotated citances both coders labeled identically."""
    return _agreement(_paired_labels(annotations, coders))[0]


def percent_valid(
    annotations: Iterable[AnnotationRecord], coders: tuple[str, str]
) -> float:
    """Fraction of annotated citances both coders labeled valid."""
    return _agreement(_paired_labels(annotations, coders))[1]


def cohens_kappa(
    annotations: Iterable[AnnotationRecord], coders: tuple[str, str]
) -> float | None:
    """Cohen's kappa for the two coders; None when chance agreement is 1."""
    return _agreement(_paired_labels(annotations, coders))[2]


def compute_stats(
    annotations: Iterable[AnnotationRecord], coders: tuple[str, str]
) -> list[ValidationStats]:
    """Per-query validation statistics from both coders' annotations."""
    by_query: dict[str, list[AnnotationRecord]] = {}
    for record in annotations:
        by_query.setdefault(record.query_id, []).append(record)
    if not by_query:
        raise ValueError("no annotations for the given coders")
    stats = []
    for query_id in sorted(by_query):
        pairs = _paired_labels(by_query[query_id], coders)
        stats.append(ValidationStats(query_id, len(pairs), *_agreement(pairs)))
    return stats


def gate_queries(stats: Mapping[str, float], threshold: float) -> ValidatedSet:
    """Query ids whose percent valid in ``stats`` meets the threshold (inclusive)."""
    kept = frozenset(query_id for query_id, valid in stats.items() if valid >= threshold)
    return ValidatedSet(threshold, kept)

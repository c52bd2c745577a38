"""Query execution over citances.

``CatalogMatcher`` / ``run_all`` compile a whole catalog into a shared
word classifier so each citance is scanned once for all queries. The
classifier memoizes, per distinct word, the set of pattern tokens
(literal or prefix) it satisfies, so steady-state cost per word is one
dictionary lookup. Queries sharing a signal definition form one signal
group, and queries sharing filter patterns one filter set; per citance
each candidate group's surviving signal spans, and each needed filter
set's spans, are computed once and every query's record is composed
from them. Groups whose signal terms never occur in a citance are
skipped outright.

Most citances hold no cue at all. The classifier also remembers each
word whose token set holds no signal lead token (the first token of a
signal pattern), and a citance made only of such words is rejected with
one set lookup, before any word is indexed. That is exact: with no
lead token among its words' classes, no query is a candidate, and the
full path returns no records either. Whether a word is lead-less
depends on the word alone, so records never depend on what the matcher
has seen before.

Matching conventions. They are the specification, pinned by the
independent oracle in ``tests/naive_scanner.py``:

* All indices are word indices: positions in ``Citance.words``, where
  ref markers and punctuation leave no trace. Span ends are inclusive.
* Spans are ordered by (start, end, pattern text). A standalone match
  records the first surviving signal span; a filtered match records the
  first surviving signal span that has a qualifying filter span, with
  the first qualifying filter span in the same order.
* The gap between two spans is the number of words strictly between
  their closest edges; overlapping spans have gap 0. A filter span
  qualifies when its gap to the signal span is at most the query's
  ``max_gap``, on either side.
* A signal match is suppressed when a generic negation token (no, not,
  cannot, nor, neither) occurs within the two words immediately before
  the span, unless the query or the matched pattern itself carries a
  negation token. Words inside the span never count.
* Token carve-outs void an occurrence whose matched word also matches a
  carve-out pattern. Citance-phrase and co-occurrence exclusions reject
  the whole citance for that query; match-context exclusions drop only
  signal spans immediately preceded by a context pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .catalog import (
    CITANCE_PHRASE,
    COOCCURRENCE_WINDOW,
    MATCH_CONTEXT,
    NEGATION_TOKENS,
    TOKEN_CARVEOUT,
    ExclusionRule,
    Pattern,
    QuerySpec,
)
from .ingest import Citance

NEGATION_WINDOW = 2


@dataclass(frozen=True)
class Span:
    start: int
    end: int  # inclusive
    pattern_id: str

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start must not exceed end")


@dataclass(frozen=True)
class MatchRecord:
    doc_id: str
    sentence_index: int
    query_id: str
    signal_span: Span
    filter_span: Span | None = None


RECORD_ORDER = attrgetter("doc_id", "sentence_index", "query_id")  # sort key of run_all


class _TokenClassifier:
    """Maps each distinct word to the set of pattern tokens it satisfies,
    and keeps in ``leadless`` every classified word that satisfies none of
    the ``lead_tokens``."""

    def __init__(self, pattern_tokens: Iterable[str], lead_tokens: Iterable[str]):
        self._literals: dict[str, str] = {}
        by_initial: dict[str, list[str]] = {}
        for token in set(pattern_tokens):
            if token.endswith("*"):
                stem = token[:-1]
                by_initial.setdefault(stem[0], []).append(token)
            else:
                self._literals[token] = token
        self._prefixes = {k: tuple(v) for k, v in by_initial.items()}
        self._cache: dict[str, frozenset[str]] = {}
        self._empty: frozenset[str] = frozenset()
        self._leads = frozenset(lead_tokens)
        self.leadless: set[str] = set()

    def classify(self, word: str) -> frozenset[str]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        matched = []
        literal = self._literals.get(word)
        if literal is not None:
            matched.append(literal)
        for token in self._prefixes.get(word[:1], ()):
            if word.startswith(token[:-1]):
                matched.append(token)
        result = frozenset(matched) if matched else self._empty
        self._cache[word] = result
        if self._leads.isdisjoint(result):
            self.leadless.add(word)
        return result


# A span inside the matcher: (start, inclusive end, pattern text). Plain
# tuples sort in the span order the matching conventions define.
_RawSpan = tuple[int, int, str]


def _pattern_starts(
    pattern: Pattern,
    classes: list[frozenset[str]],
    positions: dict[str, list[int]],
) -> list[int]:
    """Start positions of ``pattern``, read off the citance's token index."""
    firsts = positions.get(pattern.tokens[0])
    rest = pattern.tokens[1:]
    if not firsts or not rest:
        return firsts or []
    limit = len(classes) - len(rest)
    return [
        i for i in firsts
        if i < limit and all(t in classes[i + 1 + j] for j, t in enumerate(rest))
    ]


@dataclass(frozen=True)
class _SignalGroup:
    """The signal definition that a set of queries shares."""

    patterns: tuple[Pattern, ...]
    pattern_exempt: tuple[bool, ...]  # parallel to patterns
    carveout_tokens: frozenset[str]
    citance_phrases: tuple[Pattern, ...]
    cooccurrences: tuple[ExclusionRule, ...]
    context_patterns: tuple[Pattern, ...]

    @classmethod
    def of(cls, query: QuerySpec) -> "_SignalGroup":
        carveouts = []
        phrases = []
        cooccurrences = []
        contexts = []
        for rule in query.exclusions:
            if rule.kind == TOKEN_CARVEOUT:
                carveouts.extend(p.tokens[0] for p in rule.patterns)
            elif rule.kind == CITANCE_PHRASE:
                phrases.extend(rule.patterns)
            elif rule.kind == COOCCURRENCE_WINDOW:
                cooccurrences.append(rule)
            elif rule.kind == MATCH_CONTEXT:
                contexts.extend(rule.patterns)
        return cls(
            patterns=query.signal_patterns,
            pattern_exempt=tuple(
                query.negation_exempt or p.contains_negation_token
                for p in query.signal_patterns
            ),
            carveout_tokens=frozenset(carveouts),
            citance_phrases=tuple(phrases),
            cooccurrences=tuple(cooccurrences),
            context_patterns=tuple(contexts),
        )

    def survivors(
        self,
        words: Sequence[str],
        classes: list[frozenset[str]],
        positions: dict[str, list[int]],
    ) -> list[_RawSpan]:
        """Sorted surviving signal spans; empty when the citance is rejected."""
        for pattern in self.citance_phrases:
            if _pattern_starts(pattern, classes, positions):
                return []
        for rule in self.cooccurrences:
            starts_a = _pattern_starts(rule.patterns[0], classes, positions)
            if starts_a:
                starts_b = _pattern_starts(rule.patterns[1], classes, positions)
                if any(abs(a - b) <= rule.window for a in starts_a for b in starts_b):
                    return []

        context_ends: set[int] | None = None
        spans: list[_RawSpan] = []
        carveouts = self.carveout_tokens
        for pattern, exempt in zip(self.patterns, self.pattern_exempt):
            length = len(pattern.tokens)
            for start in _pattern_starts(pattern, classes, positions):
                if carveouts and any(
                    not carveouts.isdisjoint(classes[start + j]) for j in range(length)
                ):
                    continue
                if not exempt and any(
                    w in NEGATION_TOKENS
                    for w in words[max(0, start - NEGATION_WINDOW):start]
                ):
                    continue
                if self.context_patterns:
                    if context_ends is None:
                        context_ends = {
                            s + len(p.tokens) - 1
                            for p in self.context_patterns
                            for s in _pattern_starts(p, classes, positions)
                        }
                    if start - 1 in context_ends:
                        continue
                spans.append((start, start + length - 1, pattern.text))
        spans.sort()
        return spans


def _filter_spans(
    patterns: tuple[Pattern, ...],
    classes: list[frozenset[str]],
    positions: dict[str, list[int]],
) -> list[_RawSpan]:
    return sorted(
        (s, s + len(p.tokens) - 1, p.text)
        for p in patterns
        for s in _pattern_starts(p, classes, positions)
    )


def _first_within(
    signals: list[_RawSpan], filters: list[_RawSpan], max_gap: int
) -> tuple[_RawSpan, _RawSpan] | None:
    """The first (signal, filter) pair, in span order, at most ``max_gap`` apart."""
    for signal in signals:
        s_start, s_end, _ = signal
        for f in filters:
            if f[0] > s_end:
                gap = f[0] - s_end - 1
            elif s_start > f[1]:
                gap = s_start - f[1] - 1
            else:
                gap = 0
            if gap <= max_gap:
                return signal, f
    return None


class CatalogMatcher:
    """Single-pass execution of a fixed query catalog over citances.

    Compiling collects every pattern token from every query into one
    classifier and groups the queries by signal definition
    ``(signal_patterns, exclusions)`` and by filter patterns. A citance
    whose words are all known to be lead-less is rejected at once.
    Matching any other citance classifies each word once into a token ->
    positions index, evaluates each signal group whose lead tokens
    occurred and each filter set a surviving group needs once, and
    composes every query's record from those spans.
    """

    def __init__(self, queries: Sequence[QuerySpec]):
        self.queries = list(queries)
        group_ids: dict[tuple, int] = {}
        filter_ids: dict[tuple[Pattern, ...], int] = {}
        self._groups: list[_SignalGroup] = []
        self._filter_sets: list[tuple[Pattern, ...]] = []
        # Per query: (query, signal group, filter set or None for standalone).
        self._plan: list[tuple[QuerySpec, int, int | None]] = []
        for query in self.queries:
            key = (query.signal_patterns, query.exclusions)
            if key not in group_ids:
                group_ids[key] = len(self._groups)
                self._groups.append(_SignalGroup.of(query))
            patterns = query.filter_patterns
            if patterns and patterns not in filter_ids:
                filter_ids[patterns] = len(self._filter_sets)
                self._filter_sets.append(patterns)
            self._plan.append((query, group_ids[key], filter_ids.get(patterns)))

        tokens: set[str] = set()
        for query in self.queries:
            for pattern in query.signal_patterns + query.filter_patterns:
                tokens.update(pattern.tokens)
            for rule in query.exclusions:
                for pattern in rule.patterns:
                    tokens.update(pattern.tokens)
        # Queries indexed by the lead token of each signal pattern, so a
        # citance only evaluates queries whose signals can occur in it.
        self._by_lead: dict[str, list[int]] = {}
        for index, query in enumerate(self.queries):
            for pattern in query.signal_patterns:
                self._by_lead.setdefault(pattern.tokens[0], []).append(index)
        self._classifier = _TokenClassifier(tokens, self._by_lead)

    def match_citance(self, citance: Citance) -> list[MatchRecord]:
        words = citance.words
        if self._classifier.leadless.issuperset(words):
            return []  # no word can start a signal: no query is a candidate
        classify = self._classifier.classify
        classes: list[frozenset[str]] = []
        positions: dict[str, list[int]] = {}
        for i, word in enumerate(words):
            c = classify(word)
            classes.append(c)
            for token in c:
                hits = positions.get(token)
                if hits is None:
                    positions[token] = [i]
                else:
                    hits.append(i)
        if not positions:
            return []
        candidates: set[int] = set()
        for token in positions:
            hits = self._by_lead.get(token)
            if hits:
                candidates.update(hits)

        signals: dict[int, list[_RawSpan]] = {}
        filters: dict[int, list[_RawSpan]] = {}
        records = []
        for index in sorted(candidates):
            query, group_id, filter_id = self._plan[index]
            spans = signals.get(group_id)
            if spans is None:
                spans = signals[group_id] = self._groups[group_id].survivors(
                    words, classes, positions
                )
            if not spans:
                continue
            if filter_id is None:
                records.append(MatchRecord(
                    citance.doc_id, citance.sentence_index, query.query_id,
                    Span(*spans[0]),
                ))
                continue
            filter_spans = filters.get(filter_id)
            if filter_spans is None:
                filter_spans = filters[filter_id] = _filter_spans(
                    self._filter_sets[filter_id], classes, positions
                )
            pair = _first_within(spans, filter_spans, query.max_gap)
            if pair is not None:
                records.append(MatchRecord(
                    citance.doc_id, citance.sentence_index, query.query_id,
                    Span(*pair[0]), Span(*pair[1]),
                ))
        return records


def run_all(
    citances: Iterable[Citance], queries: Sequence[QuerySpec]
) -> list[MatchRecord]:
    """Match every citance against every query.

    Output is sorted by (doc_id, sentence_index, query_id).
    """
    match = CatalogMatcher(queries).match_citance
    records: list[MatchRecord] = []
    for citance in citances:
        found = match(citance)
        if found:
            records.extend(found)
    records.sort(key=RECORD_ORDER)
    return records

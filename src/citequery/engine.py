"""Query execution over citances.

``CatalogMatcher`` / ``run_all`` compile a whole catalog into a shared
word classifier and a group-major plan, so each citance is scanned once
for all queries. The classifier memoizes, per distinct word, the set of
pattern tokens (literal or prefix) it satisfies, so steady-state cost
per word is one dictionary lookup. Consecutive queries sharing a signal
definition form one signal group, which lists its member queries; per
citance each candidate group's surviving signal spans, and each needed
filter set's spans, are computed once and the members' records are
built from them. Groups whose lead tokens never occur are skipped.

Most citances hold no cue at all. The classifier also remembers, in
``CatalogMatcher.lead_free``, each word whose token set holds no signal
lead token (the first token of a signal pattern). A citance made only of
such words has no records, and ``run_all`` and the CLI skip it after one
set test, before any word is indexed. That is exact: with no lead token
among its words' classes, no query is a candidate. Whether a word is
lead-less depends on the word alone, so records never depend on what
the matcher has seen before.

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

from bisect import bisect_left
from itertools import compress
from operator import attrgetter, contains
from typing import Iterable, NamedTuple, Sequence

from .catalog import (
    CITANCE_PHRASE,
    COOCCURRENCE_WINDOW,
    MATCH_CONTEXT,
    NEGATION_TOKENS,
    TOKEN_CARVEOUT,
    Pattern,
    QuerySpec,
)
from .ingest import Citance

NEGATION_WINDOW = 2


class Span(NamedTuple):
    """A pattern occurrence in a citance; as a tuple it sorts in span order."""

    start: int
    end: int  # inclusive
    pattern_id: str


class MatchRecord(NamedTuple):
    doc_id: str
    sentence_index: int
    query_id: str
    signal_span: Span
    filter_span: Span | None = None


RECORD_ORDER = attrgetter("doc_id", "sentence_index", "query_id")  # sort key of run_all


class _TokenClassifier:
    """Maps each distinct word to the set of pattern tokens it satisfies,
    memoized in ``cache``, and keeps in ``lead_free`` every classified word
    that satisfies none of the ``lead_tokens``."""

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
        self.cache: dict[str, frozenset[str]] = {}
        self._empty: frozenset[str] = frozenset()
        self._leads = frozenset(lead_tokens)
        self.lead_free: set[str] = set()

    def classify(self, word: str) -> frozenset[str]:
        """Classify a word not yet in ``cache`` and memoize it."""
        matched = []
        literal = self._literals.get(word)
        if literal is not None:
            matched.append(literal)
        for token in self._prefixes.get(word[:1], ()):
            if word.startswith(token[:-1]):
                matched.append(token)
        result = frozenset(matched) if matched else self._empty
        self.cache[word] = result
        if self._leads.isdisjoint(result):
            self.lead_free.add(word)
        return result


# A compiled pattern: (first token, remaining tokens, offset of the last
# token from the first, text).
_Compiled = tuple[str, tuple[str, ...], int, str]


def _compile(pattern: Pattern) -> _Compiled:
    tokens = pattern.tokens
    return tokens[0], tokens[1:], len(tokens) - 1, pattern.text


def _starts(
    pattern: _Compiled,
    classes: list[frozenset[str]],
    positions: dict[str, list[int]],
) -> list[int]:
    """Start positions of ``pattern``, read off the citance's token index."""
    first, rest, last, _ = pattern
    firsts = positions.get(first)
    if not firsts or not rest:
        return firsts or []
    limit = len(classes) - last
    return [
        i for i in firsts
        if i < limit and all(map(contains, classes[i + 1:i + 1 + last], rest))
    ]


class _SignalGroup(NamedTuple):
    """A signal definition, compiled, and the queries that share it."""

    patterns: tuple[tuple[_Compiled, bool], ...]  # (pattern, negation-exempt)
    carveout_tokens: frozenset[str]
    citance_phrases: tuple[_Compiled, ...]
    cooccurrences: tuple[tuple[_Compiled, _Compiled, int], ...]  # (a, b, window)
    context_patterns: tuple[_Compiled, ...]
    # (query_id, filter set name or None for standalone, max_gap), in catalog order.
    members: list[tuple[str, str | None, int]]

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
                phrases.extend(map(_compile, rule.patterns))
            elif rule.kind == COOCCURRENCE_WINDOW:
                a, b = map(_compile, rule.patterns)
                cooccurrences.append((a, b, rule.window))
            elif rule.kind == MATCH_CONTEXT:
                contexts.extend(map(_compile, rule.patterns))
        return cls(
            patterns=tuple(
                (_compile(p), query.negation_exempt or p.contains_negation_token)
                for p in query.signal_patterns
            ),
            carveout_tokens=frozenset(carveouts),
            citance_phrases=tuple(phrases),
            cooccurrences=tuple(cooccurrences),
            context_patterns=tuple(contexts),
            members=[],
        )

    def survivors(
        self,
        words: Sequence[str],
        classes: list[frozenset[str]],
        positions: dict[str, list[int]],
    ) -> list[Span]:
        """Sorted surviving signal spans; empty when the citance is rejected."""
        for pattern in self.citance_phrases:
            if _starts(pattern, classes, positions):
                return []
        for a, b, window in self.cooccurrences:
            starts_a = _starts(a, classes, positions)
            if starts_a:
                starts_b = _starts(b, classes, positions)
                for x in starts_a:  # is some y in starts_b within x ± window?
                    i = bisect_left(starts_b, x - window)
                    if i < len(starts_b) and starts_b[i] <= x + window:
                        return []

        context_ends: set[int] | None = None
        spans: list[Span] = []
        carveouts = self.carveout_tokens
        _new = tuple.__new__  # skips the named tuple's Python-level __new__
        for pattern, exempt in self.patterns:
            first, rest, last, text = pattern
            starts = _starts(pattern, classes, positions) if rest else positions.get(first, ())
            for start in starts:
                if carveouts and not all(
                    map(carveouts.isdisjoint, classes[start:start + last + 1])
                ):
                    continue
                if not exempt and not NEGATION_TOKENS.isdisjoint(
                    words[max(0, start - NEGATION_WINDOW):start]
                ):
                    continue
                if self.context_patterns:
                    if context_ends is None:
                        context_ends = {
                            s + p[2]
                            for p in self.context_patterns
                            for s in _starts(p, classes, positions)
                        }
                    if start - 1 in context_ends:
                        continue
                spans.append(_new(Span, (start, start + last, text)))
        spans.sort()
        return spans


def _filter_spans(
    patterns: tuple[_Compiled, ...],
    classes: list[frozenset[str]],
    positions: dict[str, list[int]],
) -> list[tuple[int, int, str]]:
    """Sorted spans of ``patterns``, as plain ``(start, end, text)`` tuples."""
    spans = []
    for pattern in patterns:
        first, rest, last, text = pattern
        starts = positions.get(first)
        if starts:  # most filter patterns do not occur
            if rest:
                starts = _starts(pattern, classes, positions)
            spans += [(s, s + last, text) for s in starts]
    spans.sort()
    return spans


class CatalogMatcher:
    """Single-pass, group-major execution of a fixed query catalog over citances.

    Compiling turns each pattern into a ``(first token, remaining tokens,
    last offset, text)`` tuple, collects every pattern token into one
    classifier, and indexes the signal groups by the lead token of each
    signal pattern. A group lists its member queries as ``(query_id,
    filter set, max_gap)``. A citance whose words are all known to be
    lead-less is rejected at once. Matching any other citance classifies
    each word once into a token -> positions index; then each group whose
    lead tokens occurred computes its surviving signal spans once and
    builds its members' records from them, with each filter set's spans
    computed at most once. Groups are evaluated in catalog order, and so
    are their records. ``lead_free``, read-only, is the set of the words
    classified so far that can start no signal pattern.
    """

    def __init__(self, queries: Sequence[QuerySpec]):
        self.queries = list(queries)
        # A group is a run of consecutive queries with one signal definition,
        # so groups evaluated in order give records in catalog order.
        self._groups: list[_SignalGroup] = []
        self._filters: dict[str, tuple[_Compiled, ...]] = {}
        tokens: set[str] = set()
        key = None
        for query in self.queries:
            if (query.signal_patterns, query.exclusions) != key:
                key = (query.signal_patterns, query.exclusions)
                self._groups.append(_SignalGroup.of(query))
            patterns = query.filter_patterns
            if patterns:
                self._filters[query.filter_set] = tuple(map(_compile, patterns))
            self._groups[-1].members.append(
                (query.query_id, query.filter_set if patterns else None, query.max_gap)
            )
            for pattern in query.signal_patterns + patterns:
                tokens.update(pattern.tokens)
            for rule in query.exclusions:
                for pattern in rule.patterns:
                    tokens.update(pattern.tokens)
        # Groups indexed by the lead token of each signal pattern, so a
        # citance only evaluates groups whose signals can occur in it.
        self._groups_by_lead: dict[str, list[int]] = {}
        for index, group in enumerate(self._groups):
            for (lead, *_), _ in group.patterns:
                self._groups_by_lead.setdefault(lead, []).append(index)
        self._classifier = _TokenClassifier(tokens, self._groups_by_lead)
        self.lead_free = self._classifier.lead_free

    def match_citance(self, citance: Citance) -> list[MatchRecord]:
        words = citance.words
        if self.lead_free.issuperset(words):
            return []  # no word can start a signal: no query is a candidate
        classifier = self._classifier
        classes = list(map(classifier.cache.get, words))
        if None in classes:  # classify each word not seen before
            classes = [classifier.classify(w) if c is None else c
                       for w, c in zip(words, classes)]
        positions: dict[str, list[int]] = {}
        for i in compress(range(len(classes)), classes):
            for token in classes[i]:
                positions.setdefault(token, []).append(i)
        candidates: set[int] = set()
        for token in positions:
            hits = self._groups_by_lead.get(token)
            if hits:
                candidates.update(hits)

        doc_id, sentence_index = citance.doc_id, citance.sentence_index
        filters: dict[str, list[tuple[int, int, str]]] = {}
        records = []
        _new = tuple.__new__  # skips the named tuples' Python-level __new__
        for group_index in sorted(candidates):
            group = self._groups[group_index]
            signals = group.survivors(words, classes, positions)
            if not signals:
                continue
            for query_id, filter_set, max_gap in group.members:
                if filter_set is None:
                    records.append(_new(MatchRecord,
                                        (doc_id, sentence_index, query_id, signals[0], None)))
                    continue
                spans = filters.get(filter_set)
                if spans is None:
                    spans = filters[filter_set] = _filter_spans(
                        self._filters[filter_set], classes, positions
                    )
                # The record holds the first (signal, filter) pair in span order
                # at most max_gap apart: the filter ends at most max_gap + 1
                # words before the signal starts and starts at most that many
                # after it ends. A filter ending too early for one signal ends
                # too early for every later one, and the first filter left is
                # the only one to check, as the rest start no earlier.
                i, n = 0, len(spans)
                for signal in signals:
                    start, end, _ = signal
                    while i < n and spans[i][1] < start - max_gap - 1:
                        i += 1
                    if i == n:
                        break
                    if spans[i][0] <= end + max_gap + 1:
                        records.append(_new(MatchRecord, (doc_id, sentence_index, query_id,
                                                          signal, _new(Span, spans[i]))))
                        break
        return records


def run_all(
    citances: Iterable[Citance], queries: Sequence[QuerySpec]
) -> list[MatchRecord]:
    """Match every citance against every query.

    Output is sorted by (doc_id, sentence_index, query_id).
    """
    matcher = CatalogMatcher(queries)
    match, lead_free = matcher.match_citance, matcher.lead_free
    records: list[MatchRecord] = []
    for citance in citances:
        if not lead_free.issuperset(citance.words):
            records += match(citance)
    records.sort(key=RECORD_ORDER)
    return records

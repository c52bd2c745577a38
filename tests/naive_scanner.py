"""Independent brute-force scanner used as the oracle for the match engine.

Deliberately shares no matching code with citequery.engine: everything
is plain string comparison and nested loops over word positions. The
semantics implemented here come from the documented matching
conventions, so any divergence from the engine is a bug in one of them.
"""

from __future__ import annotations

from citequery.catalog import NEGATION_TOKENS, Pattern, QuerySpec
from citequery.engine import MatchRecord, Span


def token_ok(pattern_token: str, word: str) -> bool:
    if pattern_token.endswith("*"):
        return word.startswith(pattern_token[:-1])
    return word == pattern_token


def find_pattern(words, pattern: Pattern) -> list[tuple[int, int]]:
    hits = []
    k = len(pattern.tokens)
    for start in range(len(words)):
        if start + k > len(words):
            break
        ok = True
        for offset in range(k):
            if not token_ok(pattern.tokens[offset], words[start + offset]):
                ok = False
                break
        if ok:
            hits.append((start, start + k - 1))
    return hits


def gap_between(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[0] > b[1]:
        return a[0] - b[1] - 1
    if b[0] > a[1]:
        return b[0] - a[1] - 1
    return 0


def scan_query(
    words, query: QuerySpec, found: dict | None = None
) -> tuple[Span, Span | None] | None:
    """Evaluate one query over one word list, the slow obvious way.

    ``found`` memoizes ``find_pattern`` per pattern; pass one dict for
    all queries evaluated over the same ``words``.
    """
    if found is None:
        found = {}

    def occurrences(pattern: Pattern) -> list[tuple[int, int]]:
        if pattern not in found:
            found[pattern] = find_pattern(words, pattern)
        return found[pattern]

    carveouts = []
    phrase_rules = []
    cooccur_rules = []
    context_rules = []
    for rule in query.exclusions:
        if rule.kind == "token_carveout":
            carveouts.extend(rule.patterns)
        elif rule.kind == "citance_phrase":
            phrase_rules.extend(rule.patterns)
        elif rule.kind == "cooccurrence_window":
            cooccur_rules.append(rule)
        elif rule.kind == "match_context":
            context_rules.extend(rule.patterns)

    # Whole-citance rejections first.
    for pattern in phrase_rules:
        if occurrences(pattern):
            return None
    for rule in cooccur_rules:
        for a, _ in occurrences(rule.patterns[0]):
            for b, _ in occurrences(rule.patterns[1]):
                if abs(a - b) <= rule.window:
                    return None

    # Signal spans surviving carve-outs, negation and context exclusion.
    survivors: list[tuple[int, int, str]] = []
    for pattern in query.signal_patterns:
        exempt = query.negation_exempt or any(
            t in NEGATION_TOKENS for t in pattern.tokens
        )
        for start, end in occurrences(pattern):
            carved = False
            for c in carveouts:
                for position in range(start, end + 1):
                    if token_ok(c.tokens[0], words[position]):
                        carved = True
            if carved:
                continue
            if not exempt:
                negated = False
                for position in range(max(0, start - 2), start):
                    if words[position] in NEGATION_TOKENS:
                        negated = True
                if negated:
                    continue
            dropped = False
            for pattern_c in context_rules:
                for c_start, c_end in occurrences(pattern_c):
                    if c_end == start - 1:
                        dropped = True
            if dropped:
                continue
            survivors.append((start, end, pattern.text))
    if not survivors:
        return None
    survivors.sort()

    if query.filter_set == "standalone":
        start, end, text = survivors[0]
        return Span(start, end, text), None

    filter_spans: list[tuple[int, int, str]] = []
    for pattern in query.filter_patterns:
        for start, end in occurrences(pattern):
            filter_spans.append((start, end, pattern.text))
    filter_spans.sort()
    for s_start, s_end, s_text in survivors:
        for f_start, f_end, f_text in filter_spans:
            if gap_between((s_start, s_end), (f_start, f_end)) <= query.max_gap:
                return Span(s_start, s_end, s_text), Span(f_start, f_end, f_text)
    return None


def scan_citance(citance, queries) -> list[MatchRecord]:
    records = []
    found: dict = {}
    for query in queries:
        result = scan_query(citance.words, query, found)
        if result is not None:
            signal, filter_span = result
            records.append(
                MatchRecord(citance.doc_id, citance.sentence_index,
                            query.query_id, signal, filter_span)
            )
    return records


def scan_all(citances, queries) -> list[MatchRecord]:
    records = []
    for citance in citances:
        records.extend(scan_citance(citance, queries))
    records.sort(key=lambda r: (r.doc_id, r.sentence_index, r.query_id))
    return records

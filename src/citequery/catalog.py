"""Cue-phrase queries as data: the built-in catalog and the query-file format.

A query pairs one of thirteen signal term sets with either no filter
(standalone) or one of four filter term sets (studies, ideas, methods,
results), for 65 queries total. Signal sets may carry variants,
per-signal exclusion rules, and a proximity budget between signal and
filter (four words by default).
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .ingest import integer, numbered_lines

NEGATION_TOKENS = frozenset({"no", "not", "cannot", "nor", "neither"})

FILTER_SET_NAMES = ("standalone", "studies", "ideas", "methods", "results")

TOKEN_CARVEOUT = "token_carveout"
MATCH_CONTEXT = "match_context"
CITANCE_PHRASE = "citance_phrase"
COOCCURRENCE_WINDOW = "cooccurrence_window"
EXCLUSION_KINDS = (TOKEN_CARVEOUT, MATCH_CONTEXT, CITANCE_PHRASE, COOCCURRENCE_WINDOW)

DEFAULT_MAX_GAP = 4


class QueryFileError(ValueError):
    """Syntax or consistency error in a query file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class Pattern(NamedTuple("Pattern", [("tokens", tuple[str, ...])])):
    """A token-sequence pattern; a trailing ``*`` on a token marks a prefix."""

    __slots__ = ()

    def __new__(cls, tokens: tuple[str, ...]):
        if not tokens:
            raise ValueError("pattern has no tokens")
        for token in tokens:
            if not token or token != token.lower():
                raise ValueError(f"pattern token must be non-empty lowercase: {token!r}")
            star = token.find("*")
            if star != -1 and (star != len(token) - 1 or star == 0):
                raise ValueError(f"wildcard only allowed trailing a stem: {token!r}")
        return super().__new__(cls, tokens)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        return cls(tuple(text.lower().split()))

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @property
    def contains_negation_token(self) -> bool:
        return any(t in NEGATION_TOKENS for t in self.tokens)


class ExclusionRule(NamedTuple("ExclusionRule", [
    ("kind", str), ("patterns", tuple[Pattern, ...]), ("window", int | None),
])):
    __slots__ = ()

    def __new__(cls, kind: str, patterns: tuple[Pattern, ...], window: int | None = None):
        if kind not in EXCLUSION_KINDS:
            raise ValueError(f"unknown exclusion kind: {kind!r}")
        if not patterns:
            raise ValueError("exclusion rule has no patterns")
        if kind == TOKEN_CARVEOUT and any(len(p.tokens) != 1 for p in patterns):
            raise ValueError("token_carveout patterns must be single-token")
        if kind == COOCCURRENCE_WINDOW:
            if window is None or window < 1:
                raise ValueError("cooccurrence_window requires window >= 1")
            if len(patterns) != 2:
                raise ValueError("cooccurrence_window requires exactly 2 pattern groups")
        elif window is not None:
            raise ValueError(f"window not allowed for {kind}")
        return super().__new__(cls, kind, patterns, window)


class QuerySpec(NamedTuple("QuerySpec", [
    ("query_id", str), ("signal_patterns", tuple[Pattern, ...]), ("filter_set", str),
    ("exclusions", tuple[ExclusionRule, ...]), ("max_gap", int),
])):
    """One query as its query-file block states it."""

    __slots__ = ()

    def __new__(cls, query_id: str, signal_patterns: tuple[Pattern, ...], filter_set: str,
                exclusions: tuple[ExclusionRule, ...] = (), max_gap: int = DEFAULT_MAX_GAP):
        if not signal_patterns:
            raise ValueError("query has no signal patterns")
        if filter_set not in FILTER_SET_NAMES:
            raise ValueError(f"unknown filter set: {filter_set!r}")
        if max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        return super().__new__(cls, query_id, signal_patterns, filter_set, exclusions, max_gap)

    @property
    def signal_id(self) -> str:
        """The main signal pattern's text, the query's row in match_summary.csv."""
        return self.signal_patterns[0].text

    @property
    def filter_patterns(self) -> tuple[Pattern, ...]:
        return FILTER_SETS[self.filter_set]

    @property
    def negation_exempt(self) -> bool:
        """Whether the main signal pattern holds a negation token (see engine)."""
        return self.signal_patterns[0].contains_negation_token


class ValidatedSet(NamedTuple):
    threshold: float
    query_ids: frozenset[str]


def _patterns(*texts: str) -> tuple[Pattern, ...]:
    return tuple(Pattern.parse(t) for t in texts)


FILTER_SETS: dict[str, tuple[Pattern, ...]] = {
    "standalone": (),
    "studies": _patterns(
        "studies", "study", "previous work", "earlier work", "literature",
        "analysis", "analyses", "report", "reports",
    ),
    "ideas": _patterns(
        "idea*", "theory", "theories", "assumption*", "hypothesis", "hypotheses",
    ),
    "methods": _patterns("model*", "method*", "approach*", "technique*"),
    "results": _patterns(
        "result*", "finding*", "outcome*", "evidence", "data",
        "conclusion*", "observation*",
    ),
}

# Signal term sets: key, patterns (main first), exclusions.
_SIGNAL_TABLE: tuple[tuple[str, tuple[Pattern, ...], tuple[ExclusionRule, ...]], ...] = (
    ("challenge", _patterns("challenge*"), ()),
    ("conflict", _patterns("conflict*"), ()),
    ("contradict", _patterns("contradict*"), ()),
    ("contrary", _patterns("contrary"), ()),
    ("contrast", _patterns("contrast*"), ()),
    ("controvers", _patterns("controvers*"), ()),
    (
        "debat", _patterns("debat*"),
        (ExclusionRule(
            MATCH_CONTEXT,
            _patterns("parliament*", "congress*", "senate*", "polic*",
                      "politic*", "public*", "societ*"),
        ),),
    ),
    (
        "differ", _patterns("differ*"),
        (ExclusionRule(TOKEN_CARVEOUT, _patterns("different*")),),
    ),
    (
        "disagree", _patterns("disagree*", "not agree*", "no agreement"),
        (
            ExclusionRule(CITANCE_PHRASE, _patterns("range", "scale", "kappa", "likert")),
            ExclusionRule(COOCCURRENCE_WINDOW, _patterns("agree*", "disagree"), window=10),
        ),
    ),
    (
        "disprov", _patterns("disprov*"),
        (ExclusionRule(COOCCURRENCE_WINDOW, _patterns("prove*", "disprove*"), window=10),),
    ),
    (
        "no_consensus", _patterns("no consensus", "lack of consensus"),
        (ExclusionRule(CITANCE_PHRASE, _patterns("consensus sequence", "consensus site")),),
    ),
    ("questionable", _patterns("questionable"), ()),
    (
        "refut", _patterns("refut*"),
        (ExclusionRule(TOKEN_CARVEOUT, _patterns("refutab*")),),
    ),
)


def query_id_for(signal_key: str, filter_set: str) -> str:
    return f"{signal_key}.{filter_set}"


def builtin_catalog() -> list[QuerySpec]:
    """The 65 built-in queries: 13 signal sets x 5 filter options."""
    return [
        QuerySpec(query_id_for(key, filter_set), patterns, filter_set, exclusions)
        for key, patterns, exclusions in _SIGNAL_TABLE
        for filter_set in FILTER_SET_NAMES
    ]


def catalog_ids() -> frozenset[str]:
    return frozenset(q.query_id for q in builtin_catalog())


# Queries whose membership in the default 80%-validity set is fixed.
_VALIDATED_80_FIXED = tuple(
    [query_id_for("no_consensus", f) for f in FILTER_SET_NAMES]
    + [query_id_for("controvers", f) for f in FILTER_SET_NAMES]
    + [query_id_for("debat", f) for f in ("standalone", "studies", "methods", "results")]
    + [query_id_for("disagree", f) for f in ("studies", "results")]
    + [query_id_for("contrast", "ideas")]
)

# Additional members of the default 70%-validity set.
_VALIDATED_70_EXTRA = (
    "contradict.standalone",
    "contrary.studies",
    "contrary.methods",
    "conflict.results",
    "disagree.methods",
    "disagree.ideas",
    "disprov.methods",
    "disprov.ideas",
    "refut.studies",
    "refut.results",
    "refut.ideas",
    "debat.ideas",
    "questionable.ideas",
)


def load_resolution_file(path: str | Path | None = None) -> list[str]:
    """Query ids resolving the ambiguous slots of the 80% validated set.

    Without a path the file shipped with the package is used; the file
    lists one query id per line, ``#`` starts a comment. An unknown id
    raises ValueError naming its line.
    """
    if path is None:
        path = Path(__file__).with_name("data") / "resolution_80.txt"
    known = catalog_ids()
    ids = []
    for lineno, raw in numbered_lines(path):
        query_id = raw.split("#", 1)[0].strip()
        if not query_id:
            continue
        if query_id not in known:
            raise ValueError(f"line {lineno}: unknown query id {query_id!r}")
        ids.append(query_id)
    return ids


def shipped_threshold(threshold: float) -> float:
    """The threshold of the shipped validated set equal to ``threshold``."""
    for shipped in (0.80, 0.70):
        if abs(threshold - shipped) < 1e-9:
            return shipped
    raise ValueError(
        f"no shipped validated set for threshold {threshold}; gate annotation data instead"
    )


def default_validated_set(
    threshold: float, resolution_path: str | Path | None = None
) -> ValidatedSet:
    """The shipped validated query sets for the 0.80 and 0.70 thresholds.

    Other thresholds have no shipped membership and require gating real
    annotation data instead.
    """
    threshold = shipped_threshold(threshold)
    ids = set(_VALIDATED_80_FIXED)
    ids.update(load_resolution_file(resolution_path))
    if threshold == 0.70:
        ids.update(_VALIDATED_70_EXTRA)
    return ValidatedSet(threshold, frozenset(ids))


def _parse_pattern_or_fail(text: str, line: int) -> Pattern:
    try:
        return Pattern.parse(text)
    except ValueError as exc:
        raise QueryFileError(str(exc), line)


def _finish_block(fields: dict, line: int) -> QuerySpec:
    if "id" not in fields:
        raise QueryFileError("block missing 'query' line", line)
    if "signal" not in fields:
        raise QueryFileError(f"query {fields['id']} missing 'signal' line", line)
    try:
        return QuerySpec(
            fields["id"], fields["signal"], fields.get("filter", "standalone"),
            tuple(fields.get("exclusions", ())), fields.get("maxgap", DEFAULT_MAX_GAP),
        )
    except ValueError as exc:
        raise QueryFileError(str(exc), line)


def parse_query_file(text: str) -> list[QuerySpec]:
    """Parse the query-file format; see the repository README for the grammar."""
    queries: list[QuerySpec] = []
    fields: dict = {}
    seen_ids: set[str] = set()
    block_line = 0

    def close():
        nonlocal fields
        if fields:
            query = _finish_block(fields, block_line)
            if query.query_id in seen_ids:
                raise QueryFileError(f"duplicate query id {query.query_id!r}", block_line)
            seen_ids.add(query.query_id)
            queries.append(query)
            fields = {}

    # Lines end at "\n" only, as in ingest.numbered_lines and in editors.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if not raw.strip():  # a blank line ends a block, a comment line does not
                close()
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "query":
            close()
        if not fields:
            block_line = lineno
        # 'signal', 'filter' and 'maxgap' are stored under their keyword;
        # 'query' opens a new block and only 'exclude' repeats.
        if keyword in fields:
            raise QueryFileError(f"repeated {keyword!r} line", lineno)
        if keyword == "query":
            if not rest:
                raise QueryFileError("query line missing id", lineno)
            fields["id"] = rest
        elif keyword == "signal":
            parts = [p.strip() for p in rest.split("|")]
            if not all(parts):
                raise QueryFileError("empty signal pattern", lineno)
            fields["signal"] = tuple(_parse_pattern_or_fail(p, lineno) for p in parts)
        elif keyword == "filter":
            if rest == "none":
                fields["filter"] = "standalone"
            elif rest in FILTER_SET_NAMES and rest != "standalone":
                fields["filter"] = rest
            else:
                raise QueryFileError(f"unknown filter set {rest!r}", lineno)
        elif keyword == "exclude":
            kind, sep, spec = rest.partition(":")
            if not sep:
                raise QueryFileError("exclude line needs '<kind>:<patterns>'", lineno)
            kind = kind.strip()
            if kind not in EXCLUSION_KINDS:
                raise QueryFileError(f"unknown exclusion kind {kind!r}", lineno)
            window = None
            if " window=" in spec:
                spec, _, window_text = spec.rpartition(" window=")
                try:
                    window = integer(window_text)
                except ValueError:
                    raise QueryFileError(f"bad window value {window_text!r}", lineno) from None
            patterns = tuple(
                _parse_pattern_or_fail(p.strip(), lineno)
                for p in spec.split(",") if p.strip()
            )
            try:
                rule = ExclusionRule(kind, patterns, window)
            except ValueError as exc:
                raise QueryFileError(str(exc), lineno)
            fields.setdefault("exclusions", []).append(rule)
        elif keyword == "maxgap":
            try:
                fields["maxgap"] = integer(rest)
            except ValueError:
                raise QueryFileError(f"bad maxgap value {rest!r}", lineno) from None
        else:
            raise QueryFileError(f"unknown keyword {keyword!r}", lineno)
    close()
    if not queries:
        raise QueryFileError("no query")
    return queries


def serialize_validated_set(validated: ValidatedSet) -> str:
    lines = [f"threshold {validated.threshold}"]
    lines.extend(sorted(validated.query_ids))
    return "\n".join(lines) + "\n"

"""Synthetic corpus generators for property, recovery and scale tests, and the
corpus and query-file writers the round-trip tests read back."""

from __future__ import annotations

import json
import random
from typing import IO, Iterable

from citequery.catalog import QuerySpec
from citequery.ingest import NON_SELF, SELF, UNKNOWN, Citance, Document
from naive_scanner import token_ok

# Vocabulary mixing signal stems and inflections, filter terms, negation,
# exclusion triggers and neutral filler, so random sentences exercise
# every code path of the engine.
SIGNALISH = (
    "challenge", "challenged", "challenges", "challenging",
    "conflict", "conflicts", "conflicting",
    "contradict", "contradicts", "contradiction", "contradictory",
    "contrary", "contrast", "contrasts", "contrasting",
    "controversy", "controversial", "controversies",
    "debate", "debates", "debated", "debating",
    "differ", "differs", "different", "differently", "difference", "differences",
    "disagree", "disagreement", "disagreements", "disagreed",
    "disprove", "disproved", "disproves", "disproving",
    "consensus", "lack", "questionable",
    "refute", "refuted", "refutes", "refutable", "refutability",
    "agree", "agreement", "agreed", "prove", "proved", "proven", "proves",
)
FILTERISH = (
    "studies", "study", "previous", "earlier", "work", "literature",
    "analysis", "analyses", "report", "reports",
    "idea", "ideas", "theory", "theories", "assumption", "assumptions",
    "hypothesis", "hypotheses", "model", "models", "method", "methods",
    "approach", "approaches", "technique", "techniques",
    "result", "results", "finding", "findings", "outcome", "outcomes",
    "evidence", "data", "conclusion", "conclusions",
    "observation", "observations",
)
NEGATIONISH = ("no", "not", "cannot", "nor", "neither")
EXCLUSIONISH = (
    "parliamentary", "congressional", "senate", "policy", "political",
    "public", "societal", "range", "scale", "kappa", "likert",
    "sequence", "site",
)
FILLER = (
    "the", "a", "of", "in", "and", "we", "this", "these", "was", "were",
    "on", "with", "for", "by", "to", "from", "our", "their", "has", "have",
    "been", "is", "are", "remains", "still", "however", "although",
    "recent", "several", "new", "many", "effect", "sample", "experiment",
    "paper", "authors", "value", "measurement",
)


def make_citance(doc_id: str, sentence_index: int, words: list[str]) -> Citance:
    return Citance(doc_id, sentence_index, tuple(words))


def random_citances(count: int, seed: int, min_len: int = 1, max_len: int = 40):
    """Randomized citances dense in engine-relevant vocabulary."""
    rng = random.Random(seed)
    pools = (
        (SIGNALISH, 4), (FILTERISH, 4), (NEGATIONISH, 2), (EXCLUSIONISH, 2),
        (FILLER, 8),
    )
    vocab: list[str] = []
    for words, weight in pools:
        vocab.extend(words * weight)
    citances = []
    for i in range(count):
        length = rng.randint(min_len, max_len)
        words = rng.choices(vocab, k=length)
        citances.append(make_citance(f"d{i // 20:05d}", i % 20, words))
    return citances


def lead_words(queries: Iterable[QuerySpec]) -> set[str]:
    """The lead tokens of ``queries``: each signal pattern's first token."""
    return {p.tokens[0] for q in queries for p in q.signal_patterns}


def lead_last_citances(citances: Iterable[Citance], leads: set[str]) -> list[Citance]:
    """``citances``, renumbered, with each one that holds a word matching a
    token of ``leads`` preceded by a lead-less citance of its other words:
    a matcher meets every other word, and can mark it lead-free, before
    the lead word that makes the citance a candidate."""
    stream = []
    for citance in citances:
        other = [w for w in citance.words if not any(token_ok(t, w) for t in leads)]
        stream += [other] if len(other) == len(citance.words) else [other, citance.words]
    return [make_citance(f"d{i // 20:05d}", i % 20, words) for i, words in enumerate(stream)]


def citance_records(citances: Iterable[Citance]) -> list[dict]:
    """Presegmented JSON records whose citances are ``citances``, in order:
    sentence i of a document is its citance of index i, words joined by
    spaces and ended by a marker and a full stop."""
    records: dict[str, dict] = {}
    for citance in citances:
        record = records.setdefault(
            citance.doc_id, {"doc_id": citance.doc_id, "year": 2010, "sentences": []})
        assert len(record["sentences"]) == citance.sentence_index
        rid = f"r{citance.sentence_index}"
        record["sentences"].append({"text": " ".join(citance.words) + f" <ref id={rid}/>.",
                                    "refs": [{"ref_id": rid}]})
    return list(records.values())


NEUTRAL_WORDS = (
    "the", "sample", "was", "measured", "at", "a", "central", "facility",
    "during", "three", "seasons", "using", "calibrated", "instruments",
    "temperature", "values", "were", "recorded", "daily", "for", "each",
    "station", "and", "averaged", "over", "months",
)

FLAGGED_SENTENCE = "These findings remain controversial <ref id={rid}/>."
NEUTRAL_SENTENCE = "The sample was measured at the central facility <ref id={rid}/>."


def planted_field_corpus(
    per_field: dict[str, tuple[int, float]],
    self_fraction: float = 1.0 / 3.0,
    self_rate_scale: float = 2.4,
    sentences_per_doc: int = 50,
    base_year: int = 2000,
    years: int = 16,
):
    """JSONL records with exact per-field flagged counts and a planted
    non-self/self disagreement ratio.

    Returns (records, expected) where expected holds the per-field
    {flagged, total} counts and the exact self/non-self cell counts.
    """
    records = []
    expected = {"fields": {}, "self": [0, 0], "non_self": [0, 0]}
    # rate(non-self) = a * field rate, rate(self) = a/scale * field rate,
    # chosen so the pooled field rate is preserved.
    a = 1.0 / ((1 - self_fraction) + self_fraction / self_rate_scale)
    doc_counter = 0
    for field_index, (field, (total, rate)) in enumerate(sorted(per_field.items())):
        n_self = int(total * self_fraction)
        n_non_self = total - n_self
        flag_non_self = round(n_non_self * rate / 100.0 * a)
        flag_self = round(n_self * rate / 100.0 * a / self_rate_scale)
        expected["fields"][field] = {
            "flagged": flag_non_self + flag_self, "total": total,
        }
        expected["self"][0] += flag_self
        expected["self"][1] += n_self
        expected["non_self"][0] += flag_non_self
        expected["non_self"][1] += n_non_self

        # (is_self, is_flagged) per citance, spread deterministically.
        cells = (
            [(False, True)] * flag_non_self
            + [(False, False)] * (n_non_self - flag_non_self)
            + [(True, True)] * flag_self
            + [(True, False)] * (n_self - flag_self)
        )
        rng = random.Random(1000 + field_index)
        rng.shuffle(cells)

        for chunk_start in range(0, len(cells), sentences_per_doc):
            chunk = cells[chunk_start:chunk_start + sentences_per_doc]
            doc_id = f"p{doc_counter:06d}"
            author = {"family": f"author{doc_counter}", "given": "a"}
            sentences = []
            for j, (is_self, is_flagged) in enumerate(chunk):
                rid = f"{doc_id}r{j}"
                text = (FLAGGED_SENTENCE if is_flagged else NEUTRAL_SENTENCE)
                cited = [author] if is_self else [{"family": "somebodyelse", "given": "z"}]
                sentences.append({
                    "text": text.format(rid=rid),
                    "refs": [{
                        "ref_id": rid,
                        "cited_doc_id": None,
                        "cited_year": base_year - 3,
                        "cited_authors": cited,
                    }],
                })
            records.append({
                "doc_id": doc_id,
                "year": base_year + doc_counter % years,
                "doc_type": "full-article",
                "main_field": field,
                "meso_field": None,
                "authors": [author],
                "sentences": sentences,
            })
            doc_counter += 1
    return records, expected


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


# A record's one author and, per self-citation class, the cited authors that
# reload to it.
_CITING_AUTHORS = [{"family": "Self", "given": None}]
_CITED_AUTHORS = {SELF: _CITING_AUTHORS, NON_SELF: [{"family": "Other", "given": None}],
                  UNKNOWN: None}


def document_to_record(doc: Document) -> dict:
    """Presegmented JSON record for a Document (round-trips via load): each
    ref's self-citation class is written as cited authors that reload to it."""
    return {
        "doc_id": doc.doc_id,
        "year": doc.year,
        "doc_type": doc.doc_type,
        "main_field": doc.main_field,
        "meso_field": doc.meso_field,
        "authors": _CITING_AUTHORS,
        "sentences": [
            {
                "text": s.text,
                "refs": [
                    {
                        "ref_id": r.ref_id,
                        "cited_doc_id": r.cited_doc_id,
                        "cited_year": r.cited_year,
                        "cited_authors": _CITED_AUTHORS[r.self_citation],
                    }
                    for r in s.refs
                ],
            }
            for s in doc.sentences
        ],
    }


def write_corpus(documents: Iterable[Document], handle: IO[str]) -> int:
    """Serialize documents as presegmented JSON Lines; returns record count."""
    count = 0
    for doc in documents:
        handle.write(json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")
        count += 1
    return count


def serialize_query_file(queries: Iterable[QuerySpec]) -> str:
    """Write queries in the query-file format; inverse of parse_query_file."""
    blocks = []
    for q in queries:
        lines = [f"query {q.query_id}"]
        lines.append("signal " + "|".join(p.text for p in q.signal_patterns))
        lines.append(f"filter {'none' if q.filter_set == 'standalone' else q.filter_set}")
        for rule in q.exclusions:
            spec = ",".join(p.text for p in rule.patterns)
            suffix = f" window={rule.window}" if rule.window is not None else ""
            lines.append(f"exclude {rule.kind}:{spec}{suffix}")
        lines.append(f"maxgap {q.max_gap}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"

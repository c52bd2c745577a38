"""Seeded corpus generators for the three benchmark workloads.

Each generator writes the files the program reads (a JSONL corpus and,
for ``sparse``, a citation table) and returns what the correctness
checks need to know about them (planted counts, the malformed lines)
and the command lines of the run. Only the seed varies the content; the
shape (documents, sentences, citances, cue and malformed-record counts,
body lengths) is fixed per workload and scale, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIELDS = ("BioHealth", "LifeEarth", "MathComp", "PhysEngr", "SocHum")

# Flagged-citance rates in percent: the field ordering and proportions of
# the planted-rate acceptance corpus, doubled so about 1% of citances
# carry a cue once the unflagged cues are added.
PLANTED_RATES = {
    "SocHum": 1.22, "BioHealth": 0.82, "LifeEarth": 0.58,
    "PhysEngr": 0.30, "MathComp": 0.12,
}
UNFLAGGED_CUE_RATE = 0.4  # percent of citances, every field

# Cues matched by queries of the default 0.80 validated set (standalone
# forms of controvers*, no consensus and debat*) ...
FLAGGED_CUES = (
    ("remains", "controversial"), ("is", "controversial"),
    ("a", "controversy"), ("no", "consensus"),
    ("lack", "of", "consensus"), ("was", "debated"),
)
# ... and cues matched only by queries outside it.
UNFLAGGED_CUES = (("was", "challenged"), ("differs",), ("refuted",))

# Neutral text: no word starts a signal pattern (no, not, lack, or a
# prefix of a signal stem), precedes debat* as a context exclusion, or
# triggers a citance-phrase exclusion.
NEUTRAL = tuple("""
the a an of in on at for with by from to and or as which that this these
those we our their its was were is are be been has have had can may might
also both each several many most some further recent previous prior early
late sample samples measured measurement measurements value values station
stations facility instrument instruments calibrated temperature pressure
season seasons daily annual months weeks growth rate rates yield yields cell
cells tissue protein proteins gene genes expression pathway binding signal
response dose treatment patients cohort trial trials clinical outcome
outcomes study studies analysis analyses model models method methods approach
technique data evidence result results finding findings observation
observations theory hypothesis assumption framework network networks graph
algorithm algorithms bound bounds proof lemma theorem estimate estimates
energy field fields particle particles beam detector spectrum spectra
frequency wave waves surface layer layers material materials alloy sediment
basin river soil climate ocean species habitat population populations survey
surveys participants interview interviews school schools language economic
market markets region regions urban rural reported observed described
proposed suggested showed found used applied estimated compared examined
identified obtained recorded averaged computed derived tested confirmed
extended revised updated introduced developed strong weak high low large
small higher lower larger smaller significant substantial moderate similar
consistent central mean median total overall average initial final major
minor direct indirect under over between across within after before during
""".split())

# The dense recipe: random words over SIGNALISH + FILTERISH + FILLER * 6,
# as in the test suite's synthetic vocabulary. Copied so the workload stays
# fixed when the test vocabulary changes.
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
FILLER = (
    "the", "a", "of", "in", "and", "we", "this", "these", "was", "were",
    "on", "with", "for", "by", "to", "from", "our", "their", "has", "have",
    "been", "is", "are", "remains", "still", "however", "although",
    "recent", "several", "new", "many", "effect", "sample", "experiment",
    "paper", "authors", "value", "measurement",
)
DENSE_VOCAB = SIGNALISH + FILTERISH + FILLER * 6

# Malformed records mixed into every corpus, with the error code the
# loader must report for each.
MALFORMED_PRESEGMENTED = (
    ('{"doc_id": "bad-json", "year": 2001', "bad_json"),
    ('{"doc_id": "bad-year", "sentences": []}', "missing_year"),
    ('{"doc_id": "bad-type", "year": 2003, "doc_type": "letter", "sentences": []}',
     "bad_doc_type"),
    ('{"doc_id": "bad-field", "year": 2004, "main_field": "Astro", "sentences": []}',
     "bad_main_field"),
    ('{"doc_id": "bad-sentences", "year": 2005, "sentences": "none"}', "bad_sentences"),
    ('{"year": 2006, "sentences": []}', "missing_doc_id"),
)
MALFORMED_RAWTEXT = (
    ('{"doc_id": "bad-json", "year": 2001', "bad_json"),
    ('{"doc_id": "bad-year", "body": "Text."}', "missing_year"),
    ('{"doc_id": "bad-body", "year": 2002, "body": 7}', "bad_body"),
    ('{"doc_id": "no-body", "year": 2003}', "missing_body"),
)

FIRST_YEAR = 2000
YEARS = 16
EXTERNAL_PAPERS = 1500
# The citation table runs to the last year any impact horizon (k <= 3)
# reaches, and every tabulated year has at least one citation: at the
# seed commit a cohort whose expected mean is 0 makes ``report --which
# impact`` die with ZeroDivisionError instead of skipping the field.
LAST_CITATION_YEAR = FIRST_YEAR + YEARS - 1 + 3

REPORTS_FULL = "rates,slopes,selfcite,age,position,meso,top,impact,gap"
REPORTS_NO_CITATIONS = "rates,slopes,selfcite,age,position,meso,top"


@dataclass
class Workload:
    """Generated inputs of one run and the facts the checks compare against."""

    name: str
    corpus: Path
    mode: str
    reports: str
    citations: Path | None
    sentences: int
    citances: int
    corpus_bytes: int
    malformed: dict[int, str]  # 1-based line -> error code
    # Planted per-field {flagged, total} citance counts and the flagged
    # self/non-self split; empty where random text makes them unknowable.
    planted_fields: dict[str, dict[str, int]] = field(default_factory=dict)
    planted_self: dict[str, list[int]] = field(default_factory=dict)

    def match_args(self, out: Path) -> list[str]:
        return ["match", "--corpus", str(self.corpus), "--mode", self.mode,
                "--out", str(out)]

    def report_args(self, out: Path) -> list[str]:
        args = ["report", "--corpus", str(self.corpus), "--mode", self.mode,
                "--out", str(out), "--which", self.reports]
        if self.citations is not None:
            args += ["--citations", str(self.citations)]
        return args


def _sentence(words: list[str]) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _neutral_words(rng: random.Random, low: int, high: int) -> list[str]:
    return rng.choices(NEUTRAL, k=rng.randint(low, high))


def _with_cue(rng: random.Random, words: list[str], cue: tuple[str, ...]) -> list[str]:
    at = rng.randint(1, len(words))
    return words[:at] + list(cue) + words[at:]


def _cue_plan(rng: random.Random, slots_by_field: dict[str, list]):
    """Which citance slots carry a flagged or an unflagged cue."""
    flagged, unflagged = set(), set()
    for name, slots in slots_by_field.items():
        n_flag = round(len(slots) * PLANTED_RATES[name] / 100.0)
        n_other = round(len(slots) * UNFLAGGED_CUE_RATE / 100.0)
        chosen = rng.sample(slots, n_flag + n_other)
        flagged.update(chosen[:n_flag])
        unflagged.update(chosen[n_flag:])
    return flagged, unflagged


def _write_lines(path: Path, lines: list[str], malformed, rng: random.Random):
    """Write records with the malformed ones at seeded positions."""
    positions = sorted(rng.sample(range(len(lines) + 1), len(malformed)))
    out, where = [], {}
    bad = iter(malformed)
    for i in range(len(lines) + 1):
        while positions and positions[0] == i:
            positions.pop(0)
            text, code = next(bad)
            out.append(text)
            where[len(out)] = code
        if i < len(lines):
            out.append(lines[i])
    data = ("\n".join(out) + "\n").encode("utf-8")
    path.write_bytes(data)
    return where, len(data)


def _doc_meta(rng: random.Random, i: int, docs: int) -> dict:
    """Metadata of document ``i``; years do not decrease with ``i``, so a
    document only cites corpus papers of its own year or earlier."""
    name = FIELDS[i % len(FIELDS)]
    return {
        "doc_id": f"p{i:05d}",
        "year": FIRST_YEAR + i * YEARS // docs,
        "main_field": name,
        "meso_field": 100 + 4 * FIELDS.index(name) + rng.randrange(4),
        "authors": [{"family": f"fam{i}", "given": "a"},
                    {"family": f"co{rng.randrange(10**6)}", "given": "b"}],
    }


def _presegmented(name: str, work: Path, seed: int, docs: int, dense: bool) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    sentences_per_doc, citances_per_doc = 30, 20
    metas = [_doc_meta(rng, i, docs) for i in range(docs)]
    slots_by_field: dict[str, list] = {f: [] for f in FIELDS}
    citing: dict[int, list[int]] = {}
    for i, meta in enumerate(metas):
        positions = sorted(rng.sample(range(sentences_per_doc), citances_per_doc))
        citing[i] = positions
        slots_by_field[meta["main_field"]].extend((i, s) for s in positions)
    flagged, unflagged = _cue_plan(rng, slots_by_field)
    external_years = [1990 + rng.randrange(10) for _ in range(EXTERNAL_PAPERS)]

    planted_fields = {f: {"flagged": 0, "total": len(s)} for f, s in slots_by_field.items()}
    planted_self = {"self": [0, 0], "non-self": [0, 0]}
    lines = []
    for i, meta in enumerate(metas):
        cite_at = set(citing[i])
        sentences = []
        for s in range(sentences_per_doc):
            words = _neutral_words(rng, 8, 22)
            if dense:
                words = rng.choices(DENSE_VOCAB, k=rng.randint(10, 30)) + words
            if s not in cite_at:
                sentences.append({"text": _sentence(words), "refs": []})
                continue
            if (i, s) in flagged:
                words = _with_cue(rng, words, rng.choice(FLAGGED_CUES))
            elif (i, s) in unflagged:
                words = _with_cue(rng, words, rng.choice(UNFLAGGED_CUES))
            is_self = rng.random() < 1 / 3
            refs, markers = [], []
            for r in range(1 if rng.random() < 0.7 else 2):
                rid = f"r{s}_{r}"
                if i > 0 and rng.random() < 0.5:
                    j = rng.randrange(i)
                    cited, year = metas[j]["doc_id"], metas[j]["year"]
                else:
                    j = rng.randrange(EXTERNAL_PAPERS)
                    cited, year = f"x{j:05d}", external_years[j]
                authors = ([meta["authors"][0]] if is_self and r == 0
                           else [{"family": f"other{rng.randrange(10**6)}", "given": "c"}])
                refs.append({"ref_id": rid, "cited_doc_id": cited,
                             "cited_year": year, "cited_authors": authors})
                markers.append(f'<ref id="{rid}"/>')
            at = rng.randint(1, len(words))
            text = _sentence(words[:at] + markers + words[at:])
            sentences.append({"text": text, "refs": refs})
            key = "self" if is_self else "non-self"
            planted_self[key][1] += 1
            if (i, s) in flagged:
                planted_fields[meta["main_field"]]["flagged"] += 1
                planted_self[key][0] += 1
        record = dict(meta, doc_type="full-article", sentences=sentences)
        lines.append(json.dumps(record, ensure_ascii=False))

    corpus = work / f"{name}.jsonl"
    malformed, size = _write_lines(corpus, lines, MALFORMED_PRESEGMENTED, rng)
    citations = None
    if not dense:
        citations = work / f"{name}_citations.csv"
        _write_citations(citations, rng, metas, external_years)
    return Workload(
        name=name, corpus=corpus, mode="presegmented",
        reports=REPORTS_NO_CITATIONS if dense else REPORTS_FULL,
        citations=citations, sentences=docs * sentences_per_doc,
        citances=docs * citances_per_doc,
        corpus_bytes=size, malformed=malformed,
        planted_fields={} if dense else planted_fields,
        planted_self={} if dense else planted_self,
    )


def _write_citations(path: Path, rng: random.Random, metas, external_years) -> None:
    papers = [(m["doc_id"], m["year"]) for m in metas]
    papers += [(f"x{j:05d}", y) for j, y in enumerate(external_years)]
    rows = ["doc_id,pub_year,year,citations"]
    for doc_id, pub in papers:
        for year in range(pub, LAST_CITATION_YEAR + 1):
            rows.append(f"{doc_id},{pub},{year},{1 + min(rng.randrange(8), rng.randrange(8))}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# Sentences per rawtext body: fixed, so the splitter's cost (quadratic
# in a body's length today) is the same for every seed.
RAWTEXT_BODIES = (1500, 1100, 800, 600, 400, 300)
RAWTEXT_REF_SHARE = 0.85
LONG_WORDS = tuple(w for w in NEUTRAL if len(w) > 3)


def _rawtext(work: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(f"rawtext:{seed}")
    lengths = [max(10, round(n * scale)) for n in RAWTEXT_BODIES]
    metas = [_doc_meta(rng, i, len(lengths)) for i in range(len(lengths))]
    slots_by_field: dict[str, list] = {f: [] for f in FIELDS}
    with_ref: dict[int, set[int]] = {}
    for i, (meta, n) in enumerate(zip(metas, lengths)):
        with_ref[i] = set(rng.sample(range(n), round(n * RAWTEXT_REF_SHARE)))
        slots_by_field[meta["main_field"]].extend((i, s) for s in sorted(with_ref[i]))
    flagged, unflagged = _cue_plan(rng, slots_by_field)
    planted_fields = {f: {"flagged": 0, "total": len(s)} for f, s in slots_by_field.items()}

    lines = []
    for i, (meta, n) in enumerate(zip(metas, lengths)):
        parts = []
        for s in range(n):
            words = _neutral_words(rng, 8, 24)
            if rng.random() < 0.05:  # abbreviations the splitter must not cut at
                words = _with_cue(rng, words, rng.choice(
                    (("smith", "et", "al.", "reported"), ("see", "fig.", "3"),
                     ("e.g.", "the", "sample"))))
            if (i, s) in flagged:
                words = _with_cue(rng, words, rng.choice(FLAGGED_CUES))
                planted_fields[meta["main_field"]]["flagged"] += 1
            elif (i, s) in unflagged:
                words = _with_cue(rng, words, rng.choice(UNFLAGGED_CUES))
            # A single-letter word before the period reads as an initial,
            # which the splitter rightly does not cut after.
            words.append(rng.choice(LONG_WORDS))
            if s in with_ref[i]:
                j = rng.randrange(EXTERNAL_PAPERS)
                marker = (f'<ref id="r{s}" cited_doc_id="x{j:05d}" '
                          f'cited_year="{1990 + rng.randrange(10)}"/>')
                at = rng.randint(1, len(words))
                words = words[:at] + [marker] + words[at:]
            parts.append(_sentence(words))
        record = dict(meta, doc_type="review", body=" ".join(parts))
        lines.append(json.dumps(record, ensure_ascii=False))
    corpus = work / "rawtext.jsonl"
    malformed, size = _write_lines(corpus, lines, MALFORMED_RAWTEXT, rng)
    return Workload(
        name="rawtext", corpus=corpus, mode="rawtext", reports=REPORTS_NO_CITATIONS,
        citations=None, sentences=sum(lengths),
        citances=sum(len(v) for v in with_ref.values()),
        corpus_bytes=size, malformed=malformed, planted_fields=planted_fields,
    )


SPARSE_DOCS = 400
DENSE_DOCS = 70


def generate(name: str, work: Path, seed: int, scale: float = 1.0) -> Workload:
    """Write workload ``name``'s inputs for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "sparse":
        return _presegmented("sparse", work, seed, max(10, round(SPARSE_DOCS * scale)), False)
    if name == "dense":
        return _presegmented("dense", work, seed, max(10, round(DENSE_DOCS * scale)), True)
    if name == "rawtext":
        return _rawtext(work, seed, scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sparse", "dense", "rawtext")

"""citequery: cue-phrase detection of disagreement citances in scientific
full text, with dual-coder validation and corpus analytics. Each exported
name is imported from its module on first use (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {  # exported name -> the module that defines it
    name: module
    for module, names in (
        ("analytics", ("CitationTable", "citation_gap", "flag_citances", "impact_ratio",
                       "meso_log_ratio", "rate_by", "self_citation_ratio", "top_tables",
                       "yearly_slope")),
        ("catalog", ("ExclusionRule", "Pattern", "QuerySpec", "ValidatedSet", "builtin_catalog",
                     "default_validated_set", "parse_query_file")),
        ("engine", ("CatalogMatcher", "MatchRecord", "Span", "run_all")),
        ("ingest", ("Citance", "Document", "RefLink", "Sentence", "extract_citances",
                    "iter_citances", "load_corpus", "split_sentences")),
        ("tokens", ("tokenize",)),
        ("validation", ("AnnotationRecord", "ValidationStats", "cohens_kappa", "compute_stats",
                        "gate_queries", "percent_agreement", "percent_valid",
                        "sample_matches")),
    )
    for name in names
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})

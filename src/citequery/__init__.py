"""citequery: cue-phrase detection of disagreement citances in scientific
full text, with dual-coder validation and corpus analytics."""

__version__ = "0.1.0"

from .analytics import (  # noqa: F401
    CitationTable,
    citation_gap,
    flag_citances,
    impact_ratio,
    meso_log_ratio,
    rate_by,
    self_citation_ratio,
    top_tables,
    yearly_slope,
)
from .catalog import (  # noqa: F401
    ExclusionRule,
    Pattern,
    QuerySpec,
    ValidatedSet,
    builtin_catalog,
    default_validated_set,
    parse_query_file,
)
from .engine import (  # noqa: F401
    CatalogMatcher,
    MatchRecord,
    Span,
    run_all,
)
from .ingest import (  # noqa: F401
    Citance,
    Document,
    RefLink,
    Sentence,
    extract_citances,
    iter_citances,
    load_corpus,
    split_sentences,
)
from .tokens import tokenize  # noqa: F401
from .validation import (  # noqa: F401
    AnnotationRecord,
    ValidationStats,
    cohens_kappa,
    compute_stats,
    gate_queries,
    percent_agreement,
    percent_valid,
    sample_matches,
)

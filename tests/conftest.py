import csv
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from citequery.catalog import builtin_catalog
from citequery.ingest import iter_citances, load_corpus

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CORPUS = DATA_DIR / "golden_corpus.jsonl"
GOLDEN_MATCHES = DATA_DIR / "golden_matches.csv"


def write_golden_citations(path):
    """A citation table covering the papers the golden corpus cites."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("doc_id", "pub_year", "year", "citations"))
        for paper, pub in (("x-zhao-2001", 2001), ("x-kusky-2003", 2003),
                           ("x-munro-2003", 2003)):
            for year in range(pub, 2016):
                writer.writerow((paper, pub, year, 2))
        for doc in ("g01", "g02", "g03", "g04", "g05", "g06", "g07", "g08", "g09"):
            for year in range(2009, 2018):
                writer.writerow((doc, 2008, year, 1))
    return path


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def catalog_by_id(catalog):
    return {q.query_id: q for q in catalog}


@pytest.fixture(scope="session")
def golden_documents():
    result = load_corpus(GOLDEN_CORPUS)
    assert not result.errors
    return result.documents


@pytest.fixture(scope="session")
def golden_citances(golden_documents):
    return list(iter_citances(golden_documents))

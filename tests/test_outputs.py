"""Pinned digests of what every command prints and writes.

Each case runs one command line in-process through ``cli.main`` and
hashes its exit code, stdout, stderr and every file it writes. The
corpora are the golden fixture and the seed-7 ``sparse``, ``dense`` and
``rawtext`` benchmark workloads, malformed records included, plus a
gate round trip (sample, annotate twice, gate, report --stats) on the
golden corpus. A change that moves a digest changes what a user sees.

After an intended output change, rewrite the digests with::

    PYTHONPATH=src python tests/test_outputs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).parent.parent / "perfbench"))  # read, never written

from citequery.cli import main  # noqa: E402
from conftest import DATA_DIR, GOLDEN_CORPUS, write_golden_citations  # noqa: E402
import workloads  # noqa: E402

DIGESTS = DATA_DIR / "output_digests.json"
WORKLOAD_SEED = 7

# The config digest hashes resolved input paths, which differ per run.
_CONFIG_LINE = re.compile(rb"^# config [0-9a-f]+$", re.M)
ALICE_KEYS = "v\n" * 200
BOB_KEYS = "v\nv\ni\nx\nv\n" * 40  # "x" is no key, so the prompt repeats


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv: list[str], out: Path, tmp: Path, stdin: str = "") -> dict:
    """Exit code, output digests and file digests of one ``main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stdout": _hash(stdout.getvalue().replace(str(tmp), "<tmp>").encode("utf-8")),
        "stderr": _hash(stderr.getvalue().replace(str(tmp), "<tmp>").encode("utf-8")),
        "files": {p.relative_to(out).as_posix():
                  _hash(_CONFIG_LINE.sub(b"# config <config>", p.read_bytes()))
                  for p in files},
    }


def _corpus_cases(tmp: Path):
    """(name, argv, out) of each corpus's commands."""
    citations = write_golden_citations(tmp / "golden_citations.csv")
    corpora = [("golden", GOLDEN_CORPUS, "presegmented",
                ["--citations", str(citations)])]
    for name in workloads.WORKLOADS:
        load = workloads.generate(name, tmp / "inputs" / name, WORKLOAD_SEED)
        report = load.report_args(Path("OUT"))
        corpora.append((name, load.corpus, load.mode, report[report.index("--which"):]))
    for name, corpus, mode, report in corpora:
        given = ["--corpus", str(corpus), "--mode", mode]
        out = tmp / "out" / name
        yield f"{name}-ingest-check", ["ingest-check", *given], out / "ingest-check"
        yield f"{name}-match", ["match", *given, "--out", str(out / "match")], out / "match"
        yield (f"{name}-sample", ["sample", *given, "--n", "5", "--out", str(out / "sample")],
               out / "sample")
        yield (f"{name}-report", ["report", *given, "--out", str(out / "report"), *report],
               out / "report")


def output_digests(tmp: Path) -> dict[str, dict]:
    """The digests of every case, run under the directory ``tmp``."""
    digests = {name: _run(argv, out, tmp) for name, argv, out in _corpus_cases(tmp)}
    sample = tmp / "out" / "golden" / "sample" / "sample.csv"
    gate = tmp / "out" / "gate"
    labeled = []
    for coder, keys in (("alice", ALICE_KEYS), ("bob", BOB_KEYS)):
        out = gate / f"annotate-{coder}"
        labeled.append(str(out / f"{coder}.csv"))
        digests[f"gate-annotate-{coder}"] = _run(
            ["annotate", "--sample", str(sample), "--coder", coder, "--out", labeled[-1]],
            out, tmp, keys)
    digests["gate-gate"] = _run(
        ["gate", "--annotations", *labeled, "--out", str(gate / "gate")], gate / "gate", tmp)
    digests["gate-report-stats"] = _run(
        ["report", "--corpus", str(GOLDEN_CORPUS), "--stats", str(gate / "gate" / "stats.csv"),
         "--citations", str(tmp / "golden_citations.csv"), "--out", str(gate / "report"),
         "--which", "rates,slopes,selfcite,age,position,meso,top,impact"],  # all golden papers flag
        gate / "report", tmp)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("outputs"))


PINNED = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outputs_match_pinned_digests(digests, case):
    assert digests[case] == PINNED[case]


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        found = output_digests(Path(work))
    DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} digests to {DIGESTS}")

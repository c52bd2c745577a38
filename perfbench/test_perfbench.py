"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_small_run_prints_every_metric_with_its_unit(workload, trace, kind):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--scale", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def drop_last_match_row(out: Path) -> None:
    path = out / "matches.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def test_dropped_match_row_is_caught_and_counted():
    result, details = run.run("sparse", 5, 0.1, False, scale=0.1,
                              tamper=drop_last_match_row)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert any("matches.jsonl" in p for p in details["problems"])


def test_same_seed_regenerates_identical_corpora(tmp_path):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, tmp_path / "a", 11, 0.1)
        b = workloads.generate(name, tmp_path / "b", 11, 0.1)
        c = workloads.generate(name, tmp_path / "c", 12, 0.1)
        assert a.corpus.read_bytes() == b.corpus.read_bytes()
        assert a.corpus.read_bytes() != c.corpus.read_bytes()
        assert a.citances == c.citances  # the seed varies content, not size
        if a.citations is not None:
            assert a.citations.read_bytes() == b.citations.read_bytes()


def test_times_are_scaled_by_the_probes_around_their_round():
    ref = run.HOST_REFERENCE_S
    # Round 1 between probes ref and ref (reference speed); round 2 between
    # ref and 3 * ref (host twice as slow on average).
    probes = [ref, ref, 3 * ref]
    assert run.scaled([(1, 1.0), (2, 1.0), (2, 4.0)], probes) == pytest.approx([1.0, 0.5, 2.0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sparse", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

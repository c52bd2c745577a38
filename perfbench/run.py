"""citequery benchmark: seeded corpora through the real ``match`` and ``report``.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse|dense|rawtext --seed N \
        --seconds S --trace 0|1

Generates the workload's corpus from the seed, then for ``--seconds``
repeats one round of commands, each in a fresh interpreter with the
program's defaults: a set-up probe, ``citequery match`` and ``citequery
report``. A host-speed probe (calibrate.py) runs before every round and
after the last; each command's wall time is scaled by the host speed
measured around its round (see ``scaled``). Outputs are checked outside the timed region (see checks.py)
and must be byte-identical across rounds. With ``--trace 1`` the command
pair is then run once more under traced.py, which times each layer's
public functions, and the per-layer metrics are reported instead of the
end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 0 only when
every command succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 60.0

# Wall time of calibrate.py, spawn to exit, on the host the baseline was
# measured on (2-vCPU Xeon at 2.0 GHz, Python 3.11) in a fast phase. A
# reported time is the command's wall time times this over the probe's
# wall time measured around the command's round: the time the command
# would take on that host at that speed.
HOST_REFERENCE_S = 0.35
CALIBRATE = HERE / "calibrate.py"
# Set-up is short and jittery, so each round measures it several times.
SETUPS_PER_ROUND = 3

LAUNCH_CLI = "from citequery.cli import entrypoint; entrypoint()"
# What every command pays before it reads a corpus byte.
SETUP_PROBE = (
    "from citequery.cli import builtin_catalog, default_validated_set\n"
    "from citequery.engine import CatalogMatcher\n"
    "CatalogMatcher(builtin_catalog())\n"
    "default_validated_set(0.80)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s", "match_s": "s", "match_citances_per_s": "citances/s",
    "match_rss_mb": "MB", "report_s": "s", "report_rss_mb": "MB", "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "ingest.load_s": "s", "ingest.split_s": "s", "ingest.docs": "count",
    "ingest.bytes": "bytes", "ingest.errors": "count", "ingest.rss_mb": "MB",
    "tokens.extract_s": "s", "tokens.citances": "count", "tokens.words": "count",
    "engine.match_s": "s", "engine.citances_per_s": "citances/s",
    "engine.records": "count", "engine.matched_frac": "ratio", "engine.rss_mb": "MB",
    "catalog.build_s": "s", "catalog.validated_s": "s", "engine.compile_s": "s",
    "analytics.flag_s": "s", "analytics.rate_by_s": "s", "analytics.rate_by_calls": "count",
    "analytics.citations_read_s": "s", "analytics.impact_s": "s",
    "analytics.impact_calls": "count", "analytics.gap_s": "s", "analytics.other_s": "s",
    "analytics.report_frac": "ratio", "validation.sample_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "trace.overhead_s": "s",
}


@dataclass
class Finished:
    wall_s: float
    code: int | None  # None: killed at the timeout
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The caller's environment with the program's source on the path and
    no ambient thread cap, so children run the program's defaults."""
    env = dict(os.environ)
    env.pop("CITEQUERY_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log_dir: Path, env: dict[str, str]) -> Finished:
    """Run one command to completion; wall time from spawn to exit and the
    peak RSS of that child alone, from its own rusage."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    lock, state = threading.Lock(), {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT)

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - started
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        wall_s=wall,
        code=None if state["killed"] else proc.returncode,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, done: Finished, problems: list[str] = ()) -> bool:
        self.attempted += 1
        if done.code != 0:
            problems = [f"exit {done.code}: {done.stderr.strip()[-300:]}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the time of direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start - children)
    return totals


def durations(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_metrics(match: dict, report: dict, traced_match_s: float,
                  untraced_match_s: float, bytes_written: int) -> dict[str, float]:
    m_self, m_dur, mc = self_times(match["spans"]), durations(match["spans"]), match["counts"]
    r_self, r_dur, rc = self_times(report["spans"]), durations(report["spans"]), report["counts"]
    citances = mc.get("tokens.citances", 0)
    analytics = sum(v for k, v in r_self.items() if k.startswith("analytics."))
    return {
        "ingest.load_s": m_dur.get("ingest.load", 0.0),
        "ingest.split_s": m_dur.get("ingest.split", 0.0),
        "ingest.docs": mc.get("ingest.docs", 0),
        "ingest.bytes": mc.get("ingest.bytes", 0),
        "ingest.errors": mc.get("ingest.errors", 0),
        "ingest.rss_mb": mc.get("ingest.rss_mb", 0.0),
        "tokens.extract_s": m_dur.get("tokens.extract", 0.0),
        "tokens.citances": citances,
        "tokens.words": mc.get("tokens.words", 0),
        "engine.match_s": m_self.get("engine.run_all", 0.0),
        "engine.citances_per_s": citances / max(m_self.get("engine.run_all", 0.0), 1e-9),
        "engine.records": mc.get("engine.records", 0),
        "engine.matched_frac": mc.get("engine.matched", 0) / max(citances, 1),
        "engine.rss_mb": mc.get("engine.rss_mb", 0.0),
        "catalog.build_s": m_dur.get("catalog.build", 0.0),
        "catalog.validated_s": r_dur.get("catalog.validated", 0.0),
        "engine.compile_s": m_dur.get("engine.compile", 0.0),
        "analytics.flag_s": r_dur.get("analytics.flag", 0.0),
        "analytics.rate_by_s": r_dur.get("analytics.rate_by", 0.0),
        "analytics.rate_by_calls": rc.get("analytics.rate_by.calls", 0),
        "analytics.citations_read_s": r_dur.get("analytics.citations_read", 0.0),
        "analytics.impact_s": r_dur.get("analytics.impact", 0.0),
        "analytics.impact_calls": rc.get("analytics.impact.calls", 0),
        "analytics.gap_s": r_dur.get("analytics.gap", 0.0),
        "analytics.other_s": r_dur.get("analytics.other", 0.0),
        "analytics.report_frac": analytics / max(r_dur.get("cli.command", 0.0), 1e-9),
        "validation.sample_s": r_dur.get("validation.sample", 0.0),
        "cli.self_s": m_self.get("cli.command", 0.0),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": traced_match_s - untraced_match_s,
    }


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Self time per layer (span-name prefix) as a share of the command."""
    by_layer: dict[str, float] = {}
    for name, value in self_times(spans).items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    total = durations(spans).get("cli.command", 0.0) or 1.0
    return {k: round(v / total, 4) for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def scaled(samples: list[tuple[int, float]], probes: list[float]) -> list[float]:
    """Wall times at the reference host speed. Round r (from 1) lies between
    probes r - 1 and r; its host speed is the mean of the two."""
    return [wall * HOST_REFERENCE_S * 2 / (probes[r - 1] + probes[r]) for r, wall in samples]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return [round(v, 6) for v in statistics.quantiles(values, n=4)]


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        tamper=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details).

    ``tamper``, if given, is called with the match output directory after
    every match command, before its outputs are read (used by the
    self-tests to prove that corrupted outputs are caught).
    """
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, scale, tamper, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(workload, seed, seconds, trace, scale, tamper, work: Path):
    wl = workloads.generate(workload, work / "input", seed, scale)
    ref = checks.Reference(wl, seed, TESTS)
    env = child_env()
    logs = work / "logs"
    logs.mkdir()
    python = sys.executable
    tally = Tally()
    # Per metric: (round, value) of every command that passed.
    samples: dict[str, list[tuple[int, float]]] = {
        "setup_s": [], "match_s": [], "match_rss_mb": [], "report_s": [], "report_rss_mb": [],
    }
    probes: list[float] = []  # host-speed probe times, one before each round and one after
    first_outputs: dict[str, dict[str, bytes]] = {}
    match_flagged: dict[str, dict[str, int]] = {}  # empty until a match passed

    def check_match(files, done):
        problems = checks.check_match(files, done.stdout, done.stderr, ref)
        if not problems:
            match_flagged["by_field"] = checks.flagged_by_field(files, ref)
        return problems

    def check_report(files, done):
        return checks.check_report(files, done.stderr, ref, match_flagged.get("by_field"))

    def command(name: str, argv_for, check) -> None:
        out = work / name
        done = run_child([python, "-c", LAUNCH_CLI, *argv_for(out)], logs, env)
        if name == "match" and tamper is not None:
            tamper(out)
        problems = []
        if done.code == 0:
            files = checks.read_outputs(out)
            if name not in first_outputs:
                problems = check(files, done)
                first_outputs[name] = files
            elif files != first_outputs[name]:
                problems = ["outputs differ from the first round"]
        shutil.rmtree(out, ignore_errors=True)
        if tally.record(f"{name} round {rounds}", done, problems):
            samples[f"{name}_s"].append((rounds, done.wall_s))
            samples[f"{name}_rss_mb"].append((rounds, done.rss_mb))

    def probe() -> None:
        done = run_child([python, str(CALIBRATE)], logs, env)
        if tally.record("host-speed probe", done):
            probes.append(done.wall_s)

    # Untimed warm-up: the first interpreter compiles the package's bytecode.
    tally.record("warm-up", run_child([python, "-c", SETUP_PROBE], logs, env))

    started = time.perf_counter()
    rounds = 0
    # Start a round only when one more of average length still fits.
    while rounds == 0 or (time.perf_counter() - started) * (rounds + 1) / rounds <= seconds:
        probe()
        rounds += 1
        for _ in range(SETUPS_PER_ROUND):
            done = run_child([python, "-c", SETUP_PROBE], logs, env)
            if tally.record("setup", done):
                samples["setup_s"].append((rounds, done.wall_s))
        command("match", wl.match_args, check_match)
        command("report", wl.report_args, check_report)
    probe()
    measured_s = time.perf_counter() - started

    timings = ("setup_s", "match_s", "report_s")
    raw = {k: [v for _, v in samples[k]] for k in timings}
    details = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "measured_s": round(measured_s, 3), "citances": wl.citances,
        "corpus_bytes": wl.corpus_bytes,
        "samples": {k: len(samples[k]) for k in timings},
        "raw_quartiles": {k: quartiles(raw[k]) for k in timings if raw[k]},
        "probe_quartiles": quartiles(probes) if probes else [],
        # Every (round, wall time) and probe time, to re-check the scaling.
        "walls": {k: [(r, round(v, 6)) for r, v in samples[k]] for k in timings},
        "probes": [round(v, 6) for v in probes],
        "environment": environment(),
    }
    metrics: dict[str, float] = {}
    if all(samples.values()) and len(probes) == rounds + 1:
        metrics = {k: statistics.median(scaled(samples[k], probes) if k in timings
                                        else [v for _, v in samples[k]])
                   for k in samples}
        metrics["match_citances_per_s"] = wl.citances / metrics["match_s"]
        details["raw_medians"] = {k: statistics.median(raw[k]) for k in timings}

    units = END_TO_END_UNITS
    if trace:
        units = PER_LAYER_UNITS
        metrics = traced_metrics(wl, work, env, tally, first_outputs,
                                 details["raw_medians"]["match_s"], details) if metrics else {}
    metrics["ok_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    details["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0 and set(metrics) >= set(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return result, details


def traced_metrics(wl, work: Path, env, tally: Tally, first_outputs: dict,
                   untraced_match_s: float, details: dict) -> dict[str, float]:
    """Run match and report once each under traced.py; per-layer metrics."""
    traces = {}
    walls = {}
    for command, argv_for in (("match", wl.match_args), ("report", wl.report_args)):
        spans_path = work / f"spans_{command}.json"
        out = work / f"traced_{command}"
        done = run_child([sys.executable, str(HERE / "traced.py"), str(spans_path),
                          str(SRC), *argv_for(out)], work / "logs", env)
        problems = []
        if done.code == 0:
            if checks.read_outputs(out) != first_outputs[command]:
                problems = ["traced outputs differ from the untraced ones"]
        if not tally.record(f"traced {command}", done, problems):
            return {}
        traces[command] = json.loads(spans_path.read_text(encoding="utf-8"))
        walls[command] = done.wall_s
    details["layer_shares"] = {c: layer_shares(t["spans"]) for c, t in traces.items()}
    written = sum(len(b) for b in first_outputs["match"].values())
    return layer_metrics(traces["match"], traces["report"], walls["match"],
                         untraced_match_s, written)


def environment() -> dict:
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor (self-tests use small sizes)")
    args = parser.parse_args(argv)
    for needed in (SRC / "citequery" / "cli.py", TESTS / "naive_scanner.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

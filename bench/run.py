"""Benchmark of the ``bimotif`` command line, run from the repository root.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the real CLI as a cold child process, one command
at a time (a closed loop with one client; ensembles stay serial).  The
CLI receives only the files the seed generates; see ``inputs.py``.

``--trace 0`` measures the end-to-end metrics: the median of several
cold ``--version`` invocations (set-up), then the workload command
repeated, at least twice, until the next repetition would end after
``--seconds``.  ``--trace 1`` gives the per-layer metrics from one
untraced and one traced invocation (``traced.py``) plus a
``-X importtime`` child for the import layer.

Every invocation is checked; a non-zero exit or a failed check counts
as failed instead of aborting the run.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Inputs, outputs and spans go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import inputs

ROOT = inputs.ROOT
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 5
# Leaves room under the 180 s a run may take for writing the result.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    make_input: Callable[[int, Path], list]
    input_name: str
    flags: tuple[str, ...]
    runs: int = 0  # ensemble replicas in the command; 0 for analyze
    cc_display: Optional[list[str]] = None  # pinned global coefficients, when known


WORKLOADS = {
    # The paper's own use: ensemble-bound, census on a tiny graph per replica.
    "women-report": Workload(
        inputs.southern_women, "input.csv", ("report", "--runs", "2000"),
        runs=2000, cc_display=["0.4446", "0.6532", "0.5984", "0.5604"],
    ),
    # Kernel-bound: one census and one reference measure, no ensemble.
    "dense-analyze": Workload(inputs.dense_uniform, "input.tsv", ("analyze",)),
    # Degree swaps, hub-concentrated census, larger load and 1,000 scored nodes.
    "skewed-degree-report": Workload(
        inputs.skewed_degree, "input.tsv",
        ("report", "--null-model", "degree", "--runs", "20"), runs=20,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "replicas_per_s": "1/s",
    "configs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "graph.load_s": "s",
    "graph.edges": "count",
    "census.input_s": "s",
    "census.configs_c0": "count",
    "census.configs_c1": "count",
    "census.configs_c2": "count",
    "census.configs_per_s": "1/s",
    "census.replica_s_p50": "s",
    "census.replica_s_hi": "s",
    "census.opsahl_s": "s",
    "coefficients.s": "s",
    "coefficients.calls": "count",
    "null_model.ensemble_s": "s",
    "null_model.rewire_s_p50": "s",
    "null_model.self_s": "s",
    "null_model.edges_moved_frac": "ratio",
    "scoring.classify_s": "s",
    "scoring.nodes": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts one child at a time with a pinned environment and counts outcomes."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("PYTHON") and k != "BIMOTIF_THREADS"
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, args: list[str]) -> Child:
        """Run ``python ARGS`` from the repository root; wall time and peak RSS from wait4."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024,
                     out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def check(self, ok: bool, reason: str) -> bool:
        """Count one attempted invocation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def time_left(self) -> float:
        return self.deadline - perf_counter()


def check_report(report: Path, stats: dict, wl: Workload, reference: Optional[bytes]):
    """(raw bytes, parsed report, reason) of one invocation's report.json; reason "" when good."""
    try:
        raw = report.read_bytes()
        data = json.loads(raw)
    except (OSError, ValueError) as exc:
        return None, None, f"report.json unreadable: {exc}"
    if reference is not None and raw != reference:
        return raw, data, "report.json differs from the first invocation's"
    try:
        size = data["input"]
        sizes = (size["edge_count"], size["primary_count"], size["secondary_count"])
        cc_display = data["global"]["cc_display"]
        configurations(data)
    except (KeyError, IndexError, TypeError) as exc:
        return raw, data, f"report.json lacks {exc}"
    if sizes != (stats["edges"], stats["primary_nodes"], stats["secondary_nodes"]):
        return raw, data, f"input size in report.json {size} differs from the generated file"
    if wl.cc_display is not None and cc_display != wl.cc_display:
        return raw, data, f"global cc_display {cc_display} != {wl.cc_display}"
    return raw, data, ""


def run_workload(runner: Runner, wl: Workload, cli: list[str], out: Path, stats: dict,
                 reference: Optional[bytes]):
    """One cold invocation of the workload command: (child, raw report, parsed report, reason)."""
    (out / "report.json").unlink(missing_ok=True)
    child = runner.run(["-m", "bimotif.cli", *cli])
    if child.code != 0:
        return child, None, None, f"exit {child.code}: {child.stderr.strip()}"
    return (child, *check_report(out / "report.json", stats, wl, reference))


def configurations(data: dict) -> int:
    """Input-graph configurations of classes 0-2: denominators are (n0, n0+n1, n1+n2, n2)."""
    den = data["global"]["denominators"]
    return den[1] + den[3]


def measure_end_to_end(runner: Runner, wl: Workload, cli: list[str], work: Path,
                       stats: dict, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts, tracing off."""
    out = work / "out"
    setup = []
    for _ in range(SETUP_REPEATS):
        child = runner.run(["-m", "bimotif.cli", "--version"])
        if runner.check(child.code == 0 and child.stdout.startswith("bimotif "),
                        f"--version exited {child.code}: {child.stderr.strip()}"):
            setup.append(child.wall_s)

    walls, rss, reference, data = [], [], None, None
    started = perf_counter()
    tries = 0
    while runner.time_left() > 0 and (
        tries < 2 or (walls and perf_counter() - started + statistics.median(walls) <= seconds)
    ):
        tries += 1
        child, raw, parsed, reason = run_workload(runner, wl, cli, out, stats, reference)
        if runner.check(not reason, reason):
            reference, data = reference or raw, parsed
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
    if not setup or not walls:
        raise SystemExit(f"bench: no successful invocation: {runner.reasons}")

    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        # graphs censused per second: the input graph plus every ensemble replica
        "replicas_per_s": (wl.runs + 1) / wall,
        "configs_per_s": configurations(data) / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    counts = {k: len(walls) for k in metrics}
    counts["setup_s"] = len(setup)
    return metrics, counts


def _is_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def parse_importtime(text: str) -> tuple[float, float]:
    """(bimotif.cli import, outermost scipy imports) in seconds, from ``-X importtime``.

    Lines come children first, indented two spaces per level; walking
    them backwards visits every parent before its children.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative) / 1e6, name.strip()))
    total = sum(c for d, c, n in entries if d == 0 and _is_package(n, "bimotif"))
    scipy = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) of the open ancestors
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = _is_package(name, "scipy")
        if mine and not inside:
            scipy += cumulative
        stack.append((depth, inside or mine))
    return total, scipy


def high_percentile(values: list[float]) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples above it, else p50."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in (999, 990, 900):
        i = per_mille * n // 1000
        if n - 1 - i >= 10:
            return ordered[i]
    return ordered[n // 2]


def layer_metrics(spans: list[dict], facts: dict) -> dict:
    """Per-layer metrics from the traced run's spans; 0 for a layer the command never calls."""
    by_name: dict[str, list[dict]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]

    def durations(*names):
        return [s["dur"] for n in names for s in by_name.get(n, [])]

    def self_time(name):
        return sum(s["dur"] - child_time.get(s["id"], 0.0) for s in by_name.get(name, []))

    def median(values):
        return statistics.median(values) if values else 0.0

    coefficient_calls = durations("cli.global_profile", "cli.local_profile",
                                  "null_model.global_profile")
    replicas = durations("null_model.census")
    c0, c1, c2 = facts["config_totals"]
    census_input = sum(durations("cli.census"))
    moved = facts["edges_moved"]
    return {
        "graph.load_s": sum(durations("cli.load_graph")),
        "graph.edges": facts["edges"],
        "census.input_s": census_input,
        "census.configs_c0": c0,
        "census.configs_c1": c1,
        "census.configs_c2": c2,
        "census.configs_per_s": (c0 + c1 + c2) / census_input,
        "census.replica_s_p50": median(replicas),
        "census.replica_s_hi": high_percentile(replicas) if replicas else 0.0,
        "census.opsahl_s": sum(durations("cli.opsahl")),
        "coefficients.s": sum(coefficient_calls),
        "coefficients.calls": len(coefficient_calls),
        "null_model.ensemble_s": sum(durations("cli.run_ensemble")),
        "null_model.rewire_s_p50": median(durations("null_model.density_rewire",
                                                    "null_model.randomize")),
        "null_model.self_s": self_time("cli.run_ensemble"),
        "null_model.edges_moved_frac": sum(moved) / len(moved) if moved else 0.0,
        "scoring.classify_s": sum(durations("cli.classify")),
        "scoring.nodes": facts["scored_nodes"],
        "cli.self_s": self_time("cli.main"),
    }


def main_adds_up(spans: list[dict], cli_self_s: float) -> bool:
    """Main's direct children run one after another inside it and, with ``cli.self_s``, sum to it."""
    (main,) = [s for s in spans if s["name"] == "cli.main"]
    children = sorted((s for s in spans if s["parent"] == main["id"]), key=lambda s: s["start"])
    edge = main["start"]
    for s in children:
        if s["start"] < edge or s["end"] > main["end"]:
            return False
        edge = s["end"]
    covered = sum(s["end"] - s["start"] for s in children)
    return abs(covered + cli_self_s - (main["end"] - main["start"])) < 1e-9


def measure_layers(runner: Runner, wl: Workload, cli: list[str], work: Path,
                   stats: dict) -> tuple[dict, dict]:
    """Per-layer metrics from an importtime child, an untraced and a traced invocation."""
    out = work / "out"
    child = runner.run(["-X", "importtime", "-c", "import bimotif.cli"])
    if not runner.check(child.code == 0, f"importtime child exited {child.code}"):
        raise SystemExit(f"bench: {runner.reasons}")
    import_total, import_scipy = parse_importtime(child.stderr)

    untraced, reference, _, reason = run_workload(runner, wl, cli, out, stats, None)
    runner.check(not reason, reason)
    if reference is None:
        raise SystemExit(f"bench: untraced invocation failed: {reason}")

    spans_file, facts_file = work / "spans.jsonl", work / "facts.json"
    (out / "report.json").unlink()
    traced = runner.run([str(BENCH_DIR / "traced.py"), str(spans_file), str(facts_file),
                         "--", *cli])
    if traced.code != 0:
        runner.check(False, f"traced run exited {traced.code}")
        raise SystemExit(f"bench: traced run exited {traced.code}: {traced.stderr.strip()}")
    facts = json.loads(facts_file.read_text())
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    layers = layer_metrics(spans, facts)
    _, _, reason = check_report(out / "report.json", stats, wl, reference)
    reasons = [reason] if reason else []
    reasons += [f"traced run check {key} failed" for key in
                ("restored", "opsahl_matches_census", "cli_matches_fresh_census")
                if not facts[key]]
    if not main_adds_up(spans, layers["cli.self_s"]):
        reasons.append("main span is not its children plus cli.self_s")
    runner.check(not reasons, "; ".join(reasons))

    metrics = {"import.total_s": import_total, "import.scipy_s": import_scipy, **layers}
    metrics["cli.bytes_out"] = sum(f.stat().st_size for f in out.iterdir())
    metrics["trace.overhead_s"] = traced.wall_s - facts["after_main_s"] - untraced.wall_s
    counts = {k: 1 for k in metrics}
    counts["census.replica_s_p50"] = counts["census.replica_s_hi"] = wl.runs
    counts["null_model.rewire_s_p50"] = counts["null_model.edges_moved_frac"] = wl.runs
    return metrics, counts


def prepare(name: str, wl: Workload, seed: int) -> tuple[Path, dict, list[str]]:
    """Fresh work directory, the generated input's description, and the ``bimotif`` arguments.

    Paths are relative to the repository root because report.json
    echoes them, and repetitions must produce identical bytes.
    """
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    input_path = work / wl.input_name
    stats = inputs.describe(input_path, wl.make_input(seed, input_path))
    cli = [*wl.flags,
           "--input", str(input_path.relative_to(ROOT)),
           "--out", str((work / "out").relative_to(ROOT))]
    if wl.runs:
        cli += ["--seed", str(seed)]
    return work, stats, cli


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the bimotif command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time for --trace 0 (at least two invocations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "bimotif" / "cli.py").is_file():
        print(f"bench: no bimotif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work, stats, cli = prepare(args.workload, wl, args.seed)
    runner = Runner(work, perf_counter() + RUN_DEADLINE_S)
    runner.run(["-m", "bimotif.cli", "--version"])  # untimed: fills the bytecode cache
    if args.trace:
        metrics, counts = measure_layers(runner, wl, cli, work, stats)
        units = PER_LAYER
    else:
        metrics, counts = measure_end_to_end(runner, wl, cli, work, stats, args.seconds)
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"input {json.dumps(stats)}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit:<6} n={counts[name]}")
    print(f"  {'failed_frac':<28} {runner.failed / runner.attempted:>16.6g} ratio  "
          f"n={runner.attempted}")
    for reason in runner.reasons:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

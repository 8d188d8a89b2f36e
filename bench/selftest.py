"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

They run the CLI on the bundled 18x14 network with a 20-replica
ensemble, so they take about half a minute, and are named so that
the package's own pytest run does not collect them.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402

SMALL = run.Workload(
    inputs.southern_women, "input.csv", ("report", "--runs", "20"), runs=20,
    cc_display=run.WORKLOADS["women-report"].cc_display,
)


class Generators(unittest.TestCase):
    def test_deterministic_per_seed_with_exact_size(self):
        work = run.WORK / "selftest-inputs"
        work.mkdir(parents=True, exist_ok=True)
        cases = (
            (inputs.dense_uniform, inputs.DENSE_EDGES, inputs.DENSE_SIDE, inputs.DENSE_SIDE),
            (inputs.skewed_degree, inputs.SKEWED_EDGES, inputs.SKEWED_PRIMARY,
             inputs.SKEWED_SECONDARY),
        )
        for make, edges, primary, secondary in cases:
            described = []
            for seed in (1, 1, 2):
                path = work / f"{make.__name__}-{len(described)}.tsv"
                described.append(inputs.describe(path, make(seed, path)))
            first, again, other = described
            self.assertEqual(first, again)
            self.assertNotEqual(first["sha256"], other["sha256"])
            for d in described:
                self.assertEqual(d["edges"], edges)
                self.assertEqual((d["primary_nodes"], d["secondary_nodes"]), (primary, secondary))

    def test_skewed_secondary_degrees_follow_the_quota(self):
        path = run.WORK / "selftest-inputs" / "skewed.tsv"
        path.parent.mkdir(parents=True, exist_ok=True)
        degree: dict[str, int] = {}
        for _, s in inputs.skewed_degree(3, path):
            degree[s] = degree.get(s, 0) + 1
        quota = inputs.skewed_degree_quota()
        self.assertEqual(sum(quota), inputs.SKEWED_EDGES)
        self.assertEqual([degree[f"s{j}"] for j in range(inputs.SKEWED_SECONDARY)], quota)


class Measurement(unittest.TestCase):
    def setUp(self):
        self.work, self.stats, self.cli = run.prepare("selftest", SMALL, 5)
        self.runner = run.Runner(self.work, perf_counter() + run.RUN_DEADLINE_S)

    def test_end_to_end_metrics_are_those_declared(self):
        metrics, counts = run.measure_end_to_end(
            self.runner, SMALL, self.cli, self.work, self.stats, seconds=0)
        self.assertEqual(self.runner.failed, 0, self.runner.reasons)
        self.assertEqual(set(metrics), set(run.END_TO_END))
        self.assertEqual(counts["wall_s"], 2)
        self.assertTrue(all(v > 0 for v in metrics.values()))

    def test_traced_run_matches_untraced_bytes_and_declared_metrics(self):
        # measure_layers fails the run unless the traced report.json is
        # byte-identical to the untraced one and every cross-check holds.
        metrics, _ = run.measure_layers(self.runner, SMALL, self.cli, self.work, self.stats)
        self.assertEqual(self.runner.failed, 0, self.runner.reasons)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertGreater(metrics["import.scipy_s"], 0)
        self.assertLessEqual(metrics["import.scipy_s"], metrics["import.total_s"])
        self.assertEqual(metrics["coefficients.calls"], 1 + self.stats["primary_nodes"] + 20)
        spans = [json.loads(line) for line in (self.work / "spans.jsonl").read_text().splitlines()]
        self.assertTrue(run.main_adds_up(spans, metrics["cli.self_s"]))
        self.assertFalse(run.main_adds_up(spans, metrics["cli.self_s"] + 1e-3))
        self.assertEqual(sum(s["name"] == "null_model.census" for s in spans), 20)

    def test_failed_checks_are_reported(self):
        child, raw, _, reason = run.run_workload(self.runner, SMALL, self.cli,
                                                 self.work / "out", self.stats, None)
        self.assertEqual((child.code, reason), (0, ""))
        _, _, reason = run.check_report(self.work / "out" / "report.json", self.stats,
                                        SMALL, raw + b" ")
        self.assertIn("differs", reason)
        wrong = run.Workload(SMALL.make_input, SMALL.input_name, SMALL.flags,
                             runs=20, cc_display=["0", "0", "0", "0"])
        _, _, reason = run.check_report(self.work / "out" / "report.json", self.stats,
                                        wrong, None)
        self.assertIn("cc_display", reason)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_every_printed_metric_and_workload(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_high_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.high_percentile(list(range(2000))), 1980)
        self.assertEqual(run.high_percentile(list(range(110))), 99)
        self.assertEqual(run.high_percentile(list(range(100))), 50)
        self.assertEqual(run.high_percentile(list(range(20))), 10)

    def test_importtime_parsing(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         scipy._lib",
            "import time:       200 |        200 |         numpy",
            "import time:       300 |        600 |       scipy.stats",
            "import time:        50 |        650 |     bimotif.null_model",
            "import time:        10 |        660 |   bimotif",
            "import time:        40 |        700 | bimotif.cli",
            "import time:        99 |         99 | site",
        ])
        self.assertEqual(run.parse_importtime(text), (700 / 1e6, 600 / 1e6))


if __name__ == "__main__":
    unittest.main()

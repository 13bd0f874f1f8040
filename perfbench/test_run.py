"""Tests of the benchmark's own code: statistics, the tail-percentile
rule, the golden vote, the per-pass checks and the metric names.

    python3 perfbench/test_run.py

The per-workload unit counts (116 / 396 / 24) are tested on the worker:
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.median(xs), 3.0)
        self.assertEqual(run.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        q1, q2, q3 = run.quartiles(xs)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(xs, n=4)))
        self.assertEqual((q1, q2, q3), (1.5, 3.0, 4.5))

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_nearest_rank_percentile(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(xs, 50), 50.0)
        self.assertEqual(run.percentile(xs, 90), 90.0)
        self.assertEqual(run.percentile([3.0], 90), 3.0)


class TailRule(unittest.TestCase):
    def test_p90_needs_ten_beyond(self):
        # 100 samples: rank 90, ten samples beyond it.
        self.assertEqual(run.beyond(100, 90), 10)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 90)

    def test_highest_percentile_below_p90(self):
        # 99 samples: p90 has 9 beyond; p89 has 10.
        self.assertEqual(run.beyond(99, 90), 9)
        self.assertEqual(run.tail_percentile(99), 89)
        # 24 samples (one fleet pass): p58 is the highest with ten beyond.
        self.assertEqual(run.tail_percentile(24), 58)
        self.assertGreaterEqual(run.beyond(24, 58), 10)
        self.assertLess(run.beyond(24, 59), 10)

    def test_unresolved_when_too_few(self):
        self.assertIsNone(run.tail_percentile(10))
        self.assertIsNone(run.tail_percentile(1))

    def test_unresolved_p90_is_reported_as_such(self):
        rusage = type("R", (), {"ru_utime": 1.0, "ru_stime": 0.5, "ru_maxrss": 2048})
        units = [{"ms": float(i)} for i in range(50)]
        passes = [({"boot_s": 0.1, "units": units}, 2.0, rusage)]
        e2e = run.end_to_end(passes)
        value, detail = e2e["unit_p90_ms"]
        self.assertIn("UNRESOLVED", detail)
        self.assertEqual(value, 49.0)
        self.assertEqual(e2e["wall_s"][0], 2.0)
        self.assertEqual(e2e["cpu_s"][0], 1.5)
        self.assertEqual(e2e["peak_rss_mb"][0], 2.0)


class GoldenVote(unittest.TestCase):
    def unit(self, name, experiment, leaks, mechanism="raw"):
        return {"name": name, "experiment": experiment, "platform": "haswell",
                "channel": "cloud" if experiment == "cloud" else "L1-D",
                "mechanism": mechanism, "leaks": leaks}

    def test_cells_and_cloud_votes(self):
        goldens = {("l1d", "haswell", "L1-D", "raw"): "leak",
                   ("cloud", "haswell", "cloud", "raw"): "leak"}
        units = [self.unit("a", "l1d", True),
                 self.unit("s0", "cloud", True), self.unit("s1", "cloud", False),
                 self.unit("s2", "cloud", True)]
        self.assertEqual(run.golden_mismatches(units, goldens), set())
        units[0]["leaks"] = False
        units[3]["leaks"] = False
        self.assertEqual(run.golden_mismatches(units, goldens), {"a", "s0", "s1", "s2"})

    def test_unpinned_cell_is_a_mismatch(self):
        self.assertEqual(run.golden_mismatches([self.unit("x", "l1d", True)], {}), {"x"})


class CheckPass(unittest.TestCase):
    def record(self, seed, digest, leaks):
        return {"seed": seed, "units": [
            {"name": "a", "experiment": "l1d", "platform": "haswell", "channel": "L1-D",
             "mechanism": "raw", "leaks": leaks, "digest": digest, "error": None}]}

    def test_reference_of_the_pass_input_set(self):
        refs = {str(k): [f"d{k}"] for k in range(run.INPUT_SETS)}
        self.assertEqual(run.check_pass(self.record(3, "d3", True), refs, None)[:2], (1, 0))
        self.assertEqual(run.check_pass(self.record(11, "d3", True), refs, None)[:2], (1, 0))
        self.assertEqual(run.check_pass(self.record(4, "d3", True), refs, None)[:2], (1, 1))
        self.assertEqual(run.check_pass(None, refs, None)[:2], (1, 1))

    def test_goldens_apply_on_the_campaign_set_only(self):
        refs = {str(k): ["d"] for k in range(run.INPUT_SETS)}
        goldens = {("l1d", "haswell", "L1-D", "raw"): "leak"}
        self.assertEqual(run.check_pass(self.record(run.DEFAULT_SEED, "d", False), refs, goldens)[:2], (1, 1))
        self.assertEqual(run.check_pass(self.record(run.DEFAULT_SEED + 1, "d", False), refs, goldens)[:2], (1, 0))
        self.assertEqual(run.check_pass(self.record(run.DEFAULT_SEED, "d", True), refs, goldens)[:2], (1, 0))


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [n for n, _, _ in run.END_TO_END] + [n for n, _, _, _ in run.PER_LAYER]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_the_script_prints(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         [(n, u) for n, u, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in run.PER_LAYER])
        # `fleet` runs from the command line but is not in the benchmark
        # the bounds apply to (see README.md).
        self.assertEqual([w["name"] for w in self.spec["workloads"]], ["channels", "splash"])

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()

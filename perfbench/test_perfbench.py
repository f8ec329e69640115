"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, ops_for  # noqa: E402

with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# deg > N: the finitized sum is only claimed through q^N, and at the seed
# commit this command exits 1 with a failed case.
NEGATIVE_CONTROL = ["verify", "abf", "--k", "2", "--m", "8", "--qmax", "15"]


class TestGate(unittest.TestCase):
    def test_negative_control_is_counted_as_failed(self):
        rep = run.spawn([NEGATIVE_CONTROL, ["verify", "pmn"]], DIGESTS, False)
        self.assertEqual(run.tally([rep]), (2, 1))
        self.assertIn("exit status 1", rep["ops"][0]["failure"])
        self.assertIsNone(rep["ops"][1]["failure"])

    def test_changed_stdout_is_counted_as_failed(self):
        wrong = {"verify pmn": "0" * 64}
        rep = run.spawn([["verify", "pmn"]], wrong, False)
        self.assertIn("sha256", rep["ops"][0]["failure"])

    def test_usage_error_is_counted_as_failed(self):
        rep = run.spawn([["verify", "nosuchsuite"]], {}, False)
        self.assertIn("SystemExit(2)", rep["ops"][0]["failure"])

    def test_every_default_seed_op_has_a_recorded_digest(self):
        for workload in WORKLOADS:
            for argv in ops_for(workload, DEFAULT_SEED):
                self.assertIn(" ".join(argv), DIGESTS)


class TestWorkloads(unittest.TestCase):
    def test_same_seed_same_ops_other_seed_other_extras(self):
        for workload in WORKLOADS:
            self.assertEqual(ops_for(workload, 7), ops_for(workload, 7))
            self.assertNotEqual(ops_for(workload, 7), ops_for(workload, 8))

    def test_abf_extras_stay_within_the_claimed_degree(self):
        for seed in range(200):
            for argv in ops_for("finitized", seed):
                if argv[:2] == ["verify", "abf"] and "--m" in argv:
                    n = int(argv[argv.index("--m") + 1])
                    deg = int(argv[argv.index("--qmax") + 1])
                    self.assertLessEqual(deg, n)


class TestMetrics(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
        self.assertEqual(layer, [(n, run._unit(n)) for n in run.per_layer_names()])
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(WORKLOADS))

    def test_each_op_is_scaled_by_the_calibrations_around_it(self):
        rep = run.spawn([["verify", "pmn"], ["verify", "tau"]], DIGESTS, False)
        cals = rep["cals"]
        self.assertEqual(len(cals), 3)
        for op, ref, before, after in zip(rep["ops"], rep["ref_ops"], cals,
                                          cals[1:]):
            self.assertAlmostEqual(
                ref, op["seconds"] * run.REF_CAL_S / ((before + after) / 2))

    def test_self_times_add_up_to_the_op(self):
        rep = run.spawn([["verify", "pmn"]], DIGESTS, True)
        totals = rep["trace"]["totals"]
        self.assertIsNone(rep["ops"][0]["failure"])
        self.assertGreater(totals["qcore.q_binomial"]["calls"], 0)
        self.assertGreater(totals["fusionchar.verify_pmn"]["self_s"], 0)
        self.assertAlmostEqual(sum(row["self_s"] for row in totals.values()),
                               totals["op"]["total_s"], places=6)
        figures = run.layer_figures(rep)
        self.assertEqual(sorted(figures), sorted(
            n for n in run.per_layer_names() if n != "trace.overhead_share"))


class TestCommand(unittest.TestCase):
    def test_exits_nonzero_without_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paths",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

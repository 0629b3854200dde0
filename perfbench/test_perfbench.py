#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver (as run.py does), then checks that every workload
passes all its output checks on run.py's default seed and on one other
seed, that a traced run reproduces the untraced run's behaviour exactly,
and that the leaf-PC attribution puts each workload's time in the layer
the workload was built to load (a broken symbolizer or a workload that
drifted from its purpose fails here). Takes about a minute.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

DEFAULT_SEED = 1
OTHER_SEED = 7


def ranked_layers(record):
    """Sampled layers, most samples first."""
    layers = record["sample_layers"]
    return sorted(layers, key=lambda name: -layers[name])


class OutputChecks(unittest.TestCase):
    def test_every_workload_passes_its_checks_on_two_seeds(self):
        for workload in run.WORKLOADS:
            for seed in (DEFAULT_SEED, OTHER_SEED):
                with self.subTest(workload=workload, seed=seed):
                    record = run.run_driver(workload, seed, traced=False)
                    self.assertTrue(record["correct"], record["checks_failed"])
                    self.assertEqual(record["failed"], 0)
                    # p99 has at least ten samples beyond it.
                    self.assertGreaterEqual(record["latency_samples"], 1000)

    def test_seeds_change_the_inputs(self):
        a = run.run_driver("blackout", DEFAULT_SEED, traced=False)
        b = run.run_driver("blackout", OTHER_SEED, traced=False)
        self.assertNotEqual(a["digest"], b["digest"])


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {
            w: (run.run_driver(w, DEFAULT_SEED, traced=False),
                run.run_driver(w, DEFAULT_SEED, traced=True))
            for w in run.WORKLOADS
        }

    def test_tracing_does_not_perturb_the_simulation(self):
        for workload, (plain, traced) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertTrue(traced["correct"], traced["checks_failed"])
                self.assertEqual(plain["events"], traced["events"])
                self.assertEqual(plain["digest"], traced["digest"])

    def test_sampler_collects_thousands_of_samples(self):
        for workload, (_, traced) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertGreaterEqual(traced["samples"], 1000)

    def test_scoring_time_is_in_the_rank_kernels(self):
        _, traced = self.runs["scoring"]
        self.assertEqual(ranked_layers(traced)[0], "rank.kernels_s")

    def test_frontier_time_is_in_the_cost_model_and_kernel(self):
        _, traced = self.runs["frontier"]
        self.assertEqual(set(ranked_layers(traced)[:2]),
                         {"rank.cost_model_s", "sim.kernel_s"})

    def test_blackout_loads_kernel_front_door_group_and_mgmt(self):
        _, traced = self.runs["blackout"]
        self.assertEqual(ranked_layers(traced)[0], "sim.kernel_s")
        for layer in ("service.front_s", "sim.group_s", "mgmt.self_s"):
            self.assertGreater(traced["sample_layers"][layer], 0, layer)

    def test_observability_plane_stays_off(self):
        for workload, (_, traced) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertLess(traced["sample_layers"]["obs.self_s"],
                                0.01 * traced["samples"])


if __name__ == "__main__":
    run.build()
    unittest.main()

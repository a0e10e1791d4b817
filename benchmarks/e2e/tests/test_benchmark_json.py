import json
import unittest

import run
import workloads


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json and the harness must name the same things."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_end_to_end_metrics_match(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.E2E_UNITS)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_per_layer_metrics_match(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.LAYER_UNITS)

    def test_default_run_length_is_the_benchmarks(self):
        self.assertEqual(self.spec["run_seconds"], run.DEFAULT_SECONDS)


class PlanTest(unittest.TestCase):
    def test_plans_are_round_robin_with_consistent_steps(self):
        for w in workloads.WORKLOADS.values():
            plan = workloads.make_plan(w, 2)
            step = [0] * w.sessions
            for op in plan.ops():
                self.assertEqual(op.link, op.session % w.connections)
                if op.kind == "feed":
                    self.assertEqual(op.start, step[op.session])
                    step[op.session] = op.step
                self.assertEqual(op.step, step[op.session])
            self.assertEqual(set(step), {plan.steps_per_session})

    def test_reads_ride_behind_their_feed(self):
        w = workloads.WORKLOADS["durable_mixed"]
        ops = workloads.make_plan(w, 10).ops()
        for before, op in zip(ops, ops[1:]):
            if op.kind != "feed":  # right behind its feed, or its feed's query
                self.assertEqual(before.session, op.session)
                self.assertEqual(before.step, op.step)
        kinds = {op.kind for op in ops}
        self.assertEqual(kinds, {"feed", "query", "snapshot"})


if __name__ == "__main__":
    unittest.main()

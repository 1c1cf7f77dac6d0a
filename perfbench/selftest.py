"""Self-test of the benchmark: its correctness checks reject corrupted
outputs, a rejected op counts as failed, the tracer attributes work to
the right layers, and BENCHMARK.json names the metrics the code reports.

    python3 perfbench/selftest.py
"""

import copy
import json
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rrteig import assembly, cli, eigensolve  # noqa: E402
from rrteig.errors import KTooLarge  # noqa: E402


class Fixed:
    """A workload whose op returns a given output, checked by ``base``."""

    def __init__(self, base, output):
        self.base, self.output = base, output

    def op(self):
        return self.output

    def check(self, output):
        return self.base.check(output)


class SweepCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.sweep = workloads.Sweep(("c",), cls.tmp.name, levels=3)
        cls.output = cls.sweep.op()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_paper_tables_pass(self):
        self.assertEqual(self.sweep.check(self.output), [])

    def test_corrupt_eigenvalue_counts_op_as_failed(self):
        name, report, files = self.output[0]
        bad = copy.deepcopy(report)
        bad.levels[2]["lambdas"][0] += 1e-3
        res = run.measure(Fixed(self.sweep, [(name, bad, files)]), 0.0,
                          lambda: 0.1)
        self.assertEqual(len(res["plain"]), 1)
        self.assertEqual(len(res["problems"]), 1)
        self.assertIn("lambda_1", res["problems"][0]["problems"][0])

    def test_corrupt_emitted_table_fails(self):
        name, report, files = self.output[0]
        table = next(p for p in files if p.endswith("_eigenvalues.txt"))
        with open(table, encoding="utf-8") as f:
            text = f.read()
        bad = os.path.join(self.tmp.name, "bad", os.path.basename(table))
        os.makedirs(os.path.dirname(bad))
        with open(bad, "w", encoding="utf-8") as f:
            f.write(text.replace("5.0395", "5.0396"))
        problems = self.sweep.check([(name, report, [bad])])
        self.assertEqual(len(problems), 2)  # lambda_2 and lambda_3 rows

    def test_missing_level_fails(self):
        name, report, files = self.output[0]
        bad = copy.deepcopy(report)
        del bad.levels[-1]
        self.assertEqual(self.sweep.check([(name, bad, files)]),
                         ["case c: missing or failed levels"])

    def test_failed_level_fails(self):
        name, report, files = self.output[0]
        bad = copy.deepcopy(report)
        bad.levels[3] = {"level": 3, "failed": True}
        self.assertNotEqual(self.sweep.check([(name, bad, files)]), [])


class SolveLargeCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.solve = workloads.SolveLarge(seed=3, n=24)
        cls.lambdas = cls.solve.op()

    def test_random_mesh_ratio(self):
        for nodes in (self.solve.mesh.node_x, self.solve.mesh.node_y):
            h = nodes[1:] - nodes[:-1]
            self.assertLess(h.max() / h.min(), 4.0)
            self.assertEqual((nodes[0], nodes[-1]), (0.0, workloads.np.pi))

    def test_oracle_agrees(self):
        self.assertEqual(self.solve.check(self.lambdas), [])

    def test_corrupt_eigenvalue_counts_op_as_failed(self):
        bad = list(self.lambdas)
        bad[3] *= 1.0 + 1e-9
        res = run.measure(Fixed(self.solve, bad), 0.0, lambda: 0.1)
        self.assertEqual(len(res["problems"]), 1)
        self.assertIn("lambda_4", res["problems"][0]["problems"][0])

    def test_below_exact_fails(self):
        exact = workloads.exact_square_eigs(6)
        self.assertEqual(exact, [2, 5, 5, 8, 10, 10])
        problems = workloads.check_against_oracle(
            [1.999] + exact[1:], [1.999] + exact[1:], exact)
        self.assertEqual(problems, ["lambda_1 = 1.999 below exact 2"])


class TracerTest(unittest.TestCase):
    def test_layers_counts_and_restore(self):
        original = cli.run_case
        solve = workloads.SolveLarge(seed=5, n=24)
        tracer = spans.Tracer()
        with tracer.active(0):
            self.assertIsNot(cli.run_case, original)
            solve.op()
        self.assertIs(cli.run_case, original)
        m = tracer.op_metrics(0)
        self.assertEqual(m["eigensolve.calls"], 1)
        self.assertEqual(m["eigensolve.cells"], 24 * 24)
        self.assertEqual(m["eigensolve.factor_calls"], 2)  # saddle, then A
        self.assertEqual(m["eigensolve.iterate_calls"], 1)
        self.assertGreater(m["eigensolve.matvecs"], 6)
        self.assertGreater(m["eigensolve.factor_nnz"], 0)
        self.assertGreaterEqual(m["eigensolve.self_s"],
                                m["eigensolve.factor_s"]
                                + m["eigensolve.iterate_s"])
        self.assertEqual(m["postprocess.calls"], 0)
        self.assertEqual(m["cli.calls"], 0)

    def test_errors_leaving_a_layer(self):
        solve = workloads.SolveLarge(seed=5, n=4)
        tracer = spans.Tracer()
        with tracer.active(7):
            system = assembly.assemble_mixed(solve.mesh)
            with self.assertRaises(KTooLarge):
                eigensolve.solve_mixed_eigs(system,
                                            eigensolve.SolveOptions(k=17))
        m = tracer.op_metrics(7)
        self.assertEqual(m["eigensolve.errors"], 1)
        self.assertEqual(m["assembly.errors"], 0)


class HostSpeedTest(unittest.TestCase):
    def test_calibration_around_every_op(self):
        times = iter([0.1, 0.2, 0.3])
        res = run.measure(Fixed(workloads.SolveLarge(seed=5, n=4), None),
                          0.0, lambda: next(times), spans.Tracer())
        # one op and one traced op: kernel before, after each
        self.assertEqual(res["calibration"], [0.1, 0.2, 0.3])
        self.assertEqual((len(res["plain"]), len(res["traced"])), (1, 1))

    def test_long_op_gets_more_calibration(self):
        class Slow:
            def op(self):
                time.sleep(0.1)

            def check(self, output):
                return []

        res = run.measure(Slow(), 0.0, lambda: 0.001)
        # one kernel before the op, then >= 10% of its 0.1 s in kernels
        self.assertGreaterEqual(len(res["calibration"]), 1 + 10)

    def test_scale_to_reference_speed(self):
        ref = hostspeed.REF_S
        self.assertAlmostEqual(hostspeed.scale(3.0, [ref, ref]), 3.0)
        self.assertAlmostEqual(hostspeed.scale(3.0, [ref, 3 * ref]), 1.5)

    def test_kernel_runs(self):
        self.assertGreater(hostspeed.Calibration()(), 0.0)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"op_s", "setup_s", "peak_rss_mb"})
        want = spans.layer_metric_names() + [("trace.overhead_ratio",
                                              "ratio")]
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         want)


if __name__ == "__main__":
    unittest.main()

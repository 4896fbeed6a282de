"""Fast self-test of the benchmark's plumbing (no workload is run).

    python3 -m pytest -q benchmarks/test_plumbing.py
"""

import json
import os
import signal
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class SelfTime(unittest.TestCase):
    # x.A [0, 10] holds y.B [1, 4] (which holds z.C [2, 3]) and y.B [5, 9]
    NAMES = ["x.A", "y.B", "z.C"]
    SPANS = dict(name_id=[0, 1, 2, 1], parent=[-1, 0, 1, 0],
                 start=[0.0, 1.0, 2.0, 5.0], end=[10.0, 4.0, 3.0, 9.0])

    def setUp(self):
        self.t = tracing.SpanTable(self.NAMES, **self.SPANS)

    def test_self_time_subtracts_direct_children(self):
        np.testing.assert_allclose(self.t.self_time, [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(self.t.self_s("y.B"), 6.0)
        self.assertEqual(self.t.s("y.B"), 7.0)
        self.assertEqual(self.t.n("y.B"), 2)
        self.assertEqual(self.t.n("missing"), 0)

    def test_descendant_counts(self):
        self.assertEqual(self.t.under(("z.C",), "x.A"), 1)
        self.assertEqual(self.t.under(("y.B",), "x.A"), 2)
        self.assertEqual(self.t.under(("x.A",), "y.B"), 0)

    def test_layer_busy_counts_outermost_spans_once(self):
        t = tracing.SpanTable(["x.A", "x.B"], name_id=[0, 1], parent=[-1, 0],
                              start=[0.0, 1.0], end=[5.0, 2.0])
        self.assertEqual(t.layer_busy["x"], 5.0)
        self.assertEqual(t.layer_self["x"], 5.0)
        self.assertEqual(t.layer_calls["x"], 2)

    def test_recorded_spans_nest(self):
        tracer = tracing.Tracer()
        with tracer.span("a.outer"):
            with tracer.span("b.inner"):
                pass
        t = tracing.SpanTable.of(tracer)
        self.assertEqual(list(tracer.parent), [-1, 0])
        self.assertAlmostEqual(t.s("a.outer"), t.self_s("a.outer") + t.s("b.inner"))


class Install(unittest.TestCase):
    def test_wraps_where_called_and_restores(self):
        import bolab.dynamics as dynamics
        import bolab.gauge as gauge
        from bolab.spectral import Grid

        original = gauge.rhs_exact_coeffs
        grid = Grid(16, np.pi)
        c = np.zeros(16, dtype=complex)
        c[9] = c[7] = 0.1
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(dynamics.rhs_exact_coeffs, original)
            self.assertIs(dynamics.rhs_exact_coeffs, gauge.rhs_exact_coeffs)
            gauge.rhs_exact_coeffs(c, grid)
        self.assertIs(gauge.rhs_exact_coeffs, original)
        self.assertIs(dynamics.rhs_exact_coeffs, original)
        t = tracing.SpanTable.of(tracer)
        self.assertEqual(t.n("gauge.rhs_exact_coeffs"), 1)
        self.assertGreater(t.under(tracing.TRANSFORMS, "gauge.rhs_exact_coeffs"), 0)
        self.assertEqual(tracer.missing_hooks, [])


class MetricNames(unittest.TestCase):
    ROUNDS = [{"wall": 1.0, "cpu": 1.0}, {"wall": 2.0, "cpu": 1.0}]

    def test_end_to_end_names_match_benchmark_json(self):
        values = run.end_to_end_metrics(self.ROUNDS, 0.5, 1024)
        self.assertEqual(set(values), {m["name"] for m in _spec()["end_to_end"]})

    def test_per_layer_names_match_benchmark_json(self):
        t = tracing.SpanTable([], [], [], [], [])
        row = tracing.layer_metrics(t, {})
        values = run.per_layer_values([row], [1.0], [1.1])
        self.assertEqual(set(values), {m["name"] for m in _spec()["per_layer"]})

    def test_result_line_refuses_undeclared_names(self):
        units = run.declared_metrics(0)
        values = run.end_to_end_metrics(self.ROUNDS, 0.5, 1024)
        line = json.loads(run.result_line(True, 1, 0, values, units))
        self.assertEqual(set(line["metrics"]), set(units))
        with self.assertRaises(SystemExit):
            run.result_line(True, 1, 0, dict(values, extra=1.0), units)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in _spec()["workloads"]})


class Speed(unittest.TestCase):
    def test_reference_time_removes_the_kernel_and_rescales(self):
        probe = speed.SpeedProbe()
        probe.samples = [speed.KERNEL_S / 2.0] * 4   # twice the reference speed
        self.assertAlmostEqual(probe.at_reference(1.0),
                               (1.0 - 2.0 * speed.KERNEL_S) * 2.0)
        self.assertAlmostEqual(probe.factor(1.0), probe.at_reference(1.0))

    def test_samples_while_open_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedProbe() as probe:
            t_end = time.perf_counter() + 0.2
            while time.perf_counter() < t_end:
                pass
        self.assertGreater(len(probe.samples), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_per_layer_times_scale_and_counts_do_not(self):
        units = {"a_s": "s", "b": "count", "c": "1/s"}
        out = run.at_reference({"a_s": 2.0, "b": 3, "c": 4.0}, units, 0.5)
        self.assertEqual(out, {"a_s": 1.0, "b": 3, "c": 8.0})


class Oracles(unittest.TestCase):
    def test_invariants_of_a_cosine(self):
        # u = cos(x) on [-pi, pi): mass 0, int u^2 = pi, int u^3 = 0,
        # int u H u_x = int cos^2 = pi
        n, L = 16, np.pi
        c = np.zeros(n, dtype=complex)
        c[n // 2 + 1] = c[n // 2 - 1] = L  # u_hat(+-1) = int cos(x) e^{-+ix} = pi
        mass, l2, ham = checks.invariants(c, L)
        self.assertAlmostEqual(mass, 0.0)
        self.assertAlmostEqual(l2, np.pi)
        self.assertAlmostEqual(ham, -0.5 * np.pi)

    def test_bosf_reader_rejects_short_files(self):
        with tempfile.NamedTemporaryFile(suffix=".bosf") as fh:
            fh.write(b"BOSF" + bytes(6))
            fh.flush()
            with self.assertRaises(ValueError):
                checks.read_bosf(fh.name)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself:  python3 -m unittest discover -s bench"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import baseline
import run
import workloads
from tracing import LAYERS, Span, Tracer, layer_metrics, self_times

sys.path.insert(0, str(run.SRC))
import domdensity  # noqa: E402
import domdensity.cli as cli  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("a", 0.0, 10.0),
            Span("b", 1.0, 4.0, parent=0),
            Span("c", 5.0, 7.0, parent=0),
            Span("d", 2.0, 3.0, parent=1),
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 2.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 6.0, parent=0),
                 Span("c", 4.0, 8.0, parent=0)]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_traced_generator_and_rebinding(self):
        original = domdensity.enumeration.canonical_key
        tracer = Tracer()
        with tracer.installed(domdensity):
            self.assertIsNot(domdensity.cli.canonical_key, original)
            classes = list(domdensity.cli.enumerate_kreg(4, 2))
            domdensity.cli.canonical_key(classes[0])
        self.assertIs(domdensity.cli.canonical_key, original)
        self.assertIs(domdensity.enumeration.canonical_key, original)
        metrics = layer_metrics(tracer.spans)
        self.assertEqual(metrics["enumeration.classes"], len(classes))
        self.assertEqual(metrics["enumeration.rekey_calls"], 1)
        self.assertGreater(metrics["enumeration.key_calls"], len(classes))
        total = sum(self_times(tracer.spans))
        top = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
        self.assertAlmostEqual(total, top, places=9)


class ReportingTest(unittest.TestCase):
    def test_metric_lists_agree(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        traced = set(layer_metrics([])) | {"cli.startup_s", "trace.pass_s",
                                           "trace.overhead_ratio"}
        documented = {m for layer in LAYERS.values() for m in layer["metrics"]}
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(traced, documented)
        self.assertEqual(traced, set(declared))
        for name, unit in declared.items():
            self.assertEqual(run.per_layer_unit(name), unit, name)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)

    def test_summarize(self):
        self.assertEqual(run.summarize([3.0, 1.0, 2.0, 10.0]),
                         {"p50": 2.5, "max": 10.0, "n": 4})

    def test_scaled_seconds(self):
        # Two stretches of 1 s, the first next to a slice at the reference
        # speed and the second next to one at half of it; the slices
        # themselves are not counted.
        slices = [(1.0, 1.5), (2.5, 3.5)]
        self.assertAlmostEqual(run.scaled_seconds(0.0, 3.5, slices, ref=0.5), 1.5)
        # The stretch after the last slice goes at that slice's speed.
        self.assertAlmostEqual(run.scaled_seconds(0.0, 4.5, slices, ref=0.5), 2.0)
        self.assertEqual(run.scaled_seconds(2.0, 5.0, []), 3.0)

    def test_child_runs_the_command_as_python_m(self):
        argv = ["thresholds", "5", "--format", "json"]
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        plain = subprocess.run([sys.executable, "-m", "domdensity.cli", *argv],
                               cwd=run.ROOT, env=env, capture_output=True, text=True)
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err, secs, wall, _ = run.run_child(argv, Path(tmp),
                                                            time.perf_counter() + 60)
            slices = json.loads((Path(tmp) / "slices.json").read_text())
            bad = run.run_child(["no-such-command"], Path(tmp), time.perf_counter() + 60)
        self.assertEqual((status, out, err), (plain.returncode, plain.stdout, plain.stderr))
        self.assertGreaterEqual(len(slices), 1)
        self.assertGreater(secs, 0.0)
        self.assertGreater(wall, 0.0)
        self.assertNotEqual(bad[0], 0)

    def test_spread(self):
        stats = baseline.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((stats["median"], stats["n"]), (3.0, 5))
        self.assertAlmostEqual(stats["spread"], (4.5 - 1.5) / 3.0)


class CheckTest(unittest.TestCase):
    # check-vizing C7 C7 as printed at commit 13dde9a, reduced to the checked keys
    C7C7 = {"gamma_g": 3, "gamma_h": 3, "gamma_product": 12, "holds": True,
            "density_form_holds": True, "witness_g": [0, 1, 4],
            "witness_h": [0, 1, 4],
            "witness_product": [0, 1, 2, 11, 16, 20, 25, 28, 29, 34, 38, 47]}

    def test_right_reference_passes(self):
        self.assertEqual(workloads.check_vizing(json.dumps(self.C7C7), "C7", "C7", 12), [])

    def test_wrong_reference_fails(self):
        errors = workloads.check_vizing(json.dumps(self.C7C7), "C7", "C7", 13)
        self.assertTrue(any("gamma_product" in e for e in errors))

    def test_non_dominating_witness_fails(self):
        bad = dict(self.C7C7, witness_product=[0] * 12)
        self.assertTrue(workloads.check_vizing(json.dumps(bad), "C7", "C7", 12))

    def test_wrong_reference_counts_as_failed(self):
        good = workloads.WORKLOADS["products-cold"].commands[-1]  # thresholds 50
        wrong = workloads.Command(good.label, good.argv,
                                  lambda out: workloads.check_thresholds(out, 49),
                                  good.sha256)
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err, _, _, _ = run.run_child(good.argv, Path(tmp),
                                                      time.perf_counter() + 60)
        checker = run.Checker()
        checker.check(good, status, out, err)
        self.assertEqual((checker.attempted, checker.failed), (1, 0))
        checker.check(wrong, status, out, err)
        self.assertEqual((checker.attempted, checker.failed), (2, 1))
        checker.check(good, 2, out, err)
        self.assertEqual(checker.failed, 2)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            pa = workloads.write_inputs(Path(a), 7)
            pb = workloads.write_inputs(Path(b), 7)
            for name in workloads.FACTORS:
                self.assertEqual(pa[name].read_bytes(), pb[name].read_bytes())
                self.assertIn("seed 7", pa[name].read_text())

    def test_other_seed_same_graph(self):
        for name in workloads.FACTORS:
            one = workloads.edge_list_text(name, 1)
            two = workloads.edge_list_text(name, 2)
            self.assertNotEqual(one, two)
            self.assertEqual(cli.load_graph_text(one), cli.load_graph_text(two))

    def test_inputs_parse_to_the_factor(self):
        for name, (n, edges) in workloads.FACTORS.items():
            g = cli.load_graph_text(workloads.edge_list_text(name, 3))
            self.assertEqual(g.n, n)
            self.assertEqual(sorted(g.edges()), sorted(tuple(sorted(e)) for e in edges))


class EntryPointTest(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        err = io.StringIO()
        real = run.SRC
        run.SRC = Path(tempfile.gettempdir()) / "no-such-package-dir"
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
                status = run.main(["--workload", "scan-n7"])
        finally:
            run.SRC = real
        self.assertNotEqual(status, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()

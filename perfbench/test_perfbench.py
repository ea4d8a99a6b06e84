#!/usr/bin/env python3
"""Tests of the benchmark's own gates, run against the built benchmark binary.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 1 \
        --trace 0            # builds .bench_build/perfbench once
    python3 perfbench/test_perfbench.py

Set PERFBENCH_BIN to test another build of pmlp_perfbench.
"""
import json
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = os.environ.get("PERFBENCH_BIN") or os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench",
    "pmlp_perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Counters that must repeat bit-for-bit at a fixed seed. Cache hit rates
# are left out: at more than one thread the LRU order races.
EXACT_LAYER = ["ga.evals", "refine.trials", "eval.dup_in_gen_frac",
               "rtl.points", "hw.candidates"]
EXACT_E2E = ["front_hv", "pick_area_reduction_x"]


def run(*args):
    p = subprocess.run([BIN] + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def short(seed, trace, *extra, workload="serve-mixed"):
    """A configured workload with one-second serve windows."""
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), *extra)


class Usage(unittest.TestCase):
    def test_malformed_arguments_exit_2_without_a_result(self):
        cases = [
            ["--workload", "serve-mixed", "--seed", "abc", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "serve-mixed", "--seed", "-1", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "serve-mixed", "--seed", "1", "--seconds", "0",
             "--trace", "0"],
            ["--workload", "serve-mixed", "--seed", "1", "--seconds", "1",
             "--trace", "2"],
            ["--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "serve-mixed", "--seed", "1", "--seconds", "1"],
            ["--workload", "serve-mixed", "--seed", "1", "--seconds", "601",
             "--trace", "0"],
            ["--workload", "serve-mixed", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--inject", "nope"],
        ]
        for args in cases:
            code, result, err = run(*args)
            self.assertEqual(code, 2, args)
            self.assertIsNone(result, args)
            self.assertIn("usage:", err, args)


class Gate(unittest.TestCase):
    def test_clean_run_passes_and_reports_every_metric(self):
        code, result, err = short(5, 0)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in SPEC["end_to_end"]))
        for m in SPEC["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_wrong_served_answer_fails_the_run(self):
        code, result, err = short(5, 0, "--inject", "serve-answer")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("differs from CompiledNet::predict", err)

    def test_mismatched_resumed_front_fails_the_run(self):
        code, result, err = short(5, 0, "--inject", "resume-front")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertIn("is not byte-identical", err)


class Traced(unittest.TestCase):
    def test_trace_reports_layers_and_exact_counters_repeat(self):
        # serve-mixed runs one GA thread per flow under a campaign;
        # flow-pendigits runs each flow's GA on 4 threads.
        spans = {"serve-mixed": ["campaign"], "flow-pendigits": []}
        for workload, extra_spans in spans.items():
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, result, err = short(9, 1, workload=workload)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in SPEC["per_layer"]))
                    runs.append(result["metrics"])
                for name in EXACT_LAYER:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)
                trace = os.path.join(ROOT, ".bench_out",
                                     f"trace-{workload}-seed9-trace1.json")
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                names = {e["name"] for e in events}
                for span in ["generation", "evaluate", "advance", "request",
                             "resume"] + extra_spans:
                    self.assertIn(span, names)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)

    def test_quality_metrics_repeat_exactly(self):
        first = short(11, 0)[1]["metrics"]
        second = short(11, 0)[1]["metrics"]
        for name in EXACT_E2E:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Covers tail-percentile selection, the lateness and overhead arithmetic,
the rate-ladder verdict, metric assembly against BENCHMARK.json's names,
the format checks on BENCHMARK.json, the comparison verdicts, and (by
running `tmbench selftest`, after building it) the seeded Poisson
schedule and input hashes.
"""

import copy
import io
import subprocess
import unittest

import benchlib
import compare
import run


def synthetic_obs(workload, n=40):
    """A tmbench observation record with known values: light jobs take
    100 ms, heavy 50 ms; every other job is traced and 2 ms slower."""
    cols = {k: [] for k in ("job.point", "job.traced", "job.latency_ms",
                            "job.full_quality", "job.queue_ms",
                            "job.service_ms", "job.lateness_ms",
                            "job.encode_ms", "job.send_ms", "job.decode_ms",
                            "job.bytes", "job.stall_ms")}
    for point, base in ((0, 100.0), (1, 50.0)):
        for i in range(n):
            traced = i % 2
            row = {"point": point, "traced": traced,
                   "latency_ms": base + i + 2 * traced, "full_quality": 1,
                   "queue_ms": 5.0, "service_ms": 30.0, "lateness_ms": 1.0,
                   "encode_ms": 7.0, "send_ms": 0.5, "decode_ms": 0.5,
                   "bytes": 1000.0, "stall_ms": 4.0}
            for k, v in row.items():
                cols["job." + k].append(v)
    probes = {"probe." + k: [v] for k, v in (
        ("normalize_ms", 10.0), ("intensity_ms", 1.0), ("masking_ms", 10.0),
        ("adjust_ms", 1.0), ("blur_ms.t1", 8.0), ("blur_ms.t4", 3.0),
        ("fused_ms.t1", 20.0), ("fused_ms.t4", 8.0), ("plan_us", 4.0))}
    cols.update(probes)
    return {"workload": workload, "labels": {},
            "values": {"attempted": 2 * n + 4, "errors": 1, "mismatches": 1,
                       "shed": 1, "expired": 0, "gaps": 1,
                       "proc.cpu_ms": 840.0, "image.fresh_allocs": 84.0,
                       "image.pool_acquires": 10, "image.pool_hits": 9},
            "columns": cols}


class TailTest(unittest.TestCase):
    def test_tail_is_eleventh_largest(self):
        value, pct, n = benchlib.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        value, pct, n = benchlib.tail(list(range(200, 0, -1)))
        self.assertEqual((value, pct, n), (190, 95.0, 200))

    def test_tail_keeps_ten_samples_beyond(self):
        for n in (20, 37, 150, 999):
            values = [float(i) for i in range(n)]
            value, pct, _ = benchlib.tail(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            benchlib.tail(list(range(19)))


class ArithmeticTest(unittest.TestCase):
    def test_transport_overhead(self):
        self.assertAlmostEqual(
            benchlib.transport_overhead_ms(60.0, 2.0, 30.0, 7.0, 0.5), 20.5)

    def test_per_layer_arithmetic(self):
        m = benchlib.per_layer(synthetic_obs("serve_remote"))
        value = {k: v[0] for k, v in m.items()}
        # latency - queue - service - encode - lateness over traced jobs.
        traced = [100 + i + 2 for i in range(1, 40, 2)] + \
                 [50 + i + 2 for i in range(1, 40, 2)]
        expect = benchlib.median([t - 5 - 30 - 7 - 1 for t in traced])
        self.assertAlmostEqual(value["transport.overhead_ms"], expect)
        self.assertEqual(value["gen.lateness_ms.p50"], 1.0)
        self.assertEqual(value["fail_ratio"], 4 / 84)
        self.assertEqual(value["image.fresh_allocs_per_job"], 1.0)
        self.assertEqual(value["proc.cpu_ms_per_job"], 10.0)
        self.assertAlmostEqual(value["image.pool_hit_rate"], 0.9)
        self.assertAlmostEqual(value["tonemap.coverage"], 30.0 / 30.0)
        # Light traced p50 = 100 + 20 + 2, untraced = 100 + 19.
        self.assertAlmostEqual(value["trace.overhead_pct"],
                               100.0 * (122 - 119) / 119)

    def test_layers_a_workload_skips_read_zero(self):
        value = {k: v[0] for k, v in
                 benchlib.per_layer(synthetic_obs("frame_paper")).items()}
        for name in ("transport.encode_ms", "serve.queue_ms.p50",
                     "stream.service_ms.p50", "gen.lateness_ms.tail"):
            self.assertEqual(value[name], 0.0, name)
        self.assertGreater(value["tonemap.normalize_ms"], 0)


class LadderTest(unittest.TestCase):
    def obs(self, steps):
        """Ladder steps given as (rate, latencies, failures)."""
        cols = {"ladder.point": [], "ladder.latency_ms": []}
        values = {}
        for i, (rate, lat, failures) in enumerate(steps):
            values[f"ladder.{i}.rate"] = rate
            values[f"ladder.{i}.errors"] = failures
            cols["ladder.point"] += [i] * len(lat)
            cols["ladder.latency_ms"] += lat
        return {"columns": cols, "values": values}

    def test_highest_sustained_step(self):
        flat = [50.0] * 100
        growing = [50.0 + 1.5 * i for i in range(100)]  # tail under 200 ms
        slow = [250.0] * 100
        self.assertLessEqual(benchlib.blocked_tail(growing)[0], 200)
        self.assertEqual(benchlib.sustained_rate(self.obs(
            [(45, flat, 0), (50, flat, 0), (55, growing, 0)])), 50)
        self.assertEqual(benchlib.sustained_rate(self.obs(
            [(45, flat, 0), (50, slow, 0)])), 45)
        self.assertEqual(benchlib.sustained_rate(self.obs(
            [(45, flat, 0), (50, flat, 1)])), 45)
        self.assertEqual(benchlib.sustained_rate(self.obs(
            [(45, slow, 0), (50, flat, 0)])), 50)
        self.assertEqual(benchlib.sustained_rate(self.obs(
            [(45, slow, 0)])), 0)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = benchlib.load_spec()

    def test_benchmark_json_conforms(self):
        self.assertEqual(benchlib.validate_spec(self.spec), [])

    def test_metrics_match_benchmark_json(self):
        for w in run.WORKLOADS:
            e2e = benchlib.end_to_end(synthetic_obs(w), [0.1, 0.2, 0.3])
            self.assertEqual(set(e2e), {m["name"] for m in
                                        self.spec["end_to_end"]})
            layers = benchlib.per_layer(synthetic_obs(w))
            self.assertEqual(set(layers), {m["name"] for m in
                                           self.spec["per_layer"]})
            for value, unit, _ in list(e2e.values()) + list(layers.values()):
                self.assertTrue(benchlib.UNIT_RE.match(unit), unit)
            self.assertGreater(min(v[0] for v in e2e.values()), 0)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_bad_specs_are_flagged(self):
        cases = {
            "bad name": lambda s: s["per_layer"][0].update(name="-x"),
            "duplicate": lambda s: s["per_layer"].append(
                dict(s["per_layer"][0])),
            "bound": lambda s: s["end_to_end"][0].update(bound=0.3),
            "setup_s": lambda s: s["end_to_end"].pop(0),
            "unit": lambda s: s["per_layer"][0].update(unit="m s"),
            "escaping path": lambda s: s.update(command=["python3",
                                                         "../x.py"]),
            "extra key": lambda s: s.update(extra=1),
        }
        for what, mutate in cases.items():
            spec = copy.deepcopy(self.spec)
            mutate(spec)
            self.assertTrue(benchlib.validate_spec(spec), what)


class VerdictTest(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_verdicts(self):
        v = compare.verdict
        faster = [x * 0.8 for x in self.A]
        self.assertEqual(v(self.A, faster, 1.0, 0.1, "lower"), "improved")
        same = list(reversed(self.A))
        self.assertEqual(v(self.A, same, 0.5, 0.1, "lower"), "no worse")
        slower = [x * 1.3 for x in self.A]
        self.assertEqual(v(self.A, slower, 0.0, 0.1, "lower"), "regressed")
        noisy = [50.0, 150.0, 80.0, 130.0, 100.0, 60.0, 140.0, 90.0, 110.0,
                 120.0]
        self.assertEqual(v(noisy, [x * 1.05 for x in noisy], 0.0, 0.1,
                           "lower"), "unresolved")
        self.assertEqual(v(self.A, faster, 0.0, 0.1, "higher"), "regressed")

    def test_report_pairs_by_seed(self):
        spec = {"end_to_end": [{"name": "x", "unit": "ms",
                                "better": "lower", "bound": 0.1}],
                "per_layer": []}

        def runs(values):
            return [{"workload": "w", "trace": 0, "seed": s,
                     "input_hash": "h", "schedule_hash": "h",
                     "result": {"metrics": {"x": {"value": x}}}}
                    for s, x in enumerate(values)]
        out = io.StringIO()
        compare.compare(runs(self.A), runs([x * 0.8 for x in self.A]), spec,
                        out)
        self.assertIn("10 pairs", out.getvalue())
        self.assertIn("improved", out.getvalue())


class TmbenchTest(unittest.TestCase):
    def test_tmbench_selftest(self):
        run.build()
        proc = subprocess.run([run.TMBENCH, "selftest"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()

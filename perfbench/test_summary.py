"""Self-tests for perfbench's summary code.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


class TailPercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(summary.tail_percentile(samples, 0.5), 50)
        self.assertEqual(summary.tail_percentile(samples, 0.9), 90)

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(100, 0, -1)]
        self.assertEqual(summary.tail_percentile(samples, 0.9), 90.0)

    def test_p90_needs_ten_samples_beyond(self):
        # 100 samples: rank 90, ten beyond it -> allowed.
        summary.tail_percentile(range(100), 0.9)
        # 99 samples: rank 90, nine beyond it -> refused.
        with self.assertRaises(ValueError):
            summary.tail_percentile(range(99), 0.9)

    def test_p50_of_few_samples_refused(self):
        with self.assertRaises(ValueError):
            summary.tail_percentile(range(19), 0.5)
        self.assertEqual(summary.tail_percentile(range(20), 0.5), 9)

    def test_quantile_range(self):
        for q in (0.0, 1.0, 1.5):
            with self.assertRaises(ValueError):
                summary.tail_percentile(range(1000), q)


class DigestTest(unittest.TestCase):
    def test_empty_is_fnv_offset(self):
        self.assertEqual(summary.output_digest([]), "cbf29ce484222325")

    def test_single_zero_fingerprint(self):
        # FNV-1a 64 of eight zero bytes.
        h = 0xCBF29CE484222325
        for _ in range(8):
            h = (h * 0x100000001B3) & ((1 << 64) - 1)
        self.assertEqual(summary.output_digest([0]), f"{h:016x}")

    def test_order_sensitive(self):
        self.assertNotEqual(summary.output_digest([1, 2]),
                            summary.output_digest([2, 1]))

    def test_little_endian_bytes(self):
        # 0x01 as little-endian bytes is 01 00 00 00 00 00 00 00, the same
        # bytes as the one-byte value 1 followed by seven zeros.
        h = 0xCBF29CE484222325
        for byte in (1, 0, 0, 0, 0, 0, 0, 0):
            h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
        self.assertEqual(summary.output_digest([1]), f"{h:016x}")

    def test_full_width_fingerprint(self):
        digest = summary.output_digest([(1 << 64) - 1])
        self.assertEqual(len(digest), 16)


class WorkerUtilTest(unittest.TestCase):
    def test_fully_busy_pool(self):
        self.assertAlmostEqual(summary.worker_util([500, 500], 500, 2), 1.0)

    def test_half_busy_pool(self):
        self.assertAlmostEqual(summary.worker_util([100, 150], 250, 2), 0.5)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("apps_per_sec", "core.encode_ms", "service.queue_wait_ms_p90",
                     "9lives", "a-b"):
            self.assertEqual(summary.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "ms%", "x" * 65, "é"):
            with self.assertRaises(ValueError):
                summary.check_name(name)

    def test_benchmark_json_names(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            summary.check_name(name)
        self.assertEqual(len(names), len(set(names)))


def fake_raw(trace):
    """A minimal harness output: two passes of 120 jobs, one traced pass."""
    jobs = 120
    fingerprints = list(range(jobs))

    def batch_pass(wall_ms):
        return {
            "wall_ms": wall_ms, "cpu_ms": 2.0 * jobs,
            "job_ms": [float(i) for i in range(jobs)],
            "job_cpu_ms": [2.0] * jobs, "fingerprints": fingerprints,
            "verified": jobs, "failed": 0,
            "useful": 30, "attempts": 60, "queue_pops": 6, "queue_tasks": jobs,
            "open_ms": 0.0, "checkpoint_ms": 0.0, "bytes_appended": 0,
            "warm": 0, "queue_wait_ms": [],
        }

    raw = {
        "workers": 2, "jobs": jobs,
        "setup_s": [0.3, 0.1, 0.2],
        "reference": batch_pass(1000.0),
        "passes": [batch_pass(1000.0), batch_pass(500.0)],
        "latency_passes": [],
        "peak_rss_mb": 20.5,
    }
    if trace:
        service = batch_pass(800.0)
        service.update(open_ms=1.5, checkpoint_ms=0.25, bytes_appended=4096,
                       queue_wait_ms=[0.5] * jobs, queue_pops=0, queue_tasks=0)
        stage_ms = {stage: 1.0 for stage in summary.STAGES}
        raw["service_passes"] = [service]
        raw["traced_index"] = list(range(jobs))
        raw["traced"] = [{
            "jobs": jobs, "job_wall_ms": 1.0 * len(summary.STAGES) / 0.98,
            "runs": jobs, "failed": 0, "job_cpu_ms": [2.2] * jobs,
            "fingerprints": fingerprints, "stage_ms": stage_ms,
        }]
    return raw


class SummaryTest(unittest.TestCase):
    def test_end_to_end(self):
        values = summary.end_to_end(fake_raw(trace=False))
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["apps_per_sec"], (120 + 240) / 2)
        self.assertEqual(values["job_ms_p50"], 59.0)   # rank 120 of 240
        self.assertEqual(values["job_ms_p90"], 107.0)  # rank 216 of 240
        self.assertAlmostEqual(values["cpu_ms_per_app"], 2.0)

    def test_per_layer(self):
        values = summary.per_layer(fake_raw(trace=True))
        self.assertAlmostEqual(values["core.encode_ms"], 1.0 / 120)
        self.assertAlmostEqual(values["pipeline.dedup_hit_rate"], 0.5)
        self.assertAlmostEqual(values["pipeline.pops_per_task"], 0.05)
        self.assertAlmostEqual(values["trace.stage_sum_frac"], 0.98)
        self.assertAlmostEqual(values["trace.overhead"], 1.1)
        self.assertAlmostEqual(values["service.open_ms"], 1.5)
        self.assertEqual(values["failed_frac"], 0.0)

    def test_overhead_against_run_job_passes(self):
        # Force workloads: the untraced side is the serial run_job passes,
        # not the timed run_batch passes (2.0 ms per job in fake_raw).
        raw = fake_raw(trace=True)
        serial = dict(raw["traced"][0], job_cpu_ms=[1.1] * 120)
        raw["serial"] = [serial, dict(serial, job_cpu_ms=[1.0] * 120),
                         dict(serial, job_cpu_ms=[1.2] * 120)]
        self.assertAlmostEqual(summary.per_layer(raw)["trace.overhead"], 2.0)
        raw["serial"] = []
        self.assertAlmostEqual(summary.per_layer(raw)["trace.overhead"], 1.1)

    def test_service_latency_from_windowed_passes(self):
        # service_update: throughput and CPU from the bulk timed passes,
        # latency and the service.* counters from the windowed passes.
        raw = fake_raw(trace=True)
        windowed = dict(raw["service_passes"][0], job_ms=[0.01 * i for i in range(120)])
        raw["latency_passes"] = [windowed, windowed]
        raw["service_passes"] = []
        values = summary.end_to_end(raw)
        self.assertAlmostEqual(values["apps_per_sec"], (120 + 240) / 2)
        self.assertAlmostEqual(values["job_ms_p50"], 0.59)   # rank 120 of 240
        self.assertAlmostEqual(values["job_ms_p90"], 1.07)   # rank 216 of 240
        self.assertAlmostEqual(summary.per_layer(raw)["service.open_ms"], 1.5)
        windowed["fingerprints"] = [0] * 120
        self.assertEqual(len(summary.output_problems(raw)), 2)

    def test_metric_sets_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for key, trace, fn in (("end_to_end", False, summary.end_to_end),
                               ("per_layer", True, summary.per_layer)):
            names = {m["name"] for m in spec[key]}
            self.assertEqual(set(fn(fake_raw(trace))), names)

    def test_output_problems(self):
        raw = fake_raw(trace=True)
        self.assertEqual(summary.output_problems(raw), [])
        raw["passes"][1]["fingerprints"] = list(range(1, 121))
        raw["traced"][0]["failed"] = 1
        raw["serial"] = [dict(raw["traced"][0], failed=0, fingerprints=[0] * 120)]
        problems = summary.output_problems(raw)
        self.assertEqual(len(problems), 3)
        self.assertIn("serial pass 0: fingerprints differ", problems)


if __name__ == "__main__":
    unittest.main()

"""Turns the harness's raw samples into the metrics BENCHMARK.json names.

Pure functions over the JSON object `perfbench` prints; run.py applies them
and test_summary.py covers them.
"""

import math
import re
import statistics

# BENCHMARK.json metric names: a letter or digit, then letters, digits,
# '_', '.' and '-', at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one outlier cannot set it.
MIN_BEYOND = 10

STAGES = (
    "runtime.construct", "runtime.install", "runtime.execute",
    "core.encode", "core.decode", "core.reassemble", "core.merge",
    "bytecode.verify", "dex.serialize", "dex.parse", "coverage.report",
    "coverage.plan", "pipeline.intern",
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


def check_name(name):
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile; refuses when fewer than `min_beyond`
    samples rank above it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))  # 1-based
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {min_beyond}")
    return ordered[rank - 1]


def output_digest(fingerprints):
    """FNV-1a 64 over each per-app dex fingerprint's 8 little-endian bytes,
    in input order."""
    h = FNV_OFFSET
    for fingerprint in fingerprints:
        for byte in int(fingerprint).to_bytes(8, "little"):
            h = ((h ^ byte) * FNV_PRIME) & MASK64
    return f"{h:016x}"


def worker_util(job_cpu_ms, wall_ms, workers):
    """Share of the pool's wall time the jobs spent on CPU."""
    return sum(job_cpu_ms) / (wall_ms * workers)


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    passes = raw["passes"]
    # service_update times latency in windowed passes of its own; its timed
    # passes submit the whole corpus at once, so their latency is the queue.
    latency = raw.get("latency_passes") or passes
    pooled = [ms for p in latency for ms in p["job_ms"]]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "apps_per_sec": statistics.median(
            len(p["job_ms"]) / (p["wall_ms"] / 1e3) for p in passes),
        "job_ms_p50": tail_percentile(pooled, 0.5),
        "job_ms_p90": tail_percentile(pooled, 0.9),
        "cpu_ms_per_app": statistics.median(p["cpu_ms"] / len(p["job_ms"]) for p in passes),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    passes = raw["passes"]
    traced = raw["traced"]
    # The service layer's windowed passes: the latency passes of
    # service_update, the extra fresh-store passes of the batch workloads.
    service = raw["service_passes"] or raw["latency_passes"]
    # run_batch's scheduler counters; service_update has them only from
    # its in-memory reference run_batch.
    batch = passes if passes[0]["queue_tasks"] else [raw["reference"]]

    out = {}
    for stage in STAGES:
        out[stage + "_ms"] = statistics.median(t["stage_ms"][stage] / t["jobs"] for t in traced)
    out["coverage.paths_per_app"] = statistics.median(t["runs"] / t["jobs"] for t in traced)
    out["pipeline.dedup_hit_rate"] = statistics.median(
        _ratio(p["useful"], p["attempts"]) for p in passes)
    out["pipeline.worker_util"] = statistics.median(
        worker_util(p["job_cpu_ms"], p["wall_ms"], raw["workers"]) for p in passes)
    out["pipeline.pops_per_task"] = statistics.median(
        _ratio(p["queue_pops"], p["queue_tasks"]) for p in batch)
    out["failed_frac"] = _ratio(sum(p["failed"] for p in passes),
                                sum(len(p["job_ms"]) for p in passes))
    out["service.open_ms"] = statistics.median(p["open_ms"] for p in service)
    waits = [ms for p in service for ms in p["queue_wait_ms"]]
    out["service.queue_wait_ms_p50"] = tail_percentile(waits, 0.5)
    out["service.queue_wait_ms_p90"] = tail_percentile(waits, 0.9)
    out["service.warm_frac"] = statistics.median(p["warm"] / len(p["job_ms"]) for p in service)
    out["service.bytes_appended"] = statistics.median(p["bytes_appended"] for p in service)
    out["service.checkpoint_ms"] = statistics.median(p["checkpoint_ms"] for p in service)
    out["trace.stage_sum_frac"] = statistics.median(
        sum(t["stage_ms"].values()) / t["job_wall_ms"] for t in traced)
    out["trace.overhead"] = (statistics.median(sum(t["job_cpu_ms"]) for t in traced)
                             / untraced_job_cpu_ms(raw))
    return out


def untraced_job_cpu_ms(raw):
    """Job CPU of the traced jobs run untraced on the traced pass's schedule:
    the run_job passes for force jobs (the timed run_batch passes spread an
    app's plan units over workers), else the timed passes themselves."""
    if raw.get("serial"):
        return statistics.median(sum(s["job_cpu_ms"]) for s in raw["serial"])
    index = raw["traced_index"]
    return statistics.median(sum(p["job_cpu_ms"][i] for i in index) for p in raw["passes"])


def stage_shares(raw):
    """Each traced stage's share of the traced job wall time."""
    shares = {}
    for stage in STAGES:
        shares[stage] = statistics.median(
            t["stage_ms"][stage] / t["job_wall_ms"] for t in raw["traced"])
    return shares


def output_problems(raw):
    """Every way the revealed output differs from the reference pass."""
    reference = raw["reference"]
    expected = reference["fingerprints"]
    problems = []
    if reference["failed"]:
        problems.append(f"reference pass: {reference['failed']} jobs failed")
    for i, p in enumerate(raw["passes"] + raw.get("latency_passes", [])
                          + raw.get("service_passes", [])):
        if p["fingerprints"] != expected:
            problems.append(f"pass {i}: fingerprints differ from the reference")
        if p["verified"] != reference["verified"]:
            problems.append(f"pass {i}: {p['verified']} verified, "
                            f"reference {reference['verified']}")
        if p["failed"]:
            problems.append(f"pass {i}: {p['failed']} jobs failed")
    traced_expected = [expected[i] for i in raw.get("traced_index", [])]
    for key in ("traced", "serial"):
        for i, t in enumerate(raw.get(key, [])):
            if t["fingerprints"] != traced_expected:
                problems.append(f"{key} pass {i}: fingerprints differ")
            if t["failed"]:
                problems.append(f"{key} pass {i}: {t['failed']} jobs failed")
    return problems

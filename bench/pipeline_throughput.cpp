// Batch-pipeline throughput: runs a corpus through pipeline::run_batch at
// each worker count of a list and reports apps/sec, the speedup over the
// sequential baseline and the dedup store's hit rate. Not
// a paper table — this measures the fleet capability the ROADMAP asks for,
// and (gated via ci.sh) proves the multi-core speedup is real on the
// 10k-app large_corpus scenario.
//
// Each line prefixed BENCH_JSON is machine-readable (one JSON object per
// config) so throughput trajectories can be tracked across commits. Every
// config's per-app dex fingerprints are compared against the first config's
// — any divergence across thread counts is an immediate exit 1 (the
// pipeline's byte-identity invariant, docs/ARCHITECTURE.md).
//
// Usage:
//   pipeline_throughput [--corpus droidbench|large] [--count N] [--repeat R]
//                       [--threads CSV]
//                       [--gate-threads T --min-speedup X]
//                       [--baseline-apps-per-sec Y] [--max-regression F]
//
//   --corpus    droidbench (134 samples x repeat) or large (the generated
//               large_corpus market population; default droidbench)
//   --count     large-corpus app count (default 10000)
//   --repeat    droidbench replication factor (default 3)
//   --threads   comma list of worker counts (default 1,2,4,8; the first
//               entry must be 1 — it is the speedup baseline)
//   --gate-threads/--min-speedup
//               exit 1 unless the speedup at that thread count reaches the
//               bar — ci.sh sets 4/2.0 on hosts with >= 4 hardware
//               threads, reporting-only elsewhere. The gate runs the 1-thread
//               and the gate config twice more, alternating, and divides
//               their median walls: one 1-thread run swings too much on a
//               shared host to divide by alone
//   --baseline-apps-per-sec/--max-regression
//               exit 1 if the median 1-thread apps/sec falls more than the
//               fraction (default 0.10) below the recorded baseline
//               (ci.sh reads bench/pipeline_baseline.json). The median is
//               over every 1-thread run, at least three: the speedup gate's
//               runs count, and the bench makes up any shortfall
//
// Any other argument, a bare number included, is an error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"

using namespace dexlego;

namespace {

std::vector<size_t> parse_csv(const char* text, size_t min, size_t max) {
  std::vector<size_t> values;
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p != '\0' && *p != ',') {
      item.push_back(*p);
      continue;
    }
    char* end = nullptr;
    long value = std::strtol(item.c_str(), &end, 10);
    if (item.empty() || end == nullptr || *end != '\0' ||
        value < static_cast<long>(min) || value > static_cast<long>(max)) {
      std::fprintf(stderr, "invalid list entry '%s' (want %zu..%zu)\n",
                   item.c_str(), min, max);
      std::exit(2);
    }
    values.push_back(static_cast<size_t>(value));
    item.clear();
    if (*p == '\0') break;
  }
  return values;
}

double median(std::vector<double> values) {
  std::ranges::sort(values);
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus = "droidbench";
  size_t count = 10000;
  int repeat = 3;
  std::vector<size_t> thread_list = {1, 2, 4, 8};
  size_t gate_threads = 0;
  double min_speedup = 0.0;
  double baseline_apps_per_sec = 0.0;
  double max_regression = 0.10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--corpus") {
      corpus = next();
    } else if (arg == "--count") {
      count = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--repeat") {
      repeat = std::atoi(next());
    } else if (arg == "--threads") {
      thread_list = parse_csv(next(), 1, 256);
    } else if (arg == "--gate-threads") {
      gate_threads = static_cast<size_t>(std::atol(next()));
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(next());
    } else if (arg == "--baseline-apps-per-sec") {
      baseline_apps_per_sec = std::atof(next());
    } else if (arg == "--max-regression") {
      max_regression = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (repeat < 1) repeat = 1;
  if (count < 1) count = 1;
  if (thread_list.empty() || thread_list[0] != 1) {
    std::fprintf(stderr, "--threads list must start with 1 (the baseline)\n");
    return 2;
  }

  std::vector<pipeline::BatchJob> jobs;
  std::string label;
  if (corpus == "droidbench") {
    jobs = pipeline::replicate_jobs(pipeline::droidbench_jobs(), repeat);
    label = "DroidBench x" + std::to_string(repeat);
  } else if (corpus == "large" || corpus == "large_corpus") {
    corpus = "large_corpus";
    jobs = pipeline::large_corpus_jobs(count);
    label = "large_corpus market population";
  } else {
    std::fprintf(stderr, "unknown corpus '%s'\n", corpus.c_str());
    return 2;
  }

  bench::print_header("Batch pipeline throughput (" + label + ", " +
                      std::to_string(jobs.size()) + " jobs)");
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  bench::print_row(
      {"Threads", "Wall ms", "Apps/sec", "Speedup", "Dedup hit", "Verified"},
      {10, 12, 12, 10, 12, 10});

  // Per-app fingerprints of the first config: every other config must
  // reproduce them bit for bit, whatever its thread count.
  std::vector<uint64_t> reference;
  size_t identity_mismatches = 0;
  double sequential_ms = 0.0;    // 1-thread wall
  double gate_speedup = -1.0;    // speedup at the gate config, if run
  std::vector<double> sequential_walls, gate_walls;  // gate inputs
  std::vector<double> sequential_rates;  // apps/sec of every 1-thread run

  // One run of the corpus at `threads` workers, checked app by app against
  // the first run's fingerprints.
  auto run = [&](size_t threads) {
    pipeline::BatchOptions options;
    options.threads = threads;
    options.keep_dex = false;  // throughput run; don't hold every DEX
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    if (reference.empty()) {
      reference.reserve(report.jobs.size());
      for (const pipeline::JobResult& job : report.jobs) {
        reference.push_back(job.dex_fingerprint);
      }
    } else {
      for (size_t j = 0; j < report.jobs.size(); ++j) {
        if (report.jobs[j].dex_fingerprint != reference[j]) {
          ++identity_mismatches;
          std::fprintf(stderr, "IDENTITY MISMATCH at threads=%zu: %s\n",
                       threads, report.jobs[j].name.c_str());
        }
      }
    }
    return report.fleet;
  };

  for (size_t threads : thread_list) {
    const pipeline::FleetStats fleet = run(threads);

    if (threads == 1) {
      sequential_ms = fleet.wall_ms;
      sequential_walls.push_back(fleet.wall_ms);
      sequential_rates.push_back(fleet.apps_per_sec);
    }
    double speedup = fleet.wall_ms > 0.0 ? sequential_ms / fleet.wall_ms : 0.0;
    if (threads == gate_threads) gate_walls.push_back(fleet.wall_ms);

    char wall_s[24], rate_s[24], speed_s[16], hit_s[16], ver_s[16];
    std::snprintf(wall_s, sizeof(wall_s), "%.1f", fleet.wall_ms);
    std::snprintf(rate_s, sizeof(rate_s), "%.1f", fleet.apps_per_sec);
    std::snprintf(speed_s, sizeof(speed_s), "%.2fx", speedup);
    std::snprintf(hit_s, sizeof(hit_s), "%.1f%%",
                  fleet.dedup_hit_rate * 100.0);
    std::snprintf(ver_s, sizeof(ver_s), "%zu/%zu", fleet.verified,
                  fleet.jobs);
    bench::print_row(
        {std::to_string(threads), wall_s, rate_s, speed_s, hit_s, ver_s},
        {10, 12, 12, 10, 12, 10});

    std::printf(
        "BENCH_JSON {\"bench\":\"pipeline_throughput\",\"corpus\":\"%s\","
        "\"threads\":%zu,\"jobs\":%zu,\"wall_ms\":%.2f,"
        "\"apps_per_sec\":%.2f,\"speedup_vs_1t\":%.3f,"
        "\"dedup_hit_rate\":%.4f,\"store_entries\":%zu,"
        "\"bytes_deduped\":%llu,\"verified\":%zu}\n",
        corpus.c_str(), threads, fleet.jobs, fleet.wall_ms,
        fleet.apps_per_sec, speedup, fleet.dedup_hit_rate,
        fleet.store.entries,
        static_cast<unsigned long long>(fleet.store.bytes_deduped),
        fleet.verified);
  }

  if (min_speedup > 0.0 && gate_threads > 0 && !gate_walls.empty()) {
    for (int i = 0; i < 2; ++i) {
      const pipeline::FleetStats sequential = run(1);
      sequential_walls.push_back(sequential.wall_ms);
      sequential_rates.push_back(sequential.apps_per_sec);
      gate_walls.push_back(run(gate_threads).wall_ms);
    }
    std::printf("\nspeedup at %zu threads, three alternating runs:",
                gate_threads);
    for (size_t i = 0; i < std::min(sequential_walls.size(), gate_walls.size());
         ++i) {
      std::printf(" %.2fx", sequential_walls[i] / gate_walls[i]);
    }
    gate_speedup = median(sequential_walls) / median(gate_walls);
    std::printf("; median walls give %.2fx\n", gate_speedup);
  }

  // One 1-thread run swings by a third on a shared host; the baseline gate
  // reads the median of three or more.
  if (baseline_apps_per_sec > 0.0) {
    while (sequential_rates.size() < 3) {
      sequential_rates.push_back(run(1).apps_per_sec);
    }
  }

  bool failed = false;
  if (identity_mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu per-app outputs diverged across configs\n",
                 identity_mismatches);
    failed = true;
  }
  if (min_speedup > 0.0 && gate_threads > 0) {
    if (gate_speedup < 0.0) {
      std::fprintf(stderr,
                   "FAIL: gate threads %zu not in the --threads list\n",
                   gate_threads);
      failed = true;
    } else if (gate_speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: speedup at %zu threads is %.2fx, below the %.2fx "
                   "gate\n",
                   gate_threads, gate_speedup, min_speedup);
      failed = true;
    } else {
      std::printf("speedup gate passed: %.2fx at %zu threads (>= %.2fx)\n",
                  gate_speedup, gate_threads, min_speedup);
    }
  }
  if (baseline_apps_per_sec > 0.0) {
    std::printf("1-thread apps/sec over %zu runs:", sequential_rates.size());
    for (double rate : sequential_rates) std::printf(" %.1f", rate);
    const double sequential_rate = median(sequential_rates);
    std::printf("; median %.1f\n", sequential_rate);
    double floor = baseline_apps_per_sec * (1.0 - max_regression);
    if (sequential_rate < floor) {
      std::fprintf(stderr,
                   "FAIL: median 1-thread throughput %.1f apps/sec regressed "
                   "more than %.0f%% below the recorded baseline %.1f\n",
                   sequential_rate, max_regression * 100.0,
                   baseline_apps_per_sec);
      failed = true;
    } else {
      std::printf(
          "baseline gate passed: median %.1f apps/sec at 1 thread (baseline "
          "%.1f, floor %.1f)\n",
          sequential_rate, baseline_apps_per_sec, floor);
    }
  }
  std::printf(
      "\n(speedups track the cores the container actually grants; on a "
      "single-core box every row is ~1x)\n");
  return failed ? 1 : 0;
}

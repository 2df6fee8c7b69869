// dexlego_batch — fleet-scale extraction from the command line: builds one
// of the canned input scenarios (src/pipeline/scenarios.h), shards it
// across a worker pool with pipeline::run_batch and prints per-app rows
// plus the fleet summary (verified count, leak ground-truth agreement,
// dedup hit rate, apps/sec).
//
//   dexlego_batch [--scenario droidbench|generated|guarded|packed|unpacked|realdex|fuzz|large|all]
//                 [--threads N] [--count N] [--repeat R]
//                 [--force] [--force-depth D] [--force-iters I]
//                 [--compare-sequential] [--json] [--quiet]
//
//   --threads 0 (default) = one worker per hardware thread
//   --count            generated-scenario app count (default 8)
//   --repeat           replicate the job list R times (workload scaling)
//   --force            explore every app with the worklist ForceEngine:
//                      each worker runs an app's baseline and every plan
//                      it issues (docs/FORCE_EXECUTION.md)
//   --force-depth      forced-prefix generations per plan (default 8)
//   --force-iters      total plan budget per app (default 512)
//   --compare-sequential  also run on 1 thread and assert byte-identical
//                         reassembled DEX output (exit 1 on mismatch)
//   --json             emit the fleet summary as one JSON line
//   --quiet            suppress per-app rows
//
// Exit status: 0 when every job ran to completion (and, with
// --compare-sequential, outputs matched); 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"

using namespace dexlego;

namespace {

std::vector<pipeline::BatchJob> build_scenario(const std::string& name,
                                               size_t count) {
  if (name == "droidbench") return pipeline::droidbench_jobs();
  if (name == "generated") return pipeline::generated_jobs(count);
  if (name == "guarded") return pipeline::guarded_jobs(count);
  if (name == "packed") return pipeline::packed_jobs();
  if (name == "unpacked") return pipeline::unpacker_baseline_jobs();
  if (name == "realdex") return pipeline::realdex_jobs(count);
  if (name == "fuzz") return pipeline::fuzz_jobs(count);
  if (name == "large" || name == "large_corpus") {
    return pipeline::large_corpus_jobs(count);
  }
  if (name == "all") return pipeline::all_jobs();
  std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
  std::exit(2);
}

void print_fleet(const pipeline::FleetStats& fleet) {
  std::printf(
      "\nfleet: %zu jobs on %zu thread(s) | ok %zu | verified %zu | "
      "leaky %zu observed / %zu expected\n",
      fleet.jobs, fleet.threads, fleet.ok, fleet.verified,
      fleet.observed_leaky, fleet.expected_leaky);
  std::printf(
      "       wall %.1f ms (%.1f apps/sec) | worker cpu %.1f ms | "
      "mean coverage: instruction %.1f%%, branch %.1f%%\n",
      fleet.wall_ms, fleet.apps_per_sec, fleet.cpu_ms,
      fleet.mean_instruction_coverage * 100.0,
      fleet.mean_branch_coverage * 100.0);
  if (fleet.forced_paths > 0) {
    std::printf("       force execution: %zu forced paths across the fleet\n",
                fleet.forced_paths);
  }
  std::printf(
      "       dedup: %.1f%% hit rate (%llu hits / %llu misses) | store %zu "
      "bodies, %llu bytes stored, %llu bytes deduped\n",
      fleet.dedup_hit_rate * 100.0,
      static_cast<unsigned long long>(fleet.dedup_hits),
      static_cast<unsigned long long>(fleet.dedup_misses), fleet.store.entries,
      static_cast<unsigned long long>(fleet.store.bytes_stored),
      static_cast<unsigned long long>(fleet.store.bytes_deduped));
}

void print_json(const pipeline::FleetStats& fleet, const std::string& scenario) {
  std::printf(
      "{\"scenario\":\"%s\",\"threads\":%zu,\"jobs\":%zu,\"ok\":%zu,"
      "\"verified\":%zu,\"wall_ms\":%.2f,\"apps_per_sec\":%.2f,"
      "\"dedup_hit_rate\":%.4f,\"store_entries\":%zu,"
      "\"mean_instruction_coverage\":%.4f,\"mean_branch_coverage\":%.4f,"
      "\"forced_paths\":%zu}\n",
      scenario.c_str(), fleet.threads, fleet.jobs, fleet.ok, fleet.verified,
      fleet.wall_ms, fleet.apps_per_sec, fleet.dedup_hit_rate,
      fleet.store.entries, fleet.mean_instruction_coverage,
      fleet.mean_branch_coverage, fleet.forced_paths);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "droidbench";
  size_t threads = 0;
  size_t count = 8;
  int repeat = 1;
  bool force = false;
  coverage::ForceEngineOptions force_options;
  bool compare_sequential = false;
  bool json = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Bounded numeric parse: rejects junk and keeps hostile values from
    // requesting quintillions of apps or threads.
    auto next_number = [&](long min, long max) -> long {
      const char* text = next();
      char* end = nullptr;
      long value = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || value < min || value > max) {
        std::fprintf(stderr, "%s: invalid value '%s' (want %ld..%ld)\n",
                     arg.c_str(), text, min, max);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--threads") {
      threads = static_cast<size_t>(next_number(0, 4096));
    } else if (arg == "--force") {
      force = true;
    } else if (arg == "--force-depth") {
      force_options.max_depth = static_cast<int>(next_number(1, 1024));
    } else if (arg == "--force-iters") {
      force_options.max_plans = static_cast<size_t>(next_number(1, 1000000));
    } else if (arg == "--count") {
      count = static_cast<size_t>(next_number(1, 100000));
    } else if (arg == "--repeat") {
      repeat = static_cast<int>(next_number(1, 10000));
    } else if (arg == "--compare-sequential") {
      compare_sequential = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  std::vector<pipeline::BatchJob> jobs = build_scenario(scenario, count);
  if (repeat > 1) jobs = pipeline::replicate_jobs(jobs, repeat);
  if (force) pipeline::enable_force(jobs, force_options);

  pipeline::BatchOptions options;
  options.threads = threads;
  pipeline::BatchReport report = pipeline::run_batch(jobs, options);

  if (!quiet) {
    std::printf("%-32s %-11s %-4s %-9s %-6s %-9s %-8s %-7s %-6s\n", "app",
                "scenario", "ok", "verified", "leaks", "coverage", "branch",
                "forced", "wall ms");
    for (const pipeline::JobResult& job : report.jobs) {
      std::printf("%-32s %-11s %-4s %-9s %-6zu %8.1f%% %7.1f%% %-7zu %6.1f\n",
                  job.name.c_str(), job.scenario.c_str(),
                  job.ok ? "yes" : "NO", job.verified ? "yes" : "NO",
                  job.leaks_observed, job.instruction_coverage * 100.0,
                  job.branch_coverage * 100.0, job.forced_branches,
                  job.wall_ms);
      if (!job.ok) std::printf("  error: %s\n", job.error.c_str());
    }
  }
  if (json) {
    print_json(report.fleet, scenario);
  } else {
    print_fleet(report.fleet);
  }

  bool failed = report.fleet.ok != report.fleet.jobs;

  if (compare_sequential) {
    pipeline::BatchOptions seq;
    seq.threads = 1;
    pipeline::BatchReport baseline = pipeline::run_batch(jobs, seq);
    size_t mismatches = 0;
    for (size_t i = 0; i < report.jobs.size(); ++i) {
      if (report.jobs[i].dex_fingerprint != baseline.jobs[i].dex_fingerprint ||
          report.jobs[i].dex != baseline.jobs[i].dex) {
        ++mismatches;
        std::fprintf(stderr, "OUTPUT MISMATCH vs sequential: %s\n",
                     report.jobs[i].name.c_str());
      }
    }
    double speedup = report.fleet.wall_ms > 0.0
                         ? baseline.fleet.wall_ms / report.fleet.wall_ms
                         : 0.0;
    std::printf(
        "\ncompare-sequential: %zu/%zu outputs byte-identical | sequential "
        "%.1f ms -> parallel %.1f ms (%.2fx)\n",
        report.jobs.size() - mismatches, report.jobs.size(),
        baseline.fleet.wall_ms, report.fleet.wall_ms, speedup);
    if (mismatches > 0) failed = true;
  }

  return failed ? 1 : 0;
}

// Force-execution throughput: runs the guarded generated population (the
// Table VII force workload) through pipeline::run_batch with ForceEngine
// exploration, asking for 1, 2, 4 and 8 threads, and reports forced
// paths/sec — the fleet-level metric for the worklist engine — plus the
// branch coverage it buys over the natural batch. Each worker explores whole
// apps, so run_batch caps the pool at the app count; every row reports the
// workers that actually ran (FleetStats::threads).
//
// Each line prefixed BENCH_JSON is machine-readable (one JSON object per
// thread count) so paths/sec trajectories can be tracked across commits.
//
// Usage: force_paths [apps] [units]
//   apps  (default 6)    guarded apps in the batch
//   units (default 4000) approximate code units per app
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"

using namespace dexlego;

int main(int argc, char** argv) {
  size_t apps = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 6;
  size_t units = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 4000;
  if (apps < 1) apps = 1;
  if (units < 500) units = 500;

  std::vector<pipeline::BatchJob> jobs = pipeline::guarded_jobs(apps, 301, units);

  // Reference point: the natural batch.
  pipeline::BatchReport natural = pipeline::run_batch(jobs, {});

  bench::print_header("Force-execution paths/sec (guarded x" +
                      std::to_string(apps) + ", ~" + std::to_string(units) +
                      " units each)");
  std::printf("hardware threads available: %u\n", std::thread::hardware_concurrency());
  std::printf("natural batch: branch %.1f%%\n\n",
              natural.fleet.mean_branch_coverage * 100.0);

  bench::print_row({"Threads", "Wall ms", "Paths", "Paths/sec", "Branch",
                    "Speedup"},
                   {10, 12, 8, 12, 10, 10});

  pipeline::enable_force(jobs, {});
  double sequential_ms = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    options.keep_dex = false;
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    const pipeline::FleetStats& fleet = report.fleet;
    if (threads == 1) sequential_ms = fleet.wall_ms;
    double paths_per_sec = fleet.wall_ms > 0.0
                               ? static_cast<double>(fleet.forced_paths) /
                                     (fleet.wall_ms / 1000.0)
                               : 0.0;
    double speedup = fleet.wall_ms > 0.0 ? sequential_ms / fleet.wall_ms : 0.0;

    char wall_s[24], paths_s[16], rate_s[24], branch_s[16], speed_s[16];
    std::snprintf(wall_s, sizeof(wall_s), "%.1f", fleet.wall_ms);
    std::snprintf(paths_s, sizeof(paths_s), "%zu", fleet.forced_paths);
    std::snprintf(rate_s, sizeof(rate_s), "%.1f", paths_per_sec);
    std::snprintf(branch_s, sizeof(branch_s), "%.1f%%",
                  fleet.mean_branch_coverage * 100.0);
    std::snprintf(speed_s, sizeof(speed_s), "%.2fx", speedup);
    bench::print_row({std::to_string(fleet.threads), wall_s, paths_s, rate_s,
                      branch_s, speed_s},
                     {10, 12, 8, 12, 10, 10});

    std::printf(
        "BENCH_JSON {\"bench\":\"force_paths\",\"threads\":%zu,\"jobs\":%zu,"
        "\"wall_ms\":%.2f,\"forced_paths\":%zu,\"paths_per_sec\":%.2f,"
        "\"mean_branch_coverage\":%.4f,\"natural_branch_coverage\":%.4f,"
        "\"speedup_vs_1t\":%.3f}\n",
        fleet.threads, fleet.jobs, fleet.wall_ms, fleet.forced_paths,
        paths_per_sec, fleet.mean_branch_coverage,
        natural.fleet.mean_branch_coverage, speedup);
  }
  std::printf(
      "\n(paths/sec tracks the cores the container actually grants; on a "
      "single-core box every row is ~1x)\n");
  return 0;
}

// dexlego_service — the long-running extraction service from the command
// line (docs/SERVICE.md): opens (or reopens) a persistent store directory,
// submits a corpus through the async job API and reports which apps were
// served warm from the incremental manifest vs extracted cold. Running the
// binary twice on the same --store IS the restart scenario: the second run
// replays the logs and re-extracts nothing that did not change.
//
//   dexlego_service --store DIR [--corpus large|generated] [--count N]
//                   [--threads N] [--mutate-pct P]
//                   [--tenant NAME] [--quota-jobs N] [--quota-bytes B]
//                   [--compare-cold] [--expect-incremental] [--json] [--quiet]
//
//   --store            persistent store directory (required; created on
//                      first use, replayed on every later use)
//   --corpus           input population (default large: the market corpus
//                      with cross-app library reuse)
//   --count            corpus size (default 24)
//   --mutate-pct       submit the UPDATED corpus instead: P% of the apps
//                      (every (100/P)-th) ship new app-local code, the rest
//                      are byte-identical to the base corpus
//   --tenant           tenant name for all submissions (default "default")
//   --quota-jobs/--quota-bytes  tenant admission quota (0 = unlimited)
//   --compare-cold     also extract the same corpus cold (fresh in-memory
//                      store, pipeline::run_batch) and assert every dex
//                      fingerprint matches the service output (exit 1 on
//                      mismatch) — ARCHITECTURE invariant 14
//   --expect-incremental  assert every unchanged app was served warm with
//                         zero new method trees, and that reopening the
//                         store cut no torn bytes from its logs (exit 1
//                         otherwise); use on a second run over the same
//                         --store after a clean first run
//
// Exit status: 0 when every job reached kDone (and the asserted properties
// held); 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"
#include "src/service/service.h"
#include "src/support/timer.h"

using namespace dexlego;

int main(int argc, char** argv) {
  std::string store_dir;
  std::string corpus = "large";
  std::string tenant = "default";
  size_t count = 24;
  size_t threads = 0;
  long mutate_pct = 0;
  service::TenantQuota quota;
  bool compare_cold = false;
  bool expect_incremental = false;
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
    if (arg == "--store") {
      store_dir = next();
    } else if (arg == "--corpus") {
      corpus = next();
    } else if (arg == "--tenant") {
      tenant = next();
    } else if (arg == "--count") {
      count = static_cast<size_t>(next_number(1, 100000));
    } else if (arg == "--threads") {
      threads = static_cast<size_t>(next_number(0, 4096));
    } else if (arg == "--mutate-pct") {
      mutate_pct = next_number(1, 100);
    } else if (arg == "--quota-jobs") {
      quota.max_in_flight = static_cast<size_t>(next_number(0, 1000000));
    } else if (arg == "--quota-bytes") {
      quota.max_in_flight_bytes =
          static_cast<uint64_t>(next_number(0, 2000000000));
    } else if (arg == "--compare-cold") {
      compare_cold = true;
    } else if (arg == "--expect-incremental") {
      expect_incremental = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (store_dir.empty()) {
    std::fprintf(stderr, "--store DIR is required\n");
    return 2;
  }

  // mutate_every = 100/P: --mutate-pct 10 updates every 10th app.
  const size_t mutate_every =
      mutate_pct > 0 ? static_cast<size_t>(100 / mutate_pct) : 0;
  std::vector<pipeline::BatchJob> jobs;
  if (corpus == "large" || corpus == "large_corpus") {
    jobs = mutate_every > 0
               ? pipeline::large_corpus_update_jobs(count, 1701, 900, 48,
                                                    mutate_every)
               : pipeline::large_corpus_jobs(count);
  } else if (corpus == "generated") {
    jobs = pipeline::generated_jobs(count);
    if (mutate_every > 0) {
      std::fprintf(stderr, "--mutate-pct only applies to --corpus large\n");
      return 2;
    }
  } else {
    std::fprintf(stderr, "unknown corpus '%s' (want large|generated)\n",
                 corpus.c_str());
    return 2;
  }

  service::ServiceOptions options;
  options.threads = threads;
  service::ExtractionService svc(store_dir, options);
  if (quota.max_in_flight || quota.max_in_flight_bytes) {
    svc.set_quota(tenant, quota);
  }

  const service::PersistentDedupStore::OpenStats& open = svc.open_stats();
  const size_t entries_at_open = svc.store().stats().entries;
  if (!quiet) {
    std::printf(
        "store %s: %zu segment(s), %zu record(s) validated, %llu torn "
        "byte(s) truncated, restored %zu bodies / %llu bytes, %zu manifest "
        "app(s)\n",
        store_dir.c_str(), open.segments, open.validated_records,
        static_cast<unsigned long long>(open.truncated_bytes),
        open.restored_entries,
        static_cast<unsigned long long>(open.restored_bytes),
        svc.manifest_entries());
  }

  support::Stopwatch wall;
  std::vector<service::JobId> ids;
  ids.reserve(jobs.size());
  for (pipeline::BatchJob& job : jobs) {
    ids.push_back(svc.submit(std::move(job), tenant));
  }

  size_t ok = 0;
  size_t warm = 0;
  size_t failures = 0;
  uint64_t methods_new = 0;
  uint64_t methods_reused = 0;
  std::vector<service::JobStatus> statuses;
  statuses.reserve(ids.size());
  if (!quiet) {
    std::printf("%-20s %-10s %-5s %-9s %-9s %-7s\n", "app", "state", "warm",
                "new", "reused", "wall ms");
  }
  for (service::JobId id : ids) {
    service::JobStatus status = svc.wait(id);
    if (status.state == service::JobState::kDone) ++ok;
    if (status.incremental) ++warm;
    methods_new += status.methods_new;
    methods_reused += status.methods_reused;
    if (!quiet) {
      std::printf("%-20s %-10s %-5s %-9llu %-9llu %6.1f\n",
                  status.result.name.c_str(),
                  service::job_state_name(status.state),
                  status.incremental ? "yes" : "no",
                  static_cast<unsigned long long>(status.methods_new),
                  static_cast<unsigned long long>(status.methods_reused),
                  status.result.wall_ms);
      if (!status.error.empty()) {
        std::printf("  error: %s\n", status.error.c_str());
      }
    }
    statuses.push_back(std::move(status));
  }
  svc.checkpoint();
  const double wall_ms = wall.elapsed_ms();
  const size_t entries_now = svc.store().stats().entries;

  if (expect_incremental) {
    // The previous run exited cleanly, so its logs must validate end to end.
    if (open.truncated_bytes != 0) {
      std::fprintf(stderr,
                   "EXPECT-INCREMENTAL: reopening the store truncated %llu "
                   "torn byte(s)\n",
                   static_cast<unsigned long long>(open.truncated_bytes));
      ++failures;
    }
    // Every app NOT mutated this run must come back warm with nothing
    // re-extracted; mutated apps must run cold.
    for (size_t i = 0; i < statuses.size(); ++i) {
      const bool mutated = mutate_every > 0 && i % mutate_every == 0;
      if (!mutated && (!statuses[i].incremental || statuses[i].methods_new)) {
        std::fprintf(stderr,
                     "EXPECT-INCREMENTAL: unchanged app %s ran cold "
                     "(warm=%d, new=%llu)\n",
                     statuses[i].result.name.c_str(),
                     statuses[i].incremental ? 1 : 0,
                     static_cast<unsigned long long>(statuses[i].methods_new));
        ++failures;
      }
      if (mutated && statuses[i].incremental) {
        std::fprintf(stderr,
                     "EXPECT-INCREMENTAL: mutated app %s was served warm\n",
                     statuses[i].result.name.c_str());
        ++failures;
      }
    }
    // A 10% update must not balloon the store: only mutated app-local
    // bodies are new, so growth stays a small fraction of the warm corpus.
    if (entries_at_open > 0 && entries_now - entries_at_open > entries_at_open / 4) {
      std::fprintf(stderr,
                   "EXPECT-INCREMENTAL: store grew %zu -> %zu entries, more "
                   "than 25%%\n",
                   entries_at_open, entries_now);
      ++failures;
    }
  }

  if (compare_cold) {
    // Cold reference: the same corpus through run_batch on a fresh
    // in-memory store. Invariant 14: warm/incremental service output is
    // byte-identical to this.
    std::vector<pipeline::BatchJob> reference =
        mutate_every > 0 ? pipeline::large_corpus_update_jobs(
                               count, 1701, 900, 48, mutate_every)
        : corpus == "generated" ? pipeline::generated_jobs(count)
                                : pipeline::large_corpus_jobs(count);
    pipeline::BatchReport cold = pipeline::run_batch(reference, {});
    for (size_t i = 0; i < statuses.size(); ++i) {
      if (statuses[i].result.dex_fingerprint != cold.jobs[i].dex_fingerprint) {
        std::fprintf(stderr, "COMPARE-COLD MISMATCH: %s (%016llx != %016llx)\n",
                     cold.jobs[i].name.c_str(),
                     static_cast<unsigned long long>(
                         statuses[i].result.dex_fingerprint),
                     static_cast<unsigned long long>(
                         cold.jobs[i].dex_fingerprint));
        ++failures;
      }
    }
    if (!quiet) {
      std::printf("compare-cold: %zu/%zu fingerprints identical\n",
                  statuses.size() - failures, statuses.size());
    }
  }

  if (json) {
    std::printf(
        "{\"corpus\":\"%s\",\"jobs\":%zu,\"ok\":%zu,\"incremental\":%zu,"
        "\"methods_new\":%llu,\"methods_reused\":%llu,\"wall_ms\":%.2f,"
        "\"store_entries\":%zu,\"restored_entries\":%zu,"
        "\"validated_records\":%zu,\"truncated_bytes\":%llu}\n",
        corpus.c_str(), statuses.size(), ok, warm,
        static_cast<unsigned long long>(methods_new),
        static_cast<unsigned long long>(methods_reused), wall_ms, entries_now,
        open.restored_entries, open.validated_records,
        static_cast<unsigned long long>(open.truncated_bytes));
  } else if (!quiet || ok != statuses.size() || failures) {
    std::printf(
        "\nservice: %zu/%zu ok | %zu warm | %llu new / %llu reused method "
        "trees | store %zu -> %zu bodies | %.1f ms\n",
        ok, statuses.size(), warm,
        static_cast<unsigned long long>(methods_new),
        static_cast<unsigned long long>(methods_reused), entries_at_open,
        entries_now, wall_ms);
  }

  return (ok == statuses.size() && failures == 0) ? 0 : 1;
}

#include "src/pipeline/batch.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/core/files.h"
#include "src/coverage/force_engine.h"
#include "src/coverage/tracker.h"
#include "src/dex/real/real_dex.h"
#include "src/support/hash.h"
#include "src/support/parallel.h"
#include "src/support/timer.h"

namespace dexlego::pipeline {

namespace {

// What one collection run hands back: one plan unit of a job, its baseline
// (natural execution) or a forced run.
struct UnitOutput {
  core::CollectionOutput collection;
  coverage::CoverageTracker coverage;
  size_t leaks = 0;
  size_t forced = 0;
  bool ok = false;
  std::string error;
};

// Executes one plan unit through the DexLego collect phase, with a per-unit
// coverage tracker and — for non-empty plans — the plan's ForceHooks riding
// along. The baseline unit (empty plan) honors the job's run count; forced
// units replay the driver once. Every run installs `classes`, the job's
// parse; `known` goes to DexLego::collect. Never throws: a failure lands in
// `error`.
UnitOutput run_unit(const BatchJob& job, const coverage::PlanUnit& unit,
                    std::shared_ptr<const dex::DexFile> classes,
                    const core::CollectionOutput* known = nullptr) {
  UnitOutput out;
  try {
    coverage::ForceHooks force_hooks(unit.plan);

    core::DexLegoOptions options = job.reveal;
    options.runs = unit.plan.empty() ? std::max(1, options.runs) : 1;
    auto base_configure = options.configure_runtime;
    options.configure_runtime = [&, base_configure](rt::Runtime& runtime) {
      if (base_configure) base_configure(runtime);
      if (job.configure_runtime) job.configure_runtime(runtime);
      runtime.add_hooks(&out.coverage);
      if (!unit.plan.empty()) runtime.add_hooks(&force_hooks);
    };
    auto base_driver = options.driver;
    options.driver = [&](rt::Runtime& runtime, int run_index) {
      if (base_driver) {
        base_driver(runtime, run_index);
      } else {
        core::default_driver(runtime, run_index);
      }
      out.leaks += runtime.leaks().size();
    };

    out.collection =
        core::DexLego::collect(job.apk, options, known, std::move(classes));
    out.forced = force_hooks.forced();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  return out;
}

// The offline half every job ends with, run on the fold in memory:
// reassemble, verify and write the revealed DEX, intern the fold's trees and
// count the bytes its five collection files would take. The revealed bytes
// equal DexLego::reveal's, which writes and reads the files (ARCHITECTURE
// invariant 6).
void finish(const BatchJob& job, const core::CollectionOutput& fold,
            DedupStore& store, bool keep_dex, JobResult& result) {
  core::RevealedDex revealed =
      core::DexLego::reassemble_dex(fold, job.reveal.reassemble);

  InternedCollection interned = intern_collection(fold, store);
  result.dedup_interns = interned.interns;
  result.unique_trees = interned.unique_trees;
  result.dedup_hits = interned.hits;
  result.dedup_misses = interned.misses;

  result.verified = revealed.verified;
  result.reassemble = revealed.stats;
  result.collection_bytes = core::encoded_size(fold);

  result.dex_fingerprint = support::fnv1a(revealed.classes);
  if (keep_dex) result.dex = std::move(revealed.classes);
}

}  // namespace

JobResult run_job(const BatchJob& job, DedupStore& store, bool keep_dex) {
  JobResult result;
  result.name = job.name;
  result.scenario = job.scenario;
  result.expect_leak = job.expect_leak;

  support::Stopwatch wall;
  double cpu_start = support::thread_cpu_ms();
  try {
    // One parse of the app's classes serves every unit's install, the
    // engine and the coverage report. An app that does not parse fails
    // with the parser's message. The engine is built before the baseline
    // runs, so an app it cannot take fails before any execution.
    auto original =
        std::make_shared<const dex::DexFile>(dex::load_classes(job.apk));
    std::optional<coverage::ForceEngine> engine;
    if (job.force) engine.emplace(*original, job.force_options);

    // A job whose baseline fails has no collection: it fails with the
    // baseline's error.
    UnitOutput baseline = run_unit(job, coverage::PlanUnit{}, original);
    if (!baseline.ok) throw std::runtime_error(baseline.error);
    // The baseline's collection is the fold: a Collector's output already
    // has unique class descriptors and a reflection_sites equal to its
    // per-method map sizes, so merging it into an empty collection would
    // change nothing.
    core::CollectionOutput fold = std::move(baseline.collection);
    size_t leaks = baseline.leaks;
    size_t forced_branches = 0;
    size_t force_paths = 0;
    if (engine) {
      // Each forced unit collects against the fold so far, which does not
      // change while it runs, then is folded in plan order. A failed
      // forced path loses only that path; observing whatever coverage it
      // recorded before dying keeps the frontier a function of the plans
      // alone, since the failure itself is deterministic for a given plan.
      engine->observe(coverage::PlanUnit{}, baseline.coverage);
      for (std::vector<coverage::PlanUnit> wave = engine->next_wave();
           !wave.empty(); wave = engine->next_wave()) {
        for (const coverage::PlanUnit& unit : wave) {
          UnitOutput out = run_unit(job, unit, original, &fold);
          if (out.ok) {
            leaks += out.leaks;
            forced_branches += out.forced;
            core::merge_collection(fold, std::move(out.collection),
                                   job.reveal.collector.max_variants);
          }
          engine->observe(unit, out.coverage);
        }
        force_paths += wave.size();
      }
    }

    finish(job, fold, store, keep_dex, result);
    // Coverage of the *original* image (meaningless for packed inputs, whose
    // classes.ldex is the shell stub). A report that cannot be computed over
    // the image just leaves 0.
    try {
      coverage::CoverageTracker::Report report =
          (engine ? engine->coverage() : baseline.coverage).report(*original);
      result.instruction_coverage = report.instruction_pct();
      result.branch_coverage = report.branch_pct();
    } catch (const std::exception&) {
    }
    result.leaks_observed = leaks;
    result.forced_branches = forced_branches;
    result.force_paths = force_paths;
    if (engine) result.force_waves = engine->stats().waves;
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    // Fail closed: whatever a job throws must cost that job, not the worker
    // thread — an escape would std::terminate the whole fleet.
    result.error = "unknown exception";
  }
  result.wall_ms = wall.elapsed_ms();
  result.cpu_ms = support::thread_cpu_ms() - cpu_start;
  return result;
}

BatchReport run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  DedupStore store;

  BatchReport report;
  report.jobs.resize(jobs.size());
  support::Stopwatch wall;

  // A job runs start to finish on the worker that claims it, one job per
  // claim, so the pool never has more workers than jobs and an empty batch
  // starts none.
  FleetStats& fleet = report.fleet;
  fleet.threads =
      support::parallel_for(jobs.size(), options.threads, [&](size_t i) {
        report.jobs[i] = run_job(jobs[i], store, options.keep_dex);
      });
  fleet.wall_ms = wall.elapsed_ms();
  fleet.jobs = jobs.size();
  fleet.queue_pops = jobs.size();
  fleet.queue_tasks = jobs.size();
  for (const JobResult& job : report.jobs) {
    if (job.ok) ++fleet.ok;
    if (job.verified) ++fleet.verified;
    if (job.expect_leak) ++fleet.expected_leaky;
    if (job.leaks_observed > 0) ++fleet.observed_leaky;
    fleet.mean_instruction_coverage += job.instruction_coverage;
    fleet.mean_branch_coverage += job.branch_coverage;
    fleet.forced_paths += job.force_paths;
    fleet.dedup_interns += job.dedup_interns;
    fleet.unique_trees += job.unique_trees;
    fleet.dedup_hits += job.dedup_hits;
    fleet.dedup_misses += job.dedup_misses;
    fleet.cpu_ms += job.cpu_ms;
  }
  if (fleet.jobs > 0) {
    fleet.mean_instruction_coverage /= static_cast<double>(fleet.jobs);
    fleet.mean_branch_coverage /= static_cast<double>(fleet.jobs);
  }
  uint64_t interns = fleet.dedup_hits + fleet.dedup_misses;
  fleet.dedup_hit_rate =
      interns == 0 ? 0.0
                   : static_cast<double>(fleet.dedup_hits) /
                         static_cast<double>(interns);
  fleet.store = store.stats();
  if (fleet.wall_ms > 0.0) {
    fleet.apps_per_sec =
        static_cast<double>(fleet.jobs) / (fleet.wall_ms / 1000.0);
  }
  return report;
}

}  // namespace dexlego::pipeline

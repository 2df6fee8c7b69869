// Batch extraction pipeline — shards apps across a worker thread pool and
// runs the full DexLego loop (paper Fig. 1) per app:
//
//   collect (instrumented execution, Section IV-A)
//   -> reassemble (offline, Section IV-B)
//   -> verify (structural + instruction-level DEX verification)
//   -> dedup  (intern collected trees into a shared DedupStore)
//
// The offline half runs on the collection the job holds in memory: the job
// writes and reads no collection file, and JobResult::collection_bytes is
// the files' size, counted without writing them. DexLego::reveal, which
// goes through the files, gives the same bytes and is the job path's
// differential oracle (ARCHITECTURE invariant 6).
//
// The unit of work is the job: a worker claims it and runs it start to
// finish through run_job, the one job path. A job parses its app once, runs
// a baseline (natural-execution) collection and takes that collection as
// its fold. A job with force execution enabled then runs every plan its
// ForceEngine hands out, wave by wave, on that same worker, folding each
// unit's collection (core::merge_collection) and coverage
// (ForceEngine::observe) in plan order as soon as it finishes; a plain job
// is a force job with no waves. Nothing a job computes depends on which
// worker runs it or what runs beside it, so the per-app output is
// byte-identical whether the batch runs on 1 thread or 16 (asserted by
// tests/pipeline_test.cpp). The only shared state is the content-addressed
// DedupStore and the job cursor. Per-app and fleet-wide stats (coverage,
// leak counts, forced paths, dedup hit rate, wall/CPU time) ride along in
// the report; bench/pipeline_throughput.cpp and bench/force_paths.cpp turn
// them into throughput trajectories.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/dexlego.h"
#include "src/coverage/force.h"
#include "src/dex/archive.h"
#include "src/pipeline/dedup_store.h"

namespace dexlego::pipeline {

// One input app plus everything needed to execute it.
struct BatchJob {
  std::string name;
  std::string scenario = "custom";  // "droidbench", "generated", "packed", ...
  dex::Apk apk;
  // Registers the sample's native methods on every runtime the job creates.
  std::function<void(rt::Runtime&)> configure_runtime;
  // Per-job reveal options (driver, runs, collector/reassemble tuning).
  core::DexLegoOptions reveal;
  bool expect_leak = false;  // ground truth when the scenario knows it
  // Force-execution exploration (docs/FORCE_EXECUTION.md): when true the job
  // runs one forced collection per ForceEngine plan after its baseline
  // collection, explored wave by wave under these budgets.
  bool force = false;
  coverage::ForceEngineOptions force_options;
};

// Everything measured about one job. `dex` is the reassembled classes.ldex
// (the byte-identity anchor). Dedup attribution is split into deterministic
// counters (`dedup_interns`, `unique_trees` — pure functions of this job's
// collection, identical at any thread count) and the advisory first-insert
// split (`dedup_hits`/`dedup_misses` — which job pays the miss for a shared
// body depends on worker scheduling; their SUM equals `dedup_interns` and is
// deterministic). All other fields except the timings are deterministic.
struct JobResult {
  std::string name;
  std::string scenario;
  bool ok = false;     // worker finished without an exception
  std::string error;   // exception text when !ok
  bool expect_leak = false;

  bool verified = false;              // reassembled DEX passed the verifier
  size_t leaks_observed = 0;          // leaks seen during collection runs
  double instruction_coverage = 0.0;  // of the original DEX, collection runs
  double branch_coverage = 0.0;       // branch sides of the original DEX
  size_t forced_branches = 0;         // branch outcomes overridden (force jobs)
  size_t force_paths = 0;             // forced plan units executed
  int force_waves = 0;                // frontier rounds the engine issued
  core::ReassembleStats reassemble;
  size_t collection_bytes = 0;  // five-file total (Table VI), counted
  uint64_t dedup_interns = 0;   // deterministic: trees offered to the store
  uint64_t unique_trees = 0;    // deterministic: distinct tree ids in this job
  uint64_t dedup_hits = 0;      // advisory: content already present
  uint64_t dedup_misses = 0;    // advisory: this job inserted first

  uint64_t dex_fingerprint = 0;  // fnv1a of `dex`
  std::vector<uint8_t> dex;      // revealed classes.ldex (empty if !keep_dex)

  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // worker-thread CPU time
};

// Fleet-wide aggregation. Deterministic across thread counts except the
// wall/CPU timings and apps_per_sec.
struct FleetStats {
  size_t threads = 0;
  size_t jobs = 0;
  size_t ok = 0;
  size_t verified = 0;
  size_t expected_leaky = 0;
  size_t observed_leaky = 0;  // jobs with leaks_observed > 0
  double mean_instruction_coverage = 0.0;
  double mean_branch_coverage = 0.0;
  size_t forced_paths = 0;  // forced plan units across the fleet

  DedupStore::Stats store;     // snapshot after the batch
  uint64_t dedup_interns = 0;  // deterministic: sum of per-job dedup_interns
  uint64_t unique_trees = 0;   // deterministic: sum of per-job unique_trees
  uint64_t dedup_hits = 0;     // this batch's interns only; hits + misses ==
  uint64_t dedup_misses = 0;   // dedup_interns on every schedule
  double dedup_hit_rate = 0.0;

  double wall_ms = 0.0;  // whole-batch wall time
  double cpu_ms = 0.0;   // summed worker CPU time
  double apps_per_sec = 0.0;

  // Cursor claims and jobs claimed. A worker claims one job at a time, so
  // both equal `jobs`. They stay because perfbench derives its per-layer
  // pipeline.pops_per_task from them; see docs/PIPELINE.md "Thread-pool
  // sizing and job claims".
  uint64_t queue_pops = 0;
  uint64_t queue_tasks = 0;
};

struct BatchReport {
  std::vector<JobResult> jobs;  // index-aligned with the input job list
  FleetStats fleet;
};

struct BatchOptions {
  // 0 = one worker per hardware thread (support::resolve_threads). 1 = run
  // inline on the caller thread (the sequential baseline the tests compare
  // against). Either way the pool never exceeds the job count, so an empty
  // batch starts no worker (FleetStats::threads reports it).
  size_t threads = 0;
  // Keep the reassembled DEX bytes in each JobResult (fingerprints are
  // always kept). Turn off for huge fleets to bound memory.
  bool keep_dex = true;
};

// Runs every job and returns per-job results in input order plus fleet
// stats. Each call interns into a fresh DedupStore of its own; a caller
// that needs another store (the service's persistent one) calls run_job.
// Never throws for job failures: a worker exception — std:: or not — lands
// in JobResult::{ok,error} and the remaining jobs still run.
BatchReport run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options = {});

// Runs ONE job start-to-finish on the calling thread, interning into
// `store`: the path each of run_batch's workers runs for every job it
// claims (the baseline collection, then, for a force job, every plan, each
// folded in plan order as it finishes). The extraction service's workers
// use this to multiplex many tenants' jobs onto one queue while reusing the
// batch semantics bit for bit. Fail-closed like run_batch: never throws for
// job failures; an app that does not parse fails with the parser's message.
JobResult run_job(const BatchJob& job, DedupStore& store, bool keep_dex = true);

}  // namespace dexlego::pipeline

// Canned input populations for the batch pipeline — one builder per
// workload the paper evaluates: the DroidBench-analog suite (Section V-B),
// seed-deterministic generated apps (benchsuite::appgen, the Table I/V-VIII
// populations), the guarded force-execution population (Table VII), packed
// inputs (src/packer presets, Table I/III) and snapshot dumps from the
// unpacker baselines (src/unpackers, Section VI-B). Each builder returns
// ready-to-run BatchJobs: apk + natives + ground truth; enable_force()
// switches a list to ForceEngine exploration.
#pragma once

#include <cstdint>
#include <vector>

#include "src/pipeline/batch.h"

namespace dexlego::pipeline {

// All 134 DroidBench-analog samples, with per-sample natives and the
// leaky/benign ground truth attached.
std::vector<BatchJob> droidbench_jobs();

// `count` generated full-coverage apps (seeds seed0, seed0+1, ...) of about
// `units` code units each. Deterministic: the same arguments always produce
// byte-identical apps.
std::vector<BatchJob> generated_jobs(size_t count, uint64_t seed0 = 101,
                                     size_t units = 1200);

// `count` generated apps with half their code behind semantic input guards
// and a slice in never-called methods (the Table VII force-execution
// population): the workload where ForceEngine exploration pays. Pair with
// enable_force() or dexlego_batch --scenario guarded --force.
std::vector<BatchJob> guarded_jobs(size_t count, uint64_t seed0 = 301,
                                   size_t units = 4000);

// A set of replayable DroidBench samples packed with every available
// Table I packer preset (shell + encrypted payload; the pipeline's
// collection phase is what unpacks them).
std::vector<BatchJob> packed_jobs();

// The same packed samples first dumped by the DexHunter-analog unpacker;
// the pipeline then runs on the dump, demonstrating that snapshot dumps are
// just another input scenario.
std::vector<BatchJob> unpacker_baseline_jobs();

// `count` generated apps shipped as real Android DEX containers
// (classes.dex instead of classes.ldex; every third job is split multidex —
// classes.dex + classes2.dex + ...). Exercises the src/dex/real frontend
// through the whole pipeline; results must be byte-identical to the same
// apps in LDEX containers (ARCHITECTURE invariant 12).
std::vector<BatchJob> realdex_jobs(size_t count, uint64_t seed0 = 501,
                                   size_t units = 1200);

// `count` market-style apps for scaling runs (the 10k-app corpus behind
// bench/pipeline_throughput's gated multi-core speedup). Each app embeds
// 1-4 shared libraries drawn with a popularity skew from a fixed pool of
// `library_pool` library seeds — popular libraries recur across thousands
// of apps, so roughly two thirds of every app's method bodies dedup
// fleet-wide (realistic market reuse, not the ~14% DroidBench shows) while
// the rest stays unique app code. Deterministic in (count, seed0); app
// sizes jitter around `units` code units.
std::vector<BatchJob> large_corpus_jobs(size_t count, uint64_t seed0 = 1701,
                                        size_t units = 900,
                                        size_t library_pool = 48);

// The same market corpus after a catalog update: every `mutate_every`-th app
// (indices 0, mutate_every, ...) ships new app-local code — same name,
// package, size class and embedded libraries, different body seed — while
// every other app is byte-identical to large_corpus_jobs with the same
// (count, seed0, units, library_pool). The incremental-extraction workload:
// a warm service re-extracts only the mutated apps (docs/SERVICE.md).
// `version` distinguishes successive updates (1, 2, ...); version 0 IS the
// base corpus.
std::vector<BatchJob> large_corpus_update_jobs(size_t count,
                                               uint64_t seed0 = 1701,
                                               size_t units = 900,
                                               size_t library_pool = 48,
                                               size_t mutate_every = 10,
                                               uint64_t version = 1);

// `count` hostile-but-valid apps from the fuzzer's mutator families
// (docs/FUZZING.md): behavioral mutants (guard stacking, reflection mazes,
// self-modifying writes, nested packing) plus verifier-clean bytecode
// mutants, seeded from seed0 so the population is deterministic. The
// adversarial counterpart of generated_jobs.
std::vector<BatchJob> fuzz_jobs(size_t count, uint64_t seed0 = 901);

// Concatenation of every builder above.
std::vector<BatchJob> all_jobs();

// `repeat` copies of the job list, names suffixed "#r<k>" so every copy
// stays distinguishable in reports — the workload-scaling knob shared by
// dexlego_batch --repeat and the throughput bench.
std::vector<BatchJob> replicate_jobs(const std::vector<BatchJob>& jobs,
                                     int repeat);

// Turns every job into a force-execution job with the given exploration
// budgets (dexlego_batch --force; docs/FORCE_EXECUTION.md).
// Returns `jobs` for chaining.
std::vector<BatchJob>& enable_force(std::vector<BatchJob>& jobs,
                                    const coverage::ForceEngineOptions& options);

}  // namespace dexlego::pipeline

#include "src/pipeline/scenarios.h"

#include <map>

#include "src/benchsuite/appgen.h"
#include "src/benchsuite/droidbench.h"
#include "src/fuzz/mutator.h"
#include "src/packer/packer.h"
#include "src/support/rng.h"
#include "src/unpackers/unpackers.h"

namespace dexlego::pipeline {

namespace {

// The packed-scenario sample set mirrors the differential suite's packed
// parameterization: replayable samples spanning clicks, ICC, lifecycle,
// dynamic loading and a benign control.
const char* const kPackableSamples[] = {"Straight1", "Button1",
                                        "Icc1",      "Lifecycle7",
                                        "DynLoad1",  "PrivateDataLeak3",
                                        "Clean1"};

std::function<void(rt::Runtime&)> with_packer_natives(
    std::function<void(rt::Runtime&)> sample_configure) {
  return [sample_configure = std::move(sample_configure)](rt::Runtime& rt) {
    packer::register_packer_natives(rt);
    if (sample_configure) sample_configure(rt);
  };
}

}  // namespace

std::vector<BatchJob> droidbench_jobs() {
  suite::DroidBench bench = suite::build_droidbench();
  std::vector<BatchJob> jobs;
  jobs.reserve(bench.samples.size());
  for (suite::Sample& sample : bench.samples) {
    BatchJob job;
    job.name = sample.name;
    job.scenario = "droidbench";
    job.apk = std::move(sample.apk);
    job.configure_runtime = std::move(sample.configure_runtime);
    job.expect_leak = sample.leaky;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> generated_jobs(size_t count, uint64_t seed0,
                                     size_t units) {
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    suite::AppSpec spec;
    spec.seed = seed0 + i;
    spec.name = "gen-s" + std::to_string(spec.seed);
    spec.package = "gen.s" + std::to_string(spec.seed);
    spec.target_units = units;
    spec.full_coverage_style = true;

    BatchJob job;
    job.name = spec.name;
    job.scenario = "generated";
    job.apk = suite::generate_app(spec).apk;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> guarded_jobs(size_t count, uint64_t seed0, size_t units) {
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    suite::AppSpec spec;
    spec.seed = seed0 + i;
    spec.name = "guarded-s" + std::to_string(spec.seed);
    spec.package = "guarded.s" + std::to_string(spec.seed);
    spec.target_units = units;
    spec.guarded_fraction = 0.5;
    spec.dead_fraction = 0.1;

    BatchJob job;
    job.name = spec.name;
    job.scenario = "guarded";
    job.apk = suite::generate_app(spec).apk;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> packed_jobs() {
  suite::DroidBench bench = suite::build_droidbench();
  std::vector<BatchJob> jobs;
  for (const packer::PackerSpec& spec : packer::table1_packers()) {
    if (!spec.available()) continue;
    for (const char* name : kPackableSamples) {
      const suite::Sample* sample = bench.find(name);
      if (sample == nullptr) continue;
      std::optional<dex::Apk> packed = packer::pack(sample->apk, spec);
      if (!packed.has_value()) continue;

      BatchJob job;
      job.name = spec.vendor + "/" + sample->name;
      job.scenario = "packed";
      job.apk = std::move(*packed);
      job.configure_runtime = with_packer_natives(sample->configure_runtime);
      job.expect_leak = sample->leaky;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<BatchJob> unpacker_baseline_jobs() {
  suite::DroidBench bench = suite::build_droidbench();
  packer::PackerSpec spec = packer::packer_360();
  std::vector<BatchJob> jobs;
  for (const char* name : kPackableSamples) {
    const suite::Sample* sample = bench.find(name);
    if (sample == nullptr) continue;
    std::optional<dex::Apk> packed = packer::pack(sample->apk, spec);
    if (!packed.has_value()) continue;

    unpackers::UnpackOptions unpack;
    unpack.configure_runtime = with_packer_natives(sample->configure_runtime);
    unpackers::UnpackResult dump = unpackers::dexhunter_unpack(*packed, unpack);

    BatchJob job;
    job.name = std::string("dexhunter/") + sample->name;
    job.scenario = "unpacked";
    job.apk = std::move(dump.unpacked);
    // The dump's entry is still the shell class, so replaying it needs the
    // packer natives alongside the sample's own.
    job.configure_runtime = with_packer_natives(sample->configure_runtime);
    job.expect_leak = sample->leaky;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> realdex_jobs(size_t count, uint64_t seed0,
                                   size_t units) {
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    suite::AppSpec spec;
    spec.seed = seed0 + i;
    spec.name = "realdex-s" + std::to_string(spec.seed);
    spec.package = "realdex.s" + std::to_string(spec.seed);
    spec.target_units = units;
    spec.full_coverage_style = true;
    // Every third job ships split multidex so the classesN.dex merge path
    // runs under the pipeline, not just in unit tests.
    spec.real_dex_parts = i % 3 == 2 ? 2 + i % 2 : 1;

    BatchJob job;
    job.name = spec.name;
    job.scenario = "realdex";
    job.apk = suite::generate_app(spec).apk;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

namespace {

// Shared generator behind large_corpus_jobs (version 0) and
// large_corpus_update_jobs (version >= 1). One rng stream per app index
// drives ALL structural draws (size jitter, library picks, library
// fraction), so an app keeps its shape, name and libraries across versions;
// a catalog update only re-seeds the app's OWN body stream for the mutated
// subset. That makes version N a faithful "10% of the market shipped an
// update" corpus: unmutated apps are byte-identical to version 0, mutated
// apps change their unique code but still dedup their library bodies.
std::vector<BatchJob> large_corpus_versioned(size_t count, uint64_t seed0,
                                             size_t units, size_t library_pool,
                                             size_t mutate_every,
                                             uint64_t version) {
  if (library_pool < 1) library_pool = 1;
  if (units < 200) units = 200;
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    support::Rng rng(seed0 + i);

    const bool mutated =
        version > 0 && mutate_every > 0 && i % mutate_every == 0;
    suite::AppSpec spec;
    spec.seed = seed0 + i;
    // A mutated app is the SAME app (name, package, libraries) shipping new
    // app-local code: only the body-stream seed moves, displaced far out of
    // the per-app seed range so no version collides with another app.
    if (mutated) spec.seed = seed0 + i + 0x5EED0000ull * version;
    spec.name = "mkt-s" + std::to_string(seed0 + i);
    spec.package = "mkt.s" + std::to_string(seed0 + i);
    // Sizes jitter 0.6x-1.4x around the target so the queue sees a mixed
    // workload instead of uniform quanta.
    spec.target_units =
        units - units / 5 * 2 + static_cast<size_t>(rng.below(units / 5 * 4));
    spec.full_coverage_style = true;

    // 1-4 embedded libraries, drawn with a popularity skew (the nested
    // below() biases toward low pool indices the way a handful of support
    // libraries dominates a real market corpus). ~65% of the app's units
    // land in library bodies that dedup against every other app embedding
    // the same seed.
    size_t n_libraries = 1 + static_cast<size_t>(rng.below(4));
    for (size_t l = 0; l < n_libraries; ++l) {
      uint64_t pick = rng.below(rng.below(library_pool) + 1);
      // Library seeds live far from the per-app seed range so an app's own
      // partitions can never accidentally share a body stream.
      uint64_t lib_seed = 0x11B0000000ull + pick;
      bool duplicate = false;
      for (uint64_t seen : spec.library_seeds) duplicate |= seen == lib_seed;
      if (!duplicate) spec.library_seeds.push_back(lib_seed);
    }
    spec.library_fraction = static_cast<double>(rng.range(55, 75)) / 100.0;

    BatchJob job;
    job.name = spec.name;
    job.scenario = "large_corpus";
    job.apk = suite::generate_app(spec).apk;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

std::vector<BatchJob> large_corpus_jobs(size_t count, uint64_t seed0,
                                        size_t units, size_t library_pool) {
  return large_corpus_versioned(count, seed0, units, library_pool,
                                /*mutate_every=*/0, /*version=*/0);
}

std::vector<BatchJob> large_corpus_update_jobs(size_t count, uint64_t seed0,
                                               size_t units,
                                               size_t library_pool,
                                               size_t mutate_every,
                                               uint64_t version) {
  return large_corpus_versioned(count, seed0, units, library_pool,
                                mutate_every, version);
}

std::vector<BatchJob> fuzz_jobs(size_t count, uint64_t seed0) {
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  std::vector<std::string> behavioral = fuzz::behavioral_seed_keys();
  std::vector<std::string> bytecode = fuzz::bytecode_seed_keys();
  // Resolving a seed rebuilds its base app from scratch; the pools are a
  // handful of keys, so cache like run_campaign's up-front seed map does.
  std::map<std::string, fuzz::SeedInput> seeds;
  for (size_t i = 0; i < count; ++i) {
    uint64_t rng_seed = seed0 + i;
    // Alternate families; both pre-filter to hostile-but-*valid* apps, so
    // every job is expected to collect, reassemble and verify.
    fuzz::Family family =
        i % 2 == 0 ? fuzz::Family::kBehavioral : fuzz::Family::kBytecode;
    const std::vector<std::string>& pool =
        family == fuzz::Family::kBehavioral ? behavioral : bytecode;
    support::Rng rng(rng_seed);
    const std::string& key = pool[rng.below(pool.size())];
    auto it = seeds.find(key);
    if (it == seeds.end()) {
      it = seeds.emplace(key, fuzz::resolve_seed(key)).first;
    }
    const fuzz::SeedInput& seed = it->second;
    std::vector<fuzz::MutationOp> ops =
        fuzz::plan_ops(family, seed, rng.next(), 4);
    fuzz::Mutant mutant = fuzz::apply_ops(family, seed, ops);

    BatchJob job;
    job.name = std::string(fuzz::family_name(family)) + "-s" +
               std::to_string(rng_seed);
    job.scenario = "fuzz";
    // Hostile apps routinely loop forever (goto-loop mutants); bound each
    // collection run like the fuzz oracle does instead of burning the
    // pipeline-default 200M-step budget per phase.
    job.reveal.runtime.step_limit = 400'000;
    job.apk = std::move(mutant.apk);
    job.configure_runtime = std::move(mutant.configure_runtime);
    // Ground truth only survives for behavioral mutants (the recipe *sets*
    // leak_flows); a bytecode mutation may sever the seed's leaking path.
    job.expect_leak =
        family == fuzz::Family::kBehavioral && mutant.expect_leak;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> replicate_jobs(const std::vector<BatchJob>& jobs,
                                     int repeat) {
  std::vector<BatchJob> replicated;
  if (repeat < 1) repeat = 1;
  replicated.reserve(jobs.size() * static_cast<size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    for (const BatchJob& job : jobs) {
      BatchJob copy = job;
      copy.name = job.name + "#r" + std::to_string(r);
      replicated.push_back(std::move(copy));
    }
  }
  return replicated;
}

std::vector<BatchJob>& enable_force(std::vector<BatchJob>& jobs,
                                    const coverage::ForceEngineOptions& options) {
  for (BatchJob& job : jobs) {
    job.force = true;
    job.force_options = options;
  }
  return jobs;
}

std::vector<BatchJob> all_jobs() {
  std::vector<BatchJob> jobs = droidbench_jobs();
  std::vector<BatchJob> more = generated_jobs(8);
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = guarded_jobs(4);
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = packed_jobs();
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = unpacker_baseline_jobs();
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = realdex_jobs(6);
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = fuzz_jobs(6);
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  more = large_corpus_jobs(12);
  for (BatchJob& job : more) jobs.push_back(std::move(job));
  return jobs;
}

}  // namespace dexlego::pipeline

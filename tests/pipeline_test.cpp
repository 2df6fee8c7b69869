// Batch-pipeline suite: the scheduling-independence contract. Whatever the
// thread count, pipeline::run_batch must produce the same reassembled DEX
// bytes per app as a sequential run (and as a direct core::DexLego::reveal),
// and the DedupStore must hand out stable content ids no matter which worker
// interns first. The paper's correctness claim (Section V) is carried by the
// differential oracle (fuzz::run_oracle); this suite guarantees the fleet
// layer on top of it changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/analysis/static_taint.h"
#include "src/benchsuite/droidbench.h"
#include "src/bytecode/assembler.h"
#include "src/bytecode/verify_code.h"
#include "src/core/dexlego.h"
#include "src/core/semantic_check.h"
#include "src/coverage/force.h"
#include "src/coverage/force_engine.h"
#include "src/coverage/tracker.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/fuzz/triage.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/dedup_store.h"
#include "src/pipeline/scenarios.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego {
namespace {

// --- DedupStore ---

std::vector<std::vector<uint8_t>> test_blobs(size_t count) {
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint8_t> blob;
    for (size_t j = 0; j <= i % 37; ++j) {
      blob.push_back(static_cast<uint8_t>((i * 131 + j * 17) & 0xff));
    }
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

TEST(DedupStore, InternIsContentAddressed) {
  pipeline::DedupStore store;
  auto blobs = test_blobs(8);
  auto first = store.intern(blobs[0]);
  EXPECT_TRUE(first.inserted);
  auto again = store.intern(blobs[0]);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(first.id, again.id);
  auto other = store.intern(blobs[1]);
  EXPECT_TRUE(other.inserted);
  EXPECT_NE(first.id, other.id);

  const std::vector<uint8_t>* stored = store.lookup(first.id);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, blobs[0]);
  EXPECT_EQ(store.lookup(~first.id), nullptr);

  pipeline::DedupStore::Stats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes_stored, blobs[0].size() + blobs[1].size());
  EXPECT_EQ(stats.bytes_deduped, blobs[0].size());
}

TEST(DedupStore, StableIdsUnderConcurrentInsert) {
  const size_t kBlobs = 64;
  const size_t kThreads = 8;
  auto blobs = test_blobs(kBlobs);

  // Sequential reference ids.
  std::vector<pipeline::DedupStore::Id> reference(kBlobs);
  {
    pipeline::DedupStore store;
    for (size_t i = 0; i < kBlobs; ++i) reference[i] = store.intern(blobs[i]).id;
  }

  // Every thread interns every blob, each starting at a different rotation so
  // first-insert races cover many interleavings.
  pipeline::DedupStore store;
  std::vector<std::vector<pipeline::DedupStore::Id>> ids(
      kThreads, std::vector<pipeline::DedupStore::Id>(kBlobs));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t k = 0; k < kBlobs; ++k) {
        size_t i = (k + t * 7) % kBlobs;
        ids[t][i] = store.intern(blobs[i]).id;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], reference) << "thread " << t;
  }
  pipeline::DedupStore::Stats stats = store.stats();
  EXPECT_EQ(stats.entries, kBlobs);
  EXPECT_EQ(stats.misses, kBlobs);
  EXPECT_EQ(stats.hits, kThreads * kBlobs - kBlobs);
  EXPECT_EQ(stats.collisions, 0u);
}

TEST(DedupStore, ForcedCollisionFailsOpenWithDeterministicRekey) {
  // A hostile app embedding an FNV-colliding content pair must not kill its
  // own analysis job. A real 64-bit collision is not constructible by brute
  // force, so inject a hash whose primary id is constant (everything
  // collides at salt 0) while the salted re-hash chain separates contents.
  auto weak_hash = [](std::span<const uint8_t> content,
                      uint64_t salt) -> pipeline::DedupStore::Id {
    if (salt == 0) return 42;
    support::Fnv1a h;
    h.add(salt);
    h.add_bytes(content);
    return h.digest();
  };

  pipeline::DedupStore store{pipeline::DedupStore::HashFn(weak_hash)};
  std::vector<uint8_t> a = {1, 2, 3};
  std::vector<uint8_t> b = {9, 8, 7, 6};

  auto first = store.intern(a);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.id, 42u);

  // b collides with a at salt 0: no throw, a distinct re-keyed id.
  auto second = store.intern(b);
  EXPECT_TRUE(second.inserted);
  EXPECT_NE(second.id, first.id);
  EXPECT_GT(store.stats().collisions, 0u);

  // Both contents stay retrievable under their own ids...
  ASSERT_NE(store.lookup(first.id), nullptr);
  ASSERT_NE(store.lookup(second.id), nullptr);
  EXPECT_EQ(*store.lookup(first.id), a);
  EXPECT_EQ(*store.lookup(second.id), b);

  // ...and re-interning deterministically re-walks to the same ids without
  // re-counting the collision (a steady-state hit must not amplify the
  // counter or the warning log on every intern).
  uint64_t collisions_after_insert = store.stats().collisions;
  auto a_again = store.intern(a);
  auto b_again = store.intern(b);
  EXPECT_FALSE(a_again.inserted);
  EXPECT_FALSE(b_again.inserted);
  EXPECT_EQ(a_again.id, first.id);
  EXPECT_EQ(b_again.id, second.id);
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_EQ(store.stats().collisions, collisions_after_insert);

  // A third colliding content walks one link further down the chain.
  std::vector<uint8_t> c = {5, 5, 5, 5, 5};
  auto third = store.intern(c);
  EXPECT_TRUE(third.inserted);
  EXPECT_NE(third.id, first.id);
  EXPECT_NE(third.id, second.id);
  EXPECT_EQ(*store.lookup(third.id), c);
}

TEST(DedupStore, ConcurrentShardedStressMatchesSequentialReference) {
  // The sharding contract under fire: a storm of concurrent interns over an
  // overlapping blob set laced with forced primary-hash collisions must end
  // in the same store as a sequential run — same entry/hit/miss/byte/
  // collision totals, stable ids for every non-colliding content, and for
  // colliding contents a consistent id across all racing threads plus a
  // lookup that round-trips.
  //
  // The injected hash keeps the top byte (so ids spread across shards — the
  // top byte picks the shard) but collapses the rest to 4 bits, manufacturing
  // many salt-0 collisions; salts >= 1 hash the full content, so re-keyed ids
  // are unique and every content's collision chain has exactly one link.
  auto masked_hash = [](std::span<const uint8_t> content,
                        uint64_t salt) -> pipeline::DedupStore::Id {
    if (salt == 0) return support::fnv1a(content) & 0xFF0000000000000Full;
    support::Fnv1a h;
    h.add(salt);
    h.add_bytes(content);
    return h.digest();
  };

  const size_t kBlobs = 160;
  const size_t kThreads = 8;
  auto blobs = test_blobs(kBlobs);

  // Sequential reference with the same intern multiplicity.
  pipeline::DedupStore reference{pipeline::DedupStore::HashFn(masked_hash)};
  std::vector<pipeline::DedupStore::Id> reference_ids(kBlobs);
  for (size_t r = 0; r < kThreads; ++r) {
    for (size_t i = 0; i < kBlobs; ++i) {
      reference_ids[i] = reference.intern(blobs[i]).id;
    }
  }
  pipeline::DedupStore::Stats expected = reference.stats();
  EXPECT_EQ(expected.entries, kBlobs);
  EXPECT_EQ(expected.misses, kBlobs);
  EXPECT_EQ(expected.hits, kThreads * kBlobs - kBlobs);
  EXPECT_GT(expected.collisions, 0u) << "mask failed to force collisions";

  // Blobs whose primary id is unique never enter a collision chain, so their
  // id is race-free and must match the reference exactly.
  std::unordered_map<pipeline::DedupStore::Id, size_t> primary_count;
  for (const auto& blob : blobs) ++primary_count[masked_hash(blob, 0)];

  pipeline::DedupStore store{pipeline::DedupStore::HashFn(masked_hash)};

  std::vector<std::vector<pipeline::DedupStore::Id>> ids(
      kThreads, std::vector<pipeline::DedupStore::Id>(kBlobs));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t k = 0; k < kBlobs; ++k) {
        size_t i = (k + t * 13) % kBlobs;  // rotated orders race the inserts
        ids[t][i] = store.intern(blobs[i]).id;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  for (size_t i = 0; i < kBlobs; ++i) {
    // Which content wins the contested primary slot is a race, but every
    // thread must still have observed ONE winner per content...
    for (size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]) << "blob " << i << " thread " << t;
    }
    // ...the id must round-trip to the exact bytes...
    const std::vector<uint8_t>* stored = store.lookup(ids[0][i]);
    ASSERT_NE(stored, nullptr) << "blob " << i;
    EXPECT_EQ(*stored, blobs[i]) << "blob " << i;
    // ...a fresh intern re-walks to the same id...
    EXPECT_EQ(store.intern(blobs[i]).id, ids[0][i]) << "blob " << i;
    // ...and uncontested ids match the sequential reference bit for bit.
    if (primary_count[masked_hash(blobs[i], 0)] == 1) {
      EXPECT_EQ(ids[0][i], reference_ids[i]) << "blob " << i;
    }
  }

  // Totals match the sequential reference. The per-blob re-walk checks
  // above added exactly kBlobs extra hits (and their bytes) on top of the
  // concurrent phase.
  pipeline::DedupStore::Stats stats = store.stats();
  EXPECT_EQ(stats.entries, expected.entries);
  EXPECT_EQ(stats.misses, expected.misses);
  EXPECT_EQ(stats.hits, expected.hits + kBlobs);
  EXPECT_EQ(stats.bytes_stored, expected.bytes_stored);
  EXPECT_EQ(stats.bytes_deduped,
            expected.bytes_deduped + expected.bytes_stored);
  EXPECT_EQ(stats.collisions, expected.collisions);
}

TEST(DedupStore, IdenticalAppsInternToFullHits) {
  // Two reveals of the same app produce identical trees, so the second
  // intern_collection is all hits — the "repeated executions stored once"
  // half of the store's contract.
  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(1);
  core::DexLego dexlego;
  core::RevealResult first = dexlego.reveal(jobs[0].apk);
  core::DexLego again;
  core::RevealResult second = again.reveal(jobs[0].apk);

  pipeline::DedupStore store;
  pipeline::InternedCollection a =
      pipeline::intern_collection(first.collection, store);
  EXPECT_GT(a.misses, 0u);
  EXPECT_EQ(a.hits, 0u);
  pipeline::InternedCollection b =
      pipeline::intern_collection(second.collection, store);
  EXPECT_EQ(b.misses, 0u);
  EXPECT_EQ(b.hits, b.interns);
  EXPECT_EQ(b.unique_trees, a.unique_trees);
}

// --- run_batch vs the sequential path ---

void expect_identical_reports(const pipeline::BatchReport& sequential,
                              const pipeline::BatchReport& parallel) {
  ASSERT_EQ(sequential.jobs.size(), parallel.jobs.size());
  for (size_t i = 0; i < sequential.jobs.size(); ++i) {
    const pipeline::JobResult& seq = sequential.jobs[i];
    const pipeline::JobResult& par = parallel.jobs[i];
    EXPECT_EQ(seq.name, par.name);
    EXPECT_EQ(seq.ok, par.ok) << seq.name;
    EXPECT_EQ(seq.verified, par.verified) << seq.name;
    EXPECT_EQ(seq.leaks_observed, par.leaks_observed) << seq.name;
    EXPECT_EQ(seq.dex_fingerprint, par.dex_fingerprint) << seq.name;
    EXPECT_EQ(seq.dex, par.dex) << "reassembled DEX bytes differ: " << seq.name;
    const core::ReassembleStats& a = seq.reassemble;
    const core::ReassembleStats& b = par.reassemble;
    EXPECT_EQ(std::tie(a.classes, a.methods, a.variants, a.guards,
                       a.reflection_replaced, a.pad_edges, a.output_code_units),
              std::tie(b.classes, b.methods, b.variants, b.guards,
                       b.reflection_replaced, b.pad_edges, b.output_code_units))
        << seq.name;
    EXPECT_EQ(seq.collection_bytes, par.collection_bytes) << seq.name;
    EXPECT_DOUBLE_EQ(seq.instruction_coverage, par.instruction_coverage)
        << seq.name;
    EXPECT_DOUBLE_EQ(seq.branch_coverage, par.branch_coverage) << seq.name;
    EXPECT_EQ(seq.forced_branches, par.forced_branches) << seq.name;
    EXPECT_EQ(seq.force_paths, par.force_paths) << seq.name;
    EXPECT_EQ(seq.force_waves, par.force_waves) << seq.name;
    // Deterministic per-job dedup attribution: interns and unique trees are
    // pure functions of the job's collection, so they must match at ANY
    // schedule — unlike hits/misses, whose per-job split is advisory.
    EXPECT_EQ(seq.dedup_interns, par.dedup_interns) << seq.name;
    EXPECT_EQ(seq.unique_trees, par.unique_trees) << seq.name;
    EXPECT_EQ(par.dedup_hits + par.dedup_misses, par.dedup_interns) << seq.name;
  }
  // Per-job hit/miss attribution is scheduling-dependent; the fleet totals
  // and the store contents are not.
  EXPECT_EQ(sequential.fleet.dedup_interns, parallel.fleet.dedup_interns);
  EXPECT_EQ(sequential.fleet.unique_trees, parallel.fleet.unique_trees);
  EXPECT_EQ(sequential.fleet.dedup_hits + sequential.fleet.dedup_misses,
            parallel.fleet.dedup_hits + parallel.fleet.dedup_misses);
  EXPECT_EQ(sequential.fleet.dedup_hits, parallel.fleet.dedup_hits);
  EXPECT_EQ(sequential.fleet.store.entries, parallel.fleet.store.entries);
  EXPECT_EQ(sequential.fleet.store.bytes_stored,
            parallel.fleet.store.bytes_stored);
  EXPECT_EQ(sequential.fleet.verified, parallel.fleet.verified);
  EXPECT_EQ(sequential.fleet.observed_leaky, parallel.fleet.observed_leaky);
}

TEST(BatchPipeline, FullDroidBenchParallelMatchesSequentialByteForByte) {
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  pipeline::BatchOptions sequential;
  sequential.threads = 1;
  pipeline::BatchReport seq = pipeline::run_batch(jobs, sequential);
  ASSERT_EQ(seq.fleet.ok, jobs.size());
  EXPECT_EQ(seq.fleet.verified, jobs.size());

  pipeline::BatchOptions parallel;
  parallel.threads = 8;
  pipeline::BatchReport par = pipeline::run_batch(jobs, parallel);
  expect_identical_reports(seq, par);
}

TEST(BatchPipeline, DeterministicAcrossThreadCounts) {
  // Mixed workload: generated + packed inputs alongside DroidBench samples.
  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(4);
  std::vector<pipeline::BatchJob> packed = pipeline::packed_jobs();
  for (size_t i = 0; i < 6 && i < packed.size(); ++i) {
    jobs.push_back(std::move(packed[i]));
  }
  suite::DroidBench bench = suite::build_droidbench();
  for (const char* name : {"Button1", "ImplicitFlow1", "Clean1"}) {
    const suite::Sample* sample = bench.find(name);
    ASSERT_NE(sample, nullptr) << name;
    pipeline::BatchJob job;
    job.name = sample->name;
    job.scenario = "droidbench";
    job.apk = sample->apk;
    job.configure_runtime = sample->configure_runtime;
    job.expect_leak = sample->leaky;
    jobs.push_back(std::move(job));
  }

  pipeline::BatchOptions baseline;
  baseline.threads = 1;
  pipeline::BatchReport reference = pipeline::run_batch(jobs, baseline);
  for (size_t threads : {2u, 3u, 8u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_reports(reference, report);
  }
}

// --- the large_corpus scenario: the 10k-app scaling population --------------

TEST(BatchPipeline, LargeCorpusIsDeterministic) {
  std::vector<pipeline::BatchJob> a = pipeline::large_corpus_jobs(20);
  std::vector<pipeline::BatchJob> b = pipeline::large_corpus_jobs(20);
  ASSERT_EQ(a.size(), 20u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].scenario, "large_corpus");
    EXPECT_EQ(a[i].apk.write(), b[i].apk.write()) << a[i].name;
  }
  // A different base seed is a different market.
  std::vector<pipeline::BatchJob> c = pipeline::large_corpus_jobs(20, 7777);
  bool any_differs = false;
  for (size_t i = 0; i < c.size(); ++i) {
    any_differs |= c[i].apk.write() != a[i].apk.write();
  }
  EXPECT_TRUE(any_differs);
}

TEST(BatchPipeline, LargeCorpusHasMarketStyleOverlapAndVerifies) {
  // The scenario exists to make fleet-level dedup meaningful: shared library
  // seeds recur across apps with a popularity skew, so the hit rate must be
  // market-like (roughly half the interned bodies dedup), not the ~14%
  // DroidBench shows — while every app still reveals and verifies.
  std::vector<pipeline::BatchJob> jobs = pipeline::large_corpus_jobs(120);
  pipeline::BatchOptions options;
  options.threads = 1;
  options.keep_dex = false;
  pipeline::BatchReport report = pipeline::run_batch(jobs, options);
  EXPECT_EQ(report.fleet.ok, jobs.size());
  EXPECT_EQ(report.fleet.verified, jobs.size());
  EXPECT_GT(report.fleet.dedup_hit_rate, 0.35)
      << "library overlap collapsed: hit rate "
      << report.fleet.dedup_hit_rate;
  // Distinct apps, not clones: unique app code keeps fingerprints apart.
  for (size_t i = 1; i < report.jobs.size(); ++i) {
    EXPECT_NE(report.jobs[i].dex_fingerprint, report.jobs[0].dex_fingerprint)
        << report.jobs[i].name;
  }
}

TEST(BatchPipeline, MatchesDirectRevealAndDifferentialOracle) {
  // The batch worker wraps the driver and adds a coverage hook; neither may
  // change the revealed output. Anchor against the differential oracle's
  // own reveal and its behavioural-equivalence verdict.
  suite::DroidBench bench = suite::build_droidbench();
  std::vector<pipeline::BatchJob> jobs;
  std::vector<const suite::Sample*> samples;
  for (const char* name : {"Button1", "Straight1"}) {
    const suite::Sample* sample = bench.find(name);
    ASSERT_NE(sample, nullptr) << name;
    samples.push_back(sample);
    pipeline::BatchJob job;
    job.name = sample->name;
    job.apk = sample->apk;
    job.configure_runtime = sample->configure_runtime;
    jobs.push_back(std::move(job));
  }
  pipeline::BatchReport report = pipeline::run_batch(jobs, {});

  fuzz::OracleOptions options;
  options.step_limit = rt::RuntimeConfig{}.step_limit;
  for (size_t i = 0; i < samples.size(); ++i) {
    fuzz::OracleReport oracle = fuzz::run_oracle(
        {samples[i]->apk, samples[i]->configure_runtime}, options);
    EXPECT_EQ(oracle.outcome, fuzz::Outcome::kEquivalent)
        << samples[i]->name << ": " << oracle.detail;
    EXPECT_EQ(report.jobs[i].dex, oracle.reveal.revealed_apk.classes())
        << "batch output diverged from direct reveal: " << samples[i]->name;
  }
}

// DexLego::reveal under the job's own options: the path through the five
// collection files, the job path's differential oracle (ARCHITECTURE
// invariant 6).
core::RevealResult reveal_through_files(const pipeline::BatchJob& job) {
  core::DexLegoOptions options = job.reveal;
  options.runs = std::max(1, options.runs);
  auto base_configure = options.configure_runtime;
  options.configure_runtime = [&job, base_configure](rt::Runtime& runtime) {
    if (base_configure) base_configure(runtime);
    if (job.configure_runtime) job.configure_runtime(runtime);
  };
  return core::DexLego(options).reveal(job.apk);
}

TEST(BatchPipeline, JobPathMatchesRevealOverWholeCorpora) {
  // run_job reassembles the fold it holds; reveal writes the five files and
  // reads them back. Every job must come out byte-identical both ways, with
  // collection_bytes the files' size.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  for (std::vector<pipeline::BatchJob> more :
       {pipeline::packed_jobs(), pipeline::realdex_jobs(8),
        pipeline::fuzz_jobs(60, 901)}) {
    for (pipeline::BatchJob& job : more) jobs.push_back(std::move(job));
  }
  pipeline::DedupStore store;
  size_t compared = 0;
  for (const pipeline::BatchJob& job : jobs) {
    SCOPED_TRACE(job.scenario + "/" + job.name);
    ASSERT_FALSE(job.force);
    pipeline::JobResult result = pipeline::run_job(job, store);
    if (!result.ok) {
      EXPECT_ANY_THROW(reveal_through_files(job)) << result.error;
      continue;
    }
    core::RevealResult reveal = reveal_through_files(job);
    EXPECT_EQ(result.dex, reveal.revealed_apk.classes());
    EXPECT_EQ(result.collection_bytes, reveal.files.total_size());
    EXPECT_EQ(result.verified, reveal.verified);
    ++compared;
  }
  EXPECT_GT(compared, jobs.size() * 9 / 10);
}

// An activity declaring two statics named x: x:I = 7 and
// x:Ljava/lang/String; = "hello".
dex::Apk same_name_statics_apk() {
  dex::DexBuilder b;
  b.start_class("Lapp/Statics;", "Landroid/app/Activity;");
  b.add_static_field("x", "I", dex::DexBuilder::int_value(7));
  b.add_static_field("x", "Ljava/lang/String;", b.string_value("hello"));
  bc::MethodAssembler as(1, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "app.statics";
  manifest.entry_class = "Lapp/Statics;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(BatchPipeline, SameNameStaticsKeepTheirOwnValues) {
  pipeline::BatchJob job;
  job.name = "same-name-statics";
  job.apk = same_name_statics_apk();
  pipeline::DedupStore store;
  pipeline::JobResult result = pipeline::run_job(job, store);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.dex, core::DexLego().reveal(job.apk).revealed_apk.classes());

  dex::DexFile revealed = dex::read_dex(result.dex);
  const dex::ClassDef* cls = revealed.find_class("Lapp/Statics;");
  ASSERT_NE(cls, nullptr);
  size_t int_fields = 0;
  for (const dex::FieldDef& f : cls->static_fields) {
    const dex::FieldRef& ref = revealed.fields.at(f.field_ref);
    if (revealed.string_at(ref.name) != "x" ||
        revealed.type_descriptor(ref.type) != "I") {
      continue;
    }
    ++int_fields;
    ASSERT_TRUE(f.static_init.has_value());
    EXPECT_EQ(f.static_init->kind, dex::EncodedValue::Kind::kInt);
    EXPECT_EQ(f.static_init->i, 7);
  }
  EXPECT_EQ(int_fields, 1u);
}

// An activity whose loop body, an invoke of a native and the back branch,
// the native rewrites on every pass until the `passes`-th, which turns the
// branch into return-void. No pass converges with the one before, so every
// pass nests the method's collection tree one level deeper.
pipeline::BatchJob nesting_loop_job(size_t passes) {
  const std::string cls = "Lapp/Nest;";
  dex::DexBuilder b;
  uint32_t flip_a = b.intern_method(cls, "flipA", "V", {});
  b.intern_method(cls, "flipB", "V", {});
  b.start_class(cls, "Landroid/app/Activity;");
  bc::MethodAssembler as(3, 1);
  auto loop = as.make_label();
  as.const16(0, 0);
  as.const16(1, 0);
  as.bind(loop);
  size_t invoke_pc = as.current_pc();
  as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(flip_a), {});
  size_t branch_pc = as.current_pc();
  as.if_testz(bc::Op::kIfEqz, 0, loop);  // v0 and v1 are both 0
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  b.add_native_method("flipA", "V", {}, dex::kAccStatic);
  b.add_native_method("flipB", "V", {}, dex::kAccStatic);
  dex::Manifest manifest;
  manifest.package = "app.nest";
  manifest.entry_class = cls;
  pipeline::BatchJob job;
  job.name = "nesting-loop";
  job.apk.set_manifest(manifest);
  job.apk.set_classes(dex::write_dex(std::move(b).build()));
  job.configure_runtime = [=](rt::Runtime& runtime) {
    auto done = std::make_shared<size_t>(0);
    for (const char* name : {"flipA", "flipB"}) {
      runtime.register_native(
          cls + "->" + name,
          [=](rt::NativeContext& ctx, std::span<rt::Value>) {
            rt::RtMethod& m = *ctx.caller;
            if (++*done == passes) {
              m.patch_code_unit(branch_pc, static_cast<uint16_t>(
                                               bc::Op::kReturnVoid));
              m.patch_code_unit(branch_pc + 1,
                                static_cast<uint16_t>(bc::Op::kNop));
              return rt::Value::Null();
            }
            const dex::DexFile& file = m.image->file;
            uint32_t a = file.find_method_ref(cls, "flipA");
            uint32_t other = m.code->insns[invoke_pc + 1] == a
                                 ? file.find_method_ref(cls, "flipB")
                                 : a;
            m.patch_code_unit(invoke_pc + 1, static_cast<uint16_t>(other));
            // if-eqz v0 <-> if-eqz v1
            m.patch_code_unit(branch_pc, static_cast<uint16_t>(
                                             m.code->insns[branch_pc] ^ 0x0100));
            return rt::Value::Null();
          });
    }
  };
  return job;
}

TEST(BatchPipeline, TreeNestedPastTheFileCapFailsLikeReveal) {
  // The collector stops at the files' depth cap: a tree of kMaxTreeDepth
  // levels reveals both ways, and one pass more fails both ways with the
  // decoder's error. 300,000 passes nest deep enough that walking the tree
  // recursively would exhaust the stack.
  for (size_t passes : {size_t{8}, core::kMaxTreeDepth,
                        core::kMaxTreeDepth + 1, size_t{300000}}) {
    SCOPED_TRACE("passes=" + std::to_string(passes));
    pipeline::BatchJob job = nesting_loop_job(passes);
    pipeline::DedupStore store;
    pipeline::JobResult result = pipeline::run_job(job, store);
    if (passes <= core::kMaxTreeDepth) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.dex, reveal_through_files(job).revealed_apk.classes());
      continue;
    }
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "collection tree nested deeper than 1024 levels");
    try {
      reveal_through_files(job);
      ADD_FAILURE() << "reveal took a tree past the cap";
    } catch (const support::ParseError& e) {
      EXPECT_STREQ(e.what(), "collection tree nested deeper than 1024 levels");
    }
  }
}

TEST(BatchPipeline, PadBeyondRel16FailsTheJob) {
  // onCreate's if-eqz always jumps over a nop into 33,000 executed nops, so
  // the goto that stands in for its never-taken fallthrough must reach the
  // landing pad after them, more than 32,767 units away. The assembler
  // refuses that offset instead of truncating it to 16 bits.
  dex::DexBuilder b;
  b.start_class("Lapp/Far;", "Landroid/app/Activity;");
  bc::MethodAssembler as(2, 1);
  auto far = as.make_label();
  as.const16(0, 0);
  as.if_testz(bc::Op::kIfEqz, 0, far);
  as.nop();  // never executed
  as.bind(far);
  for (int i = 0; i < 33000; ++i) as.nop();
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "app.far";
  manifest.entry_class = "Lapp/Far;";
  pipeline::BatchJob job;
  job.name = "far-pad";
  job.apk.set_manifest(manifest);
  job.apk.set_classes(dex::write_dex(std::move(b).build()));

  pipeline::DedupStore store;
  pipeline::JobResult result = pipeline::run_job(job, store);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "branch offset out of rel16 range");
  try {
    reveal_through_files(job);
    ADD_FAILURE() << "reveal wrote a truncated branch offset";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "branch offset out of rel16 range");
  }
}

// onCreate of `count` instructions, each on a line of its own: count - 1
// nops, then return-void.
dex::Apk one_line_per_instruction_apk(size_t count) {
  dex::DexBuilder b;
  b.start_class("Lapp/Lines;", "Landroid/app/Activity;");
  bc::MethodAssembler as(1, 1);
  for (size_t i = 1; i < count; ++i) {
    as.line(static_cast<uint32_t>(i));
    as.nop();
  }
  as.line(static_cast<uint32_t>(count));
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "app.lines";
  manifest.entry_class = "Lapp/Lines;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(BatchPipeline, LongLineTableRevealsInFull) {
  // Every instruction runs and keeps its pc, so the revealed method carries
  // the original line table entry for entry.
  constexpr size_t kCount = 32000;
  pipeline::BatchJob job;
  job.name = "lines";
  job.apk = one_line_per_instruction_apk(kCount);
  pipeline::DedupStore store;
  pipeline::JobResult result = pipeline::run_job(job, store);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.verified);
  EXPECT_DOUBLE_EQ(result.instruction_coverage, 1.0);

  auto lines_of = [](const dex::DexFile& file) {
    const dex::ClassDef* cls = file.find_class("Lapp/Lines;");
    EXPECT_NE(cls, nullptr);
    return cls == nullptr ? std::vector<dex::LineEntry>{}
                          : cls->virtual_methods.at(0).code->lines;
  };
  std::vector<dex::LineEntry> original =
      lines_of(dex::read_dex(job.apk.classes()));
  std::vector<dex::LineEntry> revealed = lines_of(dex::read_dex(result.dex));
  ASSERT_EQ(original.size(), kCount);
  ASSERT_EQ(revealed.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(revealed[i].pc, original[i].pc) << i;
    ASSERT_EQ(revealed[i].line, original[i].line) << i;
  }
}

TEST(BatchPipeline, ReportsLeaksCoverageAndGroundTruth) {
  suite::DroidBench bench = suite::build_droidbench();
  std::vector<pipeline::BatchJob> jobs;
  for (const char* name : {"Button1", "Clean1"}) {
    const suite::Sample* sample = bench.find(name);
    ASSERT_NE(sample, nullptr) << name;
    pipeline::BatchJob job;
    job.name = sample->name;
    job.apk = sample->apk;
    job.configure_runtime = sample->configure_runtime;
    job.expect_leak = sample->leaky;
    jobs.push_back(std::move(job));
  }
  std::vector<pipeline::BatchJob> generated = pipeline::generated_jobs(1);
  jobs.push_back(std::move(generated[0]));

  pipeline::BatchReport report = pipeline::run_batch(jobs, {});
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_GT(report.jobs[0].leaks_observed, 0u);   // Button1 leaks
  EXPECT_EQ(report.jobs[1].leaks_observed, 0u);   // Clean1 does not
  // Full-coverage generated apps execute every instruction in one run.
  EXPECT_GT(report.jobs[2].instruction_coverage, 0.99);
  EXPECT_EQ(report.fleet.expected_leaky, 1u);
  EXPECT_EQ(report.fleet.observed_leaky, 1u);
}

// A one-instruction onCreate whose code item claims 40 argument registers
// in a 1-register frame: run, it would place the arguments below the frame.
dex::Apk frame_underflow_apk() {
  dex::DexBuilder b;
  b.start_class("Lhostile/Frame;", "Landroid/app/Activity;");
  bc::MethodAssembler as(1, 1);
  as.return_void();
  dex::CodeItem code = as.finish();
  code.ins_size = 40;  // the assembler refuses this; a hostile file need not
  b.add_virtual_method("onCreate", "V", {}, code);
  dex::Manifest manifest;
  manifest.package = "hostile.frame";
  manifest.entry_class = "Lhostile/Frame;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

// An apk whose classes.ldex is not an LDEX image, and one with no
// classes at all, each with the parser's message for it.
std::vector<std::pair<dex::Apk, std::string>> unparseable_apks() {
  dex::Apk not_ldex;
  not_ldex.set_classes({0xde, 0xad, 0xbe, 0xef});
  return {{not_ldex, "unexpected end of data"},
          {dex::Apk{}, "APK carries no executable payload"}};
}

TEST(BatchPipeline, WorkerFailureIsIsolated) {
  std::vector<std::pair<dex::Apk, std::string>> cases = unparseable_apks();
  cases.emplace_back(frame_underflow_apk(), "ins exceed registers in code item");
  for (const auto& [apk, error] : cases) {
    std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(2);
    pipeline::BatchJob broken;
    broken.name = "broken";
    broken.apk = apk;
    jobs.insert(jobs.begin() + 1, std::move(broken));

    pipeline::BatchReport report = pipeline::run_batch(jobs, {});
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[0].ok);
    EXPECT_FALSE(report.jobs[1].ok);
    EXPECT_EQ(report.jobs[1].error, error);
    EXPECT_TRUE(report.jobs[2].ok);
    EXPECT_EQ(report.fleet.ok, 2u);
  }
}

// A one-instruction onCreate: invoke-static of String.length() with no
// arguments. The builtin reads its receiver, args[0], so before builtins
// declared their arity this read past the argument span.
dex::Apk short_builtin_call_apk() {
  dex::DexBuilder b;
  uint32_t length = b.intern_method("Ljava/lang/String;", "length", "I", {});
  b.start_class("Lhostile/Short;", "Landroid/app/Activity;");
  bc::MethodAssembler as(1, 1);
  as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(length), {});
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "hostile.short";
  manifest.entry_class = "Lhostile/Short;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(BatchPipeline, ShortBuiltinCallFailsOnlyInsideItsApp) {
  // The call raises NoSuchMethodError inside the app, as a classic and as a
  // force job; the worker and the apps around it are untouched.
  for (bool force : {false, true}) {
    SCOPED_TRACE(force ? "force" : "classic");
    std::vector<pipeline::BatchJob> clean = pipeline::generated_jobs(2);
    std::vector<pipeline::BatchJob> jobs = clean;
    pipeline::BatchJob hostile;
    hostile.name = "short-builtin-call";
    hostile.apk = short_builtin_call_apk();
    jobs.insert(jobs.begin() + 1, std::move(hostile));
    if (force) {
      pipeline::enable_force(clean, {});
      pipeline::enable_force(jobs, {});
    }

    pipeline::BatchReport alone = pipeline::run_batch(clean, {});
    pipeline::BatchReport report = pipeline::run_batch(jobs, {});
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[1].ok) << report.jobs[1].error;
    ASSERT_TRUE(report.jobs[0].ok && report.jobs[2].ok);
    EXPECT_EQ(report.jobs[0].dex_fingerprint, alone.jobs[0].dex_fingerprint);
    EXPECT_EQ(report.jobs[2].dex_fingerprint, alone.jobs[1].dex_fingerprint);
  }
}

// A verifier-clean onCreate: const/16, a packed-switch with `targets`
// targets (all of them the return) and return-void. From 252 targets on,
// the payload's 4 + count extent no longer fits the 8-bit Insn::width.
dex::Apk large_switch_apk(size_t targets) {
  dex::DexBuilder b;
  b.start_class("Lhostile/Switch;", "Landroid/app/Activity;");
  bc::MethodAssembler as(2, 1);
  bc::MethodAssembler::Label done = as.make_label();
  as.const16(0, 0);
  as.packed_switch(0, 0, std::vector<bc::MethodAssembler::Label>(targets, done));
  as.bind(done);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "hostile.sw";
  manifest.entry_class = "Lhostile/Switch;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(BatchPipeline, LargeSwitchPayloadDoesNotStallSweeps) {
  // Every linear sweep must step over a payload by its true extent: at 253
  // targets the width wraps to 1 and a sweep decodes the payload's count
  // word as an opcode; at 252 it wraps to 0 and a sweep never advances.
  for (size_t targets : {253u, 252u}) {
    SCOPED_TRACE("targets=" + std::to_string(targets));
    dex::Apk apk = large_switch_apk(targets);
    dex::DexFile file = dex::read_dex(apk.classes());
    ASSERT_TRUE(bc::verify_dex(file).ok());

    std::vector<pipeline::BatchJob> jobs(1);
    jobs[0].name = "large-switch";
    jobs[0].apk = apk;
    pipeline::BatchReport report = pipeline::run_batch(jobs, {});
    ASSERT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
    EXPECT_TRUE(report.jobs[0].verified);
    EXPECT_EQ(report.jobs[0].instruction_coverage, 1.0);

    EXPECT_NO_THROW(
        analysis::StaticAnalyzer(analysis::flowdroid_config()).analyze(file));
    EXPECT_TRUE(core::check_containment(file, file).ok);
  }
}

TEST(BatchPipeline, TruncatedTrailingInstructionIsNotCollected) {
  // onCreate is one const-wide opcode unit with its 4 literal units cut off.
  // The runtime raises VerifyError on it; the collector must bound the
  // units it snapshots by the code array (ASan saw a 10-byte heap over-read
  // when it copied the opcode's nominal width) and record nothing.
  dex::DexBuilder b;
  b.start_class("Lhostile/Truncated;", "Landroid/app/Activity;");
  dex::CodeItem code;
  code.registers_size = 3;
  code.ins_size = 1;
  code.insns = {static_cast<uint16_t>(bc::Op::kConstWide)};
  b.add_virtual_method("onCreate", "V", {}, std::move(code));
  dex::Manifest manifest;
  manifest.package = "hostile.truncated";
  manifest.entry_class = "Lhostile/Truncated;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));

  std::vector<pipeline::BatchJob> jobs(1);
  jobs[0].name = "truncated";
  jobs[0].apk = apk;
  pipeline::BatchReport report = pipeline::run_batch(jobs, {});
  ASSERT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
  EXPECT_TRUE(report.jobs[0].verified);

  core::CollectionOutput out = core::DexLego::collect(apk, {});
  const core::MethodRecord* rec =
      out.find_method({"Lhostile/Truncated;", "onCreate", "()V"});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->executions, 1u);
  EXPECT_TRUE(rec->trees.empty());  // no ILEntry for the truncated pc 0
}

// onCreate: nops, then const-string "tail", Log.i and return-void, `units`
// code units in all. Every run of it completes and logs "tail".
dex::Apk long_method_apk(size_t units) {
  dex::DexBuilder b;
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint16_t tail = static_cast<uint16_t>(b.intern_string("tail"));
  b.start_class("Lhostile/Long;", "Landroid/app/Activity;");
  auto emit_tail = [&](bc::MethodAssembler& as) {
    as.const_string(0, tail);
    as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
  };
  bc::MethodAssembler probe(2, 1);
  emit_tail(probe);
  bc::MethodAssembler as(2, 1);
  while (as.current_pc() + probe.current_pc() < units) as.nop();
  emit_tail(as);
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Manifest manifest;
  manifest.package = "hostile.long";
  manifest.entry_class = "Lhostile/Long;";
  dex::Apk apk;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(BatchPipeline, CodeItemPastSixteenBitPcsFailsItsJob) {
  // Collected pcs are 16-bit. A 65,536-unit method used to load, and its
  // "verified" reveal aborted at run time; now its job fails on the parse.
  std::vector<pipeline::BatchJob> jobs(2);
  jobs[0].name = "longest";
  jobs[0].apk = long_method_apk(0xffff);
  jobs[1].name = "too-long";
  jobs[1].apk = long_method_apk(0x10000);
  pipeline::BatchReport report = pipeline::run_batch(jobs, {});
  EXPECT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
  EXPECT_FALSE(report.jobs[1].ok);
  EXPECT_EQ(report.jobs[1].error, "code longer than 65535 units");

  // The longest loadable method reveals to a longer code item (the
  // reassembler adds units), which no loader accepts: verification says so.
  EXPECT_FALSE(report.jobs[0].verified);
  core::RevealResult reveal = core::DexLego().reveal(jobs[0].apk);
  EXPECT_FALSE(reveal.verified);
  EXPECT_NE(reveal.verify_errors.find("code longer than 65535 units"),
            std::string::npos)
      << reveal.verify_errors;
}

TEST(BatchPipeline, NonStdExceptionFailsClosed) {
  // Workers must fail closed for ANY throw, not just std::exception — a
  // hostile native-method shim can throw an arbitrary type. Both a plain
  // job and a force job are covered.
  struct Boom {};
  for (bool force : {false, true}) {
    std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(2);
    pipeline::BatchJob broken;
    broken.name = "nonstd-throw";
    broken.apk = pipeline::generated_jobs(1)[0].apk;
    broken.configure_runtime = [](rt::Runtime&) { throw Boom{}; };
    broken.force = force;
    jobs.insert(jobs.begin() + 1, std::move(broken));

    pipeline::BatchReport report = pipeline::run_batch(jobs, {});
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[0].ok) << "force=" << force;
    EXPECT_FALSE(report.jobs[1].ok) << "force=" << force;
    EXPECT_FALSE(report.jobs[1].error.empty()) << "force=" << force;
    EXPECT_TRUE(report.jobs[2].ok) << "force=" << force;
    EXPECT_EQ(report.fleet.ok, 2u) << "force=" << force;
  }
}

TEST(BatchPipeline, DedupAttributionDeterministicAcrossThreadCounts) {
  // The deterministic half of the attribution split: per-job interns and
  // unique trees must be identical at every thread count on the scenario
  // with real cross-app sharing, and the advisory hit/miss split must still
  // sum to the deterministic intern count per job and fleet-wide.
  std::vector<pipeline::BatchJob> jobs = pipeline::large_corpus_jobs(12);
  pipeline::BatchOptions reference_options;
  reference_options.threads = 1;
  pipeline::BatchReport reference = pipeline::run_batch(jobs, reference_options);
  ASSERT_EQ(reference.fleet.ok, jobs.size());
  EXPECT_GT(reference.fleet.dedup_interns, 0u);
  EXPECT_GT(reference.fleet.unique_trees, 0u);

  for (size_t threads : {2u, 4u, 8u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    for (size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(report.jobs[i].dedup_interns, reference.jobs[i].dedup_interns)
          << report.jobs[i].name << " threads=" << threads;
      EXPECT_EQ(report.jobs[i].unique_trees, reference.jobs[i].unique_trees)
          << report.jobs[i].name << " threads=" << threads;
      EXPECT_EQ(report.jobs[i].dedup_hits + report.jobs[i].dedup_misses,
                report.jobs[i].dedup_interns)
          << report.jobs[i].name << " threads=" << threads;
    }
    EXPECT_EQ(report.fleet.dedup_interns, reference.fleet.dedup_interns);
    EXPECT_EQ(report.fleet.unique_trees, reference.fleet.unique_trees);
    EXPECT_EQ(report.fleet.dedup_hits + report.fleet.dedup_misses,
              report.fleet.dedup_interns);
    EXPECT_EQ(report.fleet.dedup_hits, reference.fleet.dedup_hits);
    EXPECT_EQ(report.fleet.store.entries, reference.fleet.store.entries);
    EXPECT_EQ(report.fleet.store.bytes_stored,
              reference.fleet.store.bytes_stored);
  }
}

// --- the fuzz scenario: hostile-but-valid apps on the batch pipeline -------

TEST(BatchPipeline, FuzzJobsAreDeterministic) {
  std::vector<pipeline::BatchJob> a = pipeline::fuzz_jobs(6, 901);
  std::vector<pipeline::BatchJob> b = pipeline::fuzz_jobs(6, 901);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].scenario, "fuzz");
    EXPECT_EQ(a[i].apk.write(), b[i].apk.write()) << a[i].name;
  }
  // A different base seed yields a different population.
  std::vector<pipeline::BatchJob> c = pipeline::fuzz_jobs(6, 77);
  bool any_differs = false;
  for (size_t i = 0; i < c.size(); ++i) {
    any_differs |= c[i].apk.write() != a[i].apk.write();
  }
  EXPECT_TRUE(any_differs);
}

TEST(BatchPipeline, FuzzJobsRevealAndVerifyOnTheWorkerPool) {
  // Both contributing families pre-filter to *valid* apps, so every job must
  // collect, reassemble and verify — and stay byte-identical across thread
  // counts like any other scenario.
  std::vector<pipeline::BatchJob> jobs = pipeline::fuzz_jobs(6, 901);
  pipeline::BatchOptions sequential;
  sequential.threads = 1;
  pipeline::BatchReport seq = pipeline::run_batch(jobs, sequential);
  for (const pipeline::JobResult& job : seq.jobs) {
    EXPECT_TRUE(job.ok) << job.name << ": " << job.error;
    EXPECT_TRUE(job.verified) << job.name;
  }
  pipeline::BatchOptions parallel;
  parallel.threads = 4;
  pipeline::BatchReport par = pipeline::run_batch(jobs, parallel);
  expect_identical_reports(seq, par);
}

// --- force execution on the pipeline: one app, one worker -----------------

TEST(ForcePipeline, ByteIdenticalAcrossThreadCountsOnDroidBench) {
  // The acceptance bar for the worklist engine: with force exploration on,
  // each worker explores whole apps while other apps run beside it on the
  // same store, yet the reassembled DEX and every deterministic stat match
  // the sequential run at any thread count. Guarded apps ride along: their
  // multi-wave frontiers are the stress case.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  for (pipeline::BatchJob& job : pipeline::guarded_jobs(2)) {
    jobs.push_back(std::move(job));
  }
  pipeline::enable_force(jobs, {});

  pipeline::BatchOptions baseline;
  baseline.threads = 1;
  pipeline::BatchReport reference = pipeline::run_batch(jobs, baseline);
  ASSERT_EQ(reference.fleet.ok, jobs.size());
  EXPECT_EQ(reference.fleet.verified, jobs.size());
  EXPECT_GT(reference.fleet.forced_paths, 0u);

  for (size_t threads : {2u, 4u, 8u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_reports(reference, report);
  }
}

TEST(ForcePipeline, SchedulesOneTaskPerJob) {
  // run_batch schedules jobs, not plan units: a force job's whole
  // exploration runs on the worker that claimed it, so a force batch claims
  // exactly one task per job and never starts more workers than jobs.
  std::vector<pipeline::BatchJob> jobs =
      pipeline::guarded_jobs(4, 301, /*units=*/1200);
  pipeline::enable_force(jobs, {});
  for (size_t threads : {1u, 2u, 4u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    options.keep_dex = false;
    pipeline::BatchReport report = pipeline::run_batch(jobs, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(report.fleet.ok, jobs.size());
    ASSERT_GT(report.fleet.forced_paths, jobs.size());  // not vacuous
    EXPECT_EQ(report.fleet.queue_tasks, jobs.size());
    EXPECT_EQ(report.fleet.threads, threads);
  }

  std::vector<pipeline::BatchJob> two(jobs.begin(), jobs.begin() + 2);
  pipeline::BatchOptions wide;
  wide.threads = 8;
  pipeline::BatchReport report = pipeline::run_batch(two, wide);
  ASSERT_EQ(report.fleet.ok, two.size());
  EXPECT_EQ(report.fleet.threads, 2u);
  EXPECT_EQ(report.fleet.queue_tasks, 2u);

  // An empty batch starts no worker, on the inline path too.
  for (size_t threads : {0u, 1u, 8u}) {
    pipeline::BatchOptions options;
    options.threads = threads;
    pipeline::BatchReport empty = pipeline::run_batch({}, options);
    SCOPED_TRACE("empty, threads=" + std::to_string(threads));
    EXPECT_EQ(empty.fleet.threads, 0u);
    EXPECT_EQ(empty.fleet.queue_pops, 0u);
  }
}

TEST(ForcePipeline, ForceRaisesBranchCoverageOverNaturalBatch) {
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  pipeline::BatchReport natural = pipeline::run_batch(jobs, {});
  pipeline::enable_force(jobs, {});
  pipeline::BatchReport forced = pipeline::run_batch(jobs, {});
  EXPECT_GT(forced.fleet.mean_branch_coverage,
            natural.fleet.mean_branch_coverage);
  EXPECT_EQ(forced.fleet.verified, jobs.size());
}

TEST(ForcePipeline, ClassicJobIsAForceJobWithNoWaves) {
  // A classic job is a force exploration with nothing left to force. With
  // a plan budget of 0 the engine yields no wave, and every deterministic
  // result equals the classic job's.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  pipeline::BatchReport classic = pipeline::run_batch(jobs, {});
  pipeline::enable_force(jobs, {.max_plans = 0});
  pipeline::BatchReport no_waves = pipeline::run_batch(jobs, {});
  ASSERT_EQ(classic.fleet.ok, jobs.size());
  expect_identical_reports(classic, no_waves);
  for (const pipeline::JobResult& job : no_waves.jobs) {
    EXPECT_EQ(job.force_paths + job.forced_branches, 0u) << job.name;
    EXPECT_EQ(job.force_waves, 0) << job.name;
  }
}

TEST(ForcePipeline, FailedForceJobIsIsolated) {
  for (const auto& [apk, error] : unparseable_apks()) {
    std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(2);
    pipeline::BatchJob broken;
    broken.name = "broken";
    broken.apk = apk;
    jobs.insert(jobs.begin() + 1, std::move(broken));
    pipeline::enable_force(jobs, {});

    pipeline::BatchReport report = pipeline::run_batch(jobs, {});
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[0].ok);
    EXPECT_FALSE(report.jobs[1].ok);
    EXPECT_EQ(report.jobs[1].error, error);
    EXPECT_TRUE(report.jobs[2].ok);
    EXPECT_EQ(report.fleet.ok, 2u);
  }
}

// Records, for every runtime a job builds, the DexFile its image 0 links
// from, and whether that parse still serializes to its bytes from before
// the job when the runtime registers it. Holding each parse keeps its
// address from being reused by a later one.
struct ImageZeroProbe : rt::RuntimeHooks {
  std::vector<uint8_t> pristine;
  std::vector<std::shared_ptr<const dex::DexFile>> files;
  size_t written = 0;

  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kDexLoaded);
  }
  void on_dex_loaded(const rt::DexImage& image) override {
    if (image.id != 0) return;
    files.push_back(image.parse);
    if (dex::write_dex(image.file) != pristine) ++written;
  }
};

TEST(ForcePipeline, EveryUnitLinksTheJobsOneParse) {
  // Self-modifying natives patch the code of the methods they run. Those
  // are each runtime's own copies: the parse every unit of the job shares
  // stays as it was parsed.
  std::vector<pipeline::BatchJob> jobs;
  for (pipeline::BatchJob& job : pipeline::droidbench_jobs()) {
    if (job.name.rfind("SelfMod", 0) == 0) jobs.push_back(std::move(job));
  }
  ASSERT_EQ(jobs.size(), 4u);
  jobs.push_back(pipeline::guarded_jobs(1)[0]);
  pipeline::enable_force(jobs, {});

  size_t force_paths = 0;
  for (pipeline::BatchJob& job : jobs) {
    SCOPED_TRACE(job.name);
    ImageZeroProbe probe;
    probe.pristine = dex::write_dex(dex::load_classes(job.apk));
    auto base_configure = job.configure_runtime;
    job.configure_runtime = [&probe, base_configure](rt::Runtime& runtime) {
      if (base_configure) base_configure(runtime);
      runtime.add_hooks(&probe);
    };
    pipeline::DedupStore store;
    pipeline::JobResult result = pipeline::run_job(job, store, false);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_GE(probe.files.size(), result.force_paths + 1);
    for (const auto& file : probe.files) {
      EXPECT_EQ(file.get(), probe.files.front().get());
    }
    EXPECT_EQ(probe.written, 0u);
    force_paths += result.force_paths;
  }
  EXPECT_GT(force_paths, 0u);  // forced units ran, not just baselines
}

// --- forced units collected against the fold ------------------------------

// run_job's force loop over one job at a variant cap, folding each unit in
// plan order. With `walk`, every forced unit collects against the fold so
// far, as run_job's do; without, each is a plain DexLego::collect.
struct ForceFold {
  bool ok = false;  // the baseline and the engine came up
  core::CollectionOutput merged;
  size_t units = 0;
  size_t offered_trees = 0;  // trees the units handed merge_collection
};

ForceFold force_fold(const pipeline::BatchJob& job, size_t max_variants,
                     bool walk) {
  ForceFold out;
  std::optional<coverage::ForceEngine> engine;
  try {
    engine.emplace(dex::load_classes(job.apk), job.force_options);
  } catch (const std::exception&) {
    return out;
  }
  for (std::vector<coverage::PlanUnit> wave{coverage::PlanUnit{}};
       !wave.empty(); wave = engine->next_wave()) {
    for (const coverage::PlanUnit& unit : wave) {
      coverage::CoverageTracker coverage;
      coverage::ForceHooks force_hooks(unit.plan);
      core::DexLegoOptions options = job.reveal;
      options.collector.max_variants = max_variants;
      options.runs = unit.plan.empty() ? std::max(1, options.runs) : 1;
      auto base_configure = options.configure_runtime;
      options.configure_runtime = [&, base_configure](rt::Runtime& runtime) {
        if (base_configure) base_configure(runtime);
        if (job.configure_runtime) job.configure_runtime(runtime);
        runtime.add_hooks(&coverage);
        if (!unit.plan.empty()) runtime.add_hooks(&force_hooks);
      };
      const core::CollectionOutput* known =
          walk && !unit.plan.empty() ? &out.merged : nullptr;
      try {
        core::CollectionOutput collected =
            core::DexLego::collect(job.apk, options, known);
        for (const auto& [key, rec] : collected.methods) {
          out.offered_trees += rec.trees.size();
        }
        core::merge_collection(out.merged, std::move(collected), max_variants);
      } catch (const std::exception&) {
        if (unit.plan.empty()) return out;  // no baseline: the job fails
      }
      engine->observe(unit, coverage);
      ++out.units;
    }
  }
  out.ok = true;
  return out;
}

TEST(ForcePipeline, CollectingAgainstTheFoldMatchesThePlainFold) {
  // A forced unit that walks the fold leaves out the trees it retraces, so
  // it offers fewer trees; the fold must not notice, at any variant cap.
  std::vector<pipeline::BatchJob> jobs = pipeline::all_jobs();
  pipeline::enable_force(jobs, {});
  EXPECT_EQ(core::encoded_size(core::CollectionOutput{}),
            core::encode_collection(core::CollectionOutput{}).total_size());
  size_t folds = 0;
  size_t plain_trees = 0;
  size_t walked_trees = 0;
  for (size_t max_variants : {8u, 2u, 1u}) {
    for (const pipeline::BatchJob& job : jobs) {
      SCOPED_TRACE(job.name + " max_variants=" + std::to_string(max_variants));
      ForceFold plain = force_fold(job, max_variants, /*walk=*/false);
      ForceFold walked = force_fold(job, max_variants, /*walk=*/true);
      ASSERT_EQ(walked.ok, plain.ok);
      if (!plain.ok) continue;
      ++folds;
      plain_trees += plain.offered_trees;
      walked_trees += walked.offered_trees;
      EXPECT_EQ(walked.units, plain.units);
      core::CollectionFiles a = core::encode_collection(plain.merged);
      core::CollectionFiles b = core::encode_collection(walked.merged);
      EXPECT_EQ(a.class_data, b.class_data);
      EXPECT_EQ(a.field_data, b.field_data);
      EXPECT_EQ(a.static_values, b.static_values);
      EXPECT_EQ(a.method_data, b.method_data);
      EXPECT_EQ(a.bytecode, b.bytecode);
      // The job path counts the files instead of writing them.
      EXPECT_EQ(core::encoded_size(plain.merged), a.total_size());
      EXPECT_EQ(core::encoded_size(walked.merged), b.total_size());
      EXPECT_EQ(walked.merged.total_instructions_observed,
                plain.merged.total_instructions_observed);
      EXPECT_EQ(walked.merged.divergences_detected,
                plain.merged.divergences_detected);
      EXPECT_EQ(walked.merged.reflection_sites, plain.merged.reflection_sites);
      ASSERT_EQ(walked.merged.methods.size(), plain.merged.methods.size());
      for (const auto& [key, rec] : plain.merged.methods) {
        const core::MethodRecord* other = walked.merged.find_method(key);
        ASSERT_NE(other, nullptr) << key.pretty();
        EXPECT_EQ(other->executions, rec.executions) << key.pretty();
        EXPECT_EQ(other->dropped_trees, rec.dropped_trees) << key.pretty();
      }
    }
  }
  EXPECT_EQ(folds, 3 * jobs.size());
  EXPECT_LT(walked_trees, plain_trees);  // the walk engaged
}

// Wall-clock scaling is no longer asserted here: a timing-ratio unit test is
// either vacuous (0.5x bar) or flaky under CI load, and the real measurement
// lives in bench/pipeline_throughput, which ci.sh gates at >= 2x on 4
// threads whenever the host actually has 4 hardware threads. This suite owns
// what a unit test CAN own — byte-identity and stats-identity across every
// thread count.

}  // namespace
}  // namespace dexlego

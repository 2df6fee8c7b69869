// Differential suite for the interpreter's two dispatch modes
// (ARCHITECTURE invariant 11), including the string-interning and
// overload-resolution cases both modes must agree on. The predecoded
// cached path (rt::DispatchMode::kCached) must be observationally
// identical to the decode-every-step fallback (kBaseline), its only
// oracle: byte-identical traces and revealed files over the full
// DroidBench-analog set (including the four self-modifying samples),
// identical traces over the hostile fuzz-job family, and identical
// fuzz-campaign reports over seeds 1-10. The self-modification guard tests
// pin the three invalidation layers of src/runtime/predecode.h — including
// un-announced direct writes to code->insns, which only the per-slot
// source-unit guard catches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/benchsuite/droidbench.h"
#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/fuzz/triage.h"
#include "src/pipeline/scenarios.h"
#include "tests/harness/diff_fixture.h"

namespace dexlego {
namespace {

using bc::MethodAssembler;
using bc::Op;

const suite::DroidBench& db() {
  static suite::DroidBench suite = suite::build_droidbench();
  return suite;
}

rt::RuntimeConfig mode_config(rt::DispatchMode mode) {
  rt::RuntimeConfig config;
  config.dispatch = mode;
  return config;
}

dex::Apk make_apk(dex::DexFile file, const std::string& entry) {
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cache";
  manifest.entry_class = entry;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(file));
  return apk;
}

// Reveal under one dispatch mode; returns the revealed classes bytes.
core::RevealResult reveal_in_mode(const suite::Sample& sample,
                                  rt::DispatchMode mode) {
  core::DexLegoOptions options;
  options.configure_runtime = sample.configure_runtime;
  options.runtime.dispatch = mode;
  core::DexLego dexlego(options);
  return dexlego.reveal(sample.apk);
}

// --- cached vs decode-every-step over the full DroidBench set --------------

class DispatchParityEverySample : public ::testing::TestWithParam<std::string> {
};

TEST_P(DispatchParityEverySample, TraceAndRevealedFileAreByteIdentical) {
  const suite::Sample* sample = db().find(GetParam());
  ASSERT_NE(sample, nullptr);

  // Traces of the original app are byte-identical across modes.
  harness::ExecutionTrace baseline = harness::run_and_trace(
      sample->apk, sample->configure_runtime,
      mode_config(rt::DispatchMode::kBaseline));
  harness::ExecutionTrace cached = harness::run_and_trace(
      sample->apk, sample->configure_runtime,
      mode_config(rt::DispatchMode::kCached));
  EXPECT_TRUE(harness::TraceEquivalent(baseline, cached));

  // The collect → reassemble round trip produces byte-identical revealed
  // files in both modes (covers the self-modifying samples too, whose
  // collection depends on observing every patched instruction).
  core::RevealResult reveal_baseline =
      reveal_in_mode(*sample, rt::DispatchMode::kBaseline);
  core::RevealResult reveal_cached =
      reveal_in_mode(*sample, rt::DispatchMode::kCached);
  EXPECT_EQ(reveal_baseline.verified, reveal_cached.verified);
  EXPECT_EQ(reveal_baseline.revealed_apk.classes(),
            reveal_cached.revealed_apk.classes());
}

std::vector<std::string> all_sample_names() {
  std::vector<std::string> names;
  for (const suite::Sample& s : db().samples) names.push_back(s.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(DroidBench, DispatchParityEverySample,
                         ::testing::ValuesIn(all_sample_names()),
                         [](const auto& info) { return info.param; });

// --- hostile-app scenario family -------------------------------------------

// The fuzzer-mutant population the batch pipeline runs (guard stacking,
// reflection mazes, self-modifying writes, nested packing, bytecode
// mutants), traced in both modes. Each job runs under its own declared
// runtime config, so the goto-loop mutants stop at the job's step budget
// exactly as they do in the pipeline.
TEST(DispatchParityHostile, FuzzFamilyTracesIdenticalAcrossModes) {
  std::vector<pipeline::BatchJob> jobs = pipeline::fuzz_jobs(12);
  ASSERT_FALSE(jobs.empty());
  for (const pipeline::BatchJob& job : jobs) {
    rt::RuntimeConfig config = job.reveal.runtime;
    config.dispatch = rt::DispatchMode::kBaseline;
    harness::ExecutionTrace baseline =
        harness::run_and_trace(job.apk, job.configure_runtime, config);
    config.dispatch = rt::DispatchMode::kCached;
    harness::ExecutionTrace cached =
        harness::run_and_trace(job.apk, job.configure_runtime, config);
    EXPECT_TRUE(harness::TraceEquivalent(baseline, cached)) << job.name;
  }
}

// --- self-modification guards ----------------------------------------------

// A loop whose native rewrites a const literal between iterations. `announce`
// selects RtMethod::patch_code_unit (generation-bumping) vs a direct write to
// code->insns (what a hostile native does).
dex::Apk self_mod_app(size_t* patch_pc_out) {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t tostr = b.intern_method("Ljava/lang/Integer;", "toString",
                                   "Ljava/lang/String;", {"I"});
  uint32_t tamper = b.intern_method("Lcache/Main;", "mutate", "V", {});
  b.start_class("Lcache/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 4);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    patch_pc = as.current_pc();
    as.const16(0, 100);  // mutate() bumps this literal every iteration
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(tostr), {0});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {3});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {});
  *patch_pc_out = patch_pc;
  return make_apk(std::move(b).build(), "Lcache/Main;");
}

harness::ConfigureFn self_mod_native(size_t patch_pc, bool announce) {
  return [patch_pc, announce](rt::Runtime& runtime) {
    runtime.register_native(
        "Lcache/Main;->mutate",
        [patch_pc, announce](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* oc = ctx.runtime.linker()
                                 .resolve("Lcache/Main;")
                                 ->find_declared("onCreate");
          uint16_t next =
              static_cast<uint16_t>(oc->code->insns[patch_pc + 1] + 11);
          if (announce) {
            oc->patch_code_unit(patch_pc + 1, next);
          } else {
            oc->code->insns[patch_pc + 1] = next;  // hostile: no announcement
          }
          return rt::Value::Null();
        });
  };
}

// The distinct literals the loop must log if every write is observed.
std::vector<std::string> observed_literals(const harness::ExecutionTrace& t) {
  std::vector<std::string> logged;
  for (const std::string& line : t.sink_log) {
    logged.push_back(line.substr(line.rfind('|') + 1));
  }
  return logged;
}

TEST(SelfModGuard, UnannouncedDirectWriteIsObservedByCachedDispatch) {
  size_t patch_pc = 0;
  dex::Apk apk = self_mod_app(&patch_pc);
  harness::ExecutionTrace baseline =
      harness::run_and_trace(apk, self_mod_native(patch_pc, false),
                             mode_config(rt::DispatchMode::kBaseline));
  harness::ExecutionTrace cached =
      harness::run_and_trace(apk, self_mod_native(patch_pc, false),
                             mode_config(rt::DispatchMode::kCached));
  EXPECT_TRUE(harness::TraceEquivalent(baseline, cached));
  // The cached run really saw all four literals, not a stale decode.
  EXPECT_EQ(observed_literals(cached),
            (std::vector<std::string>{"100", "111", "122", "133"}));
}

TEST(SelfModGuard, AnnouncedPatchAvoidsRebuildsAndGuardRedecodes) {
  size_t patch_pc = 0;
  dex::Apk apk = self_mod_app(&patch_pc);

  rt::Runtime runtime(mode_config(rt::DispatchMode::kCached));
  self_mod_native(patch_pc, true)(runtime);
  runtime.install(apk);
  ASSERT_TRUE(runtime.launch().completed);

  rt::RtMethod* oc =
      runtime.linker().resolve("Lcache/Main;")->find_declared("onCreate");
  ASSERT_NE(oc->predecoded, nullptr);
  const rt::PredecodedCode::Stats& stats = oc->predecoded->stats();
  // One initial batch predecode; announced patches invalidate surgically
  // (lazy per-slot redecodes), never via the guard and never wholesale.
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.guard_redecodes, 0u);
  EXPECT_GT(stats.lazy_decodes, 0u);

  // And the four literals were all observed.
  std::vector<std::string> logged;
  for (const rt::Runtime::SinkEvent& ev : runtime.sink_events()) {
    logged.push_back(ev.detail);
  }
  EXPECT_EQ(logged,
            (std::vector<std::string>{"100", "111", "122", "133"}));
}

// A hostile native that replaces the instruction array's backing storage on
// every call would force an O(method) rebuild per step; after
// PredecodedCode::kMaxRebuilds the method degrades to decode-every-step
// (identical semantics) instead of handing the adversary quadratic work.
TEST(SelfModGuard, ArrayChurnDegradesToDecodeEveryStep) {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t tostr = b.intern_method("Ljava/lang/Integer;", "toString",
                                   "Ljava/lang/String;", {"I"});
  uint32_t tamper = b.intern_method("Lcache/Churn;", "mutate", "V", {});
  b.start_class("Lcache/Churn;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 100);  // 100 iterations, each swapping the array
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    patch_pc = as.current_pc();
    as.const16(0, 100);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(tostr), {0});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {3});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {});
  dex::Apk apk = make_apk(std::move(b).build(), "Lcache/Churn;");

  auto churn_native = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Lcache/Churn;->mutate",
        [patch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* oc = ctx.runtime.linker()
                                 .resolve("Lcache/Churn;")
                                 ->find_declared("onCreate");
          // Hostile: replace the whole backing allocation, unannounced.
          std::vector<uint16_t> fresh = oc->code->insns;
          fresh[patch_pc + 1] = static_cast<uint16_t>(fresh[patch_pc + 1] + 3);
          oc->code->insns = std::move(fresh);
          return rt::Value::Null();
        });
  };

  harness::ExecutionTrace baseline = harness::run_and_trace(
      apk, churn_native, mode_config(rt::DispatchMode::kBaseline));

  rt::Runtime runtime(mode_config(rt::DispatchMode::kCached));
  churn_native(runtime);
  runtime.install(apk);
  ASSERT_TRUE(runtime.launch().completed);
  rt::RtMethod* oc =
      runtime.linker().resolve("Lcache/Churn;")->find_declared("onCreate");
  ASSERT_NE(oc->predecoded, nullptr);
  // The cap holds no matter how the allocator recycles the swapped buffers
  // (address reuse can route some churn through the per-slot guard instead
  // of the array-identity stamp; both are bounded).
  EXPECT_LE(oc->predecoded->stats().rebuilds, rt::PredecodedCode::kMaxRebuilds);
  EXPECT_GT(oc->predecoded->stats().rebuilds, 1u);

  // Behaviour stays byte-identical through the degradation: all 100
  // mutated literals observed, matching the baseline trace.
  std::vector<std::string> logged;
  for (const rt::Runtime::SinkEvent& ev : runtime.sink_events()) {
    logged.push_back(ev.detail);
  }
  ASSERT_EQ(logged.size(), 100u);
  EXPECT_EQ(logged.front(), "100");
  EXPECT_EQ(logged.back(), "397");
  ASSERT_EQ(baseline.sink_log.size(), 100u);
  for (size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(baseline.sink_log[i].substr(baseline.sink_log[i].rfind('|') + 1),
              logged[i])
        << i;
  }
}

// Wholesale invalidation: invalidate_code_cache drops the cache outright
// (the escape hatch for structural edits — resize, array swap — that
// per-unit patching cannot describe) and the next execution rebuilds.
TEST(SelfModGuard, InvalidateCodeCacheDropsAndRebuilds) {
  size_t patch_pc = 0;
  dex::Apk apk = self_mod_app(&patch_pc);

  rt::Runtime runtime(mode_config(rt::DispatchMode::kCached));
  self_mod_native(patch_pc, true)(runtime);
  runtime.install(apk);
  ASSERT_TRUE(runtime.launch().completed);

  rt::RtMethod* oc =
      runtime.linker().resolve("Lcache/Main;")->find_declared("onCreate");
  ASSERT_NE(oc->predecoded, nullptr);
  uint64_t generation = oc->code_generation;

  oc->invalidate_code_cache();
  EXPECT_EQ(oc->predecoded, nullptr);
  EXPECT_EQ(oc->code_generation, generation + 1);

  // Re-running rebuilds a fresh cache and behaves identically (the loop
  // logs four more literals, continuing from the patched state).
  ASSERT_TRUE(runtime.interp()
                  .invoke(*oc, {rt::Value::Ref(runtime.activity())})
                  .completed);
  ASSERT_NE(oc->predecoded, nullptr);
  EXPECT_EQ(oc->predecoded->stats().rebuilds, 1u);
  EXPECT_EQ(runtime.sink_events().size(), 8u);
}

TEST(SelfModGuard, UnannouncedWriteShowsUpInGuardStats) {
  size_t patch_pc = 0;
  dex::Apk apk = self_mod_app(&patch_pc);

  rt::Runtime runtime(mode_config(rt::DispatchMode::kCached));
  self_mod_native(patch_pc, false)(runtime);
  runtime.install(apk);
  ASSERT_TRUE(runtime.launch().completed);

  rt::RtMethod* oc =
      runtime.linker().resolve("Lcache/Main;")->find_declared("onCreate");
  ASSERT_NE(oc->predecoded, nullptr);
  EXPECT_GT(oc->predecoded->stats().guard_redecodes, 0u);
}

// --- satellite: const-string interning (Dalvik identity semantics) ---------

dex::Apk literal_identity_app() {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t lit = b.intern_string("the-literal");
  uint32_t same = b.intern_string("same");
  uint32_t diff = b.intern_string("diff");
  b.start_class("Lcache/Lit;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);
    auto eq = as.make_label();
    auto end = as.make_label();
    as.const_string(0, static_cast<uint16_t>(lit));
    as.const_string(1, static_cast<uint16_t>(lit));
    as.if_test(Op::kIfEq, 0, 1, eq);
    as.const_string(2, static_cast<uint16_t>(diff));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {2});
    as.goto_(end);
    as.bind(eq);
    as.const_string(2, static_cast<uint16_t>(same));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {2});
    as.bind(end);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  return make_apk(std::move(b).build(), "Lcache/Lit;");
}

TEST(StringInterning, RepeatedConstStringIsReferenceEqualInBothModes) {
  dex::Apk apk = literal_identity_app();
  for (rt::DispatchMode mode :
       {rt::DispatchMode::kCached, rt::DispatchMode::kBaseline}) {
    harness::ExecutionTrace trace =
        harness::run_and_trace(apk, {}, mode_config(mode));
    ASSERT_EQ(trace.sink_log.size(), 1u);
    EXPECT_NE(trace.sink_log[0].find("same"), std::string::npos)
        << "mode " << static_cast<int>(mode) << ": two executions of the "
        << "same literal must be reference-equal (interned)";
  }
}

TEST(StringInterning, LiteralIdentitySurvivesTheRevealRoundTrip) {
  harness::DiffOptions options;
  options.check_containment = false;  // the "diff" branch is never executed
  harness::DiffResult diff =
      harness::run_differential(literal_identity_app(), options);
  EXPECT_TRUE(harness::BehaviorallyEquivalent(diff));
}

// Interned literals are shared program-wide, so they must be immune to a
// hostile invoke-virtual of StringBuilder.append with a *string* receiver
// (unrepresentable under the on-device verifier, but reachable here): the
// builtin must not mutate the shared literal in place.
TEST(StringInterning, HostileStringBuilderAppendCannotMutateLiterals) {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t append = b.intern_method("Ljava/lang/StringBuilder;", "append",
                                    "Ljava/lang/StringBuilder;",
                                    {"Ljava/lang/String;"});
  uint32_t lit = b.intern_string("SECRET");
  b.start_class("Lcache/Sb;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(lit));
    // Hostile: the "builder" receiver is the interned literal itself.
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(append), {0, 0});
    as.const_string(1, static_cast<uint16_t>(lit));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lcache/Sb;");

  for (rt::DispatchMode mode :
       {rt::DispatchMode::kCached, rt::DispatchMode::kBaseline}) {
    harness::ExecutionTrace trace =
        harness::run_and_trace(apk, {}, mode_config(mode));
    ASSERT_EQ(trace.sink_log.size(), 1u);
    EXPECT_EQ(trace.sink_log[0].substr(trace.sink_log[0].rfind('|') + 1),
              "SECRET");
  }
}

// --- satellite: unique-name-only resolve_method fallback -------------------

// Two static overloads pick(I)V / pick(II)V and a method ref whose proto
// matches neither: resolution is ambiguous and must raise NoSuchMethodError
// instead of silently dispatching whichever overload linked first.
TEST(ResolveMethodOverloads, AmbiguousNameOnlyFallbackRaises) {
  dex::DexBuilder b;
  uint32_t bad_ref =
      b.intern_method("Lcache/Ov;", "pick", "V", {"Ljava/lang/String;"});
  b.start_class("Lcache/Ov;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    as.return_void();
    b.add_direct_method("pick", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(3, 2);
    as.return_void();
    b.add_direct_method("pick", "V", {"I", "I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(bad_ref), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lcache/Ov;");

  for (rt::DispatchMode mode :
       {rt::DispatchMode::kCached, rt::DispatchMode::kBaseline}) {
    rt::Runtime runtime(mode_config(mode));
    runtime.install(apk);
    rt::ExecOutcome out = runtime.launch();
    EXPECT_TRUE(out.uncaught);
    EXPECT_EQ(out.exception_type, "Ljava/lang/NoSuchMethodError;");
  }
}

// The same uniqueness rule applies to virtual dispatch: two virtual
// overloads and a ref proto matching neither must not silently pick the
// first-declared one (RtClass::find_dispatch name-only fallback).
TEST(ResolveMethodOverloads, AmbiguousVirtualDispatchRaises) {
  dex::DexBuilder b;
  uint32_t bad_ref =
      b.intern_method("Lcache/Ov2;", "pick", "V", {"Ljava/lang/String;"});
  b.start_class("Lcache/Ov2;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 2);
    as.return_void();
    b.add_virtual_method("pick", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(4, 3);
    as.return_void();
    b.add_virtual_method("pick", "V", {"I", "I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(bad_ref), {1, 0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lcache/Ov2;");

  for (rt::DispatchMode mode :
       {rt::DispatchMode::kCached, rt::DispatchMode::kBaseline}) {
    rt::Runtime runtime(mode_config(mode));
    runtime.install(apk);
    rt::ExecOutcome out = runtime.launch();
    EXPECT_TRUE(out.uncaught);
    EXPECT_EQ(out.exception_type, "Ljava/lang/NoSuchMethodError;");
  }
}

// A unique name still resolves under a mismatched proto (the leniency the
// fallback exists for — erased-generics style call sites).
TEST(ResolveMethodOverloads, UniqueNameFallbackStillResolves) {
  dex::DexBuilder b;
  uint32_t ref =
      b.intern_method("Lcache/Solo;", "solo", "V", {"Ljava/lang/String;"});
  b.start_class("Lcache/Solo;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    as.return_void();
    b.add_direct_method("solo", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(ref), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lcache/Solo;");

  for (rt::DispatchMode mode :
       {rt::DispatchMode::kCached, rt::DispatchMode::kBaseline}) {
    rt::Runtime runtime(mode_config(mode));
    runtime.install(apk);
    EXPECT_TRUE(runtime.launch().completed);
  }
}

// --- fuzz campaigns: cached and baseline must report identically -----------

fuzz::CampaignReport seed_campaign(uint64_t seed, size_t iters, size_t threads,
                                   rt::DispatchMode mode) {
  fuzz::CampaignOptions options;
  options.seed = seed;
  options.iters = iters;
  options.threads = threads;
  options.oracle.dispatch = mode;
  return fuzz::run_campaign(options);
}

TEST(InterpCacheFuzz, CampaignReportsIdenticalAcrossModesSeeds1To10) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    fuzz::CampaignReport cached =
        seed_campaign(seed, 20, 1, rt::DispatchMode::kCached);
    fuzz::CampaignReport baseline =
        seed_campaign(seed, 20, 1, rt::DispatchMode::kBaseline);
    EXPECT_EQ(cached.report_fingerprint(), baseline.report_fingerprint())
        << "seed " << seed << "\ncached:\n"
        << cached.summary() << "\nbaseline:\n"
        << baseline.summary();
    EXPECT_EQ(cached.summary(), baseline.summary()) << "seed " << seed;
  }
}

// Thread-bearing parity case — this suite runs under TSan in ci.sh with
// --gtest_filter=InterpCacheThreads.* (the campaign worker pool shares
// resolved seeds across workers while every runtime keeps its own caches).
TEST(InterpCacheThreads, ThreadedCampaignParityAcrossModes) {
  fuzz::CampaignReport cached =
      seed_campaign(1, 12, 4, rt::DispatchMode::kCached);
  fuzz::CampaignReport baseline =
      seed_campaign(1, 12, 4, rt::DispatchMode::kBaseline);
  EXPECT_EQ(cached.report_fingerprint(), baseline.report_fingerprint());
}

}  // namespace
}  // namespace dexlego

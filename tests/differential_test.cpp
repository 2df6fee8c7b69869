// Differential round-trip suite: the DexLego semantic-equivalence claim
// (paper Section V) checked behaviourally. Every case runs the original and
// the revealed app side by side through the differential oracle
// (fuzz::run_oracle) and asserts identical observable behaviour, verifier
// cleanliness and reveal idempotence; every reveal the oracle passes must
// also have written collection files and parse back from its bytes into a
// verifier-clean DEX. Every DroidBench sample is revealed here, plain, and
// 15 of them packed as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "src/analysis/static_taint.h"
#include "src/benchsuite/appgen.h"
#include "src/benchsuite/droidbench.h"
#include "src/bytecode/verify_code.h"
#include "src/dex/io.h"
#include "src/fuzz/replay.h"
#include "src/packer/packer.h"
#include "src/runtime/script.h"
#include "src/support/bytes.h"

namespace dexlego {
namespace {

const suite::DroidBench& db() {
  static suite::DroidBench suite = suite::build_droidbench();
  return suite;
}

// The oracle on the runtime's full step budget: these are whole apps, not
// the fuzzer's goto-loop mutants. Containment is a full-coverage property,
// so only the generated-app sweep turns it on. After an equivalent verdict
// the reveal must also have written collection files, and its revealed
// classes must parse back from bytes and re-verify.
fuzz::OracleReport check_reveal(const fuzz::Mutant& input,
                                bool check_containment = false) {
  fuzz::OracleOptions options;
  options.step_limit = rt::RuntimeConfig{}.step_limit;
  options.check_containment = check_containment;
  fuzz::OracleReport report = fuzz::run_oracle(input, options);
  if (report.outcome == fuzz::Outcome::kEquivalent) {
    EXPECT_GT(report.reveal.files.total_size(), 0u);
    dex::DexFile revealed =
        dex::read_dex(report.reveal.revealed_apk.classes());
    EXPECT_TRUE(bc::verify_dex(revealed).ok());
  }
  return report;
}

// Self-modifying samples can't replay: their tamper native patches
// instruction offsets computed against the original layout, which are
// meaningless in the reassembled method (the revealed DEX encodes both code
// states behind guards for *static* analysis instead). They get their own
// differential check below.
bool self_modifying(const suite::Sample& sample) {
  return sample.category.rfind("self-modifying", 0) == 0;
}

std::vector<std::string> sample_names(bool want_self_modifying) {
  std::vector<std::string> names;
  for (const suite::Sample& s : db().samples) {
    if (self_modifying(s) == want_self_modifying) names.push_back(s.name);
  }
  return names;
}

// Tracing is deterministic: the same APK traced twice yields byte-identical
// traces, so a divergence always implicates the round trip.
TEST(Trace, IsDeterministic) {
  const suite::Sample* sample = db().find("Button1");
  ASSERT_NE(sample, nullptr);
  rt::ExecutionTrace a = rt::trace_app(sample->apk, sample->configure_runtime);
  rt::ExecutionTrace b = rt::trace_app(sample->apk, sample->configure_runtime);
  EXPECT_EQ(rt::first_difference(a, b), "");
}

// A trace actually observes behaviour: samples with direct taint flows leak
// in the original execution, benign ones do not. (Implicit-flow samples are
// excluded: their leaks are control-dependence only, invisible to the
// dynamic taint the trace records — that's what those samples demonstrate.)
TEST(Trace, SeesGroundTruthLeaks) {
  for (const char* name : {"Button1", "PrivateDataLeak3", "Straight1"}) {
    const suite::Sample* sample = db().find(name);
    ASSERT_NE(sample, nullptr) << name;
    rt::ExecutionTrace trace =
        rt::trace_app(sample->apk, sample->configure_runtime);
    EXPECT_GT(trace.leak_count, 0u) << name;
  }
  const suite::Sample* clean = db().find("Clean1");
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(rt::trace_app(clean->apk, clean->configure_runtime).leak_count, 0u);
}

// Every DroidBench sample round-trips to behaviourally equivalent code.
// Containment stays off: the samples deliberately contain unexecuted code
// (dead branches, reflection-hidden paths).
class DifferentialEverySample : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialEverySample, OriginalAndRevealedBehaveIdentically) {
  const suite::Sample* sample = db().find(GetParam());
  ASSERT_NE(sample, nullptr);
  fuzz::OracleReport report =
      check_reveal({sample->apk, sample->configure_runtime});
  EXPECT_EQ(report.outcome, fuzz::Outcome::kEquivalent) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(
    DroidBench, DifferentialEverySample,
    ::testing::ValuesIn(sample_names(/*want_self_modifying=*/false)),
    [](const auto& info) { return info.param; });

// Self-modifying samples: differential *static analysis* instead of replay
// (the paper's Table III claim). The oracle, told the sample cannot replay,
// demands a verifier-clean reveal that captured guards or variants. The
// leak is invisible to the analyzer on the original DEX — the covert path
// only exists after runtime tampering — and visible on the revealed DEX,
// which embeds the collected covert state.
class DifferentialSelfModSample : public ::testing::TestWithParam<std::string> {
};

TEST_P(DifferentialSelfModSample, RevealDisclosesCovertFlowToStaticAnalysis) {
  const suite::Sample* sample = db().find(GetParam());
  ASSERT_NE(sample, nullptr);
  fuzz::OracleReport report =
      check_reveal({.apk = sample->apk,
                    .configure_runtime = sample->configure_runtime,
                    .replay_safe = false});
  ASSERT_EQ(report.outcome, fuzz::Outcome::kEquivalent) << report.detail;

  // The covert behaviour really happens at runtime...
  EXPECT_GT(report.original.leak_count, 0u);

  // ...but static analysis only sees it on the revealed DEX.
  analysis::StaticAnalyzer analyzer(analysis::flowdroid_config());
  analysis::AnalysisResult before = analyzer.analyze_apk(sample->apk);
  analysis::AnalysisResult after =
      analyzer.analyze_apk(report.reveal.revealed_apk);
  EXPECT_FALSE(before.leak_detected());
  EXPECT_TRUE(after.leak_detected());
}

INSTANTIATE_TEST_SUITE_P(
    DroidBench, DifferentialSelfModSample,
    ::testing::ValuesIn(sample_names(/*want_self_modifying=*/true)),
    [](const auto& info) { return info.param; });

// Generated full-coverage apps of varying size/seed round-trip too, and
// every instruction of the original survives in the reveal (containment) —
// the synthetic population exercises opcode/layout combinations DroidBench
// doesn't.
class DifferentialGeneratedApp
    : public ::testing::TestWithParam<std::pair<uint64_t, size_t>> {};

TEST_P(DifferentialGeneratedApp, OriginalAndRevealedBehaveIdentically) {
  auto [seed, units] = GetParam();
  suite::AppSpec spec;
  spec.name = "diff";
  spec.package = "diff.s" + std::to_string(seed);
  spec.seed = seed;
  spec.target_units = units;
  spec.full_coverage_style = true;
  suite::GeneratedApp app = suite::generate_app(spec);
  fuzz::OracleReport report =
      check_reveal({app.apk, {}}, /*check_containment=*/true);
  EXPECT_EQ(report.outcome, fuzz::Outcome::kEquivalent) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialGeneratedApp,
    ::testing::Values(std::pair<uint64_t, size_t>{1, 300},
                      std::pair<uint64_t, size_t>{2, 800},
                      std::pair<uint64_t, size_t>{3, 1500},
                      std::pair<uint64_t, size_t>{4, 3000},
                      std::pair<uint64_t, size_t>{5, 6000},
                      std::pair<uint64_t, size_t>{6, 12000},
                      std::pair<uint64_t, size_t>{7, 500},
                      std::pair<uint64_t, size_t>{8, 2000},
                      std::pair<uint64_t, size_t>{11, 400},
                      std::pair<uint64_t, size_t>{12, 1000},
                      std::pair<uint64_t, size_t>{13, 2500},
                      std::pair<uint64_t, size_t>{14, 5000},
                      std::pair<uint64_t, size_t>{15, 9000}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.first) + "_u" +
             std::to_string(info.param.second);
    });

// Packed inputs: the packed app (stub + encrypted payload) and its revealed
// form must behave identically — this is the unpacking claim — and the
// app's own main class must be back in the revealed DEX. Packed
// self-modifying samples cannot replay either, so the oracle demands their
// captured variants instead. Containment stays off because classes.ldex of
// the packed APK is the stub, not the app. The full 134-sample packed sweep
// lives in bench/table3_packed_tools.
class DifferentialPackedSample : public ::testing::TestWithParam<std::string> {
};

TEST_P(DifferentialPackedSample, PackedAndRevealedBehaveIdentically) {
  const suite::Sample* sample = db().find(GetParam());
  ASSERT_NE(sample, nullptr);
  auto packed = packer::pack(sample->apk, packer::packer_360());
  ASSERT_TRUE(packed.has_value());
  fuzz::OracleReport report =
      check_reveal({.apk = *packed,
                    .configure_runtime =
                        [sample](rt::Runtime& runtime) {
                          packer::register_packer_natives(runtime);
                          if (sample->configure_runtime) {
                            sample->configure_runtime(runtime);
                          }
                        },
                    .replay_safe = !self_modifying(*sample)});
  ASSERT_EQ(report.outcome, fuzz::Outcome::kEquivalent) << report.detail;
  dex::DexFile revealed = dex::read_dex(report.reveal.revealed_apk.classes());
  EXPECT_NE(revealed.find_class("Ldb/" + GetParam() + "/Main;"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Packed, DifferentialPackedSample,
    ::testing::Values("Straight1", "Button1", "Icc1", "SelfMod1", "SelfMod3",
                      "DynLoad1", "AdvReflect1", "ObfReflect1", "Lifecycle7",
                      "Exception9", "Switch10", "ImplicitFlow1", "Clean1",
                      "Unreachable1", "PrivateDataLeak3"),
    [](const auto& info) { return info.param; });

// --- FuzzRegressions: divergences surfaced by src/fuzz/, pinned forever ----
// Every checked-in replay file under tests/data/fuzz/ names a seed input and
// a minimized mutation trace. A file either still reproduces its recorded
// divergence fingerprint, or — for findings closed by a fix — its note
// documents the fix and the replay must come back clean. The named cases
// below pin each root cause individually; the catch-all sweeps every file so
// future findings can be checked in without touching this suite.

std::filesystem::path fuzz_data_dir() {
  return std::filesystem::path(DEXLEGO_FUZZ_DATA_DIR);
}

void replay_and_expect_holds(const std::filesystem::path& path) {
  SCOPED_TRACE(path.filename().string());
  std::vector<uint8_t> bytes = support::read_file(path.string());
  fuzz::ReplayFile file = fuzz::deserialize(bytes);
  if (file.expected_fingerprint == 0) {
    // Closed findings must say what closed them.
    EXPECT_FALSE(file.note.empty());
  }
  fuzz::ReplayResult result = fuzz::replay(file);
  EXPECT_TRUE(result.matches_expectation)
      << "oracle came back " << fuzz::outcome_name(result.report.outcome)
      << (result.report.detail.empty() ? "" : " — ") << result.report.detail
      << "\nnote: " << file.note;
}

TEST(FuzzRegressions, IdempotenceDuplicateInstrumentClass) {
  // goto-loop mutant; re-reveal used to emit Ldexlego/Modification; twice.
  replay_and_expect_holds(fuzz_data_dir() / "bytecode-idempotence-fixed.lfz");
}

TEST(FuzzRegressions, VariantNameCollisionRecursion) {
  // Re-reveal's synthetic m0$v0 collided with the previous round's real
  // m0$v0 and recursed to StackOverflowError.
  replay_and_expect_holds(fuzz_data_dir() /
                          "bytecode-variant-collision-fixed.lfz");
}

TEST(FuzzRegressions, ArgumentRegisterShift) {
  // The emitter's scratch register banked arguments one register higher
  // than the carried-over code read them.
  replay_and_expect_holds(fuzz_data_dir() / "bytecode-arg-shift-fixed.lfz");
}

TEST(FuzzRegressions, LoadedClassDroppedFromReveal) {
  // Classes reached only via Class.forName vanished from the revealed file.
  replay_and_expect_holds(fuzz_data_dir() /
                          "structural-loaded-class-fixed.lfz");
}

TEST(FuzzRegressions, StructuralCountBomb) {
  // Hostile pool count reached vector::reserve before any bounds check.
  replay_and_expect_holds(fuzz_data_dir() / "structural-count-bomb-fixed.lfz");
}

TEST(FuzzRegressions, BehavioralSelfModPackExclusion) {
  // Self-modifying packer stubs cannot replay the revealed APK; the oracle
  // demands captured covert variants instead.
  replay_and_expect_holds(fuzz_data_dir() /
                          "behavioral-selfmod-pack-fixed.lfz");
}

TEST(FuzzRegressions, EveryCheckedInReplayHolds) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(fuzz_data_dir())) {
    if (entry.path().extension() == ".lfz") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 6u);
  for (const std::filesystem::path& path : files) replay_and_expect_holds(path);
}

}  // namespace
}  // namespace dexlego

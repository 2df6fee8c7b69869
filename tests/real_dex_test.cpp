// Round-trip battery for the real Android DEX frontend/backend
// (src/dex/real, docs/DEX_FORMAT.md). Three layers of guarantees:
//
//   1. emit_real -> parse_real -> emit_real is BYTE-IDENTICAL for every app
//      population the repo generates (Table I, F-Droid, launch, DroidBench) —
//      the emitter's canonical form is a fixed point of its own parser.
//   2. Golden files in tests/data/dex/ pin the on-disk encoding: a silent
//      change to section ordering, leb128 encoding or checksum math fails
//      here before it corrupts anything downstream.
//   3. Container equivalence (ARCHITECTURE invariant 12): revealing an app
//      shipped as classes.dex — single or split multidex — produces the same
//      revealed bytes as revealing the identical app shipped as classes.ldex.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/benchsuite/appgen.h"
#include "src/benchsuite/droidbench.h"
#include "src/dex/archive.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/fuzz/triage.h"
#include "src/runtime/script.h"
#include "src/support/bytes.h"

namespace dexlego {
namespace {

std::filesystem::path data_dir() {
  return std::filesystem::path(DEXLEGO_DEX_DATA_DIR);
}

std::vector<uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// emit -> parse -> emit must be a fixed point, byte for byte.
::testing::AssertionResult RoundTripsByteIdentical(const dex::Apk& apk,
                                                   const std::string& label) {
  dex::DexFile model = dex::load_classes(apk);
  std::vector<uint8_t> first = dex::emit_real(model);
  dex::DexFile reparsed = dex::parse_real(first);
  std::vector<uint8_t> second = dex::emit_real(reparsed);
  if (first != second) {
    return ::testing::AssertionFailure()
           << label << ": emit->parse->emit not byte-identical (" << first.size()
           << " vs " << second.size() << " bytes)";
  }
  return ::testing::AssertionSuccess() << label << ": " << first.size()
                                       << " bytes stable";
}

// --- layer 1: every app population round-trips -----------------------------

TEST(RealDexRoundTrip, Table1Apps) {
  for (const suite::AppSpec& spec : suite::table1_apps()) {
    EXPECT_TRUE(RoundTripsByteIdentical(suite::generate_app(spec).apk,
                                        spec.name));
  }
}

TEST(RealDexRoundTrip, FdroidAndLaunchApps) {
  for (const suite::AppSpec& spec : suite::fdroid_apps()) {
    EXPECT_TRUE(RoundTripsByteIdentical(suite::generate_app(spec).apk,
                                        spec.name));
  }
  for (const suite::AppSpec& spec : suite::launch_apps()) {
    EXPECT_TRUE(RoundTripsByteIdentical(suite::generate_app(spec).apk,
                                        spec.name));
  }
}

TEST(RealDexRoundTrip, EveryDroidBenchSample) {
  suite::DroidBench bench = suite::build_droidbench();
  ASSERT_FALSE(bench.samples.empty());
  for (const suite::Sample& sample : bench.samples) {
    EXPECT_TRUE(RoundTripsByteIdentical(sample.apk, sample.name));
  }
}

TEST(RealDexRoundTrip, HostileAppShapesRoundTrip) {
  // Exception tables, reflection strings and self-modifying scaffolding all
  // have dedicated encodings (tries, string pool, payloads) — cover them.
  suite::AppSpec spec;
  spec.seed = 77;
  spec.name = "hostile";
  spec.package = "hostile.t";
  spec.target_units = 900;
  spec.guard_stack = 3;
  spec.reflection_maze = 2;
  spec.leak_flows = 2;
  spec.self_modifying = true;
  EXPECT_TRUE(RoundTripsByteIdentical(suite::generate_app(spec).apk,
                                      spec.name));
}

// --- layer 2: golden files pin the encoding --------------------------------

struct Golden {
  const char* file;
  const char* app;  // table1 app name or "droidbench:<Sample>"
};

const Golden kGoldens[] = {
    {"htmlviewer.dex", "HTMLViewer"},
    {"straight1.dex", "droidbench:Straight1"},
};

dex::Apk golden_app(const std::string& name) {
  if (name.rfind("droidbench:", 0) == 0) {
    suite::DroidBench bench = suite::build_droidbench();
    const suite::Sample* sample = bench.find(name.substr(11));
    EXPECT_NE(sample, nullptr) << name;
    return sample->apk;
  }
  for (const suite::AppSpec& spec : suite::table1_apps()) {
    if (spec.name == name) return suite::generate_app(spec).apk;
  }
  ADD_FAILURE() << "unknown golden app " << name;
  return {};
}

TEST(RealDexGolden, EmitterReproducesPinnedBytes) {
  for (const Golden& golden : kGoldens) {
    std::vector<uint8_t> pinned = read_file(data_dir() / golden.file);
    ASSERT_FALSE(pinned.empty());
    std::vector<uint8_t> emitted =
        dex::emit_real(dex::load_classes(golden_app(golden.app)));
    EXPECT_EQ(emitted, pinned) << golden.file
                               << ": the on-disk encoding changed";
  }
}

TEST(RealDexGolden, PinnedBytesParseAndReEmitIdentically) {
  for (const Golden& golden : kGoldens) {
    std::vector<uint8_t> pinned = read_file(data_dir() / golden.file);
    ASSERT_TRUE(dex::is_real_dex(pinned)) << golden.file;
    EXPECT_EQ(dex::emit_real(dex::parse_real(pinned)), pinned) << golden.file;
  }
}

// --- multidex --------------------------------------------------------------

dex::Apk generated_app(uint64_t seed, size_t units) {
  suite::AppSpec spec;
  spec.seed = seed;
  spec.name = "rdex-s" + std::to_string(seed);
  spec.package = "rdex.s" + std::to_string(seed);
  spec.target_units = units;
  spec.full_coverage_style = true;
  return suite::generate_app(spec).apk;
}

TEST(RealDexMultidex, SplitPartsMergeBackToTheSameImage) {
  dex::Apk apk = generated_app(41, 1500);
  std::vector<uint8_t> single =
      dex::emit_real(dex::load_classes(apk));
  for (size_t parts : {2u, 3u, 5u}) {
    dex::Apk split = dex::to_real_container(apk, parts);
    ASSERT_TRUE(split.has_entry("classes.dex"));
    ASSERT_TRUE(split.has_entry("classes" + std::to_string(parts) + ".dex"));
    EXPECT_FALSE(split.has_entry(dex::Apk::kClassesEntry));
    // Merging the parts and re-emitting reproduces the single-dex bytes:
    // the canonical form is independent of how classes were distributed.
    EXPECT_EQ(dex::emit_real(dex::load_classes(split)), single)
        << parts << " parts";
  }
}

TEST(RealDexMultidex, EveryPartIsIndependentlyValid) {
  dex::Apk split = dex::to_real_container(generated_app(42, 1200), 3);
  for (size_t i = 0; i < 3; ++i) {
    const std::string name = dex::real_classes_entry(i);
    ASSERT_TRUE(split.has_entry(name));
    EXPECT_NO_THROW(dex::parse_real(split.entry(name))) << name;
  }
}

TEST(RealDexMultidex, GappedSequenceFailsClosed) {
  dex::Apk split = dex::to_real_container(generated_app(43, 1200), 3);
  split.remove_entry("classes2.dex");  // classes3.dex now unreachable
  EXPECT_THROW(dex::load_classes(split), support::ParseError);
}

TEST(RealDexMultidex, AliasedPartFailsClosed) {
  dex::Apk split = dex::to_real_container(generated_app(44, 1200), 2);
  // classes2.dex redefines every class of classes.dex — the winner would be
  // load-order-dependent, so the merge must refuse.
  split.set_entry("classes2.dex", split.entry("classes.dex"));
  EXPECT_THROW(dex::load_classes(split), support::ParseError);
}

TEST(RealDexMultidex, StripRemovesEveryPart) {
  dex::Apk split = dex::to_real_container(generated_app(45, 1200), 3);
  EXPECT_TRUE(dex::has_classes(split));
  dex::strip_real_classes(split);
  EXPECT_FALSE(dex::has_classes(split));
  EXPECT_FALSE(split.has_entry("classes.dex"));
  EXPECT_FALSE(split.has_entry("classes2.dex"));
}

// --- layer 3: container equivalence (ARCHITECTURE invariant 12) ------------

// The reassembler re-interns everything symbolically, so the revealed APK
// must not depend on which container the input arrived in. Each container
// passes the differential oracle with containment on.
void expect_container_equivalent(
    const dex::Apk& ldex_apk,
    const std::function<void(rt::Runtime&)>& configure) {
  fuzz::OracleOptions options;
  options.step_limit = rt::RuntimeConfig{}.step_limit;
  options.check_containment = true;

  fuzz::OracleReport base = fuzz::run_oracle({ldex_apk, configure}, options);
  ASSERT_EQ(base.outcome, fuzz::Outcome::kEquivalent) << base.detail;

  for (size_t parts : {1u, 3u}) {
    fuzz::OracleReport diff = fuzz::run_oracle(
        {dex::to_real_container(ldex_apk, parts), configure}, options);
    EXPECT_EQ(diff.outcome, fuzz::Outcome::kEquivalent)
        << parts << " parts: " << diff.detail;
    EXPECT_EQ(rt::first_difference(base.original, diff.original), "")
        << parts << " parts";
    // The strong form: the revealed classes.ldex is byte-identical to the
    // LDEX-container run, and so are the four name-keyed collection files.
    // files.bytecode is excluded by design: it records operands in the
    // EXECUTING image's pool-index space, which real-DEX canonicalization
    // reorders — the reassembler re-interns those indices symbolically,
    // which is exactly why the final bytes above still agree.
    EXPECT_EQ(diff.reveal.revealed_apk.classes(),
              base.reveal.revealed_apk.classes())
        << parts << " parts";
    EXPECT_EQ(diff.reveal.files.class_data, base.reveal.files.class_data);
    EXPECT_EQ(diff.reveal.files.field_data, base.reveal.files.field_data);
    EXPECT_EQ(diff.reveal.files.static_values,
              base.reveal.files.static_values);
    EXPECT_EQ(diff.reveal.files.method_data, base.reveal.files.method_data);
    EXPECT_EQ(diff.reveal.files.bytecode.size(),
              base.reveal.files.bytecode.size());
  }
}

TEST(RealDexContainerEquivalence, GeneratedApp) {
  expect_container_equivalent(generated_app(51, 1400), {});
}

TEST(RealDexContainerEquivalence, LeakySampleWithNatives) {
  suite::DroidBench bench = suite::build_droidbench();
  const suite::Sample* sample = bench.find("Button1");
  ASSERT_NE(sample, nullptr);
  expect_container_equivalent(sample->apk, sample->configure_runtime);
}

}  // namespace
}  // namespace dexlego

#include <gtest/gtest.h>

#include "src/benchsuite/appgen.h"
#include "src/bytecode/assembler.h"
#include "src/coverage/force.h"
#include "src/coverage/fuzzer.h"
#include "src/coverage/tracker.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"

namespace dexlego::coverage {
namespace {

using bc::MethodAssembler;
using bc::Op;

dex::Apk guarded_app() {
  // onCreate: if (getText(3).equals("magicword")) { reach(); }
  dex::DexBuilder b;
  uint32_t magic = b.intern_string("magicword");
  uint16_t find_view = static_cast<uint16_t>(
      b.intern_method("Landroid/app/Activity;", "findViewById",
                      "Landroid/view/View;", {"I"}));
  uint16_t get_text = static_cast<uint16_t>(b.intern_method(
      "Landroid/widget/EditText;", "getText", "Ljava/lang/String;", {}));
  uint16_t equals = static_cast<uint16_t>(
      b.intern_method("Ljava/lang/String;", "equals", "I", {"Ljava/lang/String;"}));
  b.start_class("Lcov/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 0);
    as.const16(0, 11);
    as.mul_lit8(0, 0, 3);
    as.return_value(0);
    b.add_direct_method("reach", "I", {}, as.finish());
  }
  uint16_t reach = static_cast<uint16_t>(b.intern_method("Lcov/Main;", "reach", "I", {}));
  {
    MethodAssembler as(4, 1);  // this v3
    auto skip = as.make_label();
    as.const16(0, 3);
    as.invoke(Op::kInvokeVirtual, find_view, {3, 0});
    as.move_result(0);
    as.invoke(Op::kInvokeVirtual, get_text, {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(magic));
    as.invoke(Op::kInvokeVirtual, equals, {0, 1});
    as.move_result(1);
    as.if_testz(Op::kIfEqz, 1, skip);
    as.invoke(Op::kInvokeStatic, reach, {});
    as.move_result(2);
    as.bind(skip);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cov";
  manifest.entry_class = "Lcov/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

// onCreate runs 70 nops (pcs 0-69), const/16 (70), an if-eqz that is always
// taken (72) over 26 nops (74-99), then 40 nops (100-139) and return-void
// (140). Its executed pcs straddle the 64-bit words of the tracker's pc
// bitsets at 63/64/65 and 127/128.
dex::Apk long_app() {
  dex::DexBuilder b;
  b.start_class("Lcov/Long;", "Landroid/app/Activity;");
  MethodAssembler as(2, 1);
  auto skip = as.make_label();
  for (int i = 0; i < 70; ++i) as.nop();
  as.const16(0, 0);
  as.if_testz(Op::kIfEqz, 0, skip);
  for (int i = 0; i < 26; ++i) as.nop();
  as.bind(skip);
  for (int i = 0; i < 40; ++i) as.nop();
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cov.long";
  manifest.entry_class = "Lcov/Long;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

void expect_report(const CoverageTracker::Report& got,
                   const CoverageTracker::Report& want) {
  EXPECT_EQ(got.classes_total, want.classes_total);
  EXPECT_EQ(got.classes_covered, want.classes_covered);
  EXPECT_EQ(got.methods_total, want.methods_total);
  EXPECT_EQ(got.methods_covered, want.methods_covered);
  EXPECT_EQ(got.lines_total, want.lines_total);
  EXPECT_EQ(got.lines_covered, want.lines_covered);
  EXPECT_EQ(got.branches_total, want.branches_total);
  EXPECT_EQ(got.branches_covered, want.branches_covered);
  EXPECT_EQ(got.instructions_total, want.instructions_total);
  EXPECT_EQ(got.instructions_covered, want.instructions_covered);
}

void expect_same_branch_sites(const CoverageTracker& got,
                              const CoverageTracker& want) {
  ASSERT_EQ(got.branch_sites().size(), want.branch_sites().size());
  for (const auto& [key, sites] : want.branch_sites()) {
    const auto* mine = got.branches(key);
    ASSERT_NE(mine, nullptr) << key;
    ASSERT_EQ(mine->size(), sites.size()) << key;
    for (const auto& [pc, seen] : sites) {
      ASSERT_TRUE(mine->contains(pc)) << key << "@" << pc;
      EXPECT_EQ(mine->at(pc).taken, seen.taken) << key << "@" << pc;
      EXPECT_EQ(mine->at(pc).untaken, seen.untaken) << key << "@" << pc;
    }
  }
}

TEST(Tracker, ReportsAllGranularities) {
  struct Case {
    const char* name;
    dex::Apk apk;
    CoverageTracker::Report want;
  };
  CoverageTracker::Report guarded;
  guarded.classes_total = guarded.classes_covered = 1;
  guarded.methods_total = 2;
  guarded.methods_covered = 1;  // reach() behind the guard
  guarded.instructions_total = 15;
  guarded.instructions_covered = 10;
  guarded.branches_total = 2;  // one conditional, only its untaken side seen
  guarded.branches_covered = 1;
  CoverageTracker::Report straddling;
  straddling.classes_total = straddling.classes_covered = 1;
  straddling.methods_total = straddling.methods_covered = 1;
  straddling.instructions_total = 139;
  straddling.instructions_covered = 113;  // all but the 26 skipped nops
  straddling.branches_total = 2;  // one conditional, only its taken side seen
  straddling.branches_covered = 1;
  for (const Case& c : {Case{"guarded", guarded_app(), guarded},
                        Case{"straddling", long_app(), straddling}}) {
    SCOPED_TRACE(c.name);
    CoverageTracker tracker;
    rt::Runtime runtime;
    runtime.add_hooks(&tracker);
    runtime.install(c.apk);
    runtime.launch();
    expect_report(tracker.report(dex::read_dex(c.apk.classes())), c.want);
  }
}

TEST(Tracker, MergeAccumulates) {
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  CoverageTracker a, b;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&a);
    runtime.install(apk);
    runtime.launch();
  }
  {
    rt::Runtime runtime;
    runtime.add_hooks(&b);
    runtime.set_text_input(3, "magicword");
    runtime.install(apk);
    runtime.launch();
  }
  EXPECT_LT(a.report(file).method_pct(), 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.report(file).method_pct(), 1.0);
  EXPECT_DOUBLE_EQ(a.report(file).branch_pct(), 1.0);
}

TEST(Tracker, OneTrackerOverTwoRuntimesEqualsMergedTrackers) {
  // The second runtime may reuse the first one's RtMethod addresses, so a
  // tracker observing both must not carry per-method state across them.
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  auto run = [&](CoverageTracker& tracker, const char* input) {
    rt::Runtime runtime;
    runtime.add_hooks(&tracker);
    if (input != nullptr) runtime.set_text_input(3, input);
    runtime.install(apk);
    runtime.launch();
  };
  CoverageTracker both, first, second;
  run(both, nullptr);
  run(both, "magicword");
  run(first, nullptr);
  run(second, "magicword");
  first.merge(second);
  expect_report(both.report(file), first.report(file));
  expect_same_branch_sites(both, first);
}

TEST(Fuzzer, RandomInputsRarelyPassSemanticGuards) {
  dex::Apk apk = guarded_app();
  FuzzOptions options;
  options.generations = 2;
  options.population = 4;
  FuzzResult result = fuzz_app(apk, options);
  EXPECT_GT(result.runs, 0u);
  dex::DexFile file = dex::read_dex(apk.classes());
  EXPECT_LT(result.coverage.report(file).method_pct(), 1.0);
}

TEST(ForcePlan, SetFindSizeAndFingerprint) {
  ForcePlan plan;
  plan.set("La;->m()V", 10, true);
  plan.set("Lb;->n()V", 4, false);
  ASSERT_NE(plan.find("La;->m()V", 10), nullptr);
  EXPECT_TRUE(*plan.find("La;->m()V", 10));
  ASSERT_NE(plan.find("Lb;->n()V", 4), nullptr);
  EXPECT_FALSE(*plan.find("Lb;->n()V", 4));
  EXPECT_EQ(plan.find("La;->m()V", 11), nullptr);
  EXPECT_EQ(plan.size(), 2u);
  // Equal decisions fingerprint equally, whatever order they were set in.
  ForcePlan same;
  same.set("Lb;->n()V", 4, false);
  same.set("La;->m()V", 10, true);
  EXPECT_EQ(same.fingerprint(), plan.fingerprint());
  same.set("Lb;->n()V", 4, true);  // replaces the decision
  EXPECT_NE(same.fingerprint(), plan.fingerprint());
}

TEST(ForcePath, ComputesBranchDecisions) {
  // entry -> if A -> if B -> target; require both decisions recorded.
  MethodAssembler as(2, 0);
  auto l1 = as.make_label();
  auto l2 = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, l1);  // pc 2
  as.return_void();
  as.bind(l1);
  as.if_testz(Op::kIfLtz, 0, l2);  // after l1
  as.return_void();
  as.bind(l2);
  as.const16(1, 9);
  as.return_void();
  dex::CodeItem code = as.finish();

  // Locate the second conditional's pc.
  uint32_t ucb_pc = 0;
  {
    std::span<const uint16_t> insns(code.insns);
    size_t pc = 0;
    int seen = 0;
    while (pc < insns.size()) {
      bc::Insn insn = bc::decode_at(insns, pc);
      if (bc::is_conditional_branch(insn.op) && ++seen == 2) {
        ucb_pc = static_cast<uint32_t>(pc);
      }
      pc += insn.width;
    }
  }
  ForcePlan plan;
  ASSERT_TRUE(compute_path(code, "k", ucb_pc, true, plan));
  const bool* first = plan.find("k", 2);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(*first);  // must take the first branch to reach the second
  const bool* second = plan.find("k", ucb_pc);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(*second);
}

TEST(ForceExecution, ReachesGuardedCode) {
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::read_dex(apk.classes());

  // Seed with a plain run (guard not taken).
  CoverageTracker seed;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&seed);
    runtime.install(apk);
    runtime.launch();
  }
  EXPECT_LT(seed.report(file).method_pct(), 1.0);

  ForceOptions options;
  ForceResult result = force_execute(apk, options, seed);
  EXPECT_GT(result.iterations, 0);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).method_pct(), 1.0);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).branch_pct(), 1.0);
}

TEST(ForceExecution, ToleratesInfeasiblePathExceptions) {
  // Forcing a branch that guards a division leads to /0 — the tolerance
  // machinery clears it and the run continues (paper IV-E).
  dex::DexBuilder b;
  b.start_class("Lcov/Main;", "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  auto danger = as.make_label();
  auto end = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, danger);  // never taken naturally
  as.goto_(end);
  as.bind(danger);
  as.const16(1, 1);
  as.binop(Op::kDiv, 1, 1, 0);  // 1/0 on the forced path
  as.const16(2, 7);             // must still execute after tolerance
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cov2";
  manifest.entry_class = "Lcov/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  dex::DexFile file = dex::read_dex(apk.classes());

  CoverageTracker seed;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&seed);
    runtime.install(apk);
    runtime.launch();
  }
  ForceResult result = force_execute(apk, ForceOptions{}, seed);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).instruction_pct(), 1.0);
}

TEST(Appgen, DeterministicAndSized) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.t";
  spec.seed = 5;
  spec.target_units = 5000;
  spec.full_coverage_style = true;
  suite::GeneratedApp a = suite::generate_app(spec);
  suite::GeneratedApp b2 = suite::generate_app(spec);
  EXPECT_EQ(a.code_units, b2.code_units);
  EXPECT_EQ(a.apk.classes(), b2.apk.classes());
  // Within 15% of the requested size.
  EXPECT_NEAR(static_cast<double>(a.code_units), 5000.0, 750.0);
  // Runs to completion.
  rt::Runtime runtime;
  runtime.install(a.apk);
  EXPECT_TRUE(runtime.launch().completed);
}

TEST(Appgen, FullCoverageStyleCoversEverything) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.fc";
  spec.seed = 9;
  spec.target_units = 3000;
  spec.full_coverage_style = true;
  suite::GeneratedApp app = suite::generate_app(spec);
  CoverageTracker tracker;
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  runtime.install(app.apk);
  ASSERT_TRUE(runtime.launch().completed);
  dex::DexFile file = dex::read_dex(app.apk.classes());
  CoverageTracker::Report report = tracker.report(file);
  EXPECT_DOUBLE_EQ(report.instruction_pct(), 1.0);
  EXPECT_DOUBLE_EQ(report.branch_pct(), 1.0);
}

TEST(Appgen, GuardedAndDeadFractionsLimitCoverage) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.g";
  spec.seed = 10;
  spec.target_units = 8000;
  spec.guarded_fraction = 0.5;
  spec.dead_fraction = 0.2;
  suite::GeneratedApp app = suite::generate_app(spec);
  CoverageTracker tracker;
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  runtime.install(app.apk);
  ASSERT_TRUE(runtime.launch().completed);
  dex::DexFile file = dex::read_dex(app.apk.classes());
  double pct = tracker.report(file).instruction_pct();
  EXPECT_GT(pct, 0.1);
  EXPECT_LT(pct, 0.5);  // guarded + dead code unreached
}

}  // namespace
}  // namespace dexlego::coverage

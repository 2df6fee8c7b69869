// ForceEngine contract: the frontier targets every uncovered branch side
// with its own independently-runnable plan, prefixes chain across waves so
// nested guards are reachable, the attempted/visited sets dedup the
// frontier, depth/plan budgets cut exploration off deterministically, and
// identical observation sequences always produce identical waves.
#include <gtest/gtest.h>

#include <vector>

#include "src/bytecode/assembler.h"
#include "src/coverage/force.h"
#include "src/coverage/force_engine.h"
#include "src/coverage/tracker.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/runtime/runtime.h"

namespace dexlego::coverage {
namespace {

using bc::MethodAssembler;
using bc::Op;

// onCreate with two nested integer guards neither of which natural
// execution passes:
//   v0 = 0; if (v0 != 0) { v1 = 0; if (v1 != 0) { v2 = 9; } }
dex::Apk nested_guard_app() {
  dex::DexBuilder b;
  b.start_class("Lfe/Main;", "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto outer = as.make_label();
  auto inner = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, outer);  // natural: fall through
  as.return_void();
  as.bind(outer);
  as.const16(1, 0);
  as.if_testz(Op::kIfNez, 1, inner);  // reachable only when outer is forced
  as.return_void();
  as.bind(inner);
  as.const16(2, 9);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());

  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "fe";
  manifest.entry_class = "Lfe/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

// Runs one plan unit: fresh runtime, launch under the plan's ForceHooks.
CoverageTracker run_unit(const dex::Apk& apk, const PlanUnit& unit) {
  CoverageTracker tracker;
  ForceHooks hooks(unit.plan);
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  if (!unit.plan.empty()) runtime.add_hooks(&hooks);
  runtime.install(apk);
  runtime.launch();
  return tracker;
}

CoverageTracker baseline_coverage(const dex::Apk& apk) {
  return run_unit(apk, PlanUnit{});
}

TEST(ForceEngine, PrefixChainsThroughNestedGuards) {
  dex::Apk apk = nested_guard_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  ForceEngine engine(file);
  engine.observe(PlanUnit{}, baseline_coverage(apk));

  // Wave 1: only the outer guard's taken side is an uncovered branch.
  std::vector<PlanUnit> wave1 = engine.next_wave();
  ASSERT_EQ(wave1.size(), 1u);
  EXPECT_TRUE(wave1[0].target_outcome);
  EXPECT_EQ(wave1[0].depth, 1);
  engine.observe(wave1[0], run_unit(apk, wave1[0]));

  // Wave 2: the inner guard surfaced; its plan must inherit the outer
  // decision (the prefix) or the run would never reach the inner branch.
  std::vector<PlanUnit> wave2 = engine.next_wave();
  ASSERT_EQ(wave2.size(), 1u);
  EXPECT_EQ(wave2[0].depth, 2);
  EXPECT_GE(wave2[0].plan.size(), 2u);
  const bool* outer_decision =
      wave2[0].plan.find(wave1[0].target_method, wave1[0].target_pc);
  ASSERT_NE(outer_decision, nullptr);
  EXPECT_TRUE(*outer_decision);
  engine.observe(wave2[0], run_unit(apk, wave2[0]));

  // Converged: everything is covered.
  EXPECT_TRUE(engine.next_wave().empty());
  EXPECT_DOUBLE_EQ(engine.coverage().report(file).branch_pct(), 1.0);
  EXPECT_DOUBLE_EQ(engine.coverage().report(file).instruction_pct(), 1.0);
  EXPECT_EQ(engine.stats().waves, 2);
  EXPECT_EQ(engine.stats().plans_issued, 2u);
}

TEST(ForceEngine, FrontierDedupNeverReissuesATarget) {
  dex::Apk apk = nested_guard_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  ForceEngine engine(file);
  engine.observe(PlanUnit{}, baseline_coverage(apk));

  std::vector<PlanUnit> wave1 = engine.next_wave();
  ASSERT_EQ(wave1.size(), 1u);
  // Without new coverage, every known target is already attempted: the
  // frontier must come back empty instead of re-issuing the same plan.
  EXPECT_TRUE(engine.next_wave().empty());
  EXPECT_TRUE(engine.next_wave().empty());

  // Re-observing identical coverage changes nothing either.
  engine.observe(PlanUnit{}, baseline_coverage(apk));
  EXPECT_TRUE(engine.next_wave().empty());
  EXPECT_EQ(engine.stats().plans_issued, 1u);
}

TEST(ForceEngine, DepthBudgetPrunesDeepPrefixes) {
  dex::Apk apk = nested_guard_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  ForceEngineOptions options;
  options.max_depth = 1;  // outer guard reachable, inner (depth 2) is not
  ForceEngine engine(file, options);
  engine.observe(PlanUnit{}, baseline_coverage(apk));

  std::vector<PlanUnit> wave1 = engine.next_wave();
  ASSERT_EQ(wave1.size(), 1u);
  engine.observe(wave1[0], run_unit(apk, wave1[0]));

  EXPECT_TRUE(engine.next_wave().empty());
  EXPECT_GE(engine.stats().pruned_depth, 1u);
  EXPECT_LT(engine.coverage().report(file).branch_pct(), 1.0);
}

TEST(ForceEngine, PlanBudgetCutsTheFrontier) {
  // Two sibling guards -> two UCB targets in wave 1; a one-plan budget must
  // deterministically issue only the first.
  dex::DexBuilder b;
  b.start_class("Lfe/Two;", "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto g1 = as.make_label();
  auto g2 = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, g1);
  as.bind(g1);  // both sides meet here; the branch still has one unseen side
  as.const16(1, 0);
  as.if_testz(Op::kIfNez, 1, g2);
  as.bind(g2);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "fe2";
  manifest.entry_class = "Lfe/Two;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  dex::DexFile file = dex::read_dex(apk.classes());

  ForceEngineOptions options;
  options.max_plans = 1;
  ForceEngine engine(file, options);
  engine.observe(PlanUnit{}, baseline_coverage(apk));
  std::vector<PlanUnit> wave = engine.next_wave();
  EXPECT_EQ(wave.size(), 1u);
  EXPECT_GE(engine.stats().pruned_budget, 1u);
  EXPECT_EQ(engine.stats().plans_issued, 1u);

  // Budget spent: later waves issue nothing, whatever is observed.
  engine.observe(wave[0], run_unit(apk, wave[0]));
  EXPECT_TRUE(engine.next_wave().empty());
}

TEST(ForceEngine, IdenticalObservationSequencesYieldIdenticalWaves) {
  dex::Apk apk = nested_guard_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  ForceEngine a(file), b(file);
  a.observe(PlanUnit{}, baseline_coverage(apk));
  b.observe(PlanUnit{}, baseline_coverage(apk));

  for (int wave = 0; wave < 4; ++wave) {
    std::vector<PlanUnit> wa = a.next_wave();
    std::vector<PlanUnit> wb = b.next_wave();
    ASSERT_EQ(wa.size(), wb.size()) << "wave " << wave;
    for (size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].plan, wb[i].plan);
      EXPECT_EQ(wa[i].target_method, wb[i].target_method);
      EXPECT_EQ(wa[i].target_pc, wb[i].target_pc);
      EXPECT_EQ(wa[i].target_outcome, wb[i].target_outcome);
      EXPECT_EQ(wa[i].depth, wb[i].depth);
      CoverageTracker cov = run_unit(apk, wa[i]);
      a.observe(wa[i], cov);
      b.observe(wb[i], cov);
    }
    if (wa.empty()) break;
  }
  EXPECT_EQ(a.stats().plans_issued, b.stats().plans_issued);
}

}  // namespace
}  // namespace dexlego::coverage

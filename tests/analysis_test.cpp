#include <gtest/gtest.h>

#include "src/analysis/dynamic.h"
#include "src/analysis/report.h"
#include "src/analysis/static_taint.h"
#include "src/benchsuite/droidbench.h"
#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"

namespace dexlego::analysis {
namespace {

using bc::MethodAssembler;
using bc::Op;
using suite::DroidBench;
using suite::Sample;

const DroidBench& db() {
  static DroidBench suite = suite::build_droidbench();
  return suite;
}

const Sample& sample(const char* name) {
  const Sample* s = db().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

bool detects(const ToolConfig& cfg, const Sample& s) {
  StaticAnalyzer analyzer(cfg);
  return analyzer.analyze_apk(s.apk).leak_detected();
}

TEST(StaticTaint, AllToolsDetectStraightLineLeak) {
  const Sample& s = sample("Straight1");
  EXPECT_TRUE(detects(flowdroid_config(), s));
  EXPECT_TRUE(detects(droidsafe_config(), s));
  EXPECT_TRUE(detects(horndroid_config(), s));
}

TEST(StaticTaint, FlowReportsSourceSinkAndMethod) {
  StaticAnalyzer analyzer(flowdroid_config());
  AnalysisResult result = analyzer.analyze_apk(sample("Straight1").apk);
  ASSERT_EQ(result.flow_count(), 1u);
  const Flow& flow = *result.flows.begin();
  EXPECT_NE(flow.source.find("getDeviceId"), std::string::npos);
  EXPECT_EQ(flow.sink, "sms");
  EXPECT_NE(flow.where.find("onCreate"), std::string::npos);
}

TEST(StaticTaint, HelperChainsPropagateThroughSummaries) {
  EXPECT_TRUE(detects(flowdroid_config(), sample("Chain3")));
  EXPECT_TRUE(detects(droidsafe_config(), sample("Chain3")));
}

TEST(StaticTaint, CleanAppProducesNoFlows) {
  EXPECT_FALSE(detects(flowdroid_config(), sample("Clean1")));
  EXPECT_FALSE(detects(droidsafe_config(), sample("Clean1")));
  EXPECT_FALSE(detects(horndroid_config(), sample("Clean1")));
}

TEST(StaticTaint, IccOnlyDetectedWithIccModel) {
  const Sample& s = sample("Icc1");
  EXPECT_FALSE(detects(flowdroid_config(), s));  // no IccTA
  EXPECT_TRUE(detects(droidsafe_config(), s));
  EXPECT_TRUE(detects(horndroid_config(), s));
}

TEST(StaticTaint, ImplicitFlowOnlyWithImplicitTracking) {
  const Sample& s = sample("ImplicitFlow1");
  EXPECT_FALSE(detects(flowdroid_config(), s));
  EXPECT_FALSE(detects(droidsafe_config(), s));
  EXPECT_TRUE(detects(horndroid_config(), s));
}

TEST(StaticTaint, ValueSensitivityResolvesObfuscatedReflection) {
  const Sample& s = sample("ObfReflect1");
  EXPECT_FALSE(detects(flowdroid_config(), s));
  EXPECT_FALSE(detects(droidsafe_config(), s));
  EXPECT_TRUE(detects(horndroid_config(), s));
}

TEST(StaticTaint, AdvancedReflectionEvadesAllStaticTools) {
  const Sample& s = sample("AdvReflect1");
  EXPECT_FALSE(detects(flowdroid_config(), s));
  EXPECT_FALSE(detects(droidsafe_config(), s));
  EXPECT_FALSE(detects(horndroid_config(), s));
}

TEST(StaticTaint, DeadCodeFalsePositives) {
  // Dead method: every tool reports the unreachable flow.
  const Sample& dead = sample("Unreachable1");
  EXPECT_TRUE(detects(flowdroid_config(), dead));
  EXPECT_TRUE(detects(droidsafe_config(), dead));
  EXPECT_TRUE(detects(horndroid_config(), dead));
  // Constant-false branch: only value-sensitive HornDroid prunes it.
  for (const char* name : {"DeadBranch1", "DeadBranch2"}) {
    const Sample& branch = sample(name);
    EXPECT_TRUE(detects(flowdroid_config(), branch)) << name;
    EXPECT_TRUE(detects(droidsafe_config(), branch)) << name;
    EXPECT_FALSE(detects(horndroid_config(), branch)) << name;
  }
}

TEST(StaticTaint, OrphanCallbackOnlyFlowDroid) {
  const Sample& s = sample("OrphanCallback1");
  EXPECT_TRUE(detects(flowdroid_config(), s));
  EXPECT_FALSE(detects(droidsafe_config(), s));
  EXPECT_FALSE(detects(horndroid_config(), s));
}

TEST(StaticTaint, HeapPrecisionKnobs) {
  // Field-name-collision heap (DroidSafe) FPs on aliasing; precise tools not.
  const Sample& alias = sample("AliasField1");
  EXPECT_FALSE(detects(flowdroid_config(), alias));
  EXPECT_TRUE(detects(droidsafe_config(), alias));
  EXPECT_FALSE(detects(horndroid_config(), alias));
  // Flow-insensitive fields (DroidSafe) FP on overwritten taint.
  const Sample& over = sample("Overwrite1");
  EXPECT_FALSE(detects(flowdroid_config(), over));
  EXPECT_TRUE(detects(droidsafe_config(), over));
}

TEST(StaticTaint, CoarseAbstractionsFalsePositiveEverywhere) {
  for (const char* name : {"CoarseArray1", "CoarseTag1"}) {
    const Sample& s = sample(name);
    EXPECT_TRUE(detects(flowdroid_config(), s)) << name;
    EXPECT_TRUE(detects(droidsafe_config(), s)) << name;
    EXPECT_TRUE(detects(horndroid_config(), s)) << name;
  }
}

TEST(StaticTaint, SanitizerClearsTaint) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t scrub = b.intern_method("Ldexlego/api/Sanitizer;", "scrub",
                                   "Ljava/lang/String;", {"Ljava/lang/String;"});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  b.start_class("Lt/A;", "Landroid/app/Activity;");
  MethodAssembler as(2, 1);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(scrub), {0});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::DexFile file = std::move(b).build();
  StaticAnalyzer analyzer(flowdroid_config());
  EXPECT_FALSE(analyzer.analyze(file).leak_detected());
}

TEST(StaticTaint, DepthCutLimitsDroidSafe) {
  // Helper chains of depth 3 are fine for every tool (the suite relies on
  // deep-chain >5 misses only for revealed self-mod/reflection samples).
  const Sample& s = sample("Chain3");
  EXPECT_TRUE(detects(droidsafe_config(), s));
}

TEST(Report, FMeasureFormula) {
  Classification c;
  // From the paper's FlowDroid original column: tp=81, fn=30, fp=10, tn=13.
  c.tp = 81;
  c.fn = 30;
  c.fp = 10;
  c.tn = 13;
  EXPECT_NEAR(c.sensitivity(), 81.0 / 111.0, 1e-9);
  EXPECT_NEAR(c.specificity(), 13.0 / 23.0, 1e-9);
  EXPECT_NEAR(c.f_measure(), 0.637, 0.005);  // the paper's 63%
}

TEST(Report, DistinctLeaks) {
  AnalysisResult r;
  r.flows.insert({"srcA", "sms", "m1"});
  r.flows.insert({"srcA", "sms", "m2"});  // same pair, different method
  r.flows.insert({"srcA", "log", "m1"});
  EXPECT_EQ(r.flow_count(), 3u);
  EXPECT_EQ(r.distinct_leaks(), 2u);
}

TEST(Dynamic, TaintDroidVsTaintARTProfiles) {
  const Sample& emu = sample("EmulatorDetection1");
  DynamicRunOptions run;
  run.configure_runtime = emu.configure_runtime;
  EXPECT_EQ(run_dynamic_analysis(taintdroid_config(), emu.apk, run).distinct_leaks(),
            0u);
  EXPECT_EQ(run_dynamic_analysis(taintart_config(), emu.apk, run).distinct_leaks(),
            1u);
}

TEST(Dynamic, FrameworkMarshallingLosesTaint) {
  const Sample& s = sample("Button1");
  DynamicRunOptions run;
  run.configure_runtime = s.configure_runtime;
  EXPECT_EQ(run_dynamic_analysis(taintdroid_config(), s.apk, run).distinct_leaks(),
            0u);
  EXPECT_EQ(run_dynamic_analysis(taintart_config(), s.apk, run).distinct_leaks(),
            0u);
}

TEST(Dynamic, DirectFlowDetected) {
  const Sample& s = sample("PrivateDataLeak3");
  DynamicRunOptions run;
  run.configure_runtime = s.configure_runtime;
  // One of the two flows (the direct one); the file flow is lost by design.
  EXPECT_EQ(run_dynamic_analysis(taintart_config(), s.apk, run).distinct_leaks(),
            1u);
}

TEST(Suite, CompositionMatchesPaper) {
  EXPECT_EQ(db().samples.size(), 134u);
  EXPECT_EQ(db().leaky_count(), 111u);
  EXPECT_EQ(db().benign_count(), 23u);
  // The 15 contributed samples exist.
  for (const char* name : {"AdvReflect1", "AdvReflect5", "DynLoad1", "DynLoad3",
                           "SelfMod1", "SelfMod4", "Unreachable1", "Unreachable3"}) {
    EXPECT_NE(db().find(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace dexlego::analysis

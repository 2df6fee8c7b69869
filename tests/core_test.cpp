#include <gtest/gtest.h>

#include <algorithm>

#include "src/bytecode/assembler.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/verify_code.h"
#include "src/core/collector.h"
#include "src/core/dexlego.h"
#include "src/core/files.h"
#include "src/core/reassembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/runtime/runtime.h"
#include "src/support/bytes.h"

namespace dexlego::core {
namespace {

using bc::MethodAssembler;
using bc::Op;

dex::Apk make_apk(dex::DexFile file, const std::string& entry) {
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "test";
  manifest.entry_class = entry;
  manifest.version = "1.0";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(file));
  return apk;
}

// Runs the revealed APK in a fresh (uninstrumented) runtime and returns it
// for behavioural comparison with the original.
std::unique_ptr<rt::Runtime> run_revealed(const dex::Apk& apk) {
  auto runtime = std::make_unique<rt::Runtime>();
  runtime->install(apk);
  rt::ExecOutcome out = runtime->launch();
  EXPECT_TRUE(out.completed) << out.abort_reason << " " << out.exception_type;
  for (int id : runtime->ui_clickable_ids()) runtime->fire_click(id);
  return runtime;
}

// --- Algorithm 1 unit tests on the collector ---

TEST(Collector, SingleExecutionSingleTree) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 0);
  auto skip = as.make_label();
  as.const16(0, 1);
  as.if_testz(Op::kIfNez, 0, skip);
  as.const16(0, 99);  // dead: v0 is always nonzero
  as.bind(skip);
  as.return_value(0);
  b.add_direct_method("f", "I", {}, as.finish());

  Collector collector;
  rt::Runtime runtime;
  runtime.add_hooks(&collector);
  runtime.linker().register_dex(std::move(b).build(), "t");
  {
    rt::RtClass* cls = runtime.linker().resolve("Lt/A;");
    runtime.interp().invoke(*cls->find_declared("f"), {});
  }
  CollectionOutput out = collector.take_output();

  const MethodRecord* rec = out.find_method({"Lt/A;", "f", "()I"});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->trees.size(), 1u);
  const TreeNode& root = *rec->trees[0];
  EXPECT_TRUE(root.children.empty());
  // const16, if-nez, return — the dead const16(99) was never executed.
  EXPECT_EQ(root.il.size(), 3u);
  EXPECT_EQ(out.divergences_detected, 0u);
}

TEST(Collector, LoopRecordsInstructionsOnce) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(3, 0);
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);
  as.const16(1, 100);
  as.bind(loop);
  as.if_test(Op::kIfGe, 0, 1, done);
  as.add_lit8(0, 0, 1);
  as.goto_(loop);
  as.bind(done);
  as.return_value(0);
  b.add_direct_method("f", "I", {}, as.finish());

  Collector collector;
  rt::Runtime runtime;
  runtime.add_hooks(&collector);
  runtime.linker().register_dex(std::move(b).build(), "t");
  rt::RtClass* cls = runtime.linker().resolve("Lt/A;");
  runtime.interp().invoke(*cls->find_declared("f"), {});
  CollectionOutput out = collector.take_output();

  const MethodRecord* rec = out.find_method({"Lt/A;", "f", "()I"});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->trees.size(), 1u);
  // 100 iterations but the tree holds each instruction once: const16 x2,
  // if-ge, add-lit8, goto, return = 6 entries (the paper's code-scale fix).
  EXPECT_EQ(rec->trees[0]->il.size(), 6u);
  EXPECT_GT(out.total_instructions_observed, 300u);
}

TEST(Collector, TwoPathsGiveTwoUniqueTrees) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 1);
  auto other = as.make_label();
  as.if_testz(Op::kIfNez, 1, other);
  as.const16(0, 10);
  as.return_value(0);
  as.bind(other);
  as.const16(0, 20);
  as.return_value(0);
  b.add_direct_method("f", "I", {"I"}, as.finish());

  Collector collector;
  rt::Runtime runtime;
  runtime.add_hooks(&collector);
  runtime.linker().register_dex(std::move(b).build(), "t");
  rt::RtMethod* f = runtime.linker().resolve("Lt/A;")->find_declared("f");
  runtime.interp().invoke(*f, {rt::Value::Int(0)});
  runtime.interp().invoke(*f, {rt::Value::Int(1)});
  runtime.interp().invoke(*f, {rt::Value::Int(0)});  // duplicate of run 1
  CollectionOutput out = collector.take_output();

  const MethodRecord* rec = out.find_method({"Lt/A;", "f", "(I)I"});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->trees.size(), 2u);  // unique trees only
  EXPECT_EQ(rec->executions, 3u);
}

// --- merge_collection: the fold a force job runs once per plan unit ---

// Lt/A;->f(I)I: zero returns early, a positive argument runs both
// const/16s, a negative one takes the if-ltz: three distinct trees.
dex::DexFile f_file() {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 1);
  auto zero = as.make_label();
  auto negative = as.make_label();
  as.if_testz(Op::kIfEqz, 1, zero);
  as.const16(0, 1);
  as.if_testz(Op::kIfLtz, 1, negative);
  as.const16(0, 2);
  as.bind(negative);
  as.return_value(0);
  as.bind(zero);
  as.const16(0, 0);
  as.return_value(0);
  b.add_direct_method("f", "I", {"I"}, as.finish());
  return std::move(b).build();
}

// One Collector output of f invoked once per argument, each on the same
// runtime.
CollectionOutput collect_f(std::initializer_list<int> args) {
  Collector collector;
  rt::Runtime runtime;
  runtime.add_hooks(&collector);
  runtime.linker().register_dex(f_file(), "t");
  rt::RtMethod* f = runtime.linker().resolve("Lt/A;")->find_declared("f");
  for (int x : args) runtime.interp().invoke(*f, {rt::Value::Int(x)});
  return collector.take_output();
}

const MethodKey kF{"Lt/A;", "f", "(I)I"};

std::vector<uint64_t> tree_fingerprints(const CollectionOutput& out) {
  std::vector<uint64_t> fps;
  for (const auto& tree : out.find_method(kF)->trees) {
    fps.push_back(tree->fingerprint());
  }
  return fps;
}

CollectedField static_int(const std::string& name, int64_t value) {
  CollectedField f;
  f.name = name;
  f.type_descriptor = "I";
  f.access_flags = dex::kAccStatic;
  f.static_value.kind = CollectedValue::Kind::kInt;
  f.static_value.i = value;
  return f;
}

SymRef target(const std::string& name) {
  return SymRef{bc::RefKind::kMethod, {"Lt/T;", name, "V", "#static"}};
}

TEST(MergeCollection, FoldsInOrderUnderTheVariantCap) {
  CollectionOutput first = collect_f({0});       // trees: zero
  CollectionOutput second = collect_f({1, -1});  // trees: positive, negative
  CollectionOutput third = collect_f({-1, 0});   // trees: negative, zero
  std::vector<uint64_t> zero = tree_fingerprints(first);
  std::vector<uint64_t> pos_neg = tree_fingerprints(second);
  std::vector<uint64_t> neg_zero = tree_fingerprints(third);
  ASSERT_EQ(zero.size(), 1u);
  ASSERT_EQ(pos_neg.size(), 2u);
  ASSERT_EQ(neg_zero, (std::vector<uint64_t>{pos_neg[1], zero[0]}));
  ASSERT_NE(zero[0], pos_neg[0]);
  ASSERT_NE(zero[0], pos_neg[1]);
  ASSERT_NE(pos_neg[0], pos_neg[1]);

  // Classes: Lt/A; arrives in every output, with a different static value
  // each time; Lt/B; first arrives in the second.
  ASSERT_EQ(first.classes.size(), 1u);
  first.classes[0].static_fields.push_back(static_int("S", 1));
  second.classes[0].static_fields.push_back(static_int("S", 2));
  third.classes[0].static_fields.push_back(static_int("S", 3));
  CollectedClass other;
  other.descriptor = "Lt/B;";
  other.super_descriptor = "Ljava/lang/Object;";
  second.classes.push_back(other);

  // Reflection: two outputs resolve the call site at pc 4 differently; the
  // site counters say 1 + 2 but only two distinct sites exist.
  first.methods.at(kF).reflection_targets[4] = target("one");
  first.reflection_sites = 1;
  second.methods.at(kF).reflection_targets[4] = target("two");
  second.methods.at(kF).reflection_targets[6] = target("three");
  second.reflection_sites = 2;

  uint64_t observed = first.total_instructions_observed +
                      second.total_instructions_observed +
                      third.total_instructions_observed;

  CollectionOutput merged;
  merge_collection(merged, std::move(first), 2);
  merge_collection(merged, std::move(second), 2);
  merge_collection(merged, std::move(third), 2);

  ASSERT_EQ(merged.classes.size(), 2u);
  EXPECT_EQ(merged.classes[0].descriptor, "Lt/A;");
  ASSERT_EQ(merged.classes[0].static_fields.size(), 1u);
  EXPECT_EQ(merged.classes[0].static_fields[0].static_value.i, 1);
  EXPECT_EQ(merged.classes[1].descriptor, "Lt/B;");

  const MethodRecord* rec = merged.find_method(kF);
  ASSERT_NE(rec, nullptr);
  // Fold order, one tree per fingerprint, at most two: zero, then positive.
  EXPECT_EQ(tree_fingerprints(merged),
            (std::vector<uint64_t>{zero[0], pos_neg[0]}));
  // The negative tree hit the cap in the second fold and, never kept, is
  // counted again when the third fold brings it back.
  EXPECT_EQ(rec->dropped_trees, 2u);
  EXPECT_EQ(rec->executions, 5u);
  EXPECT_EQ(merged.total_instructions_observed, observed);

  ASSERT_EQ(rec->reflection_targets.size(), 2u);
  EXPECT_EQ(rec->reflection_targets.at(4), target("one"));
  EXPECT_EQ(rec->reflection_targets.at(6), target("three"));
  EXPECT_EQ(merged.reflection_sites, 2u);
}

TEST(MergeCollection, DecodedOutputFoldsLikeCollected) {
  // decode_collection output carries no tree hashes; folding it must keep
  // and drop exactly the trees the collected original would.
  auto fold = [](bool decoded) {
    CollectionOutput merged = collect_f({0, 1});
    CollectionOutput more = collect_f({-1, 1});
    if (decoded) more = decode_collection(encode_collection(more));
    merge_collection(merged, std::move(more), 2);
    return merged;
  };
  CollectionOutput collected = fold(false);
  CollectionOutput decoded = fold(true);
  EXPECT_EQ(tree_fingerprints(decoded), tree_fingerprints(collected));
  EXPECT_EQ(decoded.find_method(kF)->dropped_trees, 1u);
  EXPECT_EQ(collected.find_method(kF)->dropped_trees, 1u);
  CollectionFiles a = encode_collection(decoded);
  CollectionFiles b = encode_collection(collected);
  EXPECT_EQ(a.method_data, b.method_data);
  EXPECT_EQ(a.bytecode, b.bytecode);
}

// The paper's Code 1/Listing 1/Code 4 app: advancedLeak loops twice over
// normal(a); bytecodeTamper(i), and the tampering native patches the invoke
// at `call_pc` to sink(a) on iteration 0 and back to normal(a) on 1.
struct SelfModifyingApp {
  dex::Apk apk;
  size_t call_pc = 0;
  uint32_t normal_m = 0;
  uint32_t sink_m = 0;

  // Registers bytecodeTamper; with `tamper` false it leaves the code alone.
  std::function<void(rt::Runtime&)> configure(bool tamper) const {
    return [tamper, call_pc = call_pc, normal_m = normal_m,
            sink_m = sink_m](rt::Runtime& runtime) {
      runtime.register_native(
          "Lapp/Main;->bytecodeTamper",
          [tamper, call_pc, normal_m, sink_m](rt::NativeContext& ctx,
                                              std::span<rt::Value> args) {
            if (!tamper) return rt::Value::Null();
            rt::RtMethod* leak =
                ctx.runtime.linker().resolve("Lapp/Main;")->find_declared(
                    "advancedLeak");
            leak->code->insns[call_pc + 1] = static_cast<uint16_t>(
                args[1].test_value() == 0 ? sink_m : normal_m);
            return rt::Value::Null();
          });
    };
  }
};

SelfModifyingApp self_modifying_app() {
  SelfModifyingApp app;
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  app.normal_m = b.intern_method("Lapp/Main;", "normal", "V",
                                 {"Ljava/lang/String;"});
  app.sink_m = b.intern_method("Lapp/Main;", "sink", "V",
                               {"Ljava/lang/String;"});
  uint32_t tamper_m = b.intern_method("Lapp/Main;", "bytecodeTamper", "V", {"I"});
  uint32_t sms = b.intern_method("Landroid/telephony/SmsManager;",
                                 "sendTextMessage", "V", {"Ljava/lang/String;"});

  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);  // this in v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    app.call_pc = as.current_pc();
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(app.normal_m), {3, 0});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper_m), {3, 1});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("advancedLeak", "V", {}, as.finish());
  }
  {
    MethodAssembler as(2, 2);
    as.return_void();
    b.add_virtual_method("normal", "V", {"Ljava/lang/String;"}, as.finish());
  }
  {
    MethodAssembler as(2, 2);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(sms), {1});
    as.return_void();
    b.add_virtual_method("sink", "V", {"Ljava/lang/String;"}, as.finish());
  }
  b.add_native_method("bytecodeTamper", "V", {"I"});
  uint32_t leak_m = b.intern_method("Lapp/Main;", "advancedLeak", "V", {});
  {
    MethodAssembler as(2, 1);  // this in v1 (onCreate receiver)
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(leak_m), {1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  app.apk = make_apk(std::move(b).build(), "Lapp/Main;");
  return app;
}

// --- collecting against the fold: a Collector walking known trees ---

// Options whose driver invokes f once per argument on the run's runtime.
DexLegoOptions calls_f(std::vector<int> args, size_t max_variants = 8) {
  DexLegoOptions options;
  options.collector.max_variants = max_variants;
  options.driver = [args](rt::Runtime& runtime, int) {
    rt::RtMethod* f = runtime.linker().resolve("Lt/A;")->find_declared("f");
    for (int x : args) runtime.interp().invoke(*f, {rt::Value::Int(x)});
  };
  return options;
}

size_t tree_count(const CollectionOutput& out) {
  size_t n = 0;
  for (const auto& [key, rec] : out.methods) n += rec.trees.size();
  return n;
}

void expect_same_tree(const TreeNode& a, const TreeNode& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_EQ(a.il.size(), b.il.size());
  for (size_t i = 0; i < a.il.size(); ++i) {
    EXPECT_TRUE(a.il[i].same_instruction(b.il[i])) << "entry " << i;
    EXPECT_EQ(a.il[i].switch_payload, b.il[i].switch_payload) << "entry " << i;
  }
  EXPECT_EQ(a.iim, b.iim);
  EXPECT_EQ(a.sm_start, b.sm_start);
  EXPECT_EQ(a.sm_end, b.sm_end);
  ASSERT_EQ(a.children.size(), b.children.size());
  for (size_t c = 0; c < a.children.size(); ++c) {
    expect_same_tree(*a.children[c], *b.children[c]);
  }
}

// Folds `plain` (a plain collection of the unit) and `walked` (the same
// unit collected against the fold) into two fresh copies of the fold `fold`
// makes, and expects the same result, byte for byte.
void expect_same_fold(const std::function<CollectionOutput()>& fold,
                      CollectionOutput plain, CollectionOutput walked,
                      size_t max_variants) {
  CollectionOutput plain_fold = fold();
  CollectionOutput walked_fold = fold();
  merge_collection(plain_fold, std::move(plain), max_variants);
  merge_collection(walked_fold, std::move(walked), max_variants);
  CollectionFiles a = encode_collection(plain_fold);
  CollectionFiles b = encode_collection(walked_fold);
  EXPECT_EQ(a.class_data, b.class_data);
  EXPECT_EQ(a.field_data, b.field_data);
  EXPECT_EQ(a.static_values, b.static_values);
  EXPECT_EQ(a.method_data, b.method_data);
  EXPECT_EQ(a.bytecode, b.bytecode);
  EXPECT_EQ(plain_fold.total_instructions_observed,
            walked_fold.total_instructions_observed);
  EXPECT_EQ(plain_fold.divergences_detected, walked_fold.divergences_detected);
  EXPECT_EQ(plain_fold.reflection_sites, walked_fold.reflection_sites);
  for (const auto& [key, rec] : plain_fold.methods) {
    const MethodRecord* other = walked_fold.find_method(key);
    ASSERT_NE(other, nullptr) << key.pretty();
    EXPECT_EQ(rec.executions, other->executions) << key.pretty();
    EXPECT_EQ(rec.dropped_trees, other->dropped_trees) << key.pretty();
    EXPECT_EQ(rec.tree_fingerprints, other->tree_fingerprints) << key.pretty();
  }
}

// The same, for the fold the `base` options collect from `apk`.
void expect_same_fold(const dex::Apk& apk, const DexLegoOptions& base,
                      CollectionOutput plain, CollectionOutput walked,
                      size_t max_variants) {
  expect_same_fold([&] { return DexLego::collect(apk, base); },
                   std::move(plain), std::move(walked), max_variants);
}

TEST(WalkingCollector, FullRetraceIsLeftOutOfTheUnit) {
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  DexLegoOptions base = calls_f({1});
  DexLegoOptions unit = calls_f({1, 1});
  CollectionOutput fold = DexLego::collect(apk, base);
  CollectionOutput plain = DexLego::collect(apk, unit);
  CollectionOutput walked = DexLego::collect(apk, unit, &fold);

  ASSERT_EQ(plain.find_method(kF)->trees.size(), 1u);
  const MethodRecord* rec = walked.find_method(kF);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->trees.empty());
  EXPECT_TRUE(rec->tree_fingerprints.empty());
  EXPECT_EQ(rec->executions, 2u);
  EXPECT_EQ(rec->dropped_trees, 0u);
  EXPECT_EQ(walked.total_instructions_observed,
            plain.total_instructions_observed);
  expect_same_fold(apk, base, std::move(plain), std::move(walked), 8);
}

TEST(WalkingCollector, StepLimitMidRetraceKeepsThePrefix) {
  // The positive path is five instructions; the unit's runtime aborts after
  // three, so its activation exits having matched a strict prefix.
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  DexLegoOptions base = calls_f({1});
  DexLegoOptions unit = calls_f({1});
  unit.runtime.step_limit = 3;
  CollectionOutput fold = DexLego::collect(apk, base);
  CollectionOutput plain = DexLego::collect(apk, unit);
  CollectionOutput walked = DexLego::collect(apk, unit, &fold);

  const MethodRecord* plain_rec = plain.find_method(kF);
  const MethodRecord* walked_rec = walked.find_method(kF);
  ASSERT_EQ(plain_rec->trees.size(), 1u);
  ASSERT_EQ(plain_rec->trees[0]->il.size(), 3u);
  ASSERT_EQ(walked_rec->trees.size(), 1u);
  expect_same_tree(*walked_rec->trees[0], *plain_rec->trees[0]);
  EXPECT_EQ(walked_rec->tree_fingerprints, plain_rec->tree_fingerprints);
  expect_same_fold(apk, base, std::move(plain), std::move(walked), 8);
}

TEST(WalkingCollector, DanglingActivationResolvesAtTakeOutput) {
  // An activation still open when take_output runs (its run died without
  // unwinding) finishes like one that exited: a strict prefix of a known
  // tree is copied, a full retrace is counted but left out.
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  CollectionOutput fold = DexLego::collect(apk, calls_f({1}));
  auto run = [&](const CollectionOutput* known, size_t steps) {
    Collector collector(Collector::Options{}, known);
    rt::Runtime runtime;
    runtime.install(apk);
    rt::RtMethod* f = runtime.linker().resolve("Lt/A;")->find_declared("f");
    std::span<const uint16_t> code(f->code->insns);
    collector.on_method_entry(*f);
    // The positive path's pcs: if-eqz, const/16, if-ltz, const/16, return.
    size_t pc = 0;
    for (size_t step = 0; step < steps; ++step) {
      collector.on_instruction(*f, static_cast<uint32_t>(pc), code);
      pc += bc::decode_at(code, pc).width;
    }
    return collector.take_output();
  };
  for (size_t steps : {2u, 5u}) {
    SCOPED_TRACE("steps=" + std::to_string(steps));
    CollectionOutput plain = run(nullptr, steps);
    CollectionOutput walked = run(&fold, steps);
    ASSERT_EQ(plain.find_method(kF)->trees.size(), 1u);
    ASSERT_EQ(plain.find_method(kF)->trees[0]->il.size(), steps);
    if (steps == 5) {
      EXPECT_TRUE(walked.find_method(kF)->trees.empty());
    } else {
      ASSERT_EQ(walked.find_method(kF)->trees.size(), 1u);
      expect_same_tree(*walked.find_method(kF)->trees[0],
                       *plain.find_method(kF)->trees[0]);
    }
    expect_same_fold(apk, calls_f({1}), std::move(plain), std::move(walked), 8);
  }
}

TEST(WalkingCollector, SelfModificationDivergesMidRetrace) {
  // The fold holds advancedLeak's tree from a run whose native left the
  // code alone. In the unit the native patches the loop's invoke, so the
  // second iteration departs from the known tree there and forks a child.
  SelfModifyingApp app = self_modifying_app();
  DexLegoOptions base;
  base.configure_runtime = app.configure(false);
  DexLegoOptions unit;
  unit.configure_runtime = app.configure(true);
  const MethodKey leak{"Lapp/Main;", "advancedLeak", "()V"};
  CollectionOutput fold = DexLego::collect(app.apk, base);
  ASSERT_EQ(fold.find_method(leak)->trees.size(), 1u);
  ASSERT_TRUE(fold.find_method(leak)->trees[0]->children.empty());
  CollectionOutput plain = DexLego::collect(app.apk, unit);
  CollectionOutput walked = DexLego::collect(app.apk, unit, &fold);

  const MethodRecord* plain_rec = plain.find_method(leak);
  const MethodRecord* walked_rec = walked.find_method(leak);
  ASSERT_EQ(plain_rec->trees.size(), 1u);
  ASSERT_EQ(plain_rec->trees[0]->children.size(), 1u);
  EXPECT_EQ(plain_rec->trees[0]->children[0]->sm_start, app.call_pc);
  ASSERT_EQ(walked_rec->trees.size(), 1u);
  expect_same_tree(*walked_rec->trees[0], *plain_rec->trees[0]);
  EXPECT_EQ(walked.divergences_detected, plain.divergences_detected);
  // sink ran only in the unit; every other method retraced its known tree.
  for (const auto& [key, rec] : walked.methods) {
    bool fresh = key == leak || key.name == "sink";
    EXPECT_EQ(rec.trees.size(), fresh ? 1u : 0u) << key.pretty();
  }
  EXPECT_GT(tree_count(plain), 2u);
  expect_same_fold(app.apk, base, std::move(plain), std::move(walked), 8);
}

// Lt/S;->g(I)V calls the native Lt/S;->patch(), then switches on its
// argument over {c0, c1}; any other key falls through to the return.
// Before each call of g the native rewrites the payload's targets as that
// call asks, without touching the switch instruction's units.
enum class PayloadPatch { kNone, kSwap, kAliasFirst };

struct SwitchApp {
  dex::Apk apk;
  size_t switch_pc = 0;

  // Options whose driver calls g(arg) for each (arg, patch) in order.
  DexLegoOptions calls(std::vector<std::pair<int, PayloadPatch>> calls,
                       size_t max_variants = 8) const {
    auto next = std::make_shared<PayloadPatch>(PayloadPatch::kNone);
    DexLegoOptions options;
    options.collector.max_variants = max_variants;
    options.configure_runtime = [next, switch_pc = switch_pc](
                                    rt::Runtime& runtime) {
      runtime.register_native(
          "Lt/S;->patch",
          [next, switch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
            std::vector<uint16_t>& code = ctx.runtime.linker()
                                              .resolve("Lt/S;")
                                              ->find_declared("g")
                                              ->code->insns;
            size_t targets = switch_pc + 4 +
                             static_cast<size_t>(
                                 bc::decode_at(code, switch_pc).off);
            if (*next == PayloadPatch::kSwap) {
              std::swap(code[targets], code[targets + 1]);
            } else if (*next == PayloadPatch::kAliasFirst) {
              code[targets] = code[targets + 1];
            }
            return rt::Value::Null();
          });
    };
    options.driver = [next, calls](rt::Runtime& runtime, int) {
      rt::RtMethod* g = runtime.linker().resolve("Lt/S;")->find_declared("g");
      for (const auto& [arg, patch] : calls) {
        *next = patch;
        runtime.interp().invoke(*g, {rt::Value::Int(arg)});
      }
    };
    return options;
  }
};

SwitchApp switch_app() {
  SwitchApp app;
  dex::DexBuilder b;
  b.start_class("Lt/S;");
  b.add_native_method("patch", "V", {},
                      dex::kAccPublic | dex::kAccNative | dex::kAccStatic);
  uint32_t patch_m = b.intern_method("Lt/S;", "patch", "V", {});
  MethodAssembler as(2, 1);
  auto c0 = as.make_label();
  auto c1 = as.make_label();
  auto end = as.make_label();
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(patch_m), {});
  app.switch_pc = as.current_pc();
  as.packed_switch(1, 0, {c0, c1});
  as.goto_(end);
  as.bind(c0);
  as.const16(0, 10);
  as.goto_(end);
  as.bind(c1);
  as.const16(0, 20);
  as.bind(end);
  as.return_void();
  b.add_direct_method("g", "V", {"I"}, as.finish());
  app.apk = make_apk(std::move(b).build(), "Lt/S;");
  return app;
}

const MethodKey kG{"Lt/S;", "g", "(I)V"};

TEST(WalkingCollector, PatchedSwitchPayloadEndsTheWalk) {
  // The unit's switch has the folded entry's units but not its snapshot,
  // so the walk must end there and snapshot the payload afresh.
  SwitchApp app = switch_app();
  DexLegoOptions base = app.calls({{1, PayloadPatch::kNone}});
  DexLegoOptions unit = app.calls({{1, PayloadPatch::kSwap}});
  CollectionOutput fold = DexLego::collect(app.apk, base);
  CollectionOutput plain = DexLego::collect(app.apk, unit);
  CollectionOutput walked = DexLego::collect(app.apk, unit, &fold);
  ASSERT_EQ(plain.find_method(kG)->trees.size(), 1u);
  ASSERT_EQ(walked.find_method(kG)->trees.size(), 1u);
  const TreeNode& tree = *walked.find_method(kG)->trees[0];
  expect_same_tree(tree, *plain.find_method(kG)->trees[0]);
  ASSERT_GE(tree.il.size(), 2u);
  EXPECT_NE(tree.il[1].switch_payload,
            fold.find_method(kG)->trees[0]->il[1].switch_payload);
  expect_same_fold(app.apk, base, std::move(plain), std::move(walked), 8);
}

TEST(WalkingCollector, RetraceDedupsABuiltTreeOfTheSameFingerprint) {
  // A fingerprint leaves switch snapshots out. The unit first retraces the
  // folded tree, then builds one differing only in the unused target, then
  // a new one. The second must dedup against the retrace, so the new tree
  // still fits under a cap of two, as in the plain unit.
  SwitchApp app = switch_app();
  DexLegoOptions base = app.calls({{1, PayloadPatch::kNone}}, 2);
  DexLegoOptions unit = app.calls({{1, PayloadPatch::kNone},
                                   {1, PayloadPatch::kAliasFirst},
                                   {2, PayloadPatch::kNone}},
                                  2);
  CollectionOutput fold = DexLego::collect(app.apk, base);
  CollectionOutput plain = DexLego::collect(app.apk, unit);
  CollectionOutput walked = DexLego::collect(app.apk, unit, &fold);
  EXPECT_EQ(plain.find_method(kG)->trees.size(), 2u);
  EXPECT_EQ(plain.find_method(kG)->dropped_trees, 0u);
  ASSERT_EQ(walked.find_method(kG)->trees.size(), 1u);
  EXPECT_EQ(walked.find_method(kG)->dropped_trees, 0u);
  expect_same_tree(*walked.find_method(kG)->trees[0],
                   *plain.find_method(kG)->trees[1]);
  expect_same_fold(app.apk, base, std::move(plain), std::move(walked), 2);
}

TEST(WalkingCollector, SameUnitsFromAnotherImageEndTheWalk) {
  // Lt/A;->f and Lt/B;->f have the same units, but their const-string
  // resolves to "a" in one image and "b" in the other. Instructions of
  // Lt/B;->f reaching Lt/A;->f's activation (a mismatched frame) are
  // compared as Algorithm 1 compares them: a repeated pc is skipped only
  // for the method entered, and a next entry matches only with its SymRef.
  auto image = [](const std::string& cls, const std::string& literal) {
    dex::DexBuilder b;
    uint16_t idx = static_cast<uint16_t>(b.intern_string(literal));
    b.start_class(cls);
    MethodAssembler as(1, 0);
    as.const_string(0, idx);
    as.return_void();
    b.add_direct_method("f", "V", {}, as.finish());
    return std::move(b).build();
  };
  rt::Runtime runtime;
  runtime.linker().register_dex(image("Lt/A;", "a"), "a");
  runtime.linker().register_dex(image("Lt/B;", "b"), "b");
  rt::RtMethod* a = runtime.linker().resolve("Lt/A;")->find_declared("f");
  rt::RtMethod* b = runtime.linker().resolve("Lt/B;")->find_declared("f");
  ASSERT_EQ(a->code->insns, b->code->insns);
  std::span<const uint16_t> code(a->code->insns);
  const uint32_t ret = bc::decode_at(code, 0).width;
  auto run = [&](const CollectionOutput* known,
                 std::vector<rt::RtMethod*> at_zero) {
    Collector collector(Collector::Options{}, known);
    collector.on_method_entry(*a);
    for (rt::RtMethod* m : at_zero) collector.on_instruction(*m, 0, code);
    collector.on_instruction(*a, ret, code);
    collector.on_method_exit(*a);
    return collector.take_output();
  };
  const CollectionOutput fold = run(nullptr, {a});
  const MethodKey key{"Lt/A;", "f", "()V"};
  for (const auto& at_zero : {std::vector<rt::RtMethod*>{a, b},
                              std::vector<rt::RtMethod*>{b}}) {
    SCOPED_TRACE(at_zero.size() == 2 ? "repeat" : "next entry");
    CollectionOutput plain = run(nullptr, at_zero);
    CollectionOutput walked = run(&fold, at_zero);
    ASSERT_EQ(plain.find_method(key)->trees.size(), 1u);
    ASSERT_EQ(walked.find_method(key)->trees.size(), 1u);
    expect_same_tree(*walked.find_method(key)->trees[0],
                     *plain.find_method(key)->trees[0]);
    EXPECT_EQ(walked.divergences_detected, plain.divergences_detected);
  }
}

TEST(WalkingCollector, VariantCapCountsTheRetrace) {
  // With one variant allowed, the retraced known tree takes the slot, so
  // the new tree after it is dropped, as the plain unit drops it; and a new
  // tree first keeps the slot and the retrace after it is dropped.
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  DexLegoOptions base = calls_f({1}, 1);
  for (std::vector<int> args : {std::vector<int>{1, -1}, std::vector<int>{-1, 1}}) {
    SCOPED_TRACE("first arg " + std::to_string(args[0]));
    DexLegoOptions unit = calls_f(args, 1);
    CollectionOutput fold = DexLego::collect(apk, base);
    CollectionOutput plain = DexLego::collect(apk, unit);
    CollectionOutput walked = DexLego::collect(apk, unit, &fold);
    EXPECT_EQ(plain.find_method(kF)->dropped_trees, 1u);
    EXPECT_EQ(walked.find_method(kF)->dropped_trees, 1u);
    EXPECT_EQ(walked.find_method(kF)->trees.size(), args[0] == 1 ? 0u : 1u);

    CollectionOutput plain_fold = DexLego::collect(apk, base);
    CollectionOutput walked_fold = DexLego::collect(apk, base);
    merge_collection(plain_fold, std::move(plain), 1);
    merge_collection(walked_fold, std::move(walked), 1);
    EXPECT_EQ(walked_fold.find_method(kF)->dropped_trees,
              plain_fold.find_method(kF)->dropped_trees);
    EXPECT_EQ(plain_fold.find_method(kF)->dropped_trees,
              args[0] == 1 ? 1u : 2u);
    EXPECT_EQ(encode_collection(walked_fold).method_data,
              encode_collection(plain_fold).method_data);
  }
}

// Options whose driver invokes the static `cls`->`name`()V once per run.
DexLegoOptions calls_static(const std::string& cls, const std::string& name) {
  DexLegoOptions options;
  options.driver = [cls, name](rt::Runtime& runtime, int) {
    rt::RtMethod* m = runtime.linker().resolve(cls)->find_declared(name);
    runtime.interp().invoke(*m, {});
  };
  return options;
}

TEST(WalkingCollector, SameUnitsWithAnotherPoolStringEndTheWalk) {
  // Apps A and B each hold Lt/P;->f()V, a const-string at pc 0 with the
  // same units, but the string is "a" in A and "b" in B. A unit of B
  // walking a fold of A has equal units at pc 0 and must still depart
  // there: its tree holds B's string.
  auto app = [](const std::string& literal) {
    dex::DexBuilder b;
    uint16_t idx = static_cast<uint16_t>(b.intern_string(literal));
    b.start_class("Lt/P;");
    MethodAssembler as(1, 0);
    as.const_string(0, idx);
    as.return_void();
    b.add_direct_method("f", "V", {}, as.finish());
    return make_apk(std::move(b).build(), "Lt/P;");
  };
  dex::Apk a = app("a");
  dex::Apk b = app("b");
  ASSERT_EQ(dex::load_classes(a).classes[0].direct_methods[0].code->insns,
            dex::load_classes(b).classes[0].direct_methods[0].code->insns);
  const MethodKey key{"Lt/P;", "f", "()V"};
  DexLegoOptions options = calls_static("Lt/P;", "f");
  CollectionOutput fold = DexLego::collect(a, options);
  CollectionOutput plain = DexLego::collect(b, options);
  CollectionOutput walked = DexLego::collect(b, options, &fold);

  ASSERT_EQ(walked.find_method(key)->trees.size(), 1u);
  const TreeNode& tree = *walked.find_method(key)->trees[0];
  expect_same_tree(tree, *plain.find_method(key)->trees[0]);
  ASSERT_FALSE(tree.il.empty());
  ASSERT_TRUE(tree.il[0].ref.has_value());
  EXPECT_EQ(tree.il[0].ref->parts, std::vector<std::string>{"b"});
  expect_same_fold(a, options, std::move(plain), std::move(walked), 8);
}

TEST(WalkingCollector, SameSwitchUnitsWithAnotherPayloadEndTheWalk) {
  // Lt/W;->g(I)V switches on its argument. Every variant has the same
  // switch units, but the payload at the end of the code differs from the
  // fold's in its first key or its target count, so a unit of the variant
  // departs at the switch.
  auto app = [](int32_t first_key, bool third_target) {
    dex::DexBuilder b;
    b.start_class("Lt/W;");
    MethodAssembler as(2, 1);
    auto c0 = as.make_label();
    auto c1 = as.make_label();
    auto end = as.make_label();
    std::vector<MethodAssembler::Label> targets{c0, c1};
    if (third_target) targets.push_back(c1);
    as.packed_switch(1, first_key, targets);
    as.goto_(end);
    as.bind(c0);
    as.const16(0, 10);
    as.goto_(end);
    as.bind(c1);
    as.const16(0, 20);
    as.bind(end);
    as.return_void();
    b.add_direct_method("g", "V", {"I"}, as.finish());
    return make_apk(std::move(b).build(), "Lt/W;");
  };
  const MethodKey key{"Lt/W;", "g", "(I)V"};
  DexLegoOptions options;
  options.driver = [](rt::Runtime& runtime, int) {
    rt::RtMethod* g = runtime.linker().resolve("Lt/W;")->find_declared("g");
    runtime.interp().invoke(*g, {rt::Value::Int(1)});
  };
  dex::Apk base = app(0, false);
  for (const auto& [first_key, third_target] :
       {std::pair{1, false}, std::pair{0, true}}) {
    SCOPED_TRACE("first_key=" + std::to_string(first_key) +
                 " third_target=" + std::to_string(third_target));
    dex::Apk variant = app(first_key, third_target);
    ASSERT_EQ(
        dex::load_classes(base).classes[0].direct_methods[0].code->insns[1],
        dex::load_classes(variant).classes[0].direct_methods[0].code->insns[1]);
    CollectionOutput fold = DexLego::collect(base, options);
    CollectionOutput plain = DexLego::collect(variant, options);
    CollectionOutput walked = DexLego::collect(variant, options, &fold);

    ASSERT_EQ(walked.find_method(key)->trees.size(), 1u);
    const TreeNode& tree = *walked.find_method(key)->trees[0];
    expect_same_tree(tree, *plain.find_method(key)->trees[0]);
    ASSERT_FALSE(tree.il.empty());
    EXPECT_EQ(tree.il[0].units, fold.find_method(key)->trees[0]->il[0].units);
    EXPECT_NE(tree.il[0].switch_payload,
              fold.find_method(key)->trees[0]->il[0].switch_payload);
    expect_same_fold(base, options, std::move(plain), std::move(walked), 8);
  }
}

// Lt/L;->f()V loops three times over a call to the native Lt/L;->patch(I)V
// and a const/16 at `body_pc`. With `rewrite`, the native rewrites that
// const/16's literal on the pass it names (0-based), so from that pass on
// body_pc holds new units at a pc the activation has already matched.
struct LoopApp {
  dex::Apk apk;
  size_t body_pc = 0;

  DexLegoOptions calls(std::optional<int> rewrite) const {
    DexLegoOptions options = calls_static("Lt/L;", "f");
    options.configure_runtime = [rewrite, body_pc = body_pc](
                                    rt::Runtime& runtime) {
      runtime.register_native(
          "Lt/L;->patch", [rewrite, body_pc](rt::NativeContext& ctx,
                                             std::span<rt::Value> args) {
            if (rewrite && args[0].test_value() == *rewrite) {
              ctx.runtime.linker()
                  .resolve("Lt/L;")
                  ->find_declared("f")
                  ->code->insns[body_pc + 1] = 8;
            }
            return rt::Value::Null();
          });
    };
    return options;
  }
};

LoopApp loop_app() {
  LoopApp app;
  dex::DexBuilder b;
  b.start_class("Lt/L;");
  b.add_native_method("patch", "V", {"I"},
                      dex::kAccPublic | dex::kAccNative | dex::kAccStatic);
  uint32_t patch_m = b.intern_method("Lt/L;", "patch", "V", {"I"});
  MethodAssembler as(3, 0);
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);
  as.const16(1, 3);
  as.bind(loop);
  as.if_test(Op::kIfGe, 0, 1, done);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(patch_m), {0});
  app.body_pc = as.current_pc();
  as.const16(2, 7);
  as.add_lit8(0, 0, 1);
  as.goto_(loop);
  as.bind(done);
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  app.apk = make_apk(std::move(b).build(), "Lt/L;");
  return app;
}

TEST(WalkingCollector, LoopBodyRetracesAndDivergesWhereRewritten) {
  // The fold holds f's tree from a run that rewrote nothing. A unit that
  // rewrites nothing re-executes the loop body's pcs twice more and
  // retraces the tree in full: it builds nothing. A unit whose native
  // rewrites the body early in the third pass departs at body_pc in that
  // pass, where Algorithm 1 forks a child.
  LoopApp app = loop_app();
  const MethodKey key{"Lt/L;", "f", "()V"};
  DexLegoOptions base = app.calls(std::nullopt);
  CollectionOutput fold = DexLego::collect(app.apk, base);
  ASSERT_EQ(fold.find_method(key)->trees.size(), 1u);
  {
    SCOPED_TRACE("no rewrite");
    CollectionOutput plain = DexLego::collect(app.apk, base);
    CollectionOutput walked = DexLego::collect(app.apk, base, &fold);
    const MethodRecord* rec = walked.find_method(key);
    EXPECT_TRUE(rec->trees.empty());
    EXPECT_EQ(rec->executions, 1u);
    EXPECT_EQ(walked.divergences_detected, 0u);
    EXPECT_EQ(walked.total_instructions_observed,
              plain.total_instructions_observed);
    expect_same_fold(app.apk, base, std::move(plain), std::move(walked), 8);
  }
  {
    SCOPED_TRACE("rewrite on the third pass");
    DexLegoOptions unit = app.calls(2);
    CollectionOutput plain = DexLego::collect(app.apk, unit);
    CollectionOutput walked = DexLego::collect(app.apk, unit, &fold);
    ASSERT_EQ(walked.find_method(key)->trees.size(), 1u);
    const TreeNode& tree = *walked.find_method(key)->trees[0];
    expect_same_tree(tree, *plain.find_method(key)->trees[0]);
    ASSERT_EQ(tree.children.size(), 1u);
    EXPECT_EQ(tree.children[0]->sm_start, app.body_pc);
    EXPECT_EQ(walked.divergences_detected, 1u);
    EXPECT_EQ(plain.divergences_detected, 1u);
    expect_same_fold(app.apk, base, std::move(plain), std::move(walked), 8);
  }
}

TEST(WalkingCollector, TruncatedInstructionLeavesTheWalkGoing) {
  // f's positive path, except that at pc 2 the code array ends one unit
  // into the const/16, as a native that shrank the array would leave it.
  // The truncated instruction is collected by neither collector, and the
  // walk goes on past it to retrace the fold's tree in full.
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  auto run = [&](const CollectionOutput* known) {
    Collector collector(Collector::Options{}, known);
    rt::Runtime runtime;
    runtime.install(apk);
    rt::RtMethod* f = runtime.linker().resolve("Lt/A;")->find_declared("f");
    std::span<const uint16_t> code(f->code->insns);
    collector.on_method_entry(*f);
    for (uint32_t pc : {0u, 2u, 4u, 6u, 8u}) {
      collector.on_instruction(*f, pc, pc == 2 ? code.first(3) : code);
    }
    collector.on_method_exit(*f);
    return collector.take_output();
  };
  const CollectionOutput fold = run(nullptr);
  ASSERT_EQ(fold.find_method(kF)->trees.size(), 1u);
  ASSERT_EQ(fold.find_method(kF)->trees[0]->il.size(), 4u);
  CollectionOutput plain = run(nullptr);
  CollectionOutput walked = run(&fold);
  EXPECT_TRUE(walked.find_method(kF)->trees.empty());
  EXPECT_EQ(walked.find_method(kF)->executions, 1u);
  expect_same_fold([&] { return run(nullptr); }, std::move(plain),
                   std::move(walked), 8);
}

TEST(WalkingCollector, RecordsOfFoldHeldMethodsAreLight) {
  // Lt/R;->run(I)V, with a line table and a try block, calls Lt/R;->target
  // through reflection unless its argument is zero. The fold ran it with 1.
  // The unit runs it with 1 and 0 under a cap of one variant, so its record
  // of run has a reflection target and a dropped tree. That record, light,
  // copies no frame metadata, and the unit snapshots no class the fold
  // holds; yet it folds to the plain unit's bytes.
  dex::DexBuilder b;
  uint32_t forname = b.intern_method("Ljava/lang/Class;", "forName",
                                     "Ljava/lang/Class;", {"Ljava/lang/String;"});
  uint32_t getm = b.intern_method("Ljava/lang/Class;", "getMethod",
                                  "Ljava/lang/reflect/Method;",
                                  {"Ljava/lang/String;"});
  uint32_t invoke_m = b.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                      "Ljava/lang/Object;", {"Ljava/lang/Object;"});
  uint16_t cls_s = static_cast<uint16_t>(b.intern_string("Lt/R;"));
  uint16_t target_s = static_cast<uint16_t>(b.intern_string("target"));
  b.start_class("Lt/R;");
  {
    MethodAssembler as(1, 0);
    as.return_void();
    b.add_direct_method("target", "V", {}, as.finish());
  }
  {
    MethodAssembler as(3, 1);  // the argument in v2
    auto skip = as.make_label();
    auto handler = as.make_label();
    as.line(10);
    as.if_testz(Op::kIfEqz, 2, skip);
    as.begin_try();
    as.const_string(0, cls_s);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);
    as.line(11);
    as.const_string(1, target_s);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 1});
    as.move_result(0);
    as.const_null(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {0, 1});
    as.end_try(handler);
    as.bind(skip);
    as.return_void();
    as.bind(handler);
    as.move_exception(0);
    as.return_void();
    b.add_direct_method("run", "V", {"I"}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lt/R;");
  auto calls_run = [](std::vector<int> args) {
    DexLegoOptions options;
    options.collector.max_variants = 1;
    options.driver = [args](rt::Runtime& runtime, int) {
      rt::RtMethod* m = runtime.linker().resolve("Lt/R;")->find_declared("run");
      for (int x : args) runtime.interp().invoke(*m, {rt::Value::Int(x)});
    };
    return options;
  };
  const MethodKey key{"Lt/R;", "run", "(I)V"};
  DexLegoOptions base = calls_run({1});
  DexLegoOptions unit = calls_run({1, 0});
  CollectionOutput fold = DexLego::collect(apk, base);
  CollectionOutput plain = DexLego::collect(apk, unit);
  CollectionOutput walked = DexLego::collect(apk, unit, &fold);

  const MethodRecord& full = *plain.find_method(key);
  const MethodRecord& light = *walked.find_method(key);
  ASSERT_FALSE(full.tries.empty());
  ASSERT_FALSE(full.lines.empty());
  ASSERT_EQ(full.param_types, std::vector<std::string>{"I"});
  EXPECT_TRUE(light.tries.empty());
  EXPECT_TRUE(light.lines.empty());
  EXPECT_TRUE(light.return_type.empty());
  EXPECT_TRUE(light.param_types.empty());
  EXPECT_EQ(light.key, key);
  EXPECT_EQ(light.executions, 2u);
  EXPECT_EQ(light.executions, full.executions);
  EXPECT_EQ(light.dropped_trees, 1u);
  EXPECT_EQ(light.dropped_trees, full.dropped_trees);
  ASSERT_EQ(full.reflection_targets.size(), 1u);
  EXPECT_EQ(light.reflection_targets, full.reflection_targets);

  auto has_class = [](const CollectionOutput& out, const std::string& d) {
    return std::ranges::any_of(
        out.classes, [&](const CollectedClass& c) { return c.descriptor == d; });
  };
  ASSERT_TRUE(has_class(fold, "Lt/R;"));
  EXPECT_TRUE(has_class(plain, "Lt/R;"));
  EXPECT_FALSE(has_class(walked, "Lt/R;"));
  expect_same_fold(apk, base, std::move(plain), std::move(walked), 1);
}

TEST(WalkingCollector, WalksADecodedFold) {
  // A fold read back from the collection files stores no fingerprints. A
  // unit walking it still retraces in full, counts the retrace under the
  // cap and folds like the plain unit.
  dex::Apk apk = make_apk(f_file(), "Lt/A;");
  DexLegoOptions base = calls_f({1}, 2);
  auto decoded_fold = [&] {
    return decode_collection(encode_collection(DexLego::collect(apk, base)));
  };
  const CollectionOutput fold = decoded_fold();
  ASSERT_TRUE(fold.find_method(kF)->tree_fingerprints.empty());
  for (std::vector<int> args : {std::vector<int>{1}, std::vector<int>{1, -1, 0}}) {
    SCOPED_TRACE("args " + std::to_string(args.size()));
    DexLegoOptions unit = calls_f(args, 2);
    CollectionOutput plain = DexLego::collect(apk, unit);
    CollectionOutput walked = DexLego::collect(apk, unit, &fold);
    EXPECT_EQ(walked.find_method(kF)->trees.size(), args.size() == 1 ? 0u : 1u);
    EXPECT_EQ(walked.find_method(kF)->dropped_trees,
              plain.find_method(kF)->dropped_trees);
    expect_same_fold(decoded_fold, std::move(plain), std::move(walked), 2);
  }
}

TEST(CollectionFiles, EncodeDecodeRoundTrip) {
  CollectionOutput out;
  CollectedClass cls;
  cls.descriptor = "Lx/Y;";
  cls.super_descriptor = "Landroid/app/Activity;";
  cls.access_flags = dex::kAccPublic;
  CollectedField f;
  f.name = "PHONE";
  f.type_descriptor = "Ljava/lang/String;";
  f.access_flags = dex::kAccStatic | dex::kAccPublic;
  f.static_value.kind = CollectedValue::Kind::kString;
  f.static_value.s = "800-123-456";
  cls.static_fields.push_back(f);
  out.classes.push_back(cls);

  MethodRecord rec;
  rec.key = {"Lx/Y;", "go", "()V"};
  rec.registers_size = 4;
  rec.ins_size = 1;
  rec.return_type = "V";
  rec.tries.push_back({0, 5, 3});
  rec.lines.push_back({0, 12});
  auto tree = std::make_unique<TreeNode>();
  ILEntry e;
  e.pc = 0;
  e.units = {0x0002, 0x0007};
  SymRef ref;
  ref.kind = bc::RefKind::kString;
  ref.parts = {"hello"};
  e.ref = ref;
  e.switch_payload = SwitchSnapshot{3, {7, 9}};
  tree->iim[0] = 0;
  tree->il.push_back(e);
  auto child = std::make_unique<TreeNode>();
  child->parent = tree.get();
  child->sm_start = 0;
  child->sm_end = 4;
  ILEntry ce;
  ce.pc = 0;
  ce.units = {0x0105};
  child->iim[0] = 0;
  child->il.push_back(ce);
  tree->children.push_back(std::move(child));
  rec.trees.push_back(std::move(tree));
  rec.reflection_targets[7] = SymRef{
      bc::RefKind::kMethod, {"La/B;", "m", "V", "#static"}};
  out.methods.emplace(rec.key, std::move(rec));
  out.total_instructions_observed = 42;
  out.divergences_detected = 1;

  CollectionFiles files = encode_collection(out);
  EXPECT_GT(files.total_size(), 0u);
  CollectionOutput back = decode_collection(files);
  ASSERT_EQ(back.classes.size(), 1u);
  EXPECT_EQ(back.classes[0].static_fields.at(0).static_value.s, "800-123-456");
  const MethodRecord* brec = back.find_method({"Lx/Y;", "go", "()V"});
  ASSERT_NE(brec, nullptr);
  EXPECT_EQ(brec->registers_size, 4);
  ASSERT_EQ(brec->trees.size(), 1u);
  EXPECT_EQ(brec->trees[0]->fingerprint(), out.methods.begin()->second.trees[0]->fingerprint());
  ASSERT_TRUE(brec->trees[0]->il[0].switch_payload.has_value());
  EXPECT_EQ(brec->trees[0]->il[0].switch_payload->target_pcs.size(), 2u);
  ASSERT_EQ(brec->reflection_targets.size(), 1u);
  EXPECT_EQ(back.total_instructions_observed, 42u);
}

// Collection files come back from disk (CollectionFiles::load), so their
// counts are hostile input: a count the remaining bytes cannot hold must be
// a ParseError naming it, never an allocation sized from it.
void expect_count_bomb(const CollectionFiles& files, const std::string& what) {
  try {
    decode_collection(files);
    ADD_FAILURE() << "decoded a " << what << " count bomb";
  } catch (const support::ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "implausible " + what + " count");
  }
}

TEST(CollectionFiles, ClassCountBombIsAParseError) {
  CollectionFiles files = encode_collection(CollectionOutput{});
  support::ByteWriter w;
  w.u32(0xFFFFFFFFu);
  w.str("Lx/Y;");
  w.str("Ljava/lang/Object;");
  w.u32(dex::kAccPublic);
  files.class_data = w.take();
  expect_count_bomb(files, "class");
}

TEST(CollectionFiles, ILCountBombIsAParseError) {
  CollectionFiles files = encode_collection(CollectionOutput{});
  support::ByteWriter w;
  w.u64(0);  // instructions observed
  w.u64(0);  // divergences
  w.u64(0);  // reflection sites
  w.u32(1);  // one method...
  w.str("Lx/Y;");
  w.str("go");
  w.str("()V");
  w.u32(1);            // ...with one tree...
  w.u32(0xFFFFFFFFu);  // ...claiming 2^32 - 1 IL entries
  w.u16(0);
  w.u16(1);
  w.u16(0x000e);
  files.bytecode = w.take();
  expect_count_bomb(files, "IL entry");
}

// A bytecode file holding one tree of `levels` nested one-child nodes for
// Lx/Y;->go()V, written level by level: write_tree would recurse as deep.
std::vector<uint8_t> nested_tree_bytecode(size_t levels) {
  support::ByteWriter w;
  for (int header = 0; header < 3; ++header) w.u64(0);
  w.u32(1);  // one method...
  w.str("Lx/Y;");
  w.str("go");
  w.str("()V");
  w.u32(1);  // ...with one tree
  for (size_t level = 1; level <= levels; ++level) {
    w.u32(0);  // no IL entries
    w.u16(0);  // sm_start
    w.u8(0);   // no sm_end
    w.u32(level < levels ? 1 : 0);
  }
  return w.take();
}

TEST(CollectionFiles, DeeplyNestedTreeIsAParseError) {
  // 200,000 levels in 2.2 MB, far more than one stack frame per level fits.
  CollectionFiles files = encode_collection(CollectionOutput{});
  files.bytecode = nested_tree_bytecode(200000);
  EXPECT_THROW(decode_collection(files), support::ParseError);
}

TEST(CollectionFiles, TreeAtTheDepthCapDecodes) {
  CollectionOutput out;
  MethodKey key{"Lx/Y;", "go", "()V"};
  out.methods[key].key = key;
  CollectionFiles files = encode_collection(out);
  files.bytecode = nested_tree_bytecode(kMaxTreeDepth);
  CollectionOutput back = decode_collection(files);
  size_t depth = 0;
  for (const TreeNode* node = back.methods.at(key).trees.at(0).get();
       node != nullptr;
       node = node->children.empty() ? nullptr : node->children[0].get()) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxTreeDepth);
  files.bytecode = nested_tree_bytecode(kMaxTreeDepth + 1);
  EXPECT_THROW(decode_collection(files), support::ParseError);
}

TEST(CollectionFiles, DuplicateDescriptorsAndStaticNamesAttach) {
  // Field and static-value records attach to the last class of their
  // descriptor. Within one record, the k-th value of a name goes to the k-th
  // static field of that name.
  auto field = [](const char* name, int64_t value) {
    CollectedField f;
    f.name = name;
    f.static_value = {CollectedValue::Kind::kInt, value, ""};
    return f;
  };
  CollectionOutput out;
  out.classes.resize(2);
  out.classes[0].descriptor = out.classes[1].descriptor = "Lx/Y;";
  out.classes[0].instance_fields = {field("i0", 0)};
  out.classes[0].static_fields = {field("A", 1)};
  out.classes[1].instance_fields = {field("i1", 0)};
  out.classes[1].static_fields = {field("K", 5), field("K", 7)};

  CollectionOutput back = decode_collection(encode_collection(out));
  ASSERT_EQ(back.classes.size(), 2u);
  EXPECT_TRUE(back.classes[0].instance_fields.empty());
  EXPECT_TRUE(back.classes[0].static_fields.empty());
  const CollectedClass& last = back.classes[1];
  ASSERT_EQ(last.instance_fields.size(), 2u);
  ASSERT_EQ(last.static_fields.size(), 3u);
  EXPECT_EQ(last.static_fields[0].static_value.i, 1);
  // Each field named K keeps the value the class held.
  EXPECT_EQ(last.static_fields[1].static_value.i, 5);
  EXPECT_EQ(last.static_fields[2].static_value.i, 7);
}

TEST(CollectionFiles, SameNameStaticsOfDifferentTypesKeepTheirValues) {
  // A class may declare statics that share a name and differ in type; each
  // must come back with its own value, not the last one of its name.
  CollectionOutput out;
  CollectedClass& cls = out.classes.emplace_back();
  cls.descriptor = "Lx/Y;";
  cls.static_fields.push_back(
      {"x", "I", dex::kAccStatic, {CollectedValue::Kind::kInt, 7, ""}});
  cls.static_fields.push_back({"x",
                               "Ljava/lang/String;",
                               dex::kAccStatic,
                               {CollectedValue::Kind::kString, 0, "hello"}});

  CollectionOutput back = decode_collection(encode_collection(out));
  ASSERT_EQ(back.classes.size(), 1u);
  const std::vector<CollectedField>& statics = back.classes[0].static_fields;
  ASSERT_EQ(statics.size(), 2u);
  EXPECT_EQ(statics[0].type_descriptor, "I");
  EXPECT_EQ(statics[0].static_value.kind, CollectedValue::Kind::kInt);
  EXPECT_EQ(statics[0].static_value.i, 7);
  EXPECT_EQ(statics[1].type_descriptor, "Ljava/lang/String;");
  EXPECT_EQ(statics[1].static_value.kind, CollectedValue::Kind::kString);
  EXPECT_EQ(statics[1].static_value.s, "hello");
}

TEST(CollectionFiles, ExtraValuesOfANameGoToItsLastField) {
  // Hostile files may carry more values of a name than the class has
  // fields of it: the extras land on the last such field.
  CollectionOutput out;
  CollectedClass& cls = out.classes.emplace_back();
  cls.descriptor = "Lx/Y;";
  for (int64_t v : {1, 2, 3}) {
    cls.static_fields.push_back(
        {"k", "I", dex::kAccStatic, {CollectedValue::Kind::kInt, v, ""}});
  }
  CollectionFiles files = encode_collection(out);
  cls.static_fields.pop_back();
  files.field_data = encode_collection(out).field_data;

  CollectionOutput back = decode_collection(files);
  ASSERT_EQ(back.classes.size(), 1u);
  ASSERT_EQ(back.classes[0].static_fields.size(), 2u);
  EXPECT_EQ(back.classes[0].static_fields[0].static_value.i, 1);
  EXPECT_EQ(back.classes[0].static_fields[1].static_value.i, 3);
}

// --- end-to-end reveal scenarios ---

// Plain app: reveal must preserve behaviour exactly.
TEST(DexLego, PlainAppRoundTrip) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    as.line(10);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.line(11);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");

  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;
  EXPECT_GT(result.files.total_size(), 0u);

  // The revealed app leaks exactly like the original.
  auto runtime = run_revealed(result.revealed_apk);
  ASSERT_EQ(runtime->leaks().size(), 1u);
  EXPECT_EQ(runtime->leaks()[0].sink, "log");

  // Line table carried over for coverage tooling.
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  const dex::ClassDef* main = revealed.find_class("Lapp/Main;");
  ASSERT_NE(main, nullptr);
  bool found_lines = false;
  for (const auto& m : main->virtual_methods) {
    if (revealed.method_name(m.method_ref) == "onCreate" && m.code &&
        !m.code->lines.empty()) {
      found_lines = true;
    }
  }
  EXPECT_TRUE(found_lines);
}

// Dead branches disappear from the revealed DEX (the FP-removal mechanism).
TEST(DexLego, DeadBranchRemoved) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t benign = b.intern_string("benign");
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    // if (1 != 0) { log("benign") } else { log(secret()) }  — else is dead.
    MethodAssembler as(2, 1);
    auto dead = as.make_label();
    auto end = as.make_label();
    as.const16(0, 1);
    as.if_testz(Op::kIfEqz, 0, dead);
    as.const_string(0, static_cast<uint16_t>(benign));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.goto_(end);
    as.bind(dead);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.bind(end);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");

  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;
  EXPECT_GT(result.stats.pad_edges, 0u);  // the dead edge went to the pad

  // The revealed DEX must not contain the secret() call at all.
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  EXPECT_EQ(revealed.find_method_ref("Ldexlego/api/Source;", "secret"),
            dex::kNoIndex);
}

// The self-modifying scenario end to end. The collection tree must fork a
// child holding the sink call, and the reassembled method must contain BOTH
// calls behind a Modification guard.
TEST(DexLego, SelfModifyingRevealedWithGuards) {
  SelfModifyingApp app = self_modifying_app();
  DexLegoOptions options;
  options.configure_runtime = app.configure(true);
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(app.apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;

  // Collection tree shape per Listing 1: one root + one child with 1 insn.
  const MethodRecord* rec =
      result.collection.find_method({"Lapp/Main;", "advancedLeak", "()V"});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->trees.size(), 1u);
  ASSERT_EQ(rec->trees[0]->children.size(), 1u);
  EXPECT_EQ(rec->trees[0]->children[0]->il.size(), 1u);
  EXPECT_TRUE(rec->trees[0]->children[0]->sm_end.has_value());
  EXPECT_GT(result.stats.guards, 0u);

  // The revealed DEX contains both calls (Code 4) and the Modification class.
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  ASSERT_NE(revealed.find_class(kModificationClass), nullptr);
  const dex::ClassDef* main = revealed.find_class("Lapp/Main;");
  ASSERT_NE(main, nullptr);
  std::string disasm;
  for (const auto& m : main->virtual_methods) {
    if (revealed.method_name(m.method_ref) == "advancedLeak" && m.code) {
      disasm = bc::disassemble_code(revealed, *m.code);
    }
  }
  EXPECT_NE(disasm.find("normal"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("sink"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("Ldexlego/Modification;"), std::string::npos) << disasm;
}

// Reflection: the revealed DEX replaces Method.invoke with a direct call.
TEST(DexLego, ReflectionReplacedWithDirectCall) {
  dex::DexBuilder b;
  uint32_t forname = b.intern_method("Ljava/lang/Class;", "forName",
                                     "Ljava/lang/Class;", {"Ljava/lang/String;"});
  uint32_t getm = b.intern_method("Ljava/lang/Class;", "getMethod",
                                  "Ljava/lang/reflect/Method;",
                                  {"Ljava/lang/String;"});
  uint32_t invoke_m = b.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                      "Ljava/lang/Object;", {"Ljava/lang/Object;"});
  uint32_t xor_m = b.intern_method("Ldexlego/api/Crypto;", "xorDecode",
                                   "Ljava/lang/String;",
                                   {"Ljava/lang/String;", "I"});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  // Class and method names xor-encrypted with key 7 — the "advanced
  // reflection" pattern no static tool can resolve (paper IV-D).
  auto encrypt = [](std::string s) {
    for (char& c : s) c = static_cast<char>(c ^ 7);
    return s;
  };
  uint32_t enc_cls = b.intern_string(encrypt("Lapp/Hidden;"));
  uint32_t enc_method = b.intern_string(encrypt("exfiltrate"));

  b.start_class("Lapp/Hidden;");
  {
    MethodAssembler as(1, 0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    b.add_direct_method("exfiltrate", "V", {}, as.finish());
  }
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);
    as.const_string(0, static_cast<uint16_t>(enc_cls));
    as.const16(1, 7);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(xor_m), {0, 1});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(enc_method));
    as.const16(2, 7);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(xor_m), {1, 2});
    as.move_result(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 1});
    as.move_result(0);
    as.const_null(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {0, 1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");

  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;
  EXPECT_EQ(result.stats.reflection_replaced, 1u);

  // Revealed onCreate calls Lapp/Hidden;->exfiltrate directly.
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  const dex::ClassDef* main = revealed.find_class("Lapp/Main;");
  ASSERT_NE(main, nullptr);
  std::string disasm;
  for (const auto& m : main->virtual_methods) {
    if (revealed.method_name(m.method_ref) == "onCreate" && m.code) {
      disasm = bc::disassemble_code(revealed, *m.code);
    }
  }
  EXPECT_NE(disasm.find("invoke-static {}, Lapp/Hidden;->exfiltrate()V"),
            std::string::npos)
      << disasm;
}

// Dynamic loading: classes from the dynamically loaded DEX appear in the one
// reassembled DEX file.
TEST(DexLego, DynamicallyLoadedCodeMerged) {
  dex::DexBuilder payload;
  uint32_t src = payload.intern_method("Ldexlego/api/Source;", "secret",
                                       "Ljava/lang/String;", {});
  uint32_t log_i = payload.intern_method("Landroid/util/Log;", "i", "V",
                                         {"Ljava/lang/String;"});
  payload.start_class("Lhidden/Payload;");
  {
    MethodAssembler as(1, 0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    payload.add_direct_method("leak", "V", {}, as.finish());
  }
  std::vector<uint8_t> enc = dex::write_dex(std::move(payload).build());
  uint8_t rolling = 99;
  for (uint8_t& byte : enc) {
    byte ^= rolling;
    rolling = static_cast<uint8_t>(rolling * 31 + 7);
  }

  dex::DexBuilder shell;
  uint32_t load = shell.intern_method("Ldalvik/system/DexClassLoader;",
                                      "loadFromAsset", "V",
                                      {"Ljava/lang/String;", "I"});
  uint32_t forname = shell.intern_method("Ljava/lang/Class;", "forName",
                                         "Ljava/lang/Class;",
                                         {"Ljava/lang/String;"});
  uint32_t getm = shell.intern_method("Ljava/lang/Class;", "getMethod",
                                      "Ljava/lang/reflect/Method;",
                                      {"Ljava/lang/String;"});
  uint32_t invoke_m = shell.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                          "Ljava/lang/Object;",
                                          {"Ljava/lang/Object;"});
  uint32_t asset_s = shell.intern_string("assets/p.bin");
  uint32_t cls_s = shell.intern_string("Lhidden/Payload;");
  uint32_t m_s = shell.intern_string("leak");
  shell.start_class("Lapp/Shell;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(asset_s));
    as.const16(1, 99);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(load), {0, 1});
    as.const_string(0, static_cast<uint16_t>(cls_s));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(m_s));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 1});
    as.move_result(0);
    as.const_null(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {0, 1});
    as.return_void();
    shell.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(shell).build(), "Lapp/Shell;");
  apk.set_entry("assets/p.bin", enc);

  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  ASSERT_NE(revealed.find_class("Lhidden/Payload;"), nullptr);
  ASSERT_NE(revealed.find_class("Lapp/Shell;"), nullptr);
}

// Two different execution paths of one method become guarded variants.
TEST(DexLego, MethodVariantsFromDifferentPaths) {
  dex::DexBuilder b;
  uint32_t text_m = b.intern_method("Landroid/widget/EditText;", "getText",
                                    "Ljava/lang/String;", {});
  uint32_t find_view = b.intern_method("Landroid/app/Activity;", "findViewById",
                                       "Landroid/view/View;", {"I"});
  uint32_t len_m = b.intern_method("Ljava/lang/String;", "length", "I", {});
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    // onCreate: v = getText(id 3); if (v.length() > 0) return; else return;
    // The two paths produce distinct instruction sequences.
    MethodAssembler as(3, 1);  // this in v2
    auto pos = as.make_label();
    as.const16(0, 3);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(find_view), {2, 0});
    as.move_result(0);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(text_m), {0});
    as.move_result(0);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(len_m), {0});
    as.move_result(1);
    as.if_testz(Op::kIfGtz, 1, pos);
    as.const16(0, 1);  // path A filler
    as.return_void();
    as.bind(pos);
    as.const16(0, 2);  // path B filler
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");

  DexLegoOptions options;
  options.runs = 2;
  options.driver = [](rt::Runtime& runtime, int run) {
    runtime.set_text_input(3, run == 0 ? "" : "x");
    runtime.launch();
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;
  EXPECT_EQ(result.stats.variants, 2u);

  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  const dex::ClassDef* main = revealed.find_class("Lapp/Main;");
  ASSERT_NE(main, nullptr);
  std::set<std::string> names;
  for (const auto& m : main->virtual_methods) {
    names.insert(revealed.method_name(m.method_ref));
  }
  EXPECT_TRUE(names.contains("onCreate"));
  EXPECT_TRUE(names.contains("onCreate$v0"));
  EXPECT_TRUE(names.contains("onCreate$v1"));
}

// Switch statements survive reassembly with retargeted payloads.
TEST(DexLego, SwitchReassembled) {
  dex::DexBuilder b;
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t tag0 = b.intern_string("case0");
  uint32_t tag1 = b.intern_string("case1");
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    auto c0 = as.make_label();
    auto c1 = as.make_label();
    auto end = as.make_label();
    as.const16(0, 1);
    as.packed_switch(0, 0, {c0, c1});
    as.goto_(end);
    as.bind(c0);
    as.const_string(0, static_cast<uint16_t>(tag0));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.goto_(end);
    as.bind(c1);
    as.const_string(0, static_cast<uint16_t>(tag1));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.bind(end);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");
  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;

  // Behaviour preserved: case1 logs "case1".
  auto runtime = run_revealed(result.revealed_apk);
  ASSERT_EQ(runtime->sink_events().size(), 1u);
  EXPECT_EQ(runtime->sink_events()[0].detail, "case1");
}

// Try/catch handlers that executed survive with remapped pc ranges.
TEST(DexLego, ExecutedCatchHandlerPreserved) {
  dex::DexBuilder b;
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t caught_s = b.intern_string("caught");
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    auto handler = as.make_label();
    as.begin_try();
    as.const16(0, 1);
    as.const16(1, 0);
    as.binop(Op::kDiv, 0, 0, 1);
    as.end_try(handler);
    as.return_void();
    as.bind(handler);
    as.move_exception(0);
    as.const_string(0, static_cast<uint16_t>(caught_s));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");
  DexLego dexlego;
  RevealResult result = dexlego.reveal(apk);
  ASSERT_TRUE(result.verified) << result.verify_errors;

  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  const dex::ClassDef* main = revealed.find_class("Lapp/Main;");
  ASSERT_NE(main, nullptr);
  bool has_try = false;
  for (const auto& m : main->virtual_methods) {
    if (revealed.method_name(m.method_ref) == "onCreate" && m.code) {
      has_try = !m.code->tries.empty();
    }
  }
  EXPECT_TRUE(has_try);

  // Behaviour check: the revealed app still catches and logs.
  auto runtime = run_revealed(result.revealed_apk);
  ASSERT_EQ(runtime->sink_events().size(), 1u);
  EXPECT_EQ(runtime->sink_events()[0].detail, "caught");
}

// --- reassembler layout, checked unit for unit ---

// Appends `insn`, collected at `pc`, to `node`.
ILEntry& add_entry(TreeNode& node, uint16_t pc, const bc::Insn& insn) {
  node.iim.emplace(pc, node.il.size());
  ILEntry& entry = node.il.emplace_back();
  entry.pc = pc;
  entry.units = bc::encode(insn);
  return entry;
}

TEST(Reassembler, LayoutIsPinned) {
  // Lx/Pin;->run(I)Ljava/lang/String;, static, 3 registers with the argument
  // in v2, as collected:
  //    0 const/16 v0, 1                    line 10
  //    2 packed-switch v0, {0: 6, 1: 8}    line 11; case 0 never ran
  //    8 const-string v1, "one"            line 12, inside try [8, 12)
  //   10 if-eqz v2, 16                     always taken: 12 never ran
  //   16 const/16 v0, 5                    line 13; a layer rewrote it to
  //                                        const/16 v0, 6, converging at 18
  //   18 return v1                         the try's handler
  // The value return and the guard grow the frame to 4 registers, so a
  // prologue moves the argument back to v2. The switch's default, case 0
  // and the if-eqz fallthrough lead to the pad; the child block ends in a
  // goto back to pc 18.
  CollectionOutput out;
  MethodKey key{"Lx/Pin;", "run", "(I)Ljava/lang/String;"};
  MethodRecord& rec = out.methods[key];
  rec.key = key;
  rec.access_flags = dex::kAccPublic | dex::kAccStatic;
  rec.registers_size = 3;
  rec.ins_size = 1;
  rec.return_type = "Ljava/lang/String;";
  rec.param_types = {"I"};
  rec.tries = {{.start_pc = 8, .end_pc = 12, .handler_pc = 18}};
  rec.lines = {{0, 10}, {2, 11}, {8, 12}, {16, 13}};

  auto root = std::make_unique<TreeNode>();
  add_entry(*root, 0, {.op = Op::kConst16, .a = 0, .lit = 1});
  add_entry(*root, 2, {.op = Op::kPackedSwitch, .a = 0, .off = 28})
      .switch_payload = SwitchSnapshot{0, {6, 8}};
  add_entry(*root, 8, {.op = Op::kConstString, .a = 1, .idx = 7}).ref =
      SymRef{bc::RefKind::kString, {"one"}};
  add_entry(*root, 10, {.op = Op::kIfEqz, .a = 2, .off = 6});
  add_entry(*root, 16, {.op = Op::kConst16, .a = 0, .lit = 5});
  add_entry(*root, 18, {.op = Op::kReturn, .a = 1});
  auto child = std::make_unique<TreeNode>();
  child->parent = root.get();
  child->sm_start = 16;
  child->sm_end = 18;
  add_entry(*child, 16, {.op = Op::kConst16, .a = 0, .lit = 6});
  root->children.push_back(std::move(child));
  rec.trees.push_back(std::move(root));

  ReassembleResult result = reassemble(out);
  const dex::ClassDef* cls = result.file.find_class("Lx/Pin;");
  ASSERT_NE(cls, nullptr);
  ASSERT_EQ(cls->direct_methods.size(), 1u);
  const dex::CodeItem& code = *cls->direct_methods[0].code;
  EXPECT_EQ(code.registers_size, 4);
  EXPECT_EQ(code.ins_size, 1);
  EXPECT_EQ(code.insns, (std::vector<uint16_t>{
                            513, 3,            //  0 move v2, v3
                            2, 1,              //  2 const/16 v0, 1
                            52, 24,            //  4 packed-switch v0, +24
                            12, 19,            //  6 goto +19 (pad)
                            261, 6,            //  8 const-string v1, string 6
                            531, 8,            // 10 if-eqz v2, +8
                            12, 13,            // 12 goto +13 (pad)
                            815, 0,            // 14 sget v3, field 0
                            787, 5,            // 16 if-eqz v3, +5 (child)
                            2, 5,              // 18 const/16 v0, 5
                            266,               // 20 return v1
                            2, 6,              // 21 const/16 v0, 6
                            12, 65533,         // 23 goto -3
                            774, 0, 778,       // 25 pad
                            54, 2, 0, 0, 21, 4  // 28 payload: pad, pc 8
                        }));
  ASSERT_EQ(code.tries.size(), 1u);
  EXPECT_EQ(code.tries[0].start_pc, 8);
  EXPECT_EQ(code.tries[0].end_pc, 12);
  EXPECT_EQ(code.tries[0].handler_pc, 20);
  std::vector<std::pair<uint16_t, uint32_t>> lines;
  for (const dex::LineEntry& e : code.lines) lines.emplace_back(e.pc, e.line);
  EXPECT_EQ(lines, (std::vector<std::pair<uint16_t, uint32_t>>{
                       {2, 10}, {4, 11}, {8, 12}, {18, 13}}));
  EXPECT_EQ(result.stats.guards, 1u);
  EXPECT_EQ(result.stats.pad_edges, 3u);
  dex::VerifyResult verify = bc::verify_dex(result.file);
  EXPECT_TRUE(verify.ok()) << verify.message();
}

TEST(Reassembler, DispatcherRefusesMoreThanFourArgumentRegisters) {
  // Two unique trees put a dispatcher in front of two variants; it passes
  // every argument register on, and an invoke holds at most four.
  CollectionOutput out;
  MethodKey key{"Lx/Wide;", "go", "(IIII)V"};
  MethodRecord& rec = out.methods[key];
  rec.key = key;
  rec.access_flags = dex::kAccPublic;  // `this` and four ints: 5 ins
  rec.registers_size = 5;
  rec.ins_size = 5;
  rec.return_type = "V";
  rec.param_types = {"I", "I", "I", "I"};
  for (int64_t value : {1, 2}) {
    auto tree = std::make_unique<TreeNode>();
    add_entry(*tree, 0, {.op = Op::kConst16, .a = 0, .lit = value});
    add_entry(*tree, 2, {.op = Op::kReturnVoid});
    rec.trees.push_back(std::move(tree));
  }
  EXPECT_THROW(reassemble(out), std::logic_error);
}

}  // namespace
}  // namespace dexlego::core

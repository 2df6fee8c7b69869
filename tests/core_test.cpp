#include <gtest/gtest.h>

#include "src/bytecode/assembler.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/verify_code.h"
#include "src/core/collector.h"
#include "src/core/dexlego.h"
#include "src/core/files.h"
#include "src/core/reassembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/runtime/runtime.h"

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

// One Collector output of Lt/A;->f(I)I invoked once per argument, each on
// the same runtime. Zero returns early, a positive argument runs both
// const/16s, a negative one takes the if-ltz: three distinct trees.
CollectionOutput collect_f(std::initializer_list<int> args) {
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

  Collector collector;
  rt::Runtime runtime;
  runtime.add_hooks(&collector);
  runtime.linker().register_dex(std::move(b).build(), "t");
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

// The paper's Code 1/Listing 1/Code 4 scenario end to end: self-modifying
// code that swaps normal(a) <-> sink(a) across loop iterations. The
// collection tree must fork a child holding the sink call, and the
// reassembled method must contain BOTH calls behind a Modification guard.
TEST(DexLego, SelfModifyingRevealedWithGuards) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t normal_m = b.intern_method("Lapp/Main;", "normal", "V",
                                      {"Ljava/lang/String;"});
  uint32_t sink_m = b.intern_method("Lapp/Main;", "sink", "V",
                                    {"Ljava/lang/String;"});
  uint32_t tamper_m = b.intern_method("Lapp/Main;", "bytecodeTamper", "V", {"I"});
  uint32_t sms = b.intern_method("Landroid/telephony/SmsManager;",
                                 "sendTextMessage", "V", {"Ljava/lang/String;"});

  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  size_t call_pc = 0;
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
    call_pc = as.current_pc();
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(normal_m), {3, 0});
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
  dex::Apk apk = make_apk(std::move(b).build(), "Lapp/Main;");

  DexLegoOptions options;
  options.configure_runtime = [call_pc, normal_m, sink_m](rt::Runtime& runtime) {
    runtime.register_native(
        "Lapp/Main;->bytecodeTamper",
        [call_pc, normal_m, sink_m](rt::NativeContext& ctx,
                                    std::span<rt::Value> args) {
          rt::RtMethod* leak =
              ctx.runtime.linker().resolve("Lapp/Main;")->find_declared(
                  "advancedLeak");
          leak->code->insns[call_pc + 1] = static_cast<uint16_t>(
              args[1].test_value() == 0 ? sink_m : normal_m);
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(apk);
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

}  // namespace
}  // namespace dexlego::core

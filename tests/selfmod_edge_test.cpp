// Edge cases of Algorithm 1 the paper explicitly flags: multiple layers of
// self-modifying code ("self-modifying code might also exist in the
// divergence branch"), divergence branches that never converge (the method
// returns inside the modified region), and repeated modification across
// many executions (unique-tree dedup under churn). Below them, the
// interpreter's side of the contract: every write to code->insns, through
// RtMethod::patch_code_unit or direct, in place or by swapping the array, is
// seen at the next fetch.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/bytecode/assembler.h"
#include "src/bytecode/disasm.h"
#include "src/core/dexlego.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"

namespace dexlego::core {
namespace {

using bc::MethodAssembler;
using bc::Op;

dex::Apk make_apk(dex::DexFile file, const std::string& entry) {
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "edge";
  manifest.entry_class = entry;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(file));
  return apk;
}

// Two-layer self-modification: a 3-iteration loop where the native rewrites
// the same const literal to a new value each iteration. Iteration 2 diverges
// from the root; iteration 3 diverges from the *child* — a child of a child.
TEST(SelfModEdge, MultiLayerModificationNestsChildren) {
  dex::DexBuilder b;
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t tostr = b.intern_method("Ljava/lang/Integer;", "toString",
                                   "Ljava/lang/String;", {"I"});
  uint32_t tamper = b.intern_method("Ledge/Main;", "mutate", "V", {});
  b.start_class("Ledge/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 3);
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

  DexLegoOptions options;
  options.configure_runtime = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Ledge/Main;->mutate", [patch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* oc =
              ctx.runtime.linker().resolve("Ledge/Main;")->find_declared("onCreate");
          oc->code->insns[patch_pc + 1] += 11;  // 100 -> 111 -> 122
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(make_apk(std::move(b).build(), "Ledge/Main;"));
  ASSERT_TRUE(result.verified) << result.verify_errors;

  const MethodRecord* rec =
      result.collection.find_method({"Ledge/Main;", "onCreate", "()V"});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->trees.size(), 1u);
  const TreeNode& root = *rec->trees[0];
  // Each modified iteration converges before the next modification, so the
  // two layers become sibling divergence branches on the root (the Fig. 3
  // "node1..node3 on the root" shape).
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->sm_start, root.children[1]->sm_start);
  EXPECT_TRUE(root.children[0]->sm_end.has_value());
  EXPECT_EQ(result.collection.divergences_detected, 2u);
  EXPECT_EQ(result.stats.guards, 2u);

  // All three literals are reachable in the revealed method.
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  const dex::ClassDef* cls = revealed.find_class("Ledge/Main;");
  ASSERT_NE(cls, nullptr);
  std::string text;
  for (const auto& m : cls->virtual_methods) {
    if (revealed.method_name(m.method_ref) == "onCreate" && m.code) {
      text = bc::disassemble_code(revealed, *m.code);
    }
  }
  EXPECT_NE(text.find("#100"), std::string::npos) << text;
  EXPECT_NE(text.find("#111"), std::string::npos) << text;
  EXPECT_NE(text.find("#122"), std::string::npos) << text;
}

// Modification *across executions* (not within one): each invocation gets a
// fresh collection tree, so the two states become two unique trees — and the
// reassembler merges them into guarded method variants.
TEST(SelfModEdge, CrossExecutionModificationBecomesVariants) {
  dex::DexBuilder b;
  uint32_t tamper = b.intern_method("Ledge/Main;", "mutate", "V", {});
  uint32_t run_m = b.intern_method("Ledge/Main;", "run", "I", {});
  b.start_class("Ledge/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    // run(): v0 = 5; return v0 — mutated to v0 = 6 between the two calls.
    MethodAssembler as(2, 1);
    patch_pc = as.current_pc();
    as.const16(0, 5);
    as.return_value(0);
    b.add_virtual_method("run", "I", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {});
  {
    MethodAssembler as(2, 1);  // this v1
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(run_m), {1});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {1});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(run_m), {1});
    as.move_result(0);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }

  DexLegoOptions options;
  options.configure_runtime = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Ledge/Main;->mutate", [patch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* run =
              ctx.runtime.linker().resolve("Ledge/Main;")->find_declared("run");
          run->code->insns[patch_pc + 1] = 6;
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(make_apk(std::move(b).build(), "Ledge/Main;"));
  ASSERT_TRUE(result.verified) << result.verify_errors;

  const MethodRecord* rec = result.collection.find_method({"Ledge/Main;", "run", "()I"});
  ASSERT_NE(rec, nullptr);
  // Two executions, two distinct baselines => two unique trees, no children.
  ASSERT_EQ(rec->trees.size(), 2u);
  EXPECT_TRUE(rec->trees[0]->children.empty());
  EXPECT_EQ(result.stats.variants, 2u);  // run$v0 / run$v1 behind a dispatcher
  dex::DexFile revealed = dex::read_dex(result.revealed_apk.classes());
  EXPECT_NE(revealed.find_method_ref("Ledge/Main;", "run$v0"), dex::kNoIndex);
  EXPECT_NE(revealed.find_method_ref("Ledge/Main;", "run$v1"), dex::kNoIndex);
}

// A divergence branch that never converges: the tamper rewrites the patch
// site into a return, so the method exits inside the modified region
// (sm_end stays unset) and reassembly must still be valid.
TEST(SelfModEdge, NonConvergingDivergenceReassembles) {
  dex::DexBuilder b;
  uint32_t tamper = b.intern_method("Ledge/Main;", "mutate", "V", {});
  b.start_class("Ledge/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 3);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    patch_pc = as.current_pc();
    as.const16(0, 7);  // rewritten to return-void mid-run
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {3});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {});

  DexLegoOptions options;
  options.configure_runtime = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Ledge/Main;->mutate", [patch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* oc =
              ctx.runtime.linker().resolve("Ledge/Main;")->find_declared("onCreate");
          // const/16 vA is 2 units: overwrite with return-void + nop.
          oc->code->insns[patch_pc] = 0x0009;
          oc->code->insns[patch_pc + 1] = 0x0000;
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(make_apk(std::move(b).build(), "Ledge/Main;"));
  ASSERT_TRUE(result.verified) << result.verify_errors;

  const MethodRecord* rec =
      result.collection.find_method({"Ledge/Main;", "onCreate", "()V"});
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->trees.size(), 1u);
  ASSERT_EQ(rec->trees[0]->children.size(), 1u);
  EXPECT_FALSE(rec->trees[0]->children[0]->sm_end.has_value());
  // The child holds the injected return-void.
  ASSERT_EQ(rec->trees[0]->children[0]->il.size(), 1u);
  EXPECT_EQ(rec->trees[0]->children[0]->il[0].units[0], 0x0009);
}

// Churn: the same two states alternate over many executions — the unique-
// tree dedup must keep exactly one tree (with one child), not one per run.
TEST(SelfModEdge, RepeatedModificationDedupsTrees) {
  dex::DexBuilder b;
  uint32_t tamper = b.intern_method("Ledge/Main;", "mutate", "V", {"I"});
  b.start_class("Ledge/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 8);  // 8 iterations alternating 40 <-> 41
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    patch_pc = as.current_pc();
    as.const16(0, 40);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {3, 1});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {"I"});

  DexLegoOptions options;
  options.runs = 3;  // plus per-run 8 toggles
  options.configure_runtime = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Ledge/Main;->mutate",
        [patch_pc](rt::NativeContext& ctx, std::span<rt::Value> args) {
          rt::RtMethod* oc =
              ctx.runtime.linker().resolve("Ledge/Main;")->find_declared("onCreate");
          oc->code->insns[patch_pc + 1] =
              static_cast<uint16_t>(args[1].test_value() % 2 == 0 ? 41 : 40);
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(make_apk(std::move(b).build(), "Ledge/Main;"));
  ASSERT_TRUE(result.verified) << result.verify_errors;
  const MethodRecord* rec =
      result.collection.find_method({"Ledge/Main;", "onCreate", "()V"});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->executions, 3u);
  // Alternation 40->41->40->41... within one run converges back and forth but
  // produces one stable tree shape; three identical runs dedup to one tree.
  EXPECT_EQ(rec->trees.size(), 1u);
}

// Self-modified code that writes a *garbage* opcode must not break the
// collector or the reassembler: the runtime raises VerifyError, collection
// keeps everything executed before the corruption.
TEST(SelfModEdge, GarbageModificationIsContained) {
  dex::DexBuilder b;
  uint32_t tamper = b.intern_method("Ledge/Main;", "mutate", "V", {});
  b.start_class("Ledge/Main;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    patch_pc = as.current_pc();
    as.const16(0, 1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper), {3});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.add_native_method("mutate", "V", {});

  DexLegoOptions options;
  options.configure_runtime = [patch_pc](rt::Runtime& runtime) {
    runtime.register_native(
        "Ledge/Main;->mutate", [patch_pc](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtMethod* oc =
              ctx.runtime.linker().resolve("Ledge/Main;")->find_declared("onCreate");
          oc->code->insns[patch_pc] = 0x00fe;  // invalid opcode
          return rt::Value::Null();
        });
  };
  DexLego dexlego(options);
  RevealResult result = dexlego.reveal(make_apk(std::move(b).build(), "Ledge/Main;"));
  // The run dies with VerifyError, but everything collected up to that point
  // still reassembles into a valid DEX.
  EXPECT_TRUE(result.verified) << result.verify_errors;
  EXPECT_NE(result.collection.find_method({"Ledge/Main;", "onCreate", "()V"}),
            nullptr);
}

// --- every write to code->insns is seen at the next fetch ------------------

// How a native rewrites the literal held in code unit `unit` of onCreate.
using LiteralWrite = std::function<void(rt::RtMethod& on_create, size_t unit)>;

// Launches an app whose onCreate loops `iterations` times: log a const/16
// literal, then call the native mutate(), which applies `write` to that
// literal's unit. Returns the logged literals in order.
std::vector<std::string> logged_literals(int16_t iterations,
                                         const LiteralWrite& write) {
  dex::DexBuilder b;
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t tostr = b.intern_method("Ljava/lang/Integer;", "toString",
                                   "Ljava/lang/String;", {"I"});
  uint32_t tamper = b.intern_method("Ledge/Loop;", "mutate", "V", {});
  b.start_class("Ledge/Loop;", "Landroid/app/Activity;");
  size_t patch_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, iterations);
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

  rt::Runtime runtime;
  runtime.register_native(
      "Ledge/Loop;->mutate",
      [patch_pc, &write](rt::NativeContext& ctx, std::span<rt::Value>) {
        write(*ctx.runtime.linker().resolve("Ledge/Loop;")->find_declared(
                  "onCreate"),
              patch_pc + 1);
        return rt::Value::Null();
      });
  runtime.install(make_apk(std::move(b).build(), "Ledge/Loop;"));
  EXPECT_TRUE(runtime.launch().completed);
  std::vector<std::string> logged;
  for (const rt::Runtime::SinkEvent& ev : runtime.sink_events()) {
    logged.push_back(ev.detail);
  }
  return logged;
}

// Every rewritten literal is logged, whether the native writes through
// RtMethod::patch_code_unit or straight into code->insns.
TEST(SelfModEdge, RewrittenLiteralIsSeenAtTheNextFetch) {
  const std::vector<std::string> expected = {"100", "111", "122", "133"};
  EXPECT_EQ(logged_literals(4,
                            [](rt::RtMethod& oc, size_t unit) {
                              oc.patch_code_unit(
                                  unit, static_cast<uint16_t>(
                                            oc.code->insns[unit] + 11));
                            }),
            expected);
  EXPECT_EQ(logged_literals(4,
                            [](rt::RtMethod& oc, size_t unit) {
                              oc.code->insns[unit] += 11;
                            }),
            expected);
}

// A native that replaces the whole backing array on every call is seen just
// the same: 100 iterations log 100, 103, ..., 397.
TEST(SelfModEdge, SwappedBackingArrayIsSeenAtTheNextFetch) {
  std::vector<std::string> logged =
      logged_literals(100, [](rt::RtMethod& oc, size_t unit) {
        std::vector<uint16_t> fresh = oc.code->insns;
        fresh[unit] = static_cast<uint16_t>(fresh[unit] + 3);
        oc.code->insns = std::move(fresh);
      });
  ASSERT_EQ(logged.size(), 100u);
  for (size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i], std::to_string(100 + 3 * i)) << i;
  }
}

}  // namespace
}  // namespace dexlego::core

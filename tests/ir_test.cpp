// SSA IR backend battery (docs/IR.md, ARCHITECTURE invariant 15):
//  - SSA well-formedness (single def, phi arity, dominance of uses) across
//    every DroidBench sample, plus negative cases proving the verifier bites;
//  - lift→lower byte identity over original and revealed method bodies and
//    the pinned fuzz replay corpus;
//  - DCE'd revealed files staying trace-equivalent to the direct path under
//    kBaseline and kCached dispatch;
//  - the SSA taint engine's recall/precision contract against the bytecode
//    engine (no missed flows anywhere, strictly fewer false positives on the
//    flow-sensitivity samples), printed as a comparison table.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/analysis/static_taint.h"
#include "src/benchsuite/droidbench.h"
#include "src/bytecode/assembler.h"
#include "src/bytecode/verify_code.h"
#include "src/core/dexlego.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/fuzz/replay.h"
#include "src/ir/ir.h"
#include "src/ir/lift.h"
#include "src/ir/lower.h"
#include "src/ir/passes.h"
#include "src/ir/roundtrip.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"
#include "tests/harness/diff_fixture.h"

namespace dexlego {
namespace {

using bc::Op;

const suite::DroidBench& droidbench() {
  static const suite::DroidBench bench = suite::build_droidbench();
  return bench;
}

template <typename Fn>
void for_each_code_method(const dex::DexFile& file, Fn&& fn) {
  for (const dex::ClassDef& cls : file.classes) {
    for (const dex::MethodDef& m : cls.direct_methods) {
      if (m.code.has_value()) fn(m);
    }
    for (const dex::MethodDef& m : cls.virtual_methods) {
      if (m.code.has_value()) fn(m);
    }
  }
}

dex::DexFile sample_classes(const suite::Sample& sample) {
  return dex::read_dex(sample.apk.classes());
}

// Small diamond with a loop: enough structure to exercise phi placement,
// back edges and branch retargeting.
dex::CodeItem diamond_loop_code() {
  bc::MethodAssembler as(4, 1);  // v3 = argument
  auto head = as.make_label();
  auto body = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);                    // v0 = 0 (accumulator)
  as.const16(1, 3);                    // v1 = 3 (bound)
  as.bind(head);
  as.if_test(Op::kIfGe, 0, 1, done);   // while (v0 < v1)
  as.goto_(body);
  as.bind(body);
  as.add_lit8(0, 0, 1);                // v0 += 1
  as.goto_(head);
  as.bind(done);
  as.return_value(0);
  return as.finish();
}

// ---------------------------------------------------------------------------
// SSA well-formedness
// ---------------------------------------------------------------------------

TEST(IrSsa, WellFormedAcrossDroidBench) {
  size_t methods = 0;
  for (const suite::Sample& sample : droidbench().samples) {
    dex::DexFile file = sample_classes(sample);
    for_each_code_method(file, [&](const dex::MethodDef& m) {
      ++methods;
      ir::Function fn = ir::lift_method(file, m);
      std::vector<std::string> errors = ir::verify_function(fn);
      ASSERT_TRUE(errors.empty())
          << sample.name << " " << file.pretty_method(m.method_ref) << ": "
          << errors.front() << "\n"
          << ir::to_string(fn);
    });
  }
  EXPECT_GT(methods, 200u) << "corpus unexpectedly small";
}

TEST(IrSsa, LoopHeadGetsPhiWithOnePerPredecessor) {
  ir::Function fn = ir::lift_code(diamond_loop_code());
  ASSERT_TRUE(ir::verify_function(fn).empty()) << ir::to_string(fn);
  // The loop head joins the entry path and the back edge: a phi for v0
  // with exactly preds.size() operands.
  bool found = false;
  for (const ir::Block& b : fn.blocks) {
    for (const ir::Phi& phi : b.phis) {
      if (phi.reg == 0 && b.preds.size() >= 2) {
        EXPECT_EQ(phi.args.size(), b.preds.size());
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no phi for v0 at a join:\n" << ir::to_string(fn);
}

TEST(IrSsa, VerifierRejectsDoubleDef) {
  ir::Function fn = ir::lift_code(diamond_loop_code());
  // Point two instruction defs at the same value.
  ir::ValueId victim = ir::kNoValue;
  for (ir::Block& b : fn.blocks) {
    for (ir::Inst& inst : b.insts) {
      if (inst.def == ir::kNoValue) continue;
      if (victim == ir::kNoValue) {
        victim = inst.def;
      } else {
        inst.def = victim;
        std::vector<std::string> errors = ir::verify_function(fn);
        ASSERT_FALSE(errors.empty());
        EXPECT_NE(errors.front().find("defined more than once"),
                  std::string::npos)
            << errors.front();
        return;
      }
    }
  }
  FAIL() << "needed two defining instructions";
}

TEST(IrSsa, VerifierRejectsPhiArityMismatch) {
  ir::Function fn = ir::lift_code(diamond_loop_code());
  for (ir::Block& b : fn.blocks) {
    if (b.phis.empty()) continue;
    b.phis.front().args.pop_back();
    std::vector<std::string> errors = ir::verify_function(fn);
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find("operands"), std::string::npos);
    return;
  }
  FAIL() << "no phi to mutilate";
}

TEST(IrSsa, VerifierRejectsUseNotDominatedByDef) {
  ir::Function fn = ir::lift_code(diamond_loop_code());
  // Find a value defined in a non-entry block and force an earlier block
  // to use it.
  for (const ir::Block& b : fn.blocks) {
    for (const ir::Inst& inst : b.insts) {
      if (inst.def == ir::kNoValue || b.id < 2) continue;
      for (ir::Block& earlier : fn.blocks) {
        if (earlier.id == 0 || earlier.id >= b.id || !earlier.reachable) {
          continue;
        }
        if (ir::dominates(ir::compute_idoms(fn), b.id, earlier.id)) continue;
        for (ir::Inst& e : earlier.insts) {
          if (e.uses.empty()) continue;
          e.uses[0] = inst.def;
          std::vector<std::string> errors = ir::verify_function(fn);
          ASSERT_FALSE(errors.empty());
          EXPECT_NE(errors.front().find("dominate"), std::string::npos)
              << errors.front();
          return;
        }
      }
    }
  }
  GTEST_SKIP() << "no candidate use site in this shape";
}

TEST(IrSsa, TypesInferredFromFormatsAndShorties) {
  // Structural: consts type as int/ref without any pool context.
  bc::MethodAssembler as(3, 1);
  as.const16(0, 7);
  as.const_null(1);
  as.binop(Op::kAdd, 0, 0, 0);
  as.return_value(0);
  ir::Function fn = ir::lift_code(as.finish());
  bool saw_int = false;
  bool saw_ref = false;
  for (const ir::Value& v : fn.values) {
    if (v.type == ir::TypeKind::kInt) saw_int = true;
    if (v.type == ir::TypeKind::kRef) saw_ref = true;
  }
  EXPECT_TRUE(saw_int);
  EXPECT_TRUE(saw_ref);

  // Shorty-driven: across DroidBench, argument registers of instance
  // methods pick up ref types ('this') and invoke results get typed.
  size_t typed_args = 0;
  dex::DexFile file = sample_classes(droidbench().samples.front());
  for_each_code_method(file, [&](const dex::MethodDef& m) {
    ir::Function lifted = ir::lift_method(file, m);
    for (const ir::Value& v : lifted.values) {
      if (v.def_inst == ir::kEntryDef && v.type == ir::TypeKind::kRef) {
        ++typed_args;
      }
    }
  });
  EXPECT_GT(typed_args, 0u);
}

// ---------------------------------------------------------------------------
// Lift→lower round trip
// ---------------------------------------------------------------------------

TEST(IrRoundtrip, ByteIdenticalAcrossDroidBench) {
  size_t methods = 0;
  for (const suite::Sample& sample : droidbench().samples) {
    dex::DexFile file = sample_classes(sample);
    for_each_code_method(file, [&](const dex::MethodDef& m) {
      ++methods;
      std::string error;
      ASSERT_TRUE(ir::roundtrip_identical(file, m, &error))
          << sample.name << " " << file.pretty_method(m.method_ref) << ": "
          << error;
    });
  }
  EXPECT_GT(methods, 200u);
}

TEST(IrRoundtrip, FuzzReplayCorpusSeedsRoundTrip) {
  // Every pinned replay names a deterministic seed app; those bodies must
  // round-trip byte-identically (the mutants themselves are re-oracled by
  // the FuzzRegressions suite with the IR stage enabled).
  namespace fs = std::filesystem;
  fs::path dir(DEXLEGO_FUZZ_DATA_DIR);
  ASSERT_TRUE(fs::exists(dir)) << dir;
  size_t corpus_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".lfz") continue;
    ++corpus_files;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    fuzz::ReplayFile replay = fuzz::deserialize(bytes);
    fuzz::SeedInput seed = fuzz::resolve_seed(replay.seed_key);
    dex::DexFile file = dex::read_dex(seed.apk.classes());
    for_each_code_method(file, [&](const dex::MethodDef& m) {
      std::string error;
      EXPECT_TRUE(ir::roundtrip_identical(file, m, &error))
          << replay.seed_key << " " << file.pretty_method(m.method_ref)
          << ": " << error;
    });
  }
  EXPECT_GT(corpus_files, 0u) << "pinned corpus missing";
}

bool traces_equal(const harness::ExecutionTrace& a,
                  const harness::ExecutionTrace& b, std::string* why) {
  if (a.sink_log != b.sink_log || a.leak_count != b.leak_count ||
      a.phases.size() != b.phases.size()) {
    *why = "trace mismatch:\n--- direct ---\n" + a.summary() +
           "\n--- lowered ---\n" + b.summary();
    return false;
  }
  for (size_t i = 0; i < a.phases.size(); ++i) {
    if (!(a.phases[i] == b.phases[i])) {
      *why = "phase " + a.phases[i].describe() + " vs " +
             b.phases[i].describe();
      return false;
    }
  }
  return true;
}

// Reveal each sample once, then: (a) the revealed bodies round-trip
// byte-identically — which is exactly why the ir_roundtrip reassembly path
// emits the same revealed files as the direct path; (b) a DCE'd revealed
// file stays trace-equivalent to the revealed one under both dispatch
// modes. Self-modifying samples are excluded from (b): their natives patch
// code units at hard-coded pcs, which DCE legitimately shifts.
TEST(IrRoundtrip, RevealedFilesRoundTripAndDcedTracesMatchAllTiers) {
  const rt::DispatchMode kModes[] = {rt::DispatchMode::kBaseline,
                                     rt::DispatchMode::kCached};
  size_t dce_checked = 0;
  size_t dce_changed = 0;
  for (const suite::Sample& sample : droidbench().samples) {
    core::DexLegoOptions options;
    options.configure_runtime = sample.configure_runtime;
    core::DexLego dexlego(options);
    core::RevealResult reveal = dexlego.reveal(sample.apk);
    ASSERT_TRUE(reveal.verified) << sample.name;

    dex::DexFile revealed = dex::read_dex(reveal.revealed_apk.classes());
    std::vector<std::string> errors;
    ir::RoundtripOptions identity;
    ir::RoundtripStats stats = ir::roundtrip_file(revealed, identity, &errors);
    ASSERT_TRUE(stats.clean())
        << sample.name << ": " << (errors.empty() ? "?" : errors.front());
    ASSERT_EQ(stats.byte_identical, stats.methods) << sample.name;

    if (sample.name.rfind("SelfMod", 0) == 0) continue;
    ++dce_checked;
    dex::DexFile optimized = dex::read_dex(reveal.revealed_apk.classes());
    ir::RoundtripOptions dce;
    dce.apply_dce = true;
    ir::RoundtripStats dce_stats = ir::roundtrip_file(optimized, dce, &errors);
    ASSERT_TRUE(dce_stats.clean())
        << sample.name << ": " << (errors.empty() ? "?" : errors.front());
    if (dce_stats.dce_methods_changed == 0) continue;
    ++dce_changed;
    dex::Apk dce_apk = reveal.revealed_apk;
    dce_apk.set_classes(dex::write_dex(optimized));
    for (rt::DispatchMode mode : kModes) {
      rt::RuntimeConfig config;
      config.dispatch = mode;
      harness::ExecutionTrace direct = harness::run_and_trace(
          reveal.revealed_apk, sample.configure_runtime, config);
      harness::ExecutionTrace lowered =
          harness::run_and_trace(dce_apk, sample.configure_runtime, config);
      std::string why;
      EXPECT_TRUE(traces_equal(direct, lowered, &why))
          << sample.name << " mode " << static_cast<int>(mode) << ": " << why;
    }
  }
  EXPECT_GT(dce_checked, 100u);
  EXPECT_GT(dce_changed, 0u)
      << "DCE never fired on any revealed file — pass is inert";
}

// ---------------------------------------------------------------------------
// Passes and lowering mechanics
// ---------------------------------------------------------------------------

TEST(IrPasses, DceRemovesDeadPureCode) {
  bc::MethodAssembler as(4, 0);
  as.const16(0, 1);        // live (returned)
  as.const16(1, 42);       // dead
  as.binop(Op::kAdd, 2, 1, 1);  // dead chain
  as.nop();                // dead by definition
  as.return_value(0);
  dex::CodeItem code = as.finish();

  ir::Function fn = ir::lift_code(code);
  ir::DceStats stats = ir::dead_code_elim(fn);
  EXPECT_GE(stats.insts_removed, 3u);
  EXPECT_GT(stats.units_removed, 0u);
  ASSERT_TRUE(ir::verify_function(fn).empty());

  dex::CodeItem lowered = ir::lower(fn);
  EXPECT_LT(lowered.insns.size(), code.insns.size());
  // The slimmed body must still decode end to end and re-lift cleanly.
  ir::Function relift = ir::lift_code(lowered);
  EXPECT_TRUE(ir::verify_function(relift).empty());
}

TEST(IrPasses, DceKeepsThrowingAndEffectfulCode) {
  bc::MethodAssembler as(4, 2);
  as.binop(Op::kDiv, 0, 2, 3);  // result unused but division can throw
  as.const16(1, 5);             // dead
  as.return_void();
  ir::Function fn = ir::lift_code(as.finish());
  ir::DceStats stats = ir::dead_code_elim(fn);
  EXPECT_EQ(stats.insts_removed, 1u);  // only the const dies
  bool div_alive = false;
  for (const ir::Block& b : fn.blocks) {
    for (const ir::Inst& inst : b.insts) {
      if (inst.src.op == Op::kDiv) div_alive = !inst.dead;
    }
  }
  EXPECT_TRUE(div_alive);
}

TEST(IrPasses, DceRetargetsBranchesOverRemovedCode) {
  bc::MethodAssembler as(4, 1);
  auto target = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfEqz, 3, target);
  as.const16(1, 99);  // dead filler on fallthrough path
  as.const16(2, 98);  // dead filler
  as.bind(target);
  as.return_value(0);
  dex::CodeItem code = as.finish();

  ir::Function fn = ir::lift_code(code);
  ir::DceStats stats = ir::dead_code_elim(fn);
  EXPECT_GE(stats.insts_removed, 2u);
  dex::CodeItem lowered = ir::lower(fn);
  EXPECT_LT(lowered.insns.size(), code.insns.size());
  // The if must now land exactly on the surviving return.
  ir::Function relift = ir::lift_code(lowered);
  EXPECT_TRUE(ir::verify_function(relift).empty()) << ir::to_string(relift);
}

TEST(IrLower, CopyInsertionForPassIntroducedValues) {
  // Simulate a pass that rewires a phi operand to a temporary with no
  // origin register: lowering must allocate a scratch register and insert
  // a move on the incoming edge.
  bc::MethodAssembler as(3, 1);
  auto join = as.make_label();
  auto other = as.make_label();
  as.const16(0, 1);
  as.if_testz(Op::kIfEqz, 2, other);
  as.goto_(join);
  as.bind(other);
  as.const16(0, 2);
  as.goto_(join);
  as.bind(join);
  as.return_value(0);
  ir::Function fn = ir::lift_code(as.finish());
  ASSERT_TRUE(ir::verify_function(fn).empty()) << ir::to_string(fn);

  bool rewired = false;
  for (ir::Block& b : fn.blocks) {
    for (ir::Phi& phi : b.phis) {
      if (phi.reg != 0 || phi.args.empty()) continue;
      // Detach the operand's register assignment.
      for (size_t i = 0; i < phi.args.size(); ++i) {
        ir::ValueId v = phi.args[i];
        if (v == ir::kNoValue) continue;
        if (fn.value(v).def_inst < 0) continue;  // keep entry/phi defs
        if (fn.blocks[b.preds[i]].succs.size() != 1) continue;
        fn.value(v).origin_reg = -1;
        rewired = true;
        break;
      }
      if (rewired) break;
    }
    if (rewired) break;
  }
  ASSERT_TRUE(rewired) << ir::to_string(fn);

  dex::CodeItem lowered = ir::lower(fn);
  EXPECT_GT(lowered.registers_size, 3u) << "no scratch register allocated";
  bool has_move = false;
  std::span<const uint16_t> units(lowered.insns);
  for (size_t pc = 0; pc < units.size();) {
    bc::Insn insn = bc::decode_at(units, pc);
    if (insn.op == Op::kMove) has_move = true;
    pc += bc::consumed_units(insn);
  }
  EXPECT_TRUE(has_move) << "no copy inserted";
  ir::Function relift = ir::lift_code(lowered);
  EXPECT_TRUE(ir::verify_function(relift).empty());
}

TEST(IrRoundtrip, SwitchPayloadAndTriesSurviveRoundTrip) {
  bc::MethodAssembler as(4, 1);
  auto c0 = as.make_label();
  auto c1 = as.make_label();
  auto done = as.make_label();
  auto handler = as.make_label();
  as.begin_try();
  as.packed_switch(3, 0, {c0, c1});
  as.end_try(handler);
  as.const16(0, 9);
  as.goto_(done);
  as.bind(c0);
  as.const16(0, 10);
  as.goto_(done);
  as.bind(c1);
  as.const16(0, 11);
  as.goto_(done);
  as.bind(handler);
  as.move_exception(1);
  as.const16(0, 12);
  as.bind(done);
  as.return_value(0);
  dex::CodeItem code = as.finish();

  ir::Function fn = ir::lift_code(code);
  ASSERT_TRUE(ir::verify_function(fn).empty()) << ir::to_string(fn);
  dex::CodeItem lowered = ir::lower(fn);
  EXPECT_EQ(code.insns, lowered.insns);
  ASSERT_EQ(code.tries.size(), lowered.tries.size());
  for (size_t i = 0; i < code.tries.size(); ++i) {
    EXPECT_EQ(code.tries[i].start_pc, lowered.tries[i].start_pc);
    EXPECT_EQ(code.tries[i].end_pc, lowered.tries[i].end_pc);
    EXPECT_EQ(code.tries[i].handler_pc, lowered.tries[i].handler_pc);
  }
}

// ---------------------------------------------------------------------------
// Threaded lift/lower (runs under TSan in ci.sh)
// ---------------------------------------------------------------------------

TEST(IrThreads, ParallelLiftLowerOverSharedFiles) {
  // Many threads lift and lower methods from the same immutable DexFiles;
  // TSan certifies there is no hidden shared mutable state in the IR path.
  std::vector<dex::DexFile> files;
  const auto& samples = droidbench().samples;
  for (size_t i = 0; i < samples.size() && i < 12; ++i) {
    files.push_back(sample_classes(samples[i]));
  }
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> done{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t % files.size(); i < files.size(); i += 2) {
        const dex::DexFile& file = files[i];
        for_each_code_method(file, [&](const dex::MethodDef& m) {
          std::string error;
          if (!ir::roundtrip_identical(file, m, &error)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(done.load(), 0u);
}

// ---------------------------------------------------------------------------
// SSA taint engine: recall/precision contract against the bytecode engine
// ---------------------------------------------------------------------------

TEST(IrTaint, SsaEngineKeepsRecallAndImprovesPrecision) {
  // Both engines share the interprocedural core, so on every sample the SSA
  // engine's flow set must be a subset of the bytecode engine's (it only
  // prunes provably dead branches), detection must never regress, and the
  // DeadBranch samples must lose their false positives under the two
  // path-insensitive presets.
  const std::vector<analysis::ToolConfig> configs = {
      analysis::flowdroid_config(), analysis::droidsafe_config(),
      analysis::horndroid_config()};

  struct Row {
    std::string config;
    std::string sample;
    size_t bc_flows;
    size_t ssa_flows;
  };
  std::vector<Row> improved;
  size_t pairs = 0;

  for (const analysis::ToolConfig& base : configs) {
    size_t bc_total = 0;
    size_t ssa_total = 0;
    for (const suite::Sample& sample : droidbench().samples) {
      analysis::ToolConfig ssa_cfg = base;
      ssa_cfg.engine = analysis::TaintEngine::kSsa;
      analysis::AnalysisResult bc_res =
          analysis::StaticAnalyzer(base).analyze_apk(sample.apk);
      analysis::AnalysisResult ssa_res =
          analysis::StaticAnalyzer(ssa_cfg).analyze_apk(sample.apk);
      ++pairs;
      bc_total += bc_res.flow_count();
      ssa_total += ssa_res.flow_count();

      // Precision: the SSA engine never invents a flow.
      for (const analysis::Flow& flow : ssa_res.flows) {
        EXPECT_TRUE(bc_res.flows.contains(flow))
            << base.name << "/" << sample.name << ": SSA-only flow "
            << flow.source << " -> " << flow.sink;
      }
      // Recall: every bytecode detection survives.
      if (bc_res.leak_detected() && sample.leaky) {
        EXPECT_TRUE(ssa_res.leak_detected())
            << base.name << "/" << sample.name << ": SSA engine lost the leak";
      }
      if (ssa_res.flow_count() < bc_res.flow_count()) {
        improved.push_back(
            {base.name, sample.name, bc_res.flow_count(), ssa_res.flow_count()});
      }
    }
    printf("[ taint ] %-9s bytecode=%zu flows  ssa=%zu flows\n", base.name.c_str(),
           bc_total, ssa_total);
  }

  printf("[ taint ] %-9s %-16s %8s %8s\n", "config", "sample", "bytecode",
         "ssa");
  for (const Row& row : improved) {
    printf("[ taint ] %-9s %-16s %8zu %8zu\n", row.config.c_str(),
           row.sample.c_str(), row.bc_flows, row.ssa_flows);
  }
  EXPECT_EQ(pairs, 3 * droidbench().samples.size());

  // Strict improvement on the flow-sensitivity samples: the constant-false
  // branch FPs disappear under the path-insensitive presets too.
  auto improved_on = [&](const std::string& config, const std::string& sample) {
    for (const Row& row : improved) {
      if (row.config == config && row.sample == sample && row.ssa_flows == 0) {
        return true;
      }
    }
    return false;
  };
  for (const char* sample : {"DeadBranch1", "DeadBranch2"}) {
    EXPECT_TRUE(improved_on("FlowDroid", sample)) << sample;
    EXPECT_TRUE(improved_on("DroidSafe", sample)) << sample;
  }
}

TEST(IrTaint, SsaEnginePrunesConstantBranchInAssembledMethod) {
  // Minimal DeadBranch shape: const 0, if-nez into the leaking region. The
  // bytecode engine (path-insensitive preset) walks the dead branch; the SSA
  // engine's executable-edge marking never reaches it.
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Landroid/telephony/TelephonyManager;",
                                 "getDeviceId", "Ljava/lang/String;", {});
  uint32_t sink = b.intern_method("Landroid/util/Log;", "i", "V",
                                  {"Ljava/lang/String;"});
  b.start_class("Lt/Dead;", "Landroid/app/Activity;");
  bc::MethodAssembler as(3, 1);
  auto dead = as.make_label();
  auto end = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, dead);
  as.goto_(end);
  as.bind(dead);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(sink), {0});
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::DexFile file = std::move(b).build();

  analysis::ToolConfig bc_cfg = analysis::flowdroid_config();
  analysis::ToolConfig ssa_cfg = analysis::flowdroid_config();
  ssa_cfg.engine = analysis::TaintEngine::kSsa;
  EXPECT_TRUE(analysis::StaticAnalyzer(bc_cfg).analyze(file).leak_detected());
  EXPECT_FALSE(analysis::StaticAnalyzer(ssa_cfg).analyze(file).leak_detected());
}

TEST(IrPipeline, BatchIrRoundtripStageCountsEveryMethodByteIdentical) {
  // The optional pipeline stage (enable_ir_roundtrip / dexlego_batch
  // --ir-roundtrip): every reassembled body across a droidbench slice must
  // lift→lower byte-identically, and the counts must surface through
  // JobResult::reassemble into the fleet roll-up.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  jobs.resize(16);
  pipeline::enable_ir_roundtrip(jobs);
  pipeline::BatchOptions options;
  options.threads = 2;
  pipeline::BatchReport report = pipeline::run_batch(jobs, options);
  ASSERT_EQ(report.fleet.ok, jobs.size());
  EXPECT_GT(report.fleet.ir_methods, 0u);
  EXPECT_EQ(report.fleet.ir_byte_identical, report.fleet.ir_methods);
  EXPECT_EQ(report.fleet.ir_failed, 0u);
  for (const pipeline::JobResult& job : report.jobs) {
    EXPECT_GT(job.reassemble.ir_methods, 0u) << job.name;
    EXPECT_EQ(job.reassemble.ir_failed, 0u) << job.name;
  }
}

TEST(IrPipeline, ReassembleWithoutFlagLeavesIrCountersZero) {
  // The stage is strictly opt-in: a default reassemble must not pay for (or
  // report) IR round-trips.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  jobs.resize(2);
  pipeline::BatchReport report = pipeline::run_batch(jobs, {});
  ASSERT_EQ(report.fleet.ok, jobs.size());
  EXPECT_EQ(report.fleet.ir_methods, 0u);
  EXPECT_EQ(report.fleet.ir_byte_identical, 0u);
  EXPECT_EQ(report.fleet.ir_failed, 0u);
}

}  // namespace
}  // namespace dexlego

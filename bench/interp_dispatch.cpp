// Interpreter dispatch throughput of the two modes — decode-every-step
// (DispatchMode::kBaseline, reported as "fallback") and the predecoded
// cached path ("cached") — over two workloads:
//
//   hot_loop — a tight loop exercising every inline cache the cached path
//              adds (const-string, sget/sput, invoke-static, monomorphic
//              invoke-virtual) plus a dispatch-heavy unrolled stretch of
//              cmp+branch and const+move pairs and one iget+invoke pair;
//   self_mod — the same loop with a native patching a const literal every
//              iteration through RtMethod::patch_code_unit, measuring
//              per-iteration targeted invalidation.
//
// Each line prefixed BENCH_JSON is machine-readable; ci.sh collects them
// into BENCH_interp.json and relies on the exit code: non-zero when cached
// falls below the --min-speedup multiple of fallback on either workload
// (ARCHITECTURE invariant 11 — the cached mode must pay for itself).
//
// Usage: interp_dispatch [--loops N] [--reps R] [--min-speedup X]
//   --min-speedup  cached vs fallback gate, applied to both workloads
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/runtime/runtime.h"

using namespace dexlego;
using bc::MethodAssembler;
using bc::Op;

namespace {

struct Workload {
  std::vector<uint8_t> dex_bytes;
  bool self_mod = false;
};

// Lbench/Hot; with a spin(n) loop touching every cached resolution kind.
Workload build_hot_loop(bool self_mod) {
  dex::DexBuilder b;
  const std::string cls = "Lbench/Hot;";
  uint32_t acc = b.intern_field(cls, "I", "acc");
  uint32_t fld = b.intern_field(cls, "I", "f");
  uint32_t step_m = b.intern_method(cls, "step", "I", {"I"});
  uint32_t vstep_m = b.intern_method(cls, "vstep", "I", {"I"});
  uint32_t bump_m = b.intern_method(cls, "bump", "V", {});
  uint32_t key = b.intern_string("bench/hot-key");

  b.start_class(cls);
  b.add_static_field("acc", "I", dex::DexBuilder::int_value(0));
  b.add_instance_field("f", "I");
  {
    MethodAssembler as(2, 1);  // static step(v1) -> v1 + 3
    as.add_lit8(0, 1, 3);
    as.return_value(0);
    b.add_direct_method("step", "I", {"I"}, as.finish());
  }
  {
    MethodAssembler as(3, 2);  // virtual vstep(this v1, n v2) -> n * 2
    as.mul_lit8(0, 2, 2);
    as.return_value(0);
    b.add_virtual_method("vstep", "I", {"I"}, as.finish());
  }
  if (self_mod) b.add_native_method("bump", "V", {});
  {
    // virtual spin(this v8, n v9): the measured loop.
    MethodAssembler as(10, 2);
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(0, 0);  // i
    as.bind(loop);
    as.if_test(Op::kIfGe, 0, 9, done);
    as.const_string(1, static_cast<uint16_t>(key));
    as.sget(2, static_cast<uint16_t>(acc));
    as.const16(3, 7);  // self_mod: bump() rewrites this literal
    as.binop(Op::kAdd, 2, 2, 3);
    as.sput(2, static_cast<uint16_t>(acc));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(step_m), {0});
    as.move_result(4);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(vstep_m), {8, 4});
    as.move_result(4);
    // Dispatch-heavy stretch — an unrolled run of cmp+branch and const+move
    // pairs, plus one iget+invoke pair per iteration.
    for (int u = 0; u < 64; ++u) {
      as.binop(Op::kCmp, 6, 0, 9);       // i < n in the body...
      as.if_testz(Op::kIfGez, 6, done);  // ...so this branch never takes
      as.const16(7, 5);
      as.move(6, 7);
    }
    as.iget(7, 8, static_cast<uint16_t>(fld));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(step_m), {7});
    as.move_result(7);
    if (self_mod) as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(bump_m), {8});
    as.add_lit8(0, 0, 1);
    as.goto_(loop);
    as.bind(done);
    as.sget(5, static_cast<uint16_t>(acc));
    as.return_value(5);
    b.add_virtual_method("spin", "I", {"I"}, as.finish());
  }

  Workload w;
  w.dex_bytes = dex::write_dex(std::move(b).build());
  w.self_mod = self_mod;
  return w;
}

struct Measurement {
  uint64_t steps = 0;
  double wall_ms = 0.0;
  double insns_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(steps) / (wall_ms / 1e3) : 0.0;
  }
};

// One live runtime with the workload installed and warmed, ready to be
// measured repeatedly. Keeping both modes' runners alive and alternating
// measurements de-correlates machine noise from the mode (a noise burst
// hits every side instead of whichever mode ran last).
struct Runner {
  std::unique_ptr<rt::Runtime> runtime;
  rt::RtMethod* spin = nullptr;
  rt::Object* self = nullptr;

  Measurement measure(int loops) {
    uint64_t before = runtime->interp().steps();
    support::Stopwatch sw;
    rt::ExecOutcome out = runtime->interp().invoke(
        *spin, {rt::Value::Ref(self), rt::Value::Int(loops)});
    double wall = sw.elapsed_ms();
    if (!out.completed) {
      std::fprintf(stderr, "workload did not complete: %s\n",
                   out.abort_reason.c_str());
      std::exit(2);
    }
    return {runtime->interp().steps() - before, wall};
  }
};

Runner make_runner(const Workload& w, rt::DispatchMode mode) {
  rt::RuntimeConfig cfg;
  cfg.dispatch = mode;
  Runner r;
  r.runtime = std::make_unique<rt::Runtime>(cfg);
  rt::Runtime& runtime = *r.runtime;
  if (w.self_mod) {
    // Patches the loop's const/16 literal every call — an announced
    // self-modification the cached path must absorb without rebuilds.
    runtime.register_native(
        "Lbench/Hot;->bump", [](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtClass* cls = ctx.runtime.linker().find_loaded("Lbench/Hot;");
          if (cls == nullptr) return rt::Value::Null();
          rt::RtMethod* spin = cls->find_declared("spin");
          // const/16 v3 is patched every call; locate it by scanning for the
          // opcode with a=3 once, then patch its literal.
          static thread_local size_t lit_pc = 0;
          if (lit_pc == 0 && spin != nullptr && spin->code) {
            std::span<const uint16_t> insns(spin->code->insns);
            for (size_t pc = 0; pc < insns.size();) {
              bc::Insn insn = bc::decode_at(insns, pc);
              if (insn.op == bc::Op::kConst16 && insn.a == 3) {
                lit_pc = pc;
                break;
              }
              pc += insn.width;
            }
          }
          if (spin != nullptr && spin->code && lit_pc != 0) {
            uint16_t cur = spin->code->insns[lit_pc + 1];
            spin->patch_code_unit(lit_pc + 1, static_cast<uint16_t>(cur ^ 2));
          }
          return rt::Value::Null();
        });
  }
  const rt::DexImage& image =
      runtime.load_dex_buffer(w.dex_bytes, "bench:interp_dispatch");
  (void)image;
  rt::RtClass* cls = runtime.linker().ensure_initialized("Lbench/Hot;");
  if (cls == nullptr) {
    std::fprintf(stderr, "workload class failed to load\n");
    std::exit(2);
  }
  r.self =
      runtime.heap().new_instance(cls, cls->descriptor, cls->instance_slot_count);
  r.spin = cls->find_declared("spin");

  // Warm-up call so both modes measure steady state (caches built, classes
  // initialized, field resolutions memoized) rather than first-run setup.
  runtime.interp().invoke(*r.spin, {rt::Value::Ref(r.self), rt::Value::Int(100)});
  return r;
}

const char* mode_name(rt::DispatchMode mode) {
  return mode == rt::DispatchMode::kCached ? "cached" : "fallback";
}

constexpr rt::DispatchMode kModes[] = {rt::DispatchMode::kBaseline,
                                       rt::DispatchMode::kCached};
constexpr int kModeCount = 2;

// Per-mode measurements for one workload, fallback first.
struct ModeResults {
  Measurement m[kModeCount];
  double cached_vs_fallback() const {
    return m[0].insns_per_sec() > 0.0
               ? m[1].insns_per_sec() / m[0].insns_per_sec()
               : 0.0;
  }
};

// Best-of-`reps`, alternating the runners each rep.
ModeResults measure_modes(Runner* runners, int loops, int reps) {
  ModeResults best;
  for (int i = 0; i < reps; ++i) {
    for (int t = 0; t < kModeCount; ++t) {
      Measurement m = runners[t].measure(loops);
      if (best.m[t].wall_ms == 0.0 ||
          m.insns_per_sec() > best.m[t].insns_per_sec()) {
        best.m[t] = m;
      }
    }
  }
  return best;
}

void report(const char* workload, rt::DispatchMode mode, int loops,
            const Measurement& m) {
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.0f", m.insns_per_sec());
  bench::print_row({workload, mode_name(mode), std::to_string(m.steps),
                    std::to_string(m.wall_ms).substr(0, 6), rate},
                   {12, 10, 12, 10, 14});
  std::printf(
      "BENCH_JSON {\"bench\":\"interp_dispatch\",\"workload\":\"%s\","
      "\"mode\":\"%s\",\"loops\":%d,\"steps\":%llu,\"wall_ms\":%.3f,"
      "\"insns_per_sec\":%.0f}\n",
      workload, mode_name(mode), loops,
      static_cast<unsigned long long>(m.steps), m.wall_ms, m.insns_per_sec());
}

// Workload summary line + gate: cached must beat fallback by min_speedup.
// Returns pass.
bool summarize(const char* workload, const ModeResults& r, double min_speedup) {
  double cf = r.cached_vs_fallback();
  bool pass = cf >= min_speedup;
  std::printf("\n%s speedup: cached vs fallback %.2fx (min %.2f)\n", workload,
              cf, min_speedup);
  std::printf(
      "BENCH_JSON {\"bench\":\"interp_dispatch\",\"workload\":\"%s\","
      "\"speedup_cached_vs_fallback\":%.3f,\"min_required\":%.2f,"
      "\"pass\":%s}\n",
      workload, cf, min_speedup, pass ? "true" : "false");
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: %s cached vs fallback %.2fx, below the %.2fx gate\n",
                 workload, cf, min_speedup);
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  int loops = 300000;
  int reps = 3;
  double min_speedup = 1.0;  // cached vs fallback, both workloads
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--loops") == 0 && i + 1 < argc) {
      loops = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    }
  }
  if (loops < 1) loops = 1;
  if (reps < 1) reps = 1;

  bench::print_header("Interpreter dispatch (fallback vs cached)");
  bench::print_row({"Workload", "Mode", "Steps", "Wall ms", "Insns/sec"},
                   {12, 10, 12, 10, 14});

  Workload hot = build_hot_loop(false);
  Runner hot_runners[kModeCount];
  for (int t = 0; t < kModeCount; ++t) {
    hot_runners[t] = make_runner(hot, kModes[t]);
  }
  ModeResults hot_r = measure_modes(hot_runners, loops, reps);
  for (int t = 0; t < kModeCount; ++t) {
    report("hot_loop", kModes[t], loops, hot_r.m[t]);
  }

  // Self-modifying variant: announced per-iteration patches.
  int sm_loops = loops / 10 > 0 ? loops / 10 : 1;
  Workload sm = build_hot_loop(true);
  Runner sm_runners[kModeCount];
  for (int t = 0; t < kModeCount; ++t) {
    sm_runners[t] = make_runner(sm, kModes[t]);
  }
  ModeResults sm_r = measure_modes(sm_runners, sm_loops, reps);
  for (int t = 0; t < kModeCount; ++t) {
    report("self_mod", kModes[t], sm_loops, sm_r.m[t]);
  }

  bool ok = summarize("hot_loop", hot_r, min_speedup);
  ok = summarize("self_mod", sm_r, min_speedup) && ok;
  return ok ? 0 : 1;
}

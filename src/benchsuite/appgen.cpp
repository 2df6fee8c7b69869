#include "src/benchsuite/appgen.h"

#include <optional>

#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"

namespace dexlego::suite {

using bc::MethodAssembler;
using bc::Op;

namespace {

constexpr const char* kStr = "Ljava/lang/String;";
constexpr const char* kObj = "Ljava/lang/Object;";

// "m<i>", the i-th generated method of a class. Built by appending: GCC 12
// at -O3 reports a -Wrestrict false positive on a one-letter literal +
// std::to_string once inlined.
std::string method_name(size_t i) {
  std::string name = "m";
  name += std::to_string(i);
  return name;
}

uint16_t m(dex::DexBuilder& b, const std::string& cls, const std::string& name,
           const std::string& ret, const std::vector<std::string>& params) {
  return static_cast<uint16_t>(b.intern_method(cls, name, ret, params));
}

// Emits one pseudo-random code block into `as`; returns roughly the number
// of units emitted. Register protocol: v0 = accumulator, v1-v3 scratch,
// param register passed by caller. full_cov blocks execute BOTH branch sides
// in a single run via 2-iteration alternating loops. pool_free restricts the
// mix to blocks without pool references (no const-string/invoke), so the
// raw code units are identical across apps whose pools differ — the
// property shared-library bodies need to dedup fleet-wide.
void emit_block(dex::DexBuilder& b, MethodAssembler& as, support::Rng& rng,
                bool full_cov, uint32_t line, bool pool_free = false) {
  as.line(line);
  switch (rng.below(pool_free ? 4 : 5)) {
    case 0: {  // arithmetic run
      as.const16(1, static_cast<int16_t>(rng.range(1, 999)));
      as.binop(Op::kAdd, 0, 0, 1);
      as.mul_lit8(1, 1, static_cast<int8_t>(rng.range(2, 9)));
      as.binop(Op::kXor, 0, 0, 1);
      as.add_lit8(0, 0, static_cast<int8_t>(rng.range(-9, 9)));
      break;
    }
    case 1: {  // bounded loop
      auto loop = as.make_label();
      auto done = as.make_label();
      as.const16(1, 0);
      as.const16(2, static_cast<int16_t>(rng.range(2, 5)));
      as.bind(loop);
      as.if_test(Op::kIfGe, 1, 2, done);
      as.binop(Op::kAdd, 0, 0, 1);
      as.add_lit8(1, 1, 1);
      as.goto_(loop);
      as.bind(done);
      break;
    }
    case 2: {  // branch pair
      if (full_cov) {
        // for (t = 0; t < 2; ++t) { if (t == 0) B else A } — both sides run.
        auto loop = as.make_label();
        auto done = as.make_label();
        auto other = as.make_label();
        auto cont = as.make_label();
        as.const16(1, 0);
        as.const16(2, 2);
        as.bind(loop);
        as.if_test(Op::kIfGe, 1, 2, done);
        as.if_testz(Op::kIfEqz, 1, other);
        as.add_lit8(0, 0, 3);
        as.goto_(cont);
        as.bind(other);
        as.add_lit8(0, 0, 5);
        as.bind(cont);
        as.add_lit8(1, 1, 1);
        as.goto_(loop);
        as.bind(done);
      } else {
        auto other = as.make_label();
        auto cont = as.make_label();
        as.const16(1, static_cast<int16_t>(rng.range(0, 9)));
        as.if_test(Op::kIfLt, 0, 1, other);
        as.add_lit8(0, 0, 7);
        as.goto_(cont);
        as.bind(other);
        as.add_lit8(0, 0, -2);
        as.bind(cont);
      }
      break;
    }
    case 3: {  // switch over a loop counter (all cases execute in full_cov)
      auto loop = as.make_label();
      auto done = as.make_label();
      auto c0 = as.make_label();
      auto c1 = as.make_label();
      auto cont = as.make_label();
      as.const16(1, 0);
      as.const16(2, full_cov ? 3 : 1);
      as.bind(loop);
      as.if_test(Op::kIfGe, 1, 2, done);
      as.packed_switch(1, 0, {c0, c1});
      as.add_lit8(0, 0, 1);  // default
      as.goto_(cont);
      as.bind(c0);
      as.add_lit8(0, 0, 2);
      as.goto_(cont);
      as.bind(c1);
      as.add_lit8(0, 0, 4);
      as.bind(cont);
      as.add_lit8(1, 1, 1);
      as.goto_(loop);
      as.bind(done);
      break;
    }
    default: {  // string plumbing
      uint32_t s = b.intern_string("blk" + std::to_string(rng.below(64)));
      as.const_string(3, static_cast<uint16_t>(s));
      as.invoke(Op::kInvokeVirtual, m(b, kStr, "length", "I", {}), {3});
      as.move_result(1);
      as.binop(Op::kAdd, 0, 0, 1);
      break;
    }
  }
}

// Generates a static method "I f(I)" of roughly `units` code units that ends
// by calling `next` (if any) and returning the accumulator.
dex::CodeItem gen_method(dex::DexBuilder& b, support::Rng& rng, size_t units,
                         std::optional<uint16_t> next, bool full_cov,
                         bool with_try, uint32_t base_line,
                         bool pool_free = false) {
  MethodAssembler as(8, 1);  // param in v7
  as.line(base_line);
  as.move(0, 7);
  uint32_t line = base_line;
  if (with_try) {
    // try { arithmetic } catch { unreached } — the handler instructions stay
    // uncovered even under forcing (paper's cause 3 of missed coverage).
    auto handler = as.make_label();
    auto after = as.make_label();
    as.begin_try();
    as.const16(1, 100);
    as.binop(Op::kAdd, 0, 0, 1);
    as.end_try(handler);
    as.goto_(after);
    as.bind(handler);
    as.move_exception(1);
    as.add_lit8(0, 0, -1);
    as.add_lit8(0, 0, -1);
    as.bind(after);
  }
  while (as.current_pc() + 26 < units) {
    emit_block(b, as, rng, full_cov, ++line, pool_free);
  }
  while (as.current_pc() + 4 < units) {  // pad toward the exact size target
    as.const16(1, static_cast<int16_t>(rng.range(1, 99)));
    as.binop(Op::kAdd, 0, 0, 1);
  }
  if (next) {
    as.invoke(Op::kInvokeStatic, *next, {0});
    as.move_result(0);
  }
  as.return_value(0);
  return as.finish();
}

struct SrcSink {
  const char* src_cls;
  const char* src_m;
  const char* snk_cls;
  const char* snk_m;
};

void add_leak_method(dex::DexBuilder& b, int index,
                     const SrcSink& ss) {
  MethodAssembler as(3, 0);
  as.invoke(Op::kInvokeStatic, m(b, ss.src_cls, ss.src_m, kStr, {}), {});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, m(b, ss.snk_cls, ss.snk_m, "V", {kStr}), {0});
  as.return_void();
  b.add_direct_method("leak" + std::to_string(index), "V", {}, as.finish());
}

// --- hostile-app features (AppSpec fuzz knobs, docs/FUZZING.md) ------------

std::string xor_encode(std::string s, int key) {
  for (char& c : s) c = static_cast<char>(c ^ key);
  return s;
}

// Dispatch chain m1 -> m2 -> ... -> Log.i, entered reflectively from
// onCreate with xor-encoded names (the obf-reflection DroidBench shape).
void add_reflection_maze(dex::DexBuilder& b, const std::string& maze_cls,
                         int depth, uint64_t seed) {
  b.start_class(maze_cls);
  for (int i = depth; i >= 1; --i) {
    MethodAssembler as(3, 0);
    if (i == depth) {
      uint32_t msg = b.intern_string("maze-end-" + std::to_string(seed));
      as.const_string(0, static_cast<uint16_t>(msg));
      as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}),
                {0});
    } else {
      as.invoke(Op::kInvokeStatic,
                m(b, maze_cls, "m" + std::to_string(i + 1), "V", {}), {});
    }
    as.return_void();
    b.add_direct_method("m" + std::to_string(i), "V", {}, as.finish());
  }
}

// The paper's Code 1 shape on the main activity: smDrive loops twice calling
// smNormal(payload) then a tamper native that swaps the call target to
// smCovert (which logs the payload) and back. Returns the pc of the
// swappable invoke inside smDrive.
size_t add_self_mod_methods(dex::DexBuilder& b, const std::string& main,
                            uint64_t seed) {
  uint16_t norm_m = m(b, main, "smNormal", "V", {kStr});
  m(b, main, "smCovert", "V", {kStr});  // interned so the tamper can name it
  b.add_native_method("smTamper", "V", {"I"});
  uint16_t tamper_m = m(b, main, "smTamper", "V", {"I"});
  {
    MethodAssembler as(2, 2);
    as.return_void();
    b.add_virtual_method("smNormal", "V", {kStr}, as.finish());
  }
  {
    MethodAssembler as(3, 2);  // this v1, param v2
    as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}),
              {2});
    as.return_void();
    b.add_virtual_method("smCovert", "V", {kStr}, as.finish());
  }
  size_t call_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    uint32_t payload = b.intern_string("sm-payload-" + std::to_string(seed));
    as.const_string(0, static_cast<uint16_t>(payload));
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    call_pc = as.current_pc();
    as.invoke(Op::kInvokeVirtual, norm_m, {3, 0});
    as.invoke(Op::kInvokeVirtual, tamper_m, {3, 1});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("smDrive", "V", {}, as.finish());
  }
  return call_pc;
}

}  // namespace

GeneratedApp generate_app(const AppSpec& spec) {
  support::Rng rng(spec.seed);
  dex::DexBuilder b;
  std::string pkg_path = spec.package;
  for (char& c : pkg_path) {
    if (c == '.') c = '/';
  }
  std::string main = "L" + pkg_path + "/Main;";

  // Partition the unit budget.
  size_t guarded_units =
      static_cast<size_t>(static_cast<double>(spec.target_units) * spec.guarded_fraction);
  size_t dead_units =
      static_cast<size_t>(static_cast<double>(spec.target_units) * spec.dead_fraction);
  size_t library_units =
      spec.library_seeds.empty()
          ? 0
          : static_cast<size_t>(static_cast<double>(spec.target_units) *
                                spec.library_fraction);
  size_t carved = guarded_units + dead_units + library_units;
  size_t base_units = spec.target_units > carved + 120
                          ? spec.target_units - carved - 120
                          : 60;

  constexpr size_t kMethodUnits = 150;
  constexpr size_t kMethodsPerClass = 6;

  // Builds classes covering `units`; each class gets an `entry(I)I` that
  // calls its methods sequentially (call depth stays 2, regardless of app
  // size). Returns the entry method ids. `gen` drives body generation:
  // library partitions pass a seed-pinned Rng so the same library seed
  // yields the same body stream in every app embedding it, while the app's
  // own partitions consume the app rng as before.
  auto build_classes = [&](const std::string& prefix, size_t units,
                           bool full_cov, support::Rng& gen, bool pool_free,
                           size_t method_units) -> std::vector<uint16_t> {
    std::vector<uint16_t> entries;
    // Entry methods, dispatch glue and onCreate guards add ~10% on top of
    // the generated bodies; compensate so totals land on the target.
    size_t adjusted = units - units / 10;
    size_t n_methods =
        std::max<size_t>(1, (adjusted + method_units / 2) / method_units);
    size_t n_classes = (n_methods + kMethodsPerClass - 1) / kMethodsPerClass;
    for (size_t c = 0; c < n_classes; ++c) {
      std::string cls =
          "L" + pkg_path + "/" + prefix + "C" + std::to_string(c) + ";";
      size_t in_class =
          std::min(kMethodsPerClass, n_methods - c * kMethodsPerClass);
      b.start_class(cls);
      for (size_t i = 0; i < in_class; ++i) {
        // Unreachable catch handlers would break the Table I full-inclusion
        // property, so they only appear in non-full-coverage apps.
        bool with_try = !full_cov && gen.chance(0.1);
        dex::CodeItem code = gen_method(
            b, gen, method_units, std::nullopt, full_cov, with_try,
            static_cast<uint32_t>(100 * (c + 1) + i * 10), pool_free);
        b.add_direct_method(method_name(i), "I", {"I"}, std::move(code));
      }
      MethodAssembler as(8, 1);  // param in v7
      as.move(0, 7);
      for (size_t i = 0; i < in_class; ++i) {
        as.invoke(Op::kInvokeStatic, m(b, cls, method_name(i), "I", {"I"}),
                  {0});
        as.move_result(0);
      }
      as.return_value(0);
      b.add_direct_method("entry", "I", {"I"}, as.finish());
      entries.push_back(m(b, cls, "entry", "I", {"I"}));
    }
    return entries;
  };

  // Library partition first: bodies come from the library seeds' own rng
  // streams (pool-free, so raw units match across apps — see emit_block),
  // split evenly across the listed seeds. Entry glue still names this app's
  // classes, mirroring how real apps link the same library differently.
  std::vector<uint16_t> library_entries;
  if (library_units > 0) {
    // Library methods are small helpers (~kMethodUnits/2), so one embedded
    // library contributes several dedup-able bodies, not one monolith.
    size_t per_library = library_units / spec.library_seeds.size();
    for (size_t k = 0; k < spec.library_seeds.size() && per_library > 60; ++k) {
      support::Rng lib_rng(spec.library_seeds[k]);
      std::vector<uint16_t> entries =
          build_classes("Lib" + std::to_string(k), per_library,
                        spec.full_coverage_style, lib_rng, /*pool_free=*/true,
                        kMethodUnits / 2);
      library_entries.insert(library_entries.end(), entries.begin(),
                             entries.end());
    }
  }

  std::vector<uint16_t> base_entries =
      build_classes("Base", base_units, spec.full_coverage_style, rng,
                    /*pool_free=*/false, kMethodUnits);
  std::vector<uint16_t> guarded_entries;
  if (guarded_units > 60) {
    guarded_entries = build_classes("Guarded", guarded_units,
                                    spec.full_coverage_style, rng,
                                    /*pool_free=*/false, kMethodUnits);
  }
  if (dead_units > 60) {
    build_classes("Dead", dead_units, spec.full_coverage_style, rng,
                  /*pool_free=*/false, kMethodUnits);  // never called
  }

  std::string maze_cls = "L" + pkg_path + "/Maze;";
  if (spec.reflection_maze > 0) {
    add_reflection_maze(b, maze_cls, spec.reflection_maze, spec.seed);
  }

  // Leak methods (Table V): device id first, then the app's assigned mix.
  std::vector<SrcSink> leak_specs = {
      {"Landroid/telephony/TelephonyManager;", "getDeviceId",
       "Ldexlego/api/Network;", "send"},
      {"Landroid/telephony/TelephonyManager;", "getDeviceId",
       "Landroid/util/Log;", "i"},
      {"Landroid/location/LocationManager;", "getLastKnownLocation",
       "Ldexlego/api/Network;", "send"},
      {"Landroid/net/wifi/WifiInfo;", "getSSID", "Ldexlego/api/Network;", "send"},
      {"Landroid/provider/ContactsContract;", "query", "Landroid/util/Log;", "i"},
  };

  b.start_class(main, "Landroid/app/Activity;");
  if (spec.leak_flows > 0) {
    // Leak methods live on the activity class, each a distinct flow site.
    for (int i = 0; i < spec.leak_flows; ++i) {
      add_leak_method(b, i, leak_specs[static_cast<size_t>(i) % leak_specs.size()]);
    }
  }
  size_t sm_call_pc = 0;
  if (spec.self_modifying) {
    sm_call_pc = add_self_mod_methods(b, main, spec.seed);
  }
  {
    MethodAssembler as(5, 1);  // this in v4
    as.line(10);
    if (spec.render_frames_k > 0) {
      as.const16(0, static_cast<int16_t>(spec.render_frames_k));
      as.invoke(Op::kInvokeStatic,
                m(b, "Landroid/view/Choreographer;", "renderFrames", "V", {"I"}),
                {0});
    }
    as.const16(0, 1);
    // Opaque-true guard stack: each level recomputes the same value two ways
    // and branches to skip on the (never-true) mismatch, so static CFGs gain
    // depth while runtime behaviour stays identical.
    std::optional<MethodAssembler::Label> hostile_skip;
    if (spec.guard_stack > 0) {
      hostile_skip = as.make_label();
      for (int g = 0; g < spec.guard_stack; ++g) {
        int16_t anchor = static_cast<int16_t>(
            101 + (spec.seed + static_cast<uint64_t>(g) * 37) % 997);
        int8_t delta = static_cast<int8_t>(1 + g % 7);
        as.const16(1, anchor);
        as.add_lit8(2, 1, delta);
        as.add_lit8(2, 2, static_cast<int8_t>(-delta));
        as.if_test(Op::kIfNe, 1, 2, *hostile_skip);
      }
    }
    for (uint16_t entry : library_entries) {
      as.invoke(Op::kInvokeStatic, entry, {0});
      as.move_result(0);
    }
    for (uint16_t entry : base_entries) {
      as.invoke(Op::kInvokeStatic, entry, {0});
      as.move_result(0);
    }
    if (hostile_skip.has_value()) as.bind(*hostile_skip);
    for (int i = 0; i < spec.leak_flows; ++i) {
      as.invoke(Op::kInvokeStatic,
                m(b, main, "leak" + std::to_string(i), "V", {}), {});
    }
    // One semantic input guard per guarded class: reachable only when the
    // corresponding text field holds the app-specific magic value — random
    // fuzzing essentially never satisfies it; force execution flips it.
    for (size_t g = 0; g < guarded_entries.size(); ++g) {
      auto skip = as.make_label();
      uint32_t magic = b.intern_string("magic-" + std::to_string(spec.seed) +
                                       "-" + std::to_string(g));
      as.const16(0, static_cast<int16_t>(3 + g));
      as.invoke(Op::kInvokeVirtual,
                m(b, "Landroid/app/Activity;", "findViewById",
                  "Landroid/view/View;", {"I"}),
                {4, 0});
      as.move_result(0);
      as.invoke(Op::kInvokeVirtual,
                m(b, "Landroid/widget/EditText;", "getText", kStr, {}), {0});
      as.move_result(0);
      as.const_string(1, static_cast<uint16_t>(magic));
      as.invoke(Op::kInvokeVirtual, m(b, kStr, "equals", "I", {kStr}), {0, 1});
      as.move_result(1);
      as.if_testz(Op::kIfEqz, 1, skip);
      as.const16(0, 1);
      as.invoke(Op::kInvokeStatic, guarded_entries[g], {0});
      as.move_result(0);
      as.bind(skip);
    }
    if (spec.reflection_maze > 0) {
      int key = spec.reflection_key & 0x7f;
      if (key == 0) key = 7;
      uint16_t xor_m =
          m(b, "Ldexlego/api/Crypto;", "xorDecode", kStr, {kStr, "I"});
      uint16_t forname =
          m(b, "Ljava/lang/Class;", "forName", "Ljava/lang/Class;", {kStr});
      uint16_t getm = m(b, "Ljava/lang/Class;", "getMethod",
                        "Ljava/lang/reflect/Method;", {kStr});
      uint16_t invoke_m =
          m(b, "Ljava/lang/reflect/Method;", "invoke", kObj, {kObj});
      uint32_t enc_cls = b.intern_string(xor_encode(maze_cls, key));
      uint32_t enc_method = b.intern_string(xor_encode("m1", key));
      as.const16(2, static_cast<int16_t>(key));
      as.const_string(0, static_cast<uint16_t>(enc_cls));
      as.invoke(Op::kInvokeStatic, xor_m, {0, 2});
      as.move_result(0);
      as.invoke(Op::kInvokeStatic, forname, {0});
      as.move_result(0);
      as.const_string(1, static_cast<uint16_t>(enc_method));
      as.invoke(Op::kInvokeStatic, xor_m, {1, 2});
      as.move_result(1);
      as.invoke(Op::kInvokeVirtual, getm, {0, 1});
      as.move_result(0);
      as.const_null(1);
      as.invoke(Op::kInvokeVirtual, invoke_m, {0, 1});
    }
    if (spec.self_modifying) {
      as.invoke(Op::kInvokeVirtual, m(b, main, "smDrive", "V", {}), {4});
    }
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }

  GeneratedApp app;
  dex::DexFile file = std::move(b).build();
  app.code_units = file.total_code_units();
  dex::Manifest manifest;
  manifest.package = spec.package;
  manifest.entry_class = main;
  manifest.version = "1.0";
  app.apk.set_manifest(manifest);
  app.apk.set_classes(dex::write_dex(file));
  if (spec.real_dex_parts > 0) {
    app.apk = dex::to_real_container(app.apk, spec.real_dex_parts);
  }
  if (spec.self_modifying) {
    // The tamper resolves the swap target against the image that actually
    // defines the class (packers re-intern pools), exactly like the
    // DroidBench self-modifying samples.
    std::string native_name = main + "->smTamper";
    std::string cls = main;
    size_t call_pc = sm_call_pc;
    app.configure_runtime = [native_name, cls, call_pc](rt::Runtime& runtime) {
      runtime.register_native(
          native_name,
          [cls, call_pc](rt::NativeContext& ctx, std::span<rt::Value> args) {
            rt::RtClass* c = ctx.runtime.linker().resolve(cls);
            if (c == nullptr) return rt::Value::Null();
            rt::RtMethod* drive = c->find_declared("smDrive");
            if (drive == nullptr || !drive->code) return rt::Value::Null();
            const dex::DexFile& file = drive->image->file;
            uint32_t target = file.find_method_ref(
                cls, args.size() > 1 && args[1].test_value() == 0 ? "smCovert"
                                                                  : "smNormal");
            if (target == dex::kNoIndex) return rt::Value::Null();
            // Swap the invoke's method index in place; the interpreter sees
            // it at the next fetch.
            drive->patch_code_unit(call_pc + 1, static_cast<uint16_t>(target));
            return rt::Value::Null();
          });
    };
  }
  return app;
}

std::vector<AppSpec> table1_apps() {
  return {
      {.name = "HTMLViewer", .package = "com.android.htmlviewer", .seed = 11,
       .target_units = 217, .full_coverage_style = true},
      {.name = "Calculator", .package = "com.android.calculator2", .seed = 12,
       .target_units = 2507, .full_coverage_style = true},
      {.name = "Calendar", .package = "com.android.calendar", .seed = 13,
       .target_units = 78598, .full_coverage_style = true},
      {.name = "Contacts", .package = "com.android.contacts", .seed = 14,
       .target_units = 103602, .full_coverage_style = true},
  };
}

std::vector<MarketAppInfo> table5_apps() {
  auto spec = [](const char* pkg, uint64_t seed, int flows) {
    AppSpec s;
    s.name = pkg;
    s.package = pkg;
    s.seed = seed;
    s.target_units = 2600;
    s.full_coverage_style = true;
    s.leak_flows = flows;
    return s;
  };
  return {
      {spec("com.lenovo.anyshare", 21, 4), "3.6.68", "A", "100 million"},
      {spec("com.moji.mjweather", 22, 5), "6.0102.02", "A", "1 million"},
      {spec("com.rongcai.show", 23, 3), "3.4.9", "A", "100 thousand"},
      {spec("com.wawoo.snipershootwar", 24, 4), "2.6", "B", "10 million"},
      {spec("com.wawoo.gunshootwar", 25, 5), "2.6", "B", "10 million"},
      {spec("com.alex.lookwifipassword", 26, 2), "2.9.6", "B", "100 thousand"},
      {spec("com.gome.eshopnew", 27, 3), "4.3.5", "C", "15.63 million"},
      {spec("com.szzc.ucar.pilot", 28, 5), "3.4.0", "C", "3.59 million"},
      {spec("com.pingan.pabank.activity", 29, 14), "2.6.9", "C", "7.9 million"},
  };
}

std::vector<AppSpec> fdroid_apps() {
  auto spec = [](const char* pkg, uint64_t seed, size_t units) {
    AppSpec s;
    s.name = pkg;
    s.package = pkg;
    s.seed = seed;
    s.target_units = units;
    s.guarded_fraction = 0.50;
    s.dead_fraction = 0.17;
    return s;
  };
  return {
      spec("be.ppareit.swiftp", 31, 8812),
      spec("fr.gaulupeau.apps.InThePoche", 32, 29231),
      spec("org.gnucash.android", 33, 56565),
      spec("org.liberty.android.fantastischmemopro", 34, 57575),
      spec("com.fastaccess.github", 35, 93913),
  };
}

GeneratedApp cfbench_java_app() {
  AppSpec spec;
  spec.name = "cfbench.java";
  spec.package = "eu.chainfire.cfbench.java";
  spec.seed = 41;
  spec.target_units = 4000;
  spec.full_coverage_style = true;
  return generate_app(spec);
}

GeneratedApp cfbench_native_app() {
  dex::DexBuilder b;
  std::string main = "Leu/chainfire/cfbench/NativeMain;";
  b.start_class(main, "Landroid/app/Activity;");
  b.add_native_method("kernel", "I", {"I"});
  uint16_t kernel = m(b, main, "kernel", "I", {"I"});
  MethodAssembler as(4, 1);  // this in v3
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);
  // Many short kernel invocations: native time dominates but the managed
  // call glue is still visible, like CF-Bench's native score.
  as.const16(1, 4096);
  as.bind(loop);
  as.if_test(Op::kIfGe, 0, 1, done);
  as.invoke(Op::kInvokeVirtual, kernel, {3, 0});
  as.move_result(2);
  as.add_lit8(0, 0, 1);
  as.goto_(loop);
  as.bind(done);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());

  GeneratedApp app;
  dex::DexFile file = std::move(b).build();
  app.code_units = file.total_code_units();
  dex::Manifest manifest;
  manifest.package = "eu.chainfire.cfbench.native";
  manifest.entry_class = main;
  app.apk.set_manifest(manifest);
  app.apk.set_classes(dex::write_dex(file));
  return app;
}

void register_cfbench_natives(rt::Runtime& rt) {
  rt.register_native(
      "Leu/chainfire/cfbench/NativeMain;->kernel",
      [](rt::NativeContext&, std::span<rt::Value> args) {
        // Real native work: xorshift mixing, ~200k iterations per call.
        uint64_t x = static_cast<uint64_t>(
                         args.size() > 1 ? args[1].test_value() : 1) |
                     1;
        for (int i = 0; i < 800; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        return rt::Value::Int(static_cast<int64_t>(x & 0x7fffffff));
      });
}

std::vector<AppSpec> launch_apps() {
  auto spec = [](const char* pkg, uint64_t seed, size_t units, int render_k) {
    AppSpec s;
    s.name = pkg;
    s.package = pkg;
    s.seed = seed;
    s.target_units = units;
    s.full_coverage_style = true;
    s.render_frames_k = render_k;
    return s;
  };
  return {
      spec("com.snapchat.android", 51, 9000, 575),
      spec("com.instagram.android", 52, 6500, 420),
      spec("com.whatsapp", 53, 2500, 125),
  };
}

}  // namespace dexlego::suite

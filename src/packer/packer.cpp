#include "src/packer/packer.h"

#include <stdexcept>

#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/bytecode/remap.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"

namespace dexlego::packer {

using bc::MethodAssembler;
using bc::Op;

std::vector<PackerSpec> table1_packers() {
  // Designated initializers: unspecified members take their defaults.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
  std::vector<PackerSpec> packers;
  packers.push_back({.vendor = "360", .key = 0x5a});
  packers.push_back({.vendor = "Alibaba", .key = 0x33, .anti_debug = true});
  packers.push_back({.vendor = "Tencent", .key = 0x77, .partitions = 3});
  packers.push_back({.vendor = "Baidu", .key = 0xc1});
  packers.push_back(
      {.vendor = "Bangcle", .key = 0x2f, .self_modifying_stub = true});
  packers.push_back(
      {.vendor = "NetQin", .unavailable_reason = "The service is offline now"});
  packers.push_back({.vendor = "APKProtect",
                     .unavailable_reason = "Unresponsive to packing requests"});
  packers.push_back({.vendor = "Ijiami",
                     .unavailable_reason = "Samples are rejected by human agents"});
#pragma GCC diagnostic pop
  return packers;
}

PackerSpec packer_360() { return table1_packers()[0]; }

std::string shell_class(const PackerSpec& spec) {
  return "Lpacker/" + spec.vendor + "/Shell;";
}

namespace {

std::vector<uint8_t> rolling_xor(std::vector<uint8_t> data, uint8_t key) {
  uint8_t rolling = key;
  for (uint8_t& b : data) {
    b ^= rolling;
    rolling = static_cast<uint8_t>(rolling * 31 + 7);
  }
  return data;
}

// Builds the shell DEX: an Activity that decrypts + loads the payload
// partitions and proxies the lifecycle into the original entry activity.
dex::DexFile build_shell(const PackerSpec& spec, const std::string& orig_entry,
                         int partitions) {
  dex::DexBuilder b;
  std::string shell = shell_class(spec);

  uint32_t load = b.intern_method("Ldalvik/system/DexClassLoader;",
                                  "loadFromAsset", "V",
                                  {"Ljava/lang/String;", "I"});
  uint32_t forname = b.intern_method("Ljava/lang/Class;", "forName",
                                     "Ljava/lang/Class;", {"Ljava/lang/String;"});
  uint32_t newinst = b.intern_method("Ljava/lang/Class;", "newInstance",
                                     "Ljava/lang/Object;", {});
  uint32_t getm = b.intern_method("Ljava/lang/Class;", "getMethod",
                                  "Ljava/lang/reflect/Method;",
                                  {"Ljava/lang/String;"});
  uint32_t invoke_m = b.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                      "Ljava/lang/Object;", {"Ljava/lang/Object;"});
  uint32_t is_emu = b.intern_method("Landroid/os/Build;", "isEmulator", "I", {});
  uint32_t noise_m = b.intern_method(shell, "shellNoise", "V", {});
  uint32_t tamper_m = b.intern_method(shell, "antiTamper", "V", {});
  uint32_t entry_s = b.intern_string(orig_entry);

  b.start_class(shell, "Landroid/app/Activity;");
  b.add_instance_field("target", "Ljava/lang/Object;");
  b.add_instance_field("targetCls", "Ljava/lang/Class;");
  uint32_t f_target = b.intern_field(shell, "Ljava/lang/Object;", "target");
  uint32_t f_cls = b.intern_field(shell, "Ljava/lang/Class;", "targetCls");

  if (spec.self_modifying_stub) {
    // shellNoise: a 2-iteration loop whose const operand the native
    // antiTamper flips between iterations — packer code that self-modifies
    // while unpacking (no clean "all code released" point).
    MethodAssembler as(4, 1);  // this in v3
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    as.const16(0, 0);  // patch site: antiTamper flips the literal
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper_m),
              {static_cast<uint8_t>(3)});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("shellNoise", "V", {}, as.finish());
    b.add_native_method("antiTamper", "V", {});
  }

  {
    // onCreate: [probe] [self-mod noise] load partitions, then
    // target = forName(entry).newInstance(); targetCls = cls;
    // getMethod(cls, "onCreate").invoke(target)
    MethodAssembler as(5, 1);  // this in v4
    if (spec.anti_debug) {
      as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(is_emu), {});
      as.move_result(0);  // probed and ignored: packers log, we proceed
    }
    if (spec.self_modifying_stub) {
      as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(noise_m), {4});
    }
    for (int p = 0; p < partitions; ++p) {
      uint32_t asset = b.intern_string("assets/" + spec.vendor + "/p" +
                                       std::to_string(p) + ".bin");
      as.const_string(0, static_cast<uint16_t>(asset));
      as.const16(1, spec.key);
      as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(load), {0, 1});
    }
    as.const_string(0, static_cast<uint16_t>(entry_s));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);  // v0 = Class
    as.iput(0, 4, static_cast<uint16_t>(f_cls));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(newinst), {0});
    as.move_result(1);  // v1 = instance
    as.iput(1, 4, static_cast<uint16_t>(f_target));
    uint32_t oncreate_s = b.intern_string("onCreate");
    as.const_string(2, static_cast<uint16_t>(oncreate_s));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 2});
    as.move_result(2);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {2, 1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }

  // Lifecycle proxies: invoke the same-named method on the unpacked target,
  // tolerating targets that do not define it.
  for (const char* stage : {"onStart", "onResume", "onPause", "onDestroy"}) {
    MethodAssembler as(4, 1);  // this in v3
    auto out = as.make_label();
    auto handler = as.make_label();
    uint32_t stage_s = b.intern_string(stage);
    as.iget(0, 3, static_cast<uint16_t>(f_target));
    as.if_testz(Op::kIfEqz, 0, out);
    as.begin_try();
    as.iget(1, 3, static_cast<uint16_t>(f_cls));
    as.const_string(2, static_cast<uint16_t>(stage_s));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {1, 2});
    as.move_result(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {1, 0});
    as.end_try(handler);
    as.bind(out);
    as.return_void();
    as.bind(handler);
    as.move_exception(0);
    as.return_void();
    b.add_virtual_method(stage, "V", {}, as.finish());
  }
  return std::move(b).build();
}

}  // namespace

std::optional<dex::Apk> pack(const dex::Apk& original, const PackerSpec& spec) {
  if (!spec.available()) return std::nullopt;

  dex::DexFile orig = dex::load_classes(original);
  dex::Manifest manifest = original.manifest();
  if (manifest.entry_class.empty()) {
    throw std::invalid_argument("packing requires a manifest entry class");
  }

  // Split the original into `partitions` payload DEX files (class-wise
  // packing loads them piecewise — no single release point).
  int partitions =
      std::min<int>(spec.partitions, static_cast<int>(orig.classes.size()));
  if (partitions < 1) partitions = 1;
  std::vector<dex::DexBuilder> parts;
  for (int p = 0; p < partitions; ++p) parts.emplace_back();
  for (size_t i = 0; i < orig.classes.size(); ++i) {
    bc::copy_class(orig, orig.classes[i], parts[i % partitions]);
  }

  dex::Apk packed = original;  // keep manifest extras + existing assets
  for (int p = 0; p < partitions; ++p) {
    std::vector<uint8_t> payload =
        dex::write_dex(std::move(parts[static_cast<size_t>(p)]).build());
    packed.set_entry("assets/" + spec.vendor + "/p" + std::to_string(p) + ".bin",
                     rolling_xor(std::move(payload), spec.key));
  }
  packed.set_classes(
      dex::write_dex(build_shell(spec, manifest.entry_class, partitions)));

  dex::Manifest shell_manifest = manifest;
  shell_manifest.entry_class = shell_class(spec);
  packed.set_manifest(shell_manifest);
  return packed;
}

void register_packer_natives(rt::Runtime& rt) {
  for (const PackerSpec& spec : table1_packers()) {
    if (!spec.self_modifying_stub) continue;
    std::string shell = shell_class(spec);
    rt.register_native(
        shell + "->antiTamper", [shell](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtClass* cls = ctx.runtime.linker().resolve(shell);
          if (cls == nullptr) return rt::Value::Null();
          rt::RtMethod* noise = cls->find_declared("shellNoise");
          if (noise == nullptr || !noise->code) return rt::Value::Null();
          // Flip the literal of the first const/16 in shellNoise.
          std::span<const uint16_t> insns(noise->code->insns);
          size_t pc = 0;
          while (pc < insns.size()) {
            bc::Insn insn = bc::decode_at(insns, pc);
            if (insn.op == Op::kConst16 && insn.a == 0) {
              noise->patch_code_unit(pc + 1, noise->code->insns[pc + 1] ^ 1);
              break;
            }
            pc += bc::consumed_units(insn);
          }
          return rt::Value::Null();
        });
  }
}

}  // namespace dexlego::packer

#include "src/benchsuite/droidbench.h"

#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"

namespace dexlego::suite {

using bc::MethodAssembler;
using bc::Op;

namespace {

enum class Src { kDevice, kLocation, kSsid, kSecret, kContacts };
enum class Snk { kSms, kLog, kNet };

struct SrcSpec {
  const char* cls;
  const char* method;
};
SrcSpec src_spec(Src s) {
  switch (s) {
    case Src::kDevice: return {"Landroid/telephony/TelephonyManager;", "getDeviceId"};
    case Src::kLocation:
      return {"Landroid/location/LocationManager;", "getLastKnownLocation"};
    case Src::kSsid: return {"Landroid/net/wifi/WifiInfo;", "getSSID"};
    case Src::kSecret: return {"Ldexlego/api/Source;", "secret"};
    case Src::kContacts: return {"Landroid/provider/ContactsContract;", "query"};
  }
  return {"", ""};
}

constexpr const char* kStr = "Ljava/lang/String;";
constexpr const char* kObj = "Ljava/lang/Object;";

// "<prefix><i>", the i-th method of a call chain. Built by appending: GCC 12
// at -O3 reports a -Wrestrict false positive on a one-letter literal +
// std::to_string once inlined.
std::string chain_name(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

uint16_t m(dex::DexBuilder& b, const std::string& cls, const std::string& name,
           const std::string& ret, const std::vector<std::string>& params) {
  return static_cast<uint16_t>(b.intern_method(cls, name, ret, params));
}

void emit_source(dex::DexBuilder& b, MethodAssembler& as, Src s, uint8_t dst) {
  SrcSpec spec = src_spec(s);
  as.invoke(Op::kInvokeStatic, m(b, spec.cls, spec.method, kStr, {}), {});
  as.move_result(dst);
}

// Emits a sink call consuming register `val`; `scratch` may be clobbered.
void emit_sink(dex::DexBuilder& b, MethodAssembler& as, Snk k, uint8_t val,
               uint8_t scratch) {
  switch (k) {
    case Snk::kLog:
      as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}),
                {val});
      break;
    case Snk::kNet:
      as.invoke(Op::kInvokeStatic,
                m(b, "Ldexlego/api/Network;", "send", "V", {kStr}), {val});
      break;
    case Snk::kSms:
      as.invoke(Op::kInvokeStatic,
                m(b, "Landroid/telephony/SmsManager;", "getDefault",
                  "Landroid/telephony/SmsManager;", {}),
                {});
      as.move_result(scratch);
      as.invoke(Op::kInvokeVirtual,
                m(b, "Landroid/telephony/SmsManager;", "sendTextMessage", "V",
                  {kStr}),
                {scratch, val});
      break;
  }
}

std::string main_class(const std::string& name) { return "Ldb/" + name + "/Main;"; }

Sample finish_sample(const std::string& name, const std::string& category,
                     bool leaky, int flows, dex::DexBuilder builder,
                     std::function<void(rt::Runtime&)> configure = {}) {
  Sample sample;
  sample.name = name;
  sample.category = category;
  sample.leaky = leaky;
  sample.expected_flows = flows;
  sample.configure_runtime = std::move(configure);
  dex::Manifest manifest;
  manifest.package = "db." + name;
  manifest.entry_class = main_class(name);
  manifest.version = "1.0";
  manifest.permissions = {"READ_PHONE_STATE", "SEND_SMS", "INTERNET"};
  sample.apk.set_manifest(manifest);
  sample.apk.set_classes(dex::write_dex(std::move(builder).build()));
  return sample;
}

// ---------------------------------------------------------------------------
// Direct (easy) archetypes — every static tool detects these.
// ---------------------------------------------------------------------------

Sample direct_straight(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  emit_source(b, as, s, 0);
  emit_sink(b, as, k, 0, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/straight", true, 1, std::move(b));
}

Sample direct_helper(const std::string& name, Src s, Snk k, int chain) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  b.start_class(cls, "Landroid/app/Activity;");
  // h<chain> sinks; h<i> forwards to h<i+1>.
  for (int i = chain; i >= 1; --i) {
    MethodAssembler as(3, 2);  // this v1, param v2
    if (i == chain) {
      emit_sink(b, as, k, 2, 0);
    } else {
      as.invoke(Op::kInvokeVirtual,
                m(b, cls, chain_name("h", i + 1), "V", {kStr}), {1, 2});
    }
    as.return_void();
    b.add_virtual_method(chain_name("h", i), "V", {kStr}, as.finish());
  }
  MethodAssembler as(3, 1);  // this v2
  emit_source(b, as, s, 0);
  as.invoke(Op::kInvokeVirtual, m(b, cls, "h1", "V", {kStr}), {2, 0});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/helper" + std::to_string(chain), true, 1,
                       std::move(b));
}

Sample direct_loop_concat(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint32_t bang = b.intern_string("!");
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(5, 1);  // this v4
  auto loop = as.make_label();
  auto done = as.make_label();
  emit_source(b, as, s, 0);
  as.const16(1, 0);
  as.const16(2, 3);
  as.bind(loop);
  as.if_test(Op::kIfGe, 1, 2, done);
  as.const_string(3, static_cast<uint16_t>(bang));
  as.invoke(Op::kInvokeVirtual, m(b, kStr, "concat", kStr, {kStr}), {0, 3});
  as.move_result(0);
  as.add_lit8(1, 1, 1);
  as.goto_(loop);
  as.bind(done);
  emit_sink(b, as, k, 0, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/loop", true, 1, std::move(b));
}

Sample direct_branch(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint32_t ok = b.intern_string("all good");
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto leak = as.make_label();
  auto end = as.make_label();
  emit_source(b, as, s, 0);
  as.invoke(Op::kInvokeVirtual, m(b, kStr, "length", "I", {}), {0});
  as.move_result(1);
  as.if_testz(Op::kIfGtz, 1, leak);
  as.const_string(2, static_cast<uint16_t>(ok));
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "d", "V", {kStr}), {2});
  as.goto_(end);
  as.bind(leak);
  emit_sink(b, as, k, 0, 2);
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/branch", true, 1, std::move(b));
}

Sample direct_field(const std::string& name, Src s, Snk k, bool lifecycle) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  b.start_class(cls, "Landroid/app/Activity;");
  b.add_instance_field("data", kStr);
  uint16_t f = static_cast<uint16_t>(b.intern_field(cls, kStr, "data"));
  {
    MethodAssembler as(3, 1);  // this v2
    emit_source(b, as, s, 0);
    as.iput(0, 2, f);
    if (!lifecycle) {
      as.iget(1, 2, f);
      emit_sink(b, as, k, 1, 0);
    }
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  if (lifecycle) {
    MethodAssembler as(3, 1);  // this v2
    as.iget(0, 2, f);
    emit_sink(b, as, k, 0, 1);
    as.return_void();
    b.add_virtual_method("onPause", "V", {}, as.finish());
  }
  return finish_sample(name, lifecycle ? "direct/lifecycle" : "direct/field",
                       true, 1, std::move(b));
}

// Button archetype: tainted data marshalled through a View tag, leaked in the
// onClick callback (Table IV Button1/Button3 — dynamic tools lose the taint
// at the framework boundary, static framework summaries keep it).
Sample direct_button(const std::string& name, Src s, const std::vector<Snk>& sinks) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  uint16_t find_view = m(b, "Landroid/app/Activity;", "findViewById",
                         "Landroid/view/View;", {"I"});
  uint16_t set_tag = m(b, "Landroid/view/View;", "setTag", "V", {kObj});
  uint16_t get_tag = m(b, "Landroid/view/View;", "getTag", kObj, {});
  uint16_t set_click =
      m(b, "Landroid/view/View;", "setOnClickListener", "V", {kObj});
  b.start_class(cls, "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);  // this v3
    as.const16(0, 7);
    as.invoke(Op::kInvokeVirtual, find_view, {3, 0});
    as.move_result(0);
    emit_source(b, as, s, 1);
    as.invoke(Op::kInvokeVirtual, set_tag, {0, 1});
    as.invoke(Op::kInvokeVirtual, set_click, {0, 3});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  {
    MethodAssembler as(4, 2);  // this v2, view v3
    as.invoke(Op::kInvokeVirtual, get_tag, {3});
    as.move_result(0);
    for (Snk k : sinks) emit_sink(b, as, k, 0, 1);
    as.return_void();
    b.add_virtual_method("onClick", "V", {"Landroid/view/View;"}, as.finish());
  }
  return finish_sample(name, "direct/button", true,
                       static_cast<int>(sinks.size()), std::move(b));
}

Sample direct_trycatch(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto handler = as.make_label();
  emit_source(b, as, s, 0);
  as.begin_try();
  as.const16(1, 1);
  as.const16(2, 0);
  as.binop(Op::kDiv, 1, 1, 2);
  as.end_try(handler);
  as.return_void();
  as.bind(handler);
  as.move_exception(1);
  emit_sink(b, as, k, 0, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/trycatch", true, 1, std::move(b));
}

Sample direct_switch(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto c0 = as.make_label();
  auto c1 = as.make_label();
  auto end = as.make_label();
  emit_source(b, as, s, 0);
  as.invoke(Op::kInvokeVirtual, m(b, kStr, "length", "I", {}), {0});
  as.move_result(1);
  as.const16(2, 2);
  as.binop(Op::kRem, 1, 1, 2);
  as.packed_switch(1, 0, {c0, c1});
  as.goto_(end);
  as.bind(c0);
  emit_sink(b, as, k, 0, 2);
  as.goto_(end);
  as.bind(c1);
  emit_sink(b, as, k, 0, 2);
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/switch", true, 1, std::move(b));
}

Sample direct_builder(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint32_t prefix = b.intern_string("payload=");
  uint16_t sb_t = static_cast<uint16_t>(b.intern_type("Ljava/lang/StringBuilder;"));
  uint16_t sb_init =
      m(b, "Ljava/lang/StringBuilder;", "<init>", "V", {kStr});
  uint16_t sb_append = m(b, "Ljava/lang/StringBuilder;", "append",
                         "Ljava/lang/StringBuilder;", {kObj});
  uint16_t sb_tostr = m(b, "Ljava/lang/StringBuilder;", "toString", kStr, {});
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  as.new_instance(0, sb_t);
  as.const_string(1, static_cast<uint16_t>(prefix));
  as.invoke(Op::kInvokeDirect, sb_init, {0, 1});
  emit_source(b, as, s, 1);
  as.invoke(Op::kInvokeVirtual, sb_append, {0, 1});
  as.move_result(0);
  as.invoke(Op::kInvokeVirtual, sb_tostr, {0});
  as.move_result(1);
  emit_sink(b, as, k, 1, 2);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/stringbuilder", true, 1, std::move(b));
}

Sample direct_array(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint16_t arr_t = static_cast<uint16_t>(b.intern_type("[Ljava/lang/String;"));
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(5, 1);
  as.const16(0, 2);
  as.new_array(1, 0, arr_t);
  emit_source(b, as, s, 2);
  as.const16(3, 0);
  as.aput(2, 1, 3);
  as.aget(0, 1, 3);
  emit_sink(b, as, k, 0, 2);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/array", true, 1, std::move(b));
}

Sample direct_static_field(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  std::string holder = "Ldb/" + name + "/Holder;";
  std::string cls = main_class(name);
  // Holder first so new-instance/liveness sees it (static-only use is fine).
  b.start_class(holder);
  b.add_static_field("S", kStr);
  uint16_t f = static_cast<uint16_t>(b.intern_field(holder, kStr, "S"));
  b.start_class(cls, "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  emit_source(b, as, s, 0);
  as.sput(0, f);
  as.sget(1, f);
  emit_sink(b, as, k, 1, 0);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/staticfield", true, 1, std::move(b));
}

// EmulatorDetection archetype: leak guarded by a "not running on an
// emulator" probe. Static tools ignore the guard (detect); TaintDroid runs
// on the emulator profile and never sees the leak.
Sample direct_emulator_guard(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  auto skip = as.make_label();
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/os/Build;", "isEmulator", "I", {}),
            {});
  as.move_result(0);
  as.if_testz(Op::kIfNez, 0, skip);
  emit_source(b, as, s, 0);
  emit_sink(b, as, k, 0, 1);
  as.bind(skip);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/emulator", true, 1, std::move(b));
}

Sample direct_valueof(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  emit_source(b, as, s, 0);
  as.invoke(Op::kInvokeStatic, m(b, kStr, "valueOf", kStr, {kObj}), {0});
  as.move_result(0);
  as.invoke(Op::kInvokeVirtual, m(b, kStr, "toUpperCase", kStr, {}), {0});
  as.move_result(0);
  emit_sink(b, as, k, 0, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/strings", true, 1, std::move(b));
}

// PrivateDataLeak3: one direct flow plus one through an external file —
// the file flow is missed by every evaluated tool (paper Table IV).
Sample private_data_leak3() {
  dex::DexBuilder b;
  std::string name = "PrivateDataLeak3";
  uint32_t path = b.intern_string("/sdcard/out.txt");
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  emit_source(b, as, Src::kDevice, 0);
  emit_sink(b, as, Snk::kSms, 0, 1);  // flow 1: direct
  as.const_string(1, static_cast<uint16_t>(path));
  as.invoke(Op::kInvokeStatic,
            m(b, "Ldexlego/api/Io;", "writeFile", "V", {kStr, kStr}), {1, 0});
  as.invoke(Op::kInvokeStatic, m(b, "Ldexlego/api/Io;", "readFile", kStr, {kStr}),
            {1});
  as.move_result(2);
  emit_sink(b, as, Snk::kLog, 2, 3);  // flow 2: via external file (lost)
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "direct/file", true, 2, std::move(b));
}

// ImplicitFlow1: two leaks whose data dependence is control-flow only.
Sample implicit_flow1() {
  dex::DexBuilder b;
  std::string name = "ImplicitFlow1";
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(5, 1);
  auto after1 = as.make_label();
  auto after2 = as.make_label();
  emit_source(b, as, Src::kDevice, 0);
  as.invoke(Op::kInvokeVirtual, m(b, kStr, "length", "I", {}), {0});
  as.move_result(1);
  as.const16(2, 0);
  as.const16(3, 10);
  // if (len >= 10) copy = 1   (control-dependent assignment)
  as.if_test(Op::kIfLt, 1, 3, after1);
  as.const16(2, 1);
  as.bind(after1);
  as.invoke(Op::kInvokeStatic, m(b, "Ljava/lang/Integer;", "toString", kStr, {"I"}),
            {2});
  as.move_result(2);
  emit_sink(b, as, Snk::kLog, 2, 4);  // leak 1
  // Second implicit copy to a different sink.
  as.const16(2, 0);
  as.if_test(Op::kIfLt, 1, 3, after2);
  as.const16(2, 2);
  as.bind(after2);
  as.invoke(Op::kInvokeStatic, m(b, "Ljava/lang/Integer;", "toString", kStr, {"I"}),
            {2});
  as.move_result(2);
  emit_sink(b, as, Snk::kSms, 2, 4);  // leak 2
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "implicit", true, 2, std::move(b));
}

// ---------------------------------------------------------------------------
// ICC: source in one activity, sink in another, data through Intent extras.
// FlowDroid (without IccTA) misses these; DroidSafe/HornDroid model them.
// ---------------------------------------------------------------------------
Sample icc_sample(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  std::string first = main_class(name);
  std::string second = "Ldb/" + name + "/Second;";
  uint16_t intent_t = static_cast<uint16_t>(b.intern_type("Landroid/content/Intent;"));
  uint16_t intent_init = m(b, "Landroid/content/Intent;", "<init>", "V", {kStr});
  uint16_t put_extra = m(b, "Landroid/content/Intent;", "putExtra",
                         "Landroid/content/Intent;", {kStr, kObj});
  uint16_t start_act =
      m(b, "Landroid/app/Activity;", "startActivity", "V",
        {"Landroid/content/Intent;"});
  uint16_t get_intent = m(b, "Landroid/app/Activity;", "getIntent",
                          "Landroid/content/Intent;", {});
  uint16_t get_extra = m(b, "Landroid/content/Intent;", "getStringExtra", kStr,
                         {kStr});
  uint32_t second_s = b.intern_string(second);
  uint32_t key_s = b.intern_string("secret_" + name);

  b.start_class(first, "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);  // this v3
    as.new_instance(0, intent_t);
    as.const_string(1, static_cast<uint16_t>(second_s));
    as.invoke(Op::kInvokeDirect, intent_init, {0, 1});
    as.const_string(1, static_cast<uint16_t>(key_s));
    emit_source(b, as, s, 2);
    as.invoke(Op::kInvokeVirtual, put_extra, {0, 1, 2});
    as.invoke(Op::kInvokeVirtual, start_act, {3, 0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.start_class(second, "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);  // this v3
    as.invoke(Op::kInvokeVirtual, get_intent, {3});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(key_s));
    as.invoke(Op::kInvokeVirtual, get_extra, {0, 1});
    as.move_result(2);
    emit_sink(b, as, k, 2, 0);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  return finish_sample(name, "icc", true, 1, std::move(b));
}

// ---------------------------------------------------------------------------
// Reflection families.
// ---------------------------------------------------------------------------

std::string xor_encrypt(std::string s, char key) {
  for (char& c : s) c = static_cast<char>(c ^ key);
  return s;
}

// Target class whose static method leaks; shared by the reflection samples.
void add_reflection_target(dex::DexBuilder& b, const std::string& target_cls,
                           Src s, Snk k, int chain) {
  b.start_class(target_cls);
  if (chain <= 0) {
    MethodAssembler as(3, 0);
    emit_source(b, as, s, 0);
    emit_sink(b, as, k, 0, 1);
    as.return_void();
    b.add_direct_method("exfiltrate", "V", {}, as.finish());
    return;
  }
  // Deep-chain flavour: exfiltrate -> c1 -> ... -> c<chain> -> sink. The
  // chain depth defeats DroidSafe's summary cut-off even after revealing.
  for (int i = chain; i >= 1; --i) {
    MethodAssembler as(3, 1);  // param v2
    if (i == chain) {
      emit_sink(b, as, k, 2, 0);
    } else {
      as.invoke(Op::kInvokeStatic,
                m(b, target_cls, chain_name("c", i + 1), "V", {kStr}), {2});
    }
    as.return_void();
    b.add_direct_method(chain_name("c", i), "V", {kStr}, as.finish());
  }
  MethodAssembler as(3, 0);
  emit_source(b, as, s, 0);
  as.invoke(Op::kInvokeStatic, m(b, target_cls, "c1", "V", {kStr}), {0});
  as.return_void();
  b.add_direct_method("exfiltrate", "V", {}, as.finish());
}

// Emits: decode strings (with key in reg `key_reg`), forName/getMethod/
// invoke. Assumes registers v0..v2 free.
void emit_reflective_call(dex::DexBuilder& b, MethodAssembler& as,
                          const std::string& target_cls, char key,
                          uint8_t key_reg) {
  uint16_t xor_m = m(b, "Ldexlego/api/Crypto;", "xorDecode", kStr, {kStr, "I"});
  uint16_t forname = m(b, "Ljava/lang/Class;", "forName", "Ljava/lang/Class;",
                       {kStr});
  uint16_t getm = m(b, "Ljava/lang/Class;", "getMethod",
                    "Ljava/lang/reflect/Method;", {kStr});
  uint16_t invoke_m = m(b, "Ljava/lang/reflect/Method;", "invoke", kObj, {kObj});
  uint32_t enc_cls = b.intern_string(xor_encrypt(target_cls, key));
  uint32_t enc_method = b.intern_string(xor_encrypt("exfiltrate", key));
  as.const_string(0, static_cast<uint16_t>(enc_cls));
  as.invoke(Op::kInvokeStatic, xor_m, {0, key_reg});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, forname, {0});
  as.move_result(0);
  as.const_string(1, static_cast<uint16_t>(enc_method));
  as.invoke(Op::kInvokeStatic, xor_m, {1, key_reg});
  as.move_result(1);
  as.invoke(Op::kInvokeVirtual, getm, {0, 1});
  as.move_result(0);
  as.const_null(1);
  as.invoke(Op::kInvokeVirtual, invoke_m, {0, 1});
}

// Obfuscated reflection with a *constant* key: only a value-sensitive tool
// (HornDroid) folds the xor and resolves the target statically.
Sample obf_reflection(const std::string& name, Src s, Snk k, char key) {
  dex::DexBuilder b;
  std::string target = "Ldb/" + name + "/Hidden;";
  add_reflection_target(b, target, s, k, 0);
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  as.const16(3, key);
  emit_reflective_call(b, as, target, key, 3);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "obf-reflection", true, 1, std::move(b));
}

// Advanced reflection (contributed samples): the key comes from a native
// method, so *no* static tool resolves the strings — only DexLego's runtime
// replacement reveals the call.
Sample advanced_reflection(const std::string& name, Src s, Snk k, char key,
                           bool deep_chain) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  std::string target = "Ldb/" + name + "/Hidden;";
  add_reflection_target(b, target, s, k, deep_chain ? 6 : 0);
  b.start_class(cls, "Landroid/app/Activity;");
  b.add_native_method("keySource", "I", {});
  uint16_t key_m = m(b, cls, "keySource", "I", {});
  MethodAssembler as(5, 1);  // this v4
  as.invoke(Op::kInvokeVirtual, key_m, {4});
  as.move_result(3);
  emit_reflective_call(b, as, target, key, 3);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  std::string native_name = cls + "->keySource";
  auto configure = [native_name, key](rt::Runtime& runtime) {
    runtime.register_native(native_name,
                            [key](rt::NativeContext&, std::span<rt::Value>) {
                              return rt::Value::Int(key);
                            });
  };
  return finish_sample(name, deep_chain ? "adv-reflection/deep" : "adv-reflection",
                       true, 1, std::move(b), configure);
}

// Dynamic loading (contributed): the leaking class lives in an encrypted
// asset, released at runtime and invoked reflectively.
Sample dynamic_loading(const std::string& name, Src s, Snk k, uint8_t key) {
  dex::DexBuilder payload;
  std::string target = "Ldb/" + name + "/Payload;";
  add_reflection_target(payload, target, s, k, 0);
  std::vector<uint8_t> enc = dex::write_dex(std::move(payload).build());
  uint8_t rolling = key;
  for (uint8_t& byte : enc) {
    byte ^= rolling;
    rolling = static_cast<uint8_t>(rolling * 31 + 7);
  }

  dex::DexBuilder b;
  uint16_t load = m(b, "Ldalvik/system/DexClassLoader;", "loadFromAsset", "V",
                    {kStr, "I"});
  uint16_t forname = m(b, "Ljava/lang/Class;", "forName", "Ljava/lang/Class;",
                       {kStr});
  uint16_t getm = m(b, "Ljava/lang/Class;", "getMethod",
                    "Ljava/lang/reflect/Method;", {kStr});
  uint16_t invoke_m = m(b, "Ljava/lang/reflect/Method;", "invoke", kObj, {kObj});
  uint32_t asset_s = b.intern_string("assets/payload.bin");
  uint32_t cls_s = b.intern_string(target);
  uint32_t m_s = b.intern_string("exfiltrate");
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  as.const_string(0, static_cast<uint16_t>(asset_s));
  as.const16(1, key);
  as.invoke(Op::kInvokeStatic, load, {0, 1});
  as.const_string(0, static_cast<uint16_t>(cls_s));
  as.invoke(Op::kInvokeStatic, forname, {0});
  as.move_result(0);
  as.const_string(1, static_cast<uint16_t>(m_s));
  as.invoke(Op::kInvokeVirtual, getm, {0, 1});
  as.move_result(0);
  as.const_null(1);
  as.invoke(Op::kInvokeVirtual, invoke_m, {0, 1});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  Sample sample = finish_sample(name, "dynamic-loading", true, 1, std::move(b));
  sample.apk.set_entry("assets/payload.bin", enc);
  return sample;
}

// Self-modifying (contributed): the paper's Code 1 — a native swaps a
// normal(...) call with sink(...) between loop iterations.
Sample self_modifying(const std::string& name, Src s, Snk k, bool deep_chain) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  uint16_t normal_m = m(b, cls, "normal", "V", {kStr});
  m(b, cls, deep_chain ? "d1" : "covert", "V", {kStr});  // intern for the original DEX
  uint16_t tamper_m = m(b, cls, "bytecodeTamper", "V", {"I"});
  uint16_t leak_m = m(b, cls, "advancedLeak", "V", {});

  b.start_class(cls, "Landroid/app/Activity;");
  size_t call_pc = 0;
  {
    MethodAssembler as(4, 1);  // this v3
    auto loop = as.make_label();
    auto done = as.make_label();
    emit_source(b, as, s, 0);
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    call_pc = as.current_pc();
    as.invoke(Op::kInvokeVirtual, normal_m, {3, 0});
    as.invoke(Op::kInvokeVirtual, tamper_m, {3, 1});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("advancedLeak", "V", {}, as.finish());
  }
  {
    MethodAssembler as(2, 2);
    as.return_void();
    b.add_virtual_method("normal", "V", {kStr}, as.finish());
  }
  if (deep_chain) {
    // d1..d6 chain ends at the sink — defeats DroidSafe post-reveal.
    for (int i = 6; i >= 1; --i) {
      MethodAssembler as(3, 2);  // this v1, param v2
      if (i == 6) {
        emit_sink(b, as, k, 2, 0);
      } else {
        as.invoke(Op::kInvokeVirtual,
                  m(b, cls, chain_name("d", i + 1), "V", {kStr}), {1, 2});
      }
      as.return_void();
      b.add_virtual_method(chain_name("d", i), "V", {kStr}, as.finish());
    }
  } else {
    MethodAssembler as(3, 2);  // this v1, param v2
    emit_sink(b, as, k, 2, 0);
    as.return_void();
    b.add_virtual_method("covert", "V", {kStr}, as.finish());
  }
  b.add_native_method("bytecodeTamper", "V", {"I"});
  {
    MethodAssembler as(2, 1);  // this v1
    as.invoke(Op::kInvokeVirtual, leak_m, {1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }

  std::string native_name = cls + "->bytecodeTamper";
  std::string covert_name = deep_chain ? "d1" : "covert";
  auto configure = [native_name, cls, call_pc, covert_name](rt::Runtime& runtime) {
    runtime.register_native(
        native_name,
        [cls, call_pc, covert_name](rt::NativeContext& ctx,
                                    std::span<rt::Value> args) {
          rt::RtClass* c = ctx.runtime.linker().resolve(cls);
          if (c == nullptr) return rt::Value::Null();
          rt::RtMethod* leak = c->find_declared("advancedLeak");
          if (leak == nullptr || !leak->code) return rt::Value::Null();
          // Resolve the method index in the image that actually defines the
          // class — packers re-intern pools, so build-time indices are void.
          const dex::DexFile& file = leak->image->file;
          uint32_t target = file.find_method_ref(
              cls, args[1].test_value() == 0 ? covert_name : "normal");
          if (target == dex::kNoIndex) return rt::Value::Null();
          // Swap the invoke's method index in place; the interpreter sees
          // it at the next fetch.
          leak->patch_code_unit(call_pc + 1, static_cast<uint16_t>(target));
          return rt::Value::Null();
        });
  };
  return finish_sample(name, deep_chain ? "self-modifying/deep" : "self-modifying",
                       true, 1, std::move(b), configure);
}

// Leak performed entirely inside native code — invisible to every bytecode
// analysis, before and after revealing (the paper's JNI limitation).
Sample native_flow(const std::string& name) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  b.start_class(cls, "Landroid/app/Activity;");
  b.add_native_method("nativeLeak", "V", {kStr});
  uint16_t native_m = m(b, cls, "nativeLeak", "V", {kStr});
  MethodAssembler as(3, 1);  // this v2
  emit_source(b, as, Src::kDevice, 0);
  as.invoke(Op::kInvokeVirtual, native_m, {2, 0});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  std::string native_name = cls + "->nativeLeak";
  auto configure = [native_name](rt::Runtime& runtime) {
    runtime.register_native(native_name, [](rt::NativeContext& ctx,
                                            std::span<rt::Value> args) {
      // The JNI code posts the data itself; bytecode never sees a sink.
      ctx.runtime.record_sink("net", args.subspan(1));
      return rt::Value::Null();
    });
  };
  return finish_sample(name, "native-flow", true, 1, std::move(b), configure);
}

// Leaks only on tablets; executed on a phone, so DexLego's revealed DEX
// cannot contain it (the paper's single miss).
Sample tablet_only(const std::string& name) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  auto skip = as.make_label();
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/os/Build;", "isTablet", "I", {}), {});
  as.move_result(0);
  as.if_testz(Op::kIfEqz, 0, skip);
  emit_source(b, as, Src::kLocation, 0);
  emit_sink(b, as, Snk::kNet, 0, 1);
  as.bind(skip);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "tablet-only", true, 1, std::move(b));
}

// ---------------------------------------------------------------------------
// Benign samples.
// ---------------------------------------------------------------------------

Sample benign_clean(const std::string& name, int variant) {
  dex::DexBuilder b;
  uint32_t msg = b.intern_string("status ok " + std::to_string(variant));
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(4, 1);
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);
  as.const16(1, static_cast<int16_t>(5 + variant));
  as.bind(loop);
  as.if_test(Op::kIfGe, 0, 1, done);
  as.add_lit8(0, 0, 1);
  as.goto_(loop);
  as.bind(done);
  as.const_string(2, static_cast<uint16_t>(msg));
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {2});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/clean", false, 0, std::move(b));
}

// A complete source->sink flow inside a method nothing ever calls — the
// contributed "unreachable taint flow" samples (FPs for every tool that
// analyzes whole classes; removed by DexLego's executed-only collection).
Sample benign_dead_method(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint32_t msg = b.intern_string("nothing to see");
  std::string cls = main_class(name);
  b.start_class(cls, "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(msg));
    as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  {
    MethodAssembler as(3, 1);
    emit_source(b, as, s, 0);
    emit_sink(b, as, k, 0, 1);
    as.return_void();
    b.add_virtual_method("neverCalled", "V", {}, as.finish());
  }
  return finish_sample(name, "benign/dead-method", false, 0, std::move(b));
}

// Flow behind a provably-false constant branch: path-insensitive tools flag
// it, the value-sensitive preset (HornDroid) prunes it.
Sample benign_dead_branch(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  auto dead = as.make_label();
  auto end = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, dead);
  as.goto_(end);
  as.bind(dead);
  emit_source(b, as, s, 0);
  emit_sink(b, as, k, 0, 1);
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/dead-branch", false, 0, std::move(b));
}

// Implicit flow inside a dead method: only the implicit-tracking preset
// (HornDroid) reports it.
Sample benign_dead_implicit(const std::string& name, Src s, Snk k) {
  dex::DexBuilder b;
  uint32_t msg = b.intern_string("idle");
  std::string cls = main_class(name);
  b.start_class(cls, "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(msg));
    as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "d", "V", {kStr}), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  {
    MethodAssembler as(5, 1);
    auto after = as.make_label();
    emit_source(b, as, s, 0);
    as.invoke(Op::kInvokeVirtual, m(b, kStr, "length", "I", {}), {0});
    as.move_result(1);
    as.const16(2, 0);
    as.const16(3, 8);
    as.if_test(Op::kIfLt, 1, 3, after);
    as.const16(2, 1);
    as.bind(after);
    as.invoke(Op::kInvokeStatic,
              m(b, "Ljava/lang/Integer;", "toString", kStr, {"I"}), {2});
    as.move_result(2);
    emit_sink(b, as, k, 2, 4);
    as.return_void();
    b.add_virtual_method("neverCalled", "V", {}, as.finish());
  }
  return finish_sample(name, "benign/dead-implicit", false, 0, std::move(b));
}

// Flow inside onClick of a listener class that is never instantiated or
// registered: FlowDroid's callback over-approximation flags it.
Sample benign_orphan_callback(const std::string& name) {
  dex::DexBuilder b;
  uint32_t msg = b.intern_string("plain");
  std::string listener = "Ldb/" + name + "/Orphan;";
  b.start_class(listener);
  {
    MethodAssembler as(3, 2);  // this v1, view v2
    emit_source(b, as, Src::kContacts, 0);
    emit_sink(b, as, Snk::kNet, 0, 1);
    as.return_void();
    b.add_virtual_method("onClick", "V", {"Landroid/view/View;"}, as.finish());
  }
  b.start_class(main_class(name), "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(msg));
    as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  return finish_sample(name, "benign/orphan-callback", false, 0, std::move(b));
}

// Coarse-array FP: the sink receives the untainted element, but the
// array-granularity abstraction of every tool taints it (survives DexLego).
Sample benign_coarse_array(const std::string& name, Src s) {
  dex::DexBuilder b;
  uint32_t ok = b.intern_string("public info");
  uint16_t arr_t = static_cast<uint16_t>(b.intern_type("[Ljava/lang/String;"));
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(6, 1);
  as.const16(0, 2);
  as.new_array(1, 0, arr_t);
  emit_source(b, as, s, 2);
  as.const16(3, 0);
  as.aput(2, 1, 3);  // arr[0] = secret
  as.const_string(2, static_cast<uint16_t>(ok));
  as.const16(3, 1);
  as.aput(2, 1, 3);  // arr[1] = public
  as.aget(4, 1, 3);  // read arr[1]
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {4});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/coarse-array", false, 0, std::move(b));
}

// Coarse-tag FP: two views, only the benign tag is sunk; the single-cell
// framework tag summary taints both (survives DexLego).
Sample benign_coarse_tag(const std::string& name, Src s) {
  dex::DexBuilder b;
  uint32_t ok = b.intern_string("label");
  uint16_t find_view = m(b, "Landroid/app/Activity;", "findViewById",
                         "Landroid/view/View;", {"I"});
  uint16_t set_tag = m(b, "Landroid/view/View;", "setTag", "V", {kObj});
  uint16_t get_tag = m(b, "Landroid/view/View;", "getTag", kObj, {});
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(5, 1);  // this v4
  as.const16(0, 5);
  as.invoke(Op::kInvokeVirtual, find_view, {4, 0});
  as.move_result(0);
  emit_source(b, as, s, 1);
  as.invoke(Op::kInvokeVirtual, set_tag, {0, 1});  // view5.tag = secret
  as.const16(1, 6);
  as.invoke(Op::kInvokeVirtual, find_view, {4, 1});
  as.move_result(1);
  as.const_string(2, static_cast<uint16_t>(ok));
  as.invoke(Op::kInvokeVirtual, set_tag, {1, 2});  // view6.tag = label
  as.invoke(Op::kInvokeVirtual, get_tag, {1});
  as.move_result(2);
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {2});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/coarse-tag", false, 0, std::move(b));
}

// Alias FP for the field-name-keyed heap (DroidSafe): same field name on two
// unrelated classes.
Sample benign_alias_field(const std::string& name, Src s) {
  dex::DexBuilder b;
  std::string h1 = "Ldb/" + name + "/CacheA;";
  std::string h2 = "Ldb/" + name + "/CacheB;";
  b.start_class(h1);
  b.add_instance_field("data", kStr);
  b.start_class(h2);
  b.add_instance_field("data", kStr);
  uint16_t f1 = static_cast<uint16_t>(b.intern_field(h1, kStr, "data"));
  uint16_t f2 = static_cast<uint16_t>(b.intern_field(h2, kStr, "data"));
  uint16_t t1 = static_cast<uint16_t>(b.intern_type(h1));
  uint16_t t2 = static_cast<uint16_t>(b.intern_type(h2));
  uint32_t ok = b.intern_string("cache header");
  b.start_class(main_class(name), "Landroid/app/Activity;");
  MethodAssembler as(5, 1);
  as.new_instance(0, t1);
  emit_source(b, as, s, 1);
  as.iput(1, 0, f1);  // a.data = secret
  as.new_instance(2, t2);
  as.const_string(3, static_cast<uint16_t>(ok));
  as.iput(3, 2, f2);  // b.data = benign
  as.iget(3, 2, f2);
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {3});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/alias-field", false, 0, std::move(b));
}

// Overwrite FP for flow-insensitive field handling (DroidSafe): the tainted
// field value is replaced before the sink reads it.
Sample benign_overwrite(const std::string& name, Src s) {
  dex::DexBuilder b;
  std::string cls = main_class(name);
  uint32_t ok = b.intern_string("reset");
  b.start_class(cls, "Landroid/app/Activity;");
  b.add_instance_field("buf", kStr);
  uint16_t f = static_cast<uint16_t>(b.intern_field(cls, kStr, "buf"));
  MethodAssembler as(3, 1);  // this v2
  emit_source(b, as, s, 0);
  as.iput(0, 2, f);
  as.const_string(0, static_cast<uint16_t>(ok));
  as.iput(0, 2, f);  // strong update kills the taint
  as.iget(1, 2, f);
  as.invoke(Op::kInvokeStatic, m(b, "Landroid/util/Log;", "i", "V", {kStr}), {1});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  return finish_sample(name, "benign/overwrite", false, 0, std::move(b));
}

}  // namespace

const Sample* DroidBench::find(const std::string& name) const {
  for (const Sample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

size_t DroidBench::leaky_count() const {
  size_t n = 0;
  for (const Sample& s : samples) n += s.leaky ? 1 : 0;
  return n;
}

size_t DroidBench::benign_count() const { return samples.size() - leaky_count(); }

DroidBench build_droidbench() {
  DroidBench suite;
  auto add = [&](Sample s) { suite.samples.push_back(std::move(s)); };

  const Src sources[] = {Src::kDevice, Src::kLocation, Src::kSsid, Src::kSecret,
                         Src::kContacts};
  const Snk sinks[] = {Snk::kSms, Snk::kLog, Snk::kNet};
  auto s_at = [&](int i) { return sources[i % 5]; };
  auto k_at = [&](int i) { return sinks[i % 3]; };

  // --- 81 direct samples: named Table IV samples + archetype instances ---
  add(direct_button("Button1", Src::kDevice, {Snk::kSms}));
  add(direct_button("Button3", Src::kDevice, {Snk::kSms, Snk::kLog}));
  add(direct_emulator_guard("EmulatorDetection1", Src::kDevice, Snk::kSms));
  add(private_data_leak3());
  int made = 4;
  for (int i = 0; made < 80; ++i) {  // +StringOps1 below = 81 direct samples
    std::string n = std::to_string(i + 1);
    switch (i % 13) {
      case 0: add(direct_straight("Straight" + n, s_at(i), k_at(i))); break;
      case 1: add(direct_helper("Helper" + n, s_at(i), k_at(i), 1)); break;
      case 2: add(direct_helper("Chain" + n, s_at(i), k_at(i), 2)); break;
      case 3: add(direct_loop_concat("Loop" + n, s_at(i), k_at(i))); break;
      case 4: add(direct_branch("Branch" + n, s_at(i), k_at(i))); break;
      case 5: add(direct_field("Field" + n, s_at(i), k_at(i), false)); break;
      case 6: add(direct_field("Lifecycle" + n, s_at(i), k_at(i), true)); break;
      case 7: add(direct_button("Callback" + n, s_at(i), {k_at(i)})); break;
      case 8: add(direct_trycatch("Exception" + n, s_at(i), k_at(i))); break;
      case 9: add(direct_switch("Switch" + n, s_at(i), k_at(i))); break;
      case 10: add(direct_builder("Builder" + n, s_at(i), k_at(i))); break;
      case 11: add(direct_array("Array" + n, s_at(i), k_at(i))); break;
      case 12: add(direct_static_field("Static" + n, s_at(i), k_at(i))); break;
    }
    ++made;
  }
  add(direct_valueof("StringOps1", Src::kSsid, Snk::kNet));
  add(implicit_flow1());
  ++made;  // StringOps1 counted towards direct; ImplicitFlow1 is its own cat.

  // --- 13 ICC samples ---
  for (int i = 0; i < 13; ++i) {
    add(icc_sample("Icc" + std::to_string(i + 1), s_at(i), k_at(i + 1)));
  }
  // --- 2 obfuscated (constant-key) reflection ---
  add(obf_reflection("ObfReflect1", Src::kDevice, Snk::kNet, 7));
  add(obf_reflection("ObfReflect2", Src::kContacts, Snk::kSms, 11));
  // --- 1 native flow, 1 tablet-only ---
  add(native_flow("NativeFlow1"));
  add(tablet_only("TabletLeak1"));
  // --- 15 contributed: 5 advanced reflection, 3 dynamic loading, 4 self-mod,
  //     3 unreachable (benign, below) ---
  add(advanced_reflection("AdvReflect1", Src::kDevice, Snk::kSms, 7, false));
  add(advanced_reflection("AdvReflect2", Src::kLocation, Snk::kNet, 13, false));
  add(advanced_reflection("AdvReflect3", Src::kSecret, Snk::kLog, 23, false));
  add(advanced_reflection("AdvReflect4", Src::kDevice, Snk::kNet, 17, true));
  add(advanced_reflection("AdvReflect5", Src::kContacts, Snk::kSms, 29, true));
  add(dynamic_loading("DynLoad1", Src::kDevice, Snk::kNet, 42));
  add(dynamic_loading("DynLoad2", Src::kSsid, Snk::kSms, 99));
  add(dynamic_loading("DynLoad3", Src::kSecret, Snk::kLog, 123));
  add(self_modifying("SelfMod1", Src::kSecret, Snk::kSms, false));
  add(self_modifying("SelfMod2", Src::kDevice, Snk::kNet, false));
  add(self_modifying("SelfMod3", Src::kLocation, Snk::kLog, true));
  add(self_modifying("SelfMod4", Src::kContacts, Snk::kSms, true));

  // --- 23 benign ---
  for (int i = 0; i < 8; ++i) add(benign_clean("Clean" + std::to_string(i + 1), i));
  add(benign_dead_method("Unreachable1", Src::kDevice, Snk::kSms));
  add(benign_dead_method("Unreachable2", Src::kLocation, Snk::kNet));
  add(benign_dead_method("Unreachable3", Src::kSecret, Snk::kLog));
  add(benign_dead_branch("DeadBranch1", Src::kDevice, Snk::kLog));
  add(benign_dead_branch("DeadBranch2", Src::kSsid, Snk::kSms));
  add(benign_dead_implicit("DeadImplicit1", Src::kDevice, Snk::kNet));
  add(benign_dead_implicit("DeadImplicit2", Src::kContacts, Snk::kLog));
  add(benign_orphan_callback("OrphanCallback1"));
  add(benign_coarse_array("CoarseArray1", Src::kDevice));
  add(benign_coarse_array("CoarseArray2", Src::kSecret));
  add(benign_coarse_tag("CoarseTag1", Src::kDevice));
  add(benign_coarse_tag("CoarseTag2", Src::kLocation));
  add(benign_alias_field("AliasField1", Src::kDevice));
  add(benign_alias_field("AliasField2", Src::kSsid));
  add(benign_overwrite("Overwrite1", Src::kDevice));

  return suite;
}

}  // namespace dexlego::suite

// Runtime — the modified-Android-Runtime facade. Owns the heap, class
// linker and interpreter; hosts the native-method registry, the app
// services (activity lifecycle, UI event routing, intents, virtual files)
// and the sink/leak log consumed by the dynamic taint presets. What every
// runtime would rebuild identically is shared instead: framework builtins
// come from one process-wide read-only table (framework_builtins), and
// install can register an app parse that other runtimes also use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/dex/archive.h"
#include "src/runtime/class_linker.h"
#include "src/runtime/hook_chain.h"
#include "src/runtime/hooks.h"
#include "src/runtime/interp.h"
#include "src/runtime/object.h"
#include "src/runtime/rt_types.h"

namespace dexlego::rt {

enum class DeviceProfile { kPhone, kTablet, kEmulator };

// A framework builtin: its body, and how many leading arguments the body
// reads on every call. The interpreter refuses a call with fewer arguments
// (Ljava/lang/NoSuchMethodError;) before the body runs.
struct Builtin {
  NativeFn fn;
  size_t arity = 0;
};
// Keys: "Lclass;-><method>" exact or "*-><method>" fallback.
using BuiltinTable = std::map<std::string, Builtin, std::less<>>;

// The framework builtin library (strings, reflection, UI, intents,
// sources/sinks, crypto, dynamic loading). Built on first use, once per
// process, and read-only after that: every runtime on every thread looks
// its builtins up here. Bodies reach runtime state only through their
// NativeContext.
const BuiltinTable& framework_builtins();

struct RuntimeConfig {
  DeviceProfile device = DeviceProfile::kPhone;
  // false models the TaintDroid/TaintART taint loss through framework/native
  // marshalling (View tags, framework containers) — Table IV's Button1/3.
  bool taint_through_framework = true;
  uint64_t step_limit = 200'000'000;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeConfig& config() const { return cfg_; }
  RuntimeConfig& config() { return cfg_; }

  ClassLinker& linker() { return linker_; }
  Interpreter& interp() { return interp_; }
  Heap& heap() { return heap_; }

  // --- instrumentation ---
  // Members join the hook chain with their declared capability mask.
  void add_hooks(RuntimeHooks* hooks) { chain_.add(hooks); }
  void remove_hooks(RuntimeHooks* hooks) { chain_.remove(hooks); }
  const HookChain& hook_chain() const { return chain_; }

  // --- native methods (JNI analog) & framework builtins ---
  void register_native(std::string full_name, NativeFn fn);
  const NativeFn* find_native(const std::string& full_name) const;
  // The framework_builtins() entry for class->name, else for *->name.
  // Builds the lookup key in a buffer the runtime reuses, so a call
  // allocates nothing once the buffer has grown to the longest key.
  const Builtin* find_builtin(const std::string& class_descriptor,
                              const std::string& name) const;

  // --- app installation & lifecycle ---
  // Parses the app's classes (classes.ldex, or real classes.dex with its
  // multidex parts merged) and registers them as image 0.
  void install(dex::Apk apk);
  // Registers `classes`, a non-null parse of the non-null `apk`'s classes,
  // as image 0 without parsing again. Neither is copied: runtimes that
  // install the same parse link from the same DexFile, and it lives as long
  // as the last of their images; the runtime reads `apk` while it lives.
  void install(std::shared_ptr<const dex::Apk> apk,
               std::shared_ptr<const dex::DexFile> classes);
  const dex::Apk* apk() const { return apk_.get(); }
  // Launches the manifest entry activity: <init>, onCreate, onStart, onResume.
  ExecOutcome launch();
  Object* activity() const { return activity_; }
  // Invokes a no-arg lifecycle/callback method on the current activity.
  ExecOutcome call_activity_method(const std::string& name);

  // --- UI registry (fuzzer surface) ---
  Object* ui_view(int id);  // created on first findViewById
  void ui_set_click_listener(int id, Value listener);
  std::vector<int> ui_clickable_ids() const;
  ExecOutcome fire_click(int id);
  void set_text_input(int id, std::string text);
  std::string text_input(int id) const;

  // --- intents / inter-component communication ---
  ExecOutcome start_activity_obj(Object* intent);
  Object* current_intent() const { return current_intent_; }

  // --- sink log (dynamic taint results) ---
  struct SinkEvent {
    std::string sink;     // "sms", "log", "net"
    uint32_t taint = 0;   // combined taint of arguments; != 0 means leak
    std::string detail;   // rendered argument values
  };
  void record_sink(const std::string& sink, std::span<const Value> args);
  const std::vector<SinkEvent>& sink_events() const { return sink_events_; }
  std::vector<SinkEvent> leaks() const;

  // --- virtual filesystem (external-storage flows, PrivateDataLeak3) ---
  void fs_write(const std::string& path, std::string data);
  std::optional<std::string> fs_read(const std::string& path) const;

  // --- dynamic DEX loading (packers' unpack step) ---
  const DexImage& load_dex_buffer(std::span<const uint8_t> bytes,
                                  std::string source);

  // Bridge for the class linker to run <clinit> through the interpreter.
  void run_clinit(RtMethod& clinit);

  // Helper honoring taint_through_framework for framework-marshalled values.
  Value framework_marshal(const Value& v);

 private:
  RuntimeConfig cfg_;
  Heap heap_;
  ClassLinker linker_;
  Interpreter interp_;
  HookChain chain_;
  std::map<std::string, NativeFn> natives_;
  mutable std::string builtin_key_;  // find_builtin's lookup key
  std::shared_ptr<const dex::Apk> apk_;
  Object* activity_ = nullptr;
  Object* current_intent_ = nullptr;
  std::map<int, Object*> ui_views_;
  std::map<int, Value> click_listeners_;
  std::map<int, std::string> text_inputs_;
  std::map<std::string, std::string> files_;
  std::vector<SinkEvent> sink_events_;
};

// Renders a value for sink logs and diagnostics.
std::string render_value(const Value& v);

}  // namespace dexlego::rt

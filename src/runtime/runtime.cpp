#include "src/runtime/runtime.h"

#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/support/log.h"

namespace dexlego::rt {

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(cfg), linker_(*this), interp_(*this) {}

void Runtime::register_native(std::string full_name, NativeFn fn) {
  natives_[std::move(full_name)] = std::move(fn);
}

const NativeFn* Runtime::find_native(const std::string& full_name) const {
  auto it = natives_.find(full_name);
  return it == natives_.end() ? nullptr : &it->second;
}

const Builtin* Runtime::find_builtin(const std::string& class_descriptor,
                                     const std::string& name) const {
  const BuiltinTable& builtins = framework_builtins();
  builtin_key_.assign(class_descriptor).append("->").append(name);
  auto it = builtins.find(builtin_key_);
  if (it != builtins.end()) return &it->second;
  builtin_key_.assign("*->").append(name);
  it = builtins.find(builtin_key_);
  return it == builtins.end() ? nullptr : &it->second;
}

void Runtime::install(dex::Apk apk) {
  // Whichever container the app ships — classes.ldex or real classes.dex
  // (multidex parts merged) — the linker sees one in-memory model.
  auto shared = std::make_shared<const dex::Apk>(std::move(apk));
  auto classes =
      std::make_shared<const dex::DexFile>(dex::load_classes(*shared));
  install(std::move(shared), std::move(classes));
}

void Runtime::install(std::shared_ptr<const dex::Apk> apk,
                      std::shared_ptr<const dex::DexFile> classes) {
  apk_ = std::move(apk);
  const char* entry = apk_->has_entry(dex::Apk::kClassesEntry)
                          ? dex::Apk::kClassesEntry
                          : "classes.dex";
  linker_.register_dex(std::move(classes), entry);
}

ExecOutcome Runtime::launch() {
  ExecOutcome outcome;
  if (!apk_) {
    outcome.aborted = true;
    outcome.abort_reason = "no app installed";
    return outcome;
  }
  dex::Manifest manifest = apk_->manifest();
  RtClass* cls = linker_.ensure_initialized(manifest.entry_class);
  if (cls == nullptr) {
    outcome.aborted = true;
    outcome.abort_reason = "entry class not found: " + manifest.entry_class;
    return outcome;
  }
  activity_ = heap_.new_instance(cls, cls->descriptor, cls->instance_slot_count);
  if (RtMethod* ctor = cls->find_declared("<init>", "()V")) {
    outcome = interp_.invoke(*ctor, {Value::Ref(activity_)});
    if (!outcome.completed) return outcome;
  }
  for (const char* stage : {"onCreate", "onStart", "onResume"}) {
    if (RtMethod* m = cls->find_dispatch(stage, "()V")) {
      outcome = interp_.invoke(*m, {Value::Ref(activity_)});
      if (!outcome.completed) return outcome;
    }
  }
  outcome.completed = true;
  return outcome;
}

ExecOutcome Runtime::call_activity_method(const std::string& name) {
  ExecOutcome outcome;
  if (activity_ == nullptr || activity_->klass == nullptr) {
    outcome.aborted = true;
    outcome.abort_reason = "no activity";
    return outcome;
  }
  RtMethod* m = activity_->klass->find_dispatch(name, "()V");
  if (m == nullptr) {
    outcome.aborted = true;
    outcome.abort_reason = "no such activity method: " + name;
    return outcome;
  }
  return interp_.invoke(*m, {Value::Ref(activity_)});
}

Object* Runtime::ui_view(int id) {
  auto it = ui_views_.find(id);
  if (it != ui_views_.end()) return it->second;
  Object* view = heap_.new_framework("Landroid/view/View;");
  view->bag["id"] = Value::Int(id);
  ui_views_[id] = view;
  return view;
}

void Runtime::ui_set_click_listener(int id, Value listener) {
  click_listeners_[id] = listener;
}

std::vector<int> Runtime::ui_clickable_ids() const {
  std::vector<int> ids;
  ids.reserve(click_listeners_.size());
  for (const auto& [id, _] : click_listeners_) ids.push_back(id);
  return ids;
}

ExecOutcome Runtime::fire_click(int id) {
  ExecOutcome outcome;
  auto it = click_listeners_.find(id);
  if (it == click_listeners_.end() || it->second.is_null_ref()) {
    outcome.aborted = true;
    outcome.abort_reason = "no click listener for id " + std::to_string(id);
    return outcome;
  }
  Object* listener = it->second.ref;
  if (listener == nullptr || listener->klass == nullptr) {
    outcome.aborted = true;
    outcome.abort_reason = "framework-only listener";
    return outcome;
  }
  // onClick(View) preferred, onClick() accepted.
  if (RtMethod* m = listener->klass->find_dispatch("onClick", "(L)V")) {
    return interp_.invoke(*m, {Value::Ref(listener), Value::Ref(ui_view(id))});
  }
  if (RtMethod* m = listener->klass->find_dispatch("onClick", "()V")) {
    return interp_.invoke(*m, {Value::Ref(listener)});
  }
  outcome.aborted = true;
  outcome.abort_reason = "listener has no onClick";
  return outcome;
}

void Runtime::set_text_input(int id, std::string text) {
  text_inputs_[id] = std::move(text);
}

std::string Runtime::text_input(int id) const {
  auto it = text_inputs_.find(id);
  return it == text_inputs_.end() ? std::string() : it->second;
}

ExecOutcome Runtime::start_activity_obj(Object* intent) {
  ExecOutcome outcome;
  auto it = intent->bag.find("target");
  if (it == intent->bag.end() || it->second.is_null_ref()) {
    outcome.aborted = true;
    outcome.abort_reason = "intent without target";
    return outcome;
  }
  std::string target = it->second.ref->str;
  RtClass* cls = linker_.ensure_initialized(target);
  if (cls == nullptr) {
    outcome.aborted = true;
    outcome.abort_reason = "intent target not found: " + target;
    return outcome;
  }
  Object* prev_intent = current_intent_;
  Object* prev_activity = activity_;
  current_intent_ = intent;
  activity_ = heap_.new_instance(cls, cls->descriptor, cls->instance_slot_count);
  if (RtMethod* ctor = cls->find_declared("<init>", "()V")) {
    interp_.call(*ctor, {Value::Ref(activity_)});
  }
  if (RtMethod* m = cls->find_dispatch("onCreate", "()V")) {
    Interpreter::CallResult r = interp_.call(*m, {Value::Ref(activity_)});
    if (r.exception != nullptr) {
      outcome.uncaught = true;
      outcome.exception_type = r.exception->class_descriptor;
      current_intent_ = prev_intent;
      activity_ = prev_activity;
      return outcome;
    }
  }
  current_intent_ = prev_intent;
  activity_ = prev_activity;
  outcome.completed = true;
  return outcome;
}

std::string render_value(const Value& v) {
  if (!v.is_ref()) return std::to_string(v.i);
  if (v.ref == nullptr) return "null";
  if (v.ref->kind == Object::Kind::kString) return v.ref->str;
  return v.ref->class_descriptor;
}

void Runtime::record_sink(const std::string& sink, std::span<const Value> args) {
  SinkEvent ev;
  ev.sink = sink;
  for (const Value& v : args) {
    ev.taint |= v.taint | (v.ref != nullptr ? v.ref->taint : 0u);
    if (!ev.detail.empty()) ev.detail += ",";
    ev.detail += render_value(v);
  }
  sink_events_.push_back(std::move(ev));
}

std::vector<Runtime::SinkEvent> Runtime::leaks() const {
  std::vector<SinkEvent> out;
  for (const SinkEvent& ev : sink_events_) {
    if (ev.taint != 0) out.push_back(ev);
  }
  return out;
}

void Runtime::fs_write(const std::string& path, std::string data) {
  files_[path] = std::move(data);
}

std::optional<std::string> Runtime::fs_read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

const DexImage& Runtime::load_dex_buffer(std::span<const uint8_t> bytes,
                                         std::string source) {
  // Unpackers hand over whatever they decrypted — LDEX or real DEX.
  dex::DexFile file = dex::load_any(bytes);
  return linker_.register_dex(std::move(file), std::move(source));
}

void Runtime::run_clinit(RtMethod& clinit) {
  Interpreter::CallResult r = interp_.call(clinit, {});
  if (r.exception != nullptr) {
    DL_WARN << "exception in <clinit> of "
            << (clinit.declaring ? clinit.declaring->descriptor : "?") << ": "
            << r.exception->class_descriptor;
  }
}

Value Runtime::framework_marshal(const Value& v) {
  if (cfg_.taint_through_framework) return v;
  Value stripped = v;
  stripped.taint = 0;
  if (stripped.ref != nullptr && stripped.ref->kind == Object::Kind::kString &&
      stripped.ref->taint != 0) {
    stripped.ref = heap_.new_string(stripped.ref->str, 0);
  }
  return stripped;
}

}  // namespace dexlego::rt

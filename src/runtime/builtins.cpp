// The framework builtin library — the Android-API surface our samples and
// generated apps program against. Every entry mirrors a framework behaviour
// relevant to the paper's evaluation: taint sources/sinks, string plumbing,
// reflection (Class.forName / getMethod / Method.invoke — the hook point for
// DexLego's reflection-to-direct-call replacement), dynamic DEX loading
// (the packers' release step), UI wiring for the fuzzer, intents for ICC
// samples, and the View-tag marshalling where the TaintDroid/TaintART
// analogs lose taint.
//
// The table is built once per process and only read after that, by every
// runtime on every thread. So a body captures nothing but constants and
// reaches runtime state through its NativeContext. Each entry declares how
// many leading arguments its body always reads; the interpreter refuses a
// shorter call before the body runs. A body that dereferences an argument
// treats a non-reference value like null (is_object), as dispatch_invoke
// does for receivers: hostile bytecode can pass either.
#include <string>

#include "src/dex/io.h"
#include "src/runtime/runtime.h"
#include "src/runtime/source_sink.h"
#include "src/support/bytes.h"

namespace dexlego::rt {

namespace {

std::string value_as_string(const Value& v) { return render_value(v); }

uint32_t value_taint(const Value& v) {
  return v.taint | (v.ref != nullptr ? v.ref->taint : 0u);
}

// Whether `v` refers to an object: false for null and for non-references.
bool is_object(const Value& v) { return v.is_ref() && v.ref != nullptr; }

Value make_string(NativeContext& ctx, std::string s, uint32_t taint = 0) {
  return Value::Ref(ctx.runtime.heap().new_string(std::move(s), taint));
}

void throw_ex(NativeContext& ctx, const char* descriptor, std::string msg) {
  ctx.pending_exception = ctx.interp.make_exception(descriptor, std::move(msg));
}

// Converts "com.pkg.Cls" to "Lcom/pkg/Cls;" (accepts descriptors verbatim).
std::string to_descriptor(const std::string& name) {
  if (!name.empty() && name.front() == 'L' && name.back() == ';') return name;
  std::string out = "L";
  for (char c : name) out += (c == '.') ? '/' : c;
  out += ";";
  return out;
}

// Defines `key`; `arity` is the number of leading arguments `fn` reads on
// every call.
void add(BuiltinTable& table, std::string key, size_t arity, NativeFn fn) {
  table.insert_or_assign(std::move(key), Builtin{std::move(fn), arity});
}

void add_object_and_strings(BuiltinTable& t) {
  // Constructor chains that bottom out in framework classes are no-ops.
  add(t, "*-><init>", 0,
      [](NativeContext&, std::span<Value>) { return Value::Null(); });

  add(t, "Ljava/lang/String;->concat", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]) +
                        (args.size() > 1 ? value_as_string(args[1]) : "");
        uint32_t taint = value_taint(args[0]) |
                         (args.size() > 1 ? value_taint(args[1]) : 0);
        return make_string(ctx, std::move(s), taint);
      });
  add(t, "Ljava/lang/String;->equals", 1,
      [](NativeContext&, std::span<Value> args) {
        bool eq = args.size() > 1 &&
                  value_as_string(args[0]) == value_as_string(args[1]);
        uint32_t taint = value_taint(args[0]) |
                         (args.size() > 1 ? value_taint(args[1]) : 0);
        return Value::Int(eq ? 1 : 0, taint);
      });
  add(t, "Ljava/lang/String;->length", 1,
      [](NativeContext&, std::span<Value> args) {
        return Value::Int(static_cast<int64_t>(value_as_string(args[0]).size()),
                          value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->isEmpty", 1,
      [](NativeContext&, std::span<Value> args) {
        return Value::Int(value_as_string(args[0]).empty() ? 1 : 0,
                          value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->charAt", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]);
        int64_t i = args.size() > 1 ? args[1].test_value() : 0;
        if (i < 0 || static_cast<size_t>(i) >= s.size()) {
          throw_ex(ctx, "Ljava/lang/StringIndexOutOfBoundsException;",
                   std::to_string(i));
          return Value::Null();
        }
        return Value::Int(s[static_cast<size_t>(i)], value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->substring", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]);
        size_t from = args.size() > 1
                          ? static_cast<size_t>(
                                std::max<int64_t>(0, args[1].test_value()))
                          : 0;
        if (from > s.size()) from = s.size();
        return make_string(ctx, s.substr(from), value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->contains", 1,
      [](NativeContext&, std::span<Value> args) {
        bool found = args.size() > 1 &&
                     value_as_string(args[0]).find(value_as_string(args[1])) !=
                         std::string::npos;
        return Value::Int(found ? 1 : 0, value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->toUpperCase", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]);
        for (char& c : s) c = static_cast<char>(std::toupper(c));
        return make_string(ctx, std::move(s), value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->hashCode", 1,
      [](NativeContext&, std::span<Value> args) {
        // Java's wrapping 32-bit arithmetic, done unsigned: signed overflow
        // is undefined in C++.
        uint32_t h = 0;
        for (char c : value_as_string(args[0])) {
          h = 31 * h + static_cast<uint32_t>(static_cast<int32_t>(c));
        }
        return Value::Int(static_cast<int32_t>(h), value_taint(args[0]));
      });
  add(t, "Ljava/lang/String;->valueOf", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        return make_string(ctx, value_as_string(args[0]), value_taint(args[0]));
      });
  add(t, "Ljava/lang/Integer;->parseInt", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        try {
          return Value::Int(std::stoll(value_as_string(args[0])),
                            value_taint(args[0]));
        } catch (const std::exception&) {
          throw_ex(ctx, "Ljava/lang/NumberFormatException;",
                   value_as_string(args[0]));
          return Value::Null();
        }
      });
  add(t, "Ljava/lang/Integer;->toString", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        return make_string(ctx, std::to_string(args[0].test_value()),
                           value_taint(args[0]));
      });
  add(t, "*->toString", 1, [](NativeContext& ctx, std::span<Value> args) {
    return make_string(ctx, value_as_string(args[0]), value_taint(args[0]));
  });

  // StringBuilder over the receiver's str payload. The receiver must not be
  // a String object: on-device the verifier makes that unrepresentable, and
  // here strings can be shared interned literals (Heap::intern_string) — a
  // hostile invoke-virtual of append on a const-string receiver must not
  // mutate the literal every other use site sees.
  add(t, "Ljava/lang/StringBuilder;-><init>", 0,
      [](NativeContext&, std::span<Value> args) {
        if (!args.empty() && args[0].ref != nullptr &&
            args[0].ref->kind != Object::Kind::kString) {
          args[0].ref->str = args.size() > 1 ? value_as_string(args[1]) : "";
          args[0].ref->taint |= args.size() > 1 ? value_taint(args[1]) : 0;
        }
        return Value::Null();
      });
  add(t, "Ljava/lang/StringBuilder;->append", 0,
      [](NativeContext&, std::span<Value> args) {
        if (!args.empty() && args[0].ref != nullptr) {
          if (args.size() > 1 && args[0].ref->kind != Object::Kind::kString) {
            args[0].ref->str += value_as_string(args[1]);
            args[0].ref->taint |= value_taint(args[1]);
          }
          return Value::Ref(args[0].ref);
        }
        return Value::Null();
      });
  add(t, "Ljava/lang/StringBuilder;->toString", 0,
      [](NativeContext& ctx, std::span<Value> args) {
        if (!args.empty() && args[0].ref != nullptr) {
          return make_string(ctx, args[0].ref->str, args[0].ref->taint);
        }
        return Value::Null();
      });

  add(t, "Ljava/lang/Math;->abs", 1, [](NativeContext&, std::span<Value> args) {
    int64_t v = args[0].test_value();
    return Value::Int(v < 0 ? -v : v, value_taint(args[0]));
  });
  add(t, "Ljava/lang/Math;->max", 2, [](NativeContext&, std::span<Value> args) {
    return Value::Int(std::max(args[0].test_value(), args[1].test_value()),
                      value_taint(args[0]) | value_taint(args[1]));
  });
  add(t, "Ljava/lang/Math;->min", 2, [](NativeContext&, std::span<Value> args) {
    return Value::Int(std::min(args[0].test_value(), args[1].test_value()),
                      value_taint(args[0]) | value_taint(args[1]));
  });
  add(t, "Ljava/lang/System;->exit", 0,
      [](NativeContext& ctx, std::span<Value>) {
        ctx.interp.request_abort("System.exit");
        return Value::Null();
      });
  add(t, "Ljava/lang/System;->currentTimeMillis", 0,
      [](NativeContext& ctx, std::span<Value>) {
        // Deterministic stand-in: the executed-step counter.
        return Value::Int(static_cast<int64_t>(ctx.interp.steps()));
      });
}

void add_sources_and_sinks(BuiltinTable& t) {
  for (const SourceSpec& spec : taint_sources()) {
    std::string key = std::string(spec.class_descriptor) + "->" + spec.method;
    uint32_t taint = spec.taint;
    std::string value = spec.sample_value;
    add(t, key, 0, [taint, value](NativeContext& ctx, std::span<Value>) {
      return make_string(ctx, value, taint);
    });
  }
  for (const SinkSpec& spec : taint_sinks()) {
    std::string key = std::string(spec.class_descriptor) + "->" + spec.method;
    std::string sink_name = spec.sink_name;
    add(t, key, 0, [sink_name](NativeContext& ctx, std::span<Value> args) {
      // Skip the receiver for instance sinks (SmsManager objects carry no
      // data); keep it simple and record all arguments.
      ctx.runtime.record_sink(sink_name, args);
      return Value::Null();
    });
  }
  add(t, "Landroid/telephony/SmsManager;->getDefault", 0,
      [](NativeContext& ctx, std::span<Value>) {
        return Value::Ref(
            ctx.runtime.heap().new_framework("Landroid/telephony/SmsManager;"));
      });
}

void add_reflection(BuiltinTable& t) {
  add(t, "Ljava/lang/Class;->forName", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string name = value_as_string(args[0]);
        RtClass* cls = ctx.runtime.linker().resolve(to_descriptor(name));
        if (cls == nullptr) {
          throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", name);
          return Value::Null();
        }
        Object* obj = ctx.runtime.heap().new_framework("Ljava/lang/Class;");
        obj->class_ref = cls;
        return Value::Ref(obj);
      });
  add(t, "Ljava/lang/Class;->getMethod", 2,
      [](NativeContext& ctx, std::span<Value> args) {
        if (!is_object(args[0]) || args[0].ref->class_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "getMethod on null");
          return Value::Null();
        }
        std::string name = value_as_string(args[1]);
        RtMethod* m = args[0].ref->class_ref->find_dispatch(name, "");
        if (m == nullptr) {
          throw_ex(ctx, "Ljava/lang/NoSuchMethodException;", name);
          return Value::Null();
        }
        Object* obj =
            ctx.runtime.heap().new_framework("Ljava/lang/reflect/Method;");
        obj->method_ref = m;
        return Value::Ref(obj);
      });
  add(t, "Ljava/lang/Class;->newInstance", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        if (!is_object(args[0]) || args[0].ref->class_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "newInstance on null");
          return Value::Null();
        }
        RtClass* cls = args[0].ref->class_ref;
        ctx.runtime.linker().ensure_initialized(*cls);
        Object* obj = ctx.runtime.heap().new_instance(cls, cls->descriptor,
                                                      cls->instance_slot_count);
        if (RtMethod* ctor = cls->find_declared("<init>", "()V")) {
          auto r = ctx.interp.call(*ctor, {Value::Ref(obj)}, ctx.caller,
                                   ctx.caller_pc);
          if (r.exception != nullptr) {
            ctx.pending_exception = r.exception;
            return Value::Null();
          }
        }
        return Value::Ref(obj);
      });
  add(t, "Ljava/lang/reflect/Method;->invoke", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        if (!is_object(args[0]) || args[0].ref->method_ref == nullptr) {
          throw_ex(ctx, "Ljava/lang/NullPointerException;", "invoke on null Method");
          return Value::Null();
        }
        RtMethod* target = args[0].ref->method_ref;
        // ART resolves the reflective target here — exactly the point where
        // DexLego records it for direct-call replacement (paper IV-D).
        if (ctx.caller != nullptr) {
          ctx.runtime.hook_chain().dispatch_reflective_invoke(
              *ctx.caller, ctx.caller_pc, *target);
        }
        std::vector<Value> call_args;
        if (!target->is_static()) {
          if (args.size() < 2) {
            throw_ex(ctx, "Ljava/lang/IllegalArgumentException;",
                     "missing receiver");
            return Value::Null();
          }
          call_args.push_back(args[1]);
        }
        for (size_t i = 2; i < args.size(); ++i) call_args.push_back(args[i]);
        auto r = ctx.interp.call(*target, std::move(call_args), ctx.caller,
                                 ctx.caller_pc);
        if (r.exception != nullptr) {
          ctx.pending_exception = r.exception;
          return Value::Null();
        }
        return r.ret;
      });
}

void add_platform(BuiltinTable& t) {
  add(t, "Landroid/os/Build;->isEmulator", 0,
      [](NativeContext& ctx, std::span<Value>) {
        return Value::Int(
            ctx.runtime.config().device == DeviceProfile::kEmulator ? 1 : 0);
      });
  add(t, "Landroid/os/Build;->isTablet", 0,
      [](NativeContext& ctx, std::span<Value>) {
        return Value::Int(
            ctx.runtime.config().device == DeviceProfile::kTablet ? 1 : 0);
      });
  add(t, "Ldexlego/api/Crypto;->xorDecode", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        std::string s = value_as_string(args[0]);
        auto key = static_cast<char>(args.size() > 1 ? args[1].test_value() : 0);
        for (char& c : s) c = static_cast<char>(c ^ key);
        return make_string(ctx, std::move(s),
                           value_taint(args[0]) |
                               (args.size() > 1 ? value_taint(args[1]) : 0));
      });
  add(t, "Ldexlego/api/Io;->writeFile", 2,
      [](NativeContext& ctx, std::span<Value> args) {
        // Taint intentionally dropped: no evaluated tool models
        // external-file flows (paper, PrivateDataLeak3).
        ctx.runtime.fs_write(value_as_string(args[0]), value_as_string(args[1]));
        return Value::Null();
      });
  add(t, "Landroid/view/Choreographer;->renderFrames", 0,
      [](NativeContext&, std::span<Value> args) {
        // Framework init/display stand-in: native-side busy work that
        // instrumentation does not slow down (launch-time model, Table VIII).
        int64_t k = args.empty() ? 1 : args[0].test_value();
        uint64_t x = 88172645463325252ull;
        for (int64_t i = 0; i < k * 1000; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        return Value::Int(static_cast<int64_t>(x & 0x7fffffff));
      });
  add(t, "Ldexlego/api/Sanitizer;->scrub", 0,
      [](NativeContext& ctx, std::span<Value> args) {
        // Declassification: returns the content with taint cleared.
        return make_string(ctx, args.empty() ? "" : value_as_string(args[0]), 0);
      });
  add(t, "Ldexlego/api/Io;->readFile", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        auto data = ctx.runtime.fs_read(value_as_string(args[0]));
        return make_string(ctx, data.value_or(""), 0);
      });
}

void add_ui_and_intents(BuiltinTable& t) {
  add(t, "Landroid/app/Activity;->setContentView", 0,
      [](NativeContext&, std::span<Value>) { return Value::Null(); });
  add(t, "Landroid/app/Activity;->findViewById", 0,
      [](NativeContext& ctx, std::span<Value> args) {
        int id = static_cast<int>(args.size() > 1 ? args[1].test_value() : 0);
        return Value::Ref(ctx.runtime.ui_view(id));
      });
  add(t, "Landroid/view/View;->setOnClickListener", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        if (is_object(args[0])) {
          auto it = args[0].ref->bag.find("id");
          int id = it != args[0].ref->bag.end()
                       ? static_cast<int>(it->second.test_value())
                       : 0;
          ctx.runtime.ui_set_click_listener(
              id, args.size() > 1 ? args[1] : Value::Null());
        }
        return Value::Null();
      });
  // View tags marshal through the framework: the dynamic-taint presets lose
  // taint here (taint_through_framework=false), static summaries keep it.
  add(t, "Landroid/view/View;->setTag", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        if (is_object(args[0]) && args.size() > 1) {
          args[0].ref->bag["tag"] = ctx.runtime.framework_marshal(args[1]);
        }
        return Value::Null();
      });
  add(t, "Landroid/view/View;->getTag", 1,
      [](NativeContext&, std::span<Value> args) {
        if (is_object(args[0])) {
          auto it = args[0].ref->bag.find("tag");
          if (it != args[0].ref->bag.end()) return it->second;
        }
        return Value::Null();
      });
  add(t, "Landroid/widget/EditText;->getText", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        int id = 0;
        if (is_object(args[0])) {
          auto it = args[0].ref->bag.find("id");
          if (it != args[0].ref->bag.end()) {
            id = static_cast<int>(it->second.test_value());
          }
        }
        return make_string(ctx, ctx.runtime.text_input(id));
      });

  add(t, "Landroid/content/Intent;-><init>", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        if (is_object(args[0]) && args.size() > 1) {
          args[0].ref->bag["target"] = Value::Ref(ctx.runtime.heap().new_string(
              to_descriptor(value_as_string(args[1]))));
        }
        return Value::Null();
      });
  add(t, "Landroid/content/Intent;->putExtra", 1,
      [](NativeContext&, std::span<Value> args) {
        if (is_object(args[0]) && args.size() > 2) {
          args[0].ref->bag["extra:" + value_as_string(args[1])] = args[2];
        }
        return args.empty() ? Value::Null() : args[0];
      });
  add(t, "Landroid/content/Intent;->getStringExtra", 1,
      [](NativeContext&, std::span<Value> args) {
        if (is_object(args[0]) && args.size() > 1) {
          auto it = args[0].ref->bag.find("extra:" + value_as_string(args[1]));
          if (it != args[0].ref->bag.end()) return it->second;
        }
        return Value::Null();
      });
  add(t, "Landroid/app/Activity;->startActivity", 0,
      [](NativeContext& ctx, std::span<Value> args) {
        if (args.size() > 1 && is_object(args[1])) {
          ctx.runtime.start_activity_obj(args[1].ref);
        }
        return Value::Null();
      });
  add(t, "Landroid/app/Activity;->getIntent", 0,
      [](NativeContext& ctx, std::span<Value>) {
        Object* intent = ctx.runtime.current_intent();
        return intent != nullptr ? Value::Ref(intent) : Value::Null();
      });
  add(t, "Landroid/os/Handler;->post", 0,
      [](NativeContext& ctx, std::span<Value> args) {
        // Synchronous dispatch of Runnable.run() — enough for callback samples.
        if (args.size() > 1 && is_object(args[1]) &&
            args[1].ref->klass != nullptr) {
          if (RtMethod* run = args[1].ref->klass->find_dispatch("run", "()V")) {
            auto r = ctx.interp.call(*run, {args[1]}, ctx.caller, ctx.caller_pc);
            if (r.exception != nullptr) ctx.pending_exception = r.exception;
          }
        }
        return Value::Null();
      });
}

void add_dynamic_loading(BuiltinTable& t) {
  add(t, "Ldalvik/system/DexClassLoader;->loadFromAsset", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        const dex::Apk* apk = ctx.runtime.apk();
        if (apk == nullptr) {
          throw_ex(ctx, "Ljava/io/IOException;", "no apk");
          return Value::Null();
        }
        std::string asset = value_as_string(args[0]);
        if (!apk->has_entry(asset)) {
          throw_ex(ctx, "Ljava/io/FileNotFoundException;", asset);
          return Value::Null();
        }
        std::vector<uint8_t> bytes = apk->entry(asset);
        auto key = static_cast<uint8_t>(args.size() > 1 ? args[1].test_value() : 0);
        if (key != 0) {
          uint8_t rolling = key;
          for (uint8_t& b : bytes) {
            b ^= rolling;
            rolling = static_cast<uint8_t>(rolling * 31 + 7);
          }
        }
        try {
          ctx.runtime.load_dex_buffer(bytes, "dynamic:" + asset);
        } catch (const support::ParseError& e) {
          throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", e.what());
        }
        return Value::Null();
      });
  add(t, "Ldalvik/system/DexClassLoader;->loadClass", 1,
      [](NativeContext& ctx, std::span<Value> args) {
        // Same resolution path as Class.forName.
        std::string name = value_as_string(args[args.size() > 1 ? 1 : 0]);
        RtClass* cls = ctx.runtime.linker().resolve(to_descriptor(name));
        if (cls == nullptr) {
          throw_ex(ctx, "Ljava/lang/ClassNotFoundException;", name);
          return Value::Null();
        }
        Object* obj = ctx.runtime.heap().new_framework("Ljava/lang/Class;");
        obj->class_ref = cls;
        return Value::Ref(obj);
      });
}

}  // namespace

const BuiltinTable& framework_builtins() {
  // A function-local static: the language makes its first-use construction
  // thread-safe, and nothing writes it afterwards.
  static const BuiltinTable table = [] {
    BuiltinTable t;
    add_object_and_strings(t);
    add_sources_and_sinks(t);
    add_reflection(t);
    add_platform(t);
    add_ui_and_intents(t);
    add_dynamic_loading(t);
    return t;
  }();
  return table;
}

}  // namespace dexlego::rt

// Linked runtime representations of classes and methods (the ART-side
// mirror of DEX structures). RtMethod owns a *mutable* copy of its code
// item: self-modifying native code patches these arrays at runtime, which is
// precisely the behaviour DexLego's instruction-level collection defends
// against (paper Section IV-A, Code 1-3). Nothing derived from the array is
// kept: the interpreter decodes it afresh at every step. The DexImage a
// method was linked from is never written, so one parse of an app can back
// every runtime a job builds (DexImage below).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/dex/dex.h"
#include "src/runtime/value.h"

namespace dexlego::rt {

struct RtClass;
class Runtime;
class Interpreter;
struct Frame;

// A DEX file registered with the class linker. `id` orders images by load
// time (0 = the APK's classes.ldex; dynamically loaded files follow).
// The parse is immutable and may be shared: the runtimes of one batch job
// all register the job's one DexFile as image 0 (Runtime::install), and the
// last holder to drop it frees it. Linking copies what may change
// (RtMethod::code), so nothing writes `file`.
struct DexImage {
  DexImage(int id, std::string source, std::shared_ptr<const dex::DexFile> parse)
      : id(id), source(std::move(source)), parse(std::move(parse)),
        file(*this->parse) {}

  int id = 0;
  std::string source;  // "classes.ldex", "dynamic:<name>", ...
  std::shared_ptr<const dex::DexFile> parse;
  const dex::DexFile& file;  // *parse
};

struct RtMethod;

// Native method context. Natives receive the runtime (for heap / leak-log /
// app services) and the caller frame, and may look up and patch other
// methods' instruction arrays (the bytecodeTamper pattern).
struct NativeContext {
  Runtime& runtime;
  Interpreter& interp;
  RtMethod* caller = nullptr;   // bytecode method executing the invoke (may be null)
  uint32_t caller_pc = 0;       // dex_pc of the invoke instruction in `caller`
  Object* pending_exception = nullptr;  // set by the native to throw
};

using NativeFn =
    std::function<Value(NativeContext&, std::span<Value> args)>;

struct RtMethod {
  RtClass* declaring = nullptr;
  const DexImage* image = nullptr;
  uint32_t dex_method_idx = 0;  // into image->file.methods
  std::string name;
  std::string shorty;  // e.g. "(II)V" — dispatch key alongside the name
  uint32_t access_flags = 0;
  size_t num_params = 0;  // declared parameters (excluding `this`)

  // Mutable runtime copy of the code (bytecode methods only).
  std::unique_ptr<dex::CodeItem> code;
  // Bound implementation (native methods only).
  NativeFn native;

  // Bounds-checked write of one unit of code->insns; an index past the end
  // (or a method without code) is ignored. A direct write to code->insns is
  // just as visible: the interpreter re-fetches and decodes every step.
  void patch_code_unit(size_t index, uint16_t value);

  bool is_native() const { return (access_flags & dex::kAccNative) != 0; }
  bool is_static() const { return (access_flags & dex::kAccStatic) != 0; }
  bool is_constructor() const {
    return (access_flags & dex::kAccConstructor) != 0 || name == "<init>" ||
           name == "<clinit>";
  }
  // Total argument count including `this` for instance methods.
  size_t num_args() const { return num_params + (is_static() ? 0 : 1); }
  std::string full_name() const;
};

struct RtField {
  std::string name;
  std::string type_descriptor;
  uint32_t access_flags = 0;
  size_t slot = 0;  // static: index into RtClass::static_values;
                    // instance: absolute slot in Object::fields
  std::optional<dex::EncodedValue> init;
  const DexImage* image = nullptr;  // for decoding string initializers
};

struct RtClass {
  enum class State : uint8_t { kLoaded, kLinked, kInitializing, kInitialized };

  std::string descriptor;
  RtClass* super = nullptr;           // null for roots / framework supers
  std::string super_descriptor;       // kept even when super is framework
  const DexImage* image = nullptr;    // the image that defines the class
  uint32_t access_flags = 0;
  State state = State::kLoaded;

  std::vector<RtField> static_fields;
  std::vector<Value> static_values;
  std::vector<RtField> instance_fields;  // own fields; slots are absolute
  size_t instance_slot_count = 0;        // including inherited slots

  std::vector<std::unique_ptr<RtMethod>> methods;

  // Finds a method declared on this class (not supers).
  RtMethod* find_declared(std::string_view name, std::string_view shorty);
  RtMethod* find_declared(std::string_view name);  // first match by name
  // Virtual-dispatch lookup walking the superclass chain.
  RtMethod* find_dispatch(std::string_view name, std::string_view shorty);
  // Field lookup walking the superclass chain.
  RtField* find_instance_field(std::string_view name);
  RtField* find_static_field(std::string_view name);
  // Whether `ancestor` is this class or a superclass of it.
  bool is_subclass_of(const RtClass* ancestor) const;
  bool has_framework_ancestor(std::string_view ancestor_desc) const;
};

}  // namespace dexlego::rt

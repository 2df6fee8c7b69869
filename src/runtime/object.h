// Heap objects. The heap is an arena owned by the Runtime — analysis runs
// are short-lived, so objects are reclaimed wholesale when the runtime is
// destroyed (no GC), per DESIGN.md scoping notes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/value.h"

namespace dexlego::rt {

struct RtClass;
struct RtMethod;

struct Object {
  enum class Kind : uint8_t { kInstance, kString, kArray };

  Kind kind = Kind::kInstance;
  RtClass* klass = nullptr;        // null for framework-internal objects
  std::string class_descriptor;    // always set (framework classes have no RtClass)

  std::vector<Value> fields;       // instance slots (kInstance)
  std::string str;                 // payload (kString, StringBuilder buffers)
  std::vector<Value> elems;        // elements (kArray)

  // Generic property bag for framework-backed objects (Intent extras,
  // Bundle contents, View tags, ...). Keyed by property name.
  std::map<std::string, Value> bag;

  // Reflection carriers: Class / java.lang.reflect.Method objects.
  RtClass* class_ref = nullptr;
  RtMethod* method_ref = nullptr;

  // Object-level taint (strings and arrays; merged with Value taint).
  uint32_t taint = 0;
};

class Heap {
 public:
  Object* new_instance(RtClass* klass, std::string descriptor, size_t field_slots);
  Object* new_string(std::string s, uint32_t taint = 0);
  Object* new_array(std::string descriptor, size_t length);
  // Framework-internal object with a property bag (Intent, Class, ...).
  Object* new_framework(std::string descriptor);

  // Literal pool: one shared string object per distinct content, mirroring
  // Dalvik's interned-string identity semantics — two const-string of the
  // same literal (and string-valued static initializers) are reference-
  // equal, so if-eq identity checks on literals behave like on-device.
  // Interned strings carry no taint and are never mutated: StringBuilder
  // buffers are separate instance objects, and the StringBuilder builtins
  // refuse string receivers (a hostile app invoking append on a literal
  // must not rewrite every use site's copy).
  Object* intern_string(const std::string& s);

 private:
  std::vector<std::unique_ptr<Object>> objects_;
  std::map<std::string, Object*, std::less<>> interned_;
};

}  // namespace dexlego::rt

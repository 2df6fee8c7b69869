#include "src/runtime/rt_types.h"

namespace dexlego::rt {

std::string RtMethod::full_name() const {
  return (declaring ? declaring->descriptor : std::string("?")) + "->" + name;
}

void RtMethod::patch_code_unit(size_t index, uint16_t value) {
  if (!code || index >= code->insns.size()) return;
  code->insns[index] = value;
}

RtMethod* RtClass::find_declared(std::string_view name, std::string_view shorty) {
  for (auto& m : methods) {
    if (m->name == name && m->shorty == shorty) return m.get();
  }
  return nullptr;
}

RtMethod* RtClass::find_declared(std::string_view name) {
  for (auto& m : methods) {
    if (m->name == name) return m.get();
  }
  return nullptr;
}

RtMethod* RtClass::find_dispatch(std::string_view name, std::string_view shorty) {
  for (RtClass* cls = this; cls != nullptr; cls = cls->super) {
    if (RtMethod* m = cls->find_declared(name, shorty)) return m;
  }
  // Retry by name only: samples sometimes call with a compatible shorty
  // (e.g. Object vs String parameters), mirroring erased generics. An empty
  // shorty is the reflection model's explicit "any overload" query and keeps
  // first-declared semantics; a concrete shorty that matched nothing only
  // falls back when the name picks a unique overload — several same-name
  // declarations with distinct shorties would dispatch arbitrarily (the
  // same rule as ClassLinker::resolve_method), so that stays unresolved.
  RtMethod* unique = nullptr;
  for (RtClass* cls = this; cls != nullptr; cls = cls->super) {
    for (auto& m : cls->methods) {
      if (m->name != name) continue;
      if (shorty.empty()) return m.get();
      if (unique == nullptr) {
        unique = m.get();
      } else if (m->shorty != unique->shorty) {
        return nullptr;  // ambiguous overload set
      }
    }
  }
  return unique;
}

RtField* RtClass::find_instance_field(std::string_view name) {
  for (RtClass* cls = this; cls != nullptr; cls = cls->super) {
    for (RtField& f : cls->instance_fields) {
      if (f.name == name) return &f;
    }
  }
  return nullptr;
}

RtField* RtClass::find_static_field(std::string_view name) {
  for (RtClass* cls = this; cls != nullptr; cls = cls->super) {
    for (RtField& f : cls->static_fields) {
      if (f.name == name) return &f;
    }
  }
  return nullptr;
}

bool RtClass::is_subclass_of(const RtClass* ancestor) const {
  for (const RtClass* cls = this; cls != nullptr; cls = cls->super) {
    if (cls == ancestor) return true;
  }
  return false;
}

bool RtClass::has_framework_ancestor(std::string_view ancestor_desc) const {
  for (const RtClass* cls = this; cls != nullptr; cls = cls->super) {
    if (cls->super == nullptr && cls->super_descriptor == ancestor_desc) return true;
    if (cls->descriptor == ancestor_desc) return true;
  }
  return false;
}

}  // namespace dexlego::rt

#include "src/runtime/class_linker.h"

#include <stdexcept>

#include "src/runtime/runtime.h"
#include "src/support/log.h"

namespace dexlego::rt {

const DexImage& ClassLinker::register_dex(std::shared_ptr<const dex::DexFile> file,
                                          std::string source) {
  images_.push_back(std::make_unique<DexImage>(static_cast<int>(images_.size()),
                                               std::move(source), std::move(file)));
  const DexImage& ref = *images_.back();
  runtime_.hook_chain().dispatch_dex_loaded(ref);
  return ref;
}

const DexImage& ClassLinker::register_dex(dex::DexFile file, std::string source) {
  return register_dex(std::make_shared<const dex::DexFile>(std::move(file)),
                      std::move(source));
}

bool ClassLinker::is_framework_descriptor(std::string_view descriptor) const {
  // Anything not defined by a registered image is treated as framework,
  // mirroring how ART delegates unknown classes to the boot class path.
  for (const auto& image : images_) {
    if (image->file.find_class(descriptor) != nullptr) return false;
  }
  return true;
}

RtClass* ClassLinker::find_loaded(std::string_view descriptor) {
  auto it = classes_.find(descriptor);
  return it == classes_.end() ? nullptr : it->second.get();
}

RtClass* ClassLinker::resolve(std::string_view descriptor) {
  if (RtClass* found = find_loaded(descriptor)) return found;
  return load_class(descriptor);
}

RtClass* ClassLinker::load_class(std::string_view descriptor) {
  // Find the defining image (first registered wins, like a class loader
  // chain; dynamically loaded DEX files extend the chain).
  const dex::ClassDef* def = nullptr;
  const DexImage* image = nullptr;
  for (const auto& img : images_) {
    def = img->file.find_class(descriptor);
    if (def != nullptr) {
      image = img.get();
      break;
    }
  }
  if (def == nullptr) return nullptr;

  auto cls = std::make_unique<RtClass>();
  RtClass* ptr = cls.get();
  cls->descriptor = std::string(descriptor);
  cls->image = image;
  cls->access_flags = def->access_flags;
  classes_.emplace(std::string(descriptor), std::move(cls));

  // Resolve the superclass first (app supers load recursively; framework
  // supers become synthetic classes).
  if (def->super_type_idx != dex::kNoIndex) {
    const std::string& super_desc = image->file.type_descriptor(def->super_type_idx);
    ptr->super_descriptor = super_desc;
    if (super_desc != ptr->descriptor) {
      if (is_framework_descriptor(super_desc)) {
        ptr->super = nullptr;  // framework boundary; kept as descriptor only
      } else {
        ptr->super = resolve(super_desc);
      }
    }
  }

  link_class(*ptr, *def, *image);
  load_order_.push_back(ptr);
  runtime_.hook_chain().dispatch_class_loaded(*ptr);
  return ptr;
}

void ClassLinker::link_class(RtClass& cls, const dex::ClassDef& def,
                             const DexImage& image) {
  const dex::DexFile& file = image.file;

  size_t base_slots = cls.super ? cls.super->instance_slot_count : 0;
  for (size_t i = 0; i < def.instance_fields.size(); ++i) {
    const dex::FieldDef& fd = def.instance_fields[i];
    const dex::FieldRef& ref = file.fields.at(fd.field_ref);
    RtField field;
    field.name = file.string_at(ref.name);
    field.type_descriptor = file.type_descriptor(ref.type);
    field.access_flags = fd.access_flags;
    field.slot = base_slots + i;
    field.image = &image;
    cls.instance_fields.push_back(std::move(field));
  }
  cls.instance_slot_count = base_slots + def.instance_fields.size();

  for (size_t i = 0; i < def.static_fields.size(); ++i) {
    const dex::FieldDef& fd = def.static_fields[i];
    const dex::FieldRef& ref = file.fields.at(fd.field_ref);
    RtField field;
    field.name = file.string_at(ref.name);
    field.type_descriptor = file.type_descriptor(ref.type);
    field.access_flags = fd.access_flags;
    field.slot = i;
    field.init = fd.static_init;
    field.image = &image;
    cls.static_fields.push_back(std::move(field));
  }
  cls.static_values.assign(def.static_fields.size(), Value::Null());

  auto link_method = [&](const dex::MethodDef& md) {
    const dex::MethodRef& ref = file.methods.at(md.method_ref);
    auto method = std::make_unique<RtMethod>();
    method->declaring = &cls;
    method->image = &image;
    method->dex_method_idx = md.method_ref;
    method->name = file.string_at(ref.name);
    method->shorty = file.proto_shorty(ref.proto);
    method->access_flags = md.access_flags;
    method->num_params = file.protos.at(ref.proto).param_types.size();
    if (md.code) {
      // The runtime works on a mutable copy; self-modifying natives patch it.
      method->code = std::make_unique<dex::CodeItem>(*md.code);
    }
    cls.methods.push_back(std::move(method));
  };
  for (const dex::MethodDef& md : def.direct_methods) link_method(md);
  for (const dex::MethodDef& md : def.virtual_methods) link_method(md);

  cls.state = RtClass::State::kLinked;
}

RtClass* ClassLinker::ensure_initialized(std::string_view descriptor) {
  RtClass* cls = resolve(descriptor);
  if (cls != nullptr) ensure_initialized(*cls);
  return cls;
}

void ClassLinker::ensure_initialized(RtClass& cls) {
  if (cls.state == RtClass::State::kInitialized ||
      cls.state == RtClass::State::kInitializing) {
    return;
  }
  if (cls.super != nullptr) ensure_initialized(*cls.super);
  cls.state = RtClass::State::kInitializing;

  // Apply encoded static initializers, then run <clinit> via the interpreter
  // (so instrumentation observes both, per Fig. 2).
  for (const RtField& f : cls.static_fields) {
    if (!f.init) {
      // Default: integral types zero, references null.
      cls.static_values[f.slot] =
          (f.type_descriptor == "I" || f.type_descriptor == "J" ||
           f.type_descriptor == "Z")
              ? Value::Int(0)
              : Value::Null();
      continue;
    }
    switch (f.init->kind) {
      case dex::EncodedValue::Kind::kInt:
        cls.static_values[f.slot] = Value::Int(f.init->i);
        break;
      case dex::EncodedValue::Kind::kString:
        // Interned like const-string: a literal-initialized static field is
        // reference-equal to the same literal appearing in code.
        cls.static_values[f.slot] = Value::Ref(runtime_.heap().intern_string(
            f.image->file.string_at(f.init->string_idx)));
        break;
      case dex::EncodedValue::Kind::kNull:
        cls.static_values[f.slot] = Value::Null();
        break;
    }
  }

  if (RtMethod* clinit = cls.find_declared("<clinit>", "()V")) {
    runtime_.run_clinit(*clinit);
  }
  cls.state = RtClass::State::kInitialized;
  runtime_.hook_chain().dispatch_class_initialized(cls);
}

const std::string& ClassLinker::type_descriptor(const DexImage& image,
                                                uint16_t type_idx) const {
  return image.file.type_descriptor(type_idx);
}

ClassLinker::ResolvedField ClassLinker::resolve_field(const DexImage& image,
                                                      uint16_t field_idx,
                                                      bool want_static) {
  ResolvedField out;
  const dex::FieldRef& ref = image.file.fields.at(field_idx);
  const std::string& cls_desc = image.file.type_descriptor(ref.class_type);
  const std::string& name = image.file.string_at(ref.name);
  RtClass* cls = resolve(cls_desc);
  if (cls == nullptr) return out;  // framework field: unresolvable
  if (want_static) ensure_initialized(*cls);
  RtField* field =
      want_static ? cls->find_static_field(name) : cls->find_instance_field(name);
  if (field == nullptr) return out;
  // Static field slots belong to the class that declares them.
  RtClass* owner = cls;
  if (want_static) {
    while (owner != nullptr) {
      bool declared_here = false;
      for (RtField& f : owner->static_fields) {
        if (&f == field) declared_here = true;
      }
      if (declared_here) break;
      owner = owner->super;
    }
    if (owner == nullptr) owner = cls;
  }
  out.cls = owner;
  out.field = field;
  out.is_static = want_static;
  return out;
}

RtMethod* ClassLinker::resolve_method(const DexImage& image, uint16_t method_idx,
                                      bool* framework) {
  *framework = false;
  const dex::MethodRef& ref = image.file.methods.at(method_idx);
  const std::string& cls_desc = image.file.type_descriptor(ref.class_type);
  if (is_framework_descriptor(cls_desc)) {
    *framework = true;
    return nullptr;
  }
  RtClass* cls = resolve(cls_desc);
  if (cls == nullptr) {
    *framework = true;
    return nullptr;
  }
  const std::string& name = image.file.string_at(ref.name);
  std::string shorty = image.file.proto_shorty(ref.proto);
  for (RtClass* c = cls; c != nullptr; c = c->super) {
    if (RtMethod* m = c->find_declared(name, shorty)) return m;
  }
  // Name-only fallback (mirrors find_dispatch leniency) — but only when the
  // name picks a unique overload. Several same-name declarations with
  // distinct shorties would dispatch whichever happened to link first, so
  // that case stays unresolved and surfaces as NoSuchMethodError. Same-name
  // same-shorty matches up the super chain are overrides, not ambiguity:
  // the most-derived one wins.
  RtMethod* unique = nullptr;
  for (RtClass* c = cls; c != nullptr; c = c->super) {
    for (const auto& m : c->methods) {
      if (m->name != name) continue;
      if (unique == nullptr) {
        unique = m.get();
      } else if (m->shorty != unique->shorty) {
        return nullptr;  // ambiguous overload set
      }
    }
  }
  return unique;
}

ClassLinker::MethodRefInfo ClassLinker::method_ref_info(const DexImage& image,
                                                        uint16_t method_idx) const {
  const dex::MethodRef& ref = image.file.methods.at(method_idx);
  MethodRefInfo info;
  info.class_descriptor = image.file.type_descriptor(ref.class_type);
  info.name = image.file.string_at(ref.name);
  info.shorty = image.file.proto_shorty(ref.proto);
  return info;
}

std::vector<RtClass*> ClassLinker::loaded_classes() const { return load_order_; }

}  // namespace dexlego::rt

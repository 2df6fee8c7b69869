// Class linker: lazy loading, linking and initialization of classes from
// registered DEX images — the component DexLego hooks for class/field/static
// value collection (paper Fig. 2 "Initialization in class linker"). Its pool
// resolvers keep no memo: the interpreter calls them on every execution of
// a field or invoke instruction, so a newly registered image is seen at the
// next resolution. Images only read their DexFile, so one parse can be
// registered with many linkers; each linked method copies its code item.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dex/dex.h"
#include "src/runtime/rt_types.h"

namespace dexlego::rt {

class Runtime;

class ClassLinker {
 public:
  explicit ClassLinker(Runtime& runtime) : runtime_(runtime) {}

  // Registers a DEX file. Classes load lazily on first resolution. The image
  // id reflects load order (dynamic loading appends). `file` must be
  // non-null; the image shares it with its other holders and keeps it alive
  // for as long as the image lives.
  const DexImage& register_dex(std::shared_ptr<const dex::DexFile> file,
                               std::string source);
  // Registers a parse this linker alone will own.
  const DexImage& register_dex(dex::DexFile file, std::string source);

  const std::vector<std::unique_ptr<DexImage>>& images() const { return images_; }

  // Loads + links the class (and its app superclasses). Returns nullptr when
  // no registered image defines it and it is not a framework descriptor.
  RtClass* resolve(std::string_view descriptor);

  // Resolve + run static initialization (<clinit>) if not done yet.
  // Initialization uses the runtime's interpreter so hooks observe it.
  RtClass* ensure_initialized(std::string_view descriptor);
  void ensure_initialized(RtClass& cls);

  RtClass* find_loaded(std::string_view descriptor);

  bool is_framework_descriptor(std::string_view descriptor) const;

  // --- pool resolution for the interpreter ---
  const std::string& type_descriptor(const DexImage& image, uint16_t type_idx) const;
  struct ResolvedField {
    RtClass* cls = nullptr;
    RtField* field = nullptr;
    bool is_static = false;
  };
  // Returns field==nullptr when unresolvable (triggers NoSuchFieldError).
  ResolvedField resolve_field(const DexImage& image, uint16_t field_idx,
                              bool want_static);
  // Resolves a method reference for static/direct dispatch. For framework
  // targets, returns nullptr with *framework set. The name-only fallback
  // (shorty mismatch) applies only when the name resolves to a unique
  // method in the hierarchy; ambiguous overloads yield NoSuchMethodError.
  RtMethod* resolve_method(const DexImage& image, uint16_t method_idx,
                           bool* framework);
  // Name/shorty of a method reference (for virtual dispatch & builtins).
  struct MethodRefInfo {
    std::string class_descriptor;
    std::string name;
    std::string shorty;
  };
  MethodRefInfo method_ref_info(const DexImage& image, uint16_t method_idx) const;

  // All loaded (app) classes, in load order — DexHunter/AppSpear dump these.
  std::vector<RtClass*> loaded_classes() const;

 private:
  RtClass* load_class(std::string_view descriptor);
  void link_class(RtClass& cls, const dex::ClassDef& def, const DexImage& image);

  Runtime& runtime_;
  std::vector<std::unique_ptr<DexImage>> images_;
  std::map<std::string, std::unique_ptr<RtClass>, std::less<>> classes_;
  std::vector<RtClass*> load_order_;
};

}  // namespace dexlego::rt

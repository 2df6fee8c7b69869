// Class linker: lazy loading, linking and initialization of classes from
// registered DEX images — the component DexLego hooks for class/field/static
// value collection (paper Fig. 2 "Initialization in class linker").
#pragma once

#include <map>
#include <memory>
#include <optional>
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
  // id reflects load order (dynamic loading appends).
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

  // Framework classes are synthesized on demand (no backing image).
  RtClass* framework_class(std::string_view descriptor);
  bool is_framework_descriptor(std::string_view descriptor) const;

  // --- pool resolution for the interpreter (cached per image) ---
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

  // --- index-keyed resolution caches (cached dispatch mode) ---
  // Memoized twins of the resolvers above, keyed (image id, pool index).
  // Pool-only data (ref info, interned literals) is immutable per image and
  // cached forever; class-dependent results (methods, fields) are flushed
  // whenever a new image registers, because dynamic loading can turn a
  // framework descriptor into an app class. Returned references stay valid
  // across further cache fills and image registrations.
  const MethodRefInfo& method_ref_info_cached(const DexImage& image,
                                              uint16_t method_idx);
  struct ResolvedMethod {
    RtMethod* method = nullptr;
    bool framework = false;
  };
  ResolvedMethod resolve_method_cached(const DexImage& image,
                                       uint16_t method_idx);
  ResolvedField resolve_field_cached(const DexImage& image, uint16_t field_idx,
                                     bool want_static);
  // The interned literal for a const-string operand (Heap::intern_string
  // keyed by string index so repeat executions skip the content lookup).
  Object* interned_string(const DexImage& image, uint16_t string_idx);

  // All loaded (app) classes, in load order — DexHunter/AppSpear dump these.
  std::vector<RtClass*> loaded_classes() const;

 private:
  RtClass* load_class(std::string_view descriptor);
  void link_class(RtClass& cls, const dex::ClassDef& def, const DexImage& image);

  // Per-image memo for the cached resolvers. Entry vectors are sized to the
  // image's pool once and never reallocate, so pointers into them are
  // stable while the linker lives.
  struct ImageCache {
    std::vector<std::optional<MethodRefInfo>> ref_info;
    std::vector<std::optional<ResolvedMethod>> methods;
    std::vector<std::optional<ResolvedField>> static_fields;
    std::vector<std::optional<ResolvedField>> instance_fields;
    std::vector<Object*> strings;
  };
  ImageCache& image_cache(const DexImage& image);

  Runtime& runtime_;
  std::vector<std::unique_ptr<DexImage>> images_;
  std::vector<std::unique_ptr<ImageCache>> image_caches_;  // by image id
  std::map<std::string, std::unique_ptr<RtClass>, std::less<>> classes_;
  std::vector<RtClass*> load_order_;
  std::map<std::string, std::unique_ptr<RtClass>, std::less<>> framework_classes_;
};

}  // namespace dexlego::rt

#include "src/unpackers/unpackers.h"

#include "src/bytecode/remap.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/runtime/script.h"

namespace dexlego::unpackers {

namespace {

void run_app(rt::Runtime& runtime, const dex::Apk& apk,
             const UnpackOptions& options) {
  if (options.configure_runtime) options.configure_runtime(runtime);
  runtime.install(apk);
  rt::run_default_script(runtime);
}

}  // namespace

UnpackResult dexhunter_unpack(const dex::Apk& packed,
                              const UnpackOptions& options) {
  rt::Runtime runtime;
  run_app(runtime, packed, options);

  // Dump = merge of all in-memory DEX file images (shell + released
  // payloads), exactly as mapped from "disk" — runtime patches invisible.
  std::vector<const dex::DexFile*> files;
  for (const auto& image : runtime.linker().images()) {
    files.push_back(&image->file);
  }
  UnpackResult result;
  result.images = files.size();
  dex::DexFile merged = bc::merge_dex_files(files);
  result.classes = merged.classes.size();
  result.unpacked = packed;
  result.unpacked.set_classes(dex::write_dex(merged));
  return result;
}

UnpackResult appspear_unpack(const dex::Apk& packed,
                             const UnpackOptions& options) {
  rt::Runtime runtime;
  run_app(runtime, packed, options);

  // Rebuild from the class linker's live structures: every loaded class with
  // its methods' *current* code arrays (one snapshot per method).
  dex::DexBuilder builder;
  UnpackResult result;
  result.images = runtime.linker().images().size();
  for (rt::RtClass* cls : runtime.linker().loaded_classes()) {
    builder.start_class(cls->descriptor,
                        cls->super_descriptor.empty() ? "Ljava/lang/Object;"
                                                      : cls->super_descriptor,
                        cls->access_flags);
    for (const rt::RtField& f : cls->instance_fields) {
      builder.add_instance_field(f.name, f.type_descriptor, f.access_flags);
    }
    for (const rt::RtField& f : cls->static_fields) {
      std::optional<dex::EncodedValue> init;
      if (f.init) {
        init = *f.init;
        if (init->kind == dex::EncodedValue::Kind::kString && f.image != nullptr) {
          init->string_idx =
              builder.intern_string(f.image->file.string_at(f.init->string_idx));
        }
      }
      builder.add_static_field(f.name, f.type_descriptor, init, f.access_flags);
    }
    for (const auto& method : cls->methods) {
      const dex::DexFile& src = method->image->file;
      const dex::MethodRef& ref = src.methods.at(method->dex_method_idx);
      const dex::Proto& proto = src.protos.at(ref.proto);
      std::vector<std::string> params;
      for (uint32_t p : proto.param_types) params.push_back(src.type_descriptor(p));
      const std::string& ret = src.type_descriptor(proto.return_type);
      bool direct = method->is_static() || method->is_constructor() ||
                    (method->access_flags & dex::kAccPrivate) != 0;
      if (method->is_native()) {
        builder.add_native_method(method->name, ret, params, method->access_flags);
        continue;
      }
      if (!method->code) continue;
      dex::CodeItem code = bc::remap_code(src, *method->code, builder);
      if (direct) {
        builder.add_direct_method(method->name, ret, params, std::move(code),
                                  method->access_flags);
      } else {
        builder.add_virtual_method(method->name, ret, params, std::move(code),
                                   method->access_flags);
      }
    }
  }
  dex::DexFile dumped = std::move(builder).build();
  result.classes = dumped.classes.size();
  result.unpacked = packed;
  result.unpacked.set_classes(dex::write_dex(dumped));
  return result;
}

}  // namespace dexlego::unpackers

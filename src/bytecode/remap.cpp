#include "src/bytecode/remap.h"

#include <set>
#include <stdexcept>

#include "src/bytecode/insn.h"

namespace dexlego::bc {

namespace {

uint32_t remap_ref(const dex::DexFile& src, dex::DexBuilder& dst, RefKind kind,
                   uint16_t idx) {
  switch (kind) {
    case RefKind::kString:
      return dst.intern_string(src.string_at(idx));
    case RefKind::kType:
      return dst.intern_type(src.type_descriptor(idx));
    case RefKind::kField: {
      const dex::FieldRef& f = src.fields.at(idx);
      return dst.intern_field(src.type_descriptor(f.class_type),
                              src.type_descriptor(f.type), src.string_at(f.name));
    }
    case RefKind::kMethod: {
      const dex::MethodRef& m = src.methods.at(idx);
      const dex::Proto& proto = src.protos.at(m.proto);
      std::vector<std::string> params;
      params.reserve(proto.param_types.size());
      for (uint32_t p : proto.param_types) params.push_back(src.type_descriptor(p));
      return dst.intern_method(src.type_descriptor(m.class_type),
                               src.string_at(m.name),
                               src.type_descriptor(proto.return_type), params);
    }
    case RefKind::kNone:
      return 0;
  }
  return 0;
}

}  // namespace

dex::CodeItem remap_code(const dex::DexFile& src, const dex::CodeItem& code,
                         dex::DexBuilder& dst) {
  dex::CodeItem out = code;
  std::span<const uint16_t> insns(code.insns);
  size_t pc = 0;
  while (pc < insns.size()) {
    Insn insn = decode_at(insns, pc);
    RefKind kind = op_info(insn.op).ref;
    if (kind != RefKind::kNone) {
      uint32_t idx = remap_ref(src, dst, kind, insn.idx);
      if (idx > 0xffff) throw std::runtime_error("pool overflow in remap");
      out.insns.at(pc + pool_index_unit(insn.op)) = static_cast<uint16_t>(idx);
    }
    pc += consumed_units(insn);
  }
  return out;
}

void copy_class(const dex::DexFile& src, const dex::ClassDef& cls,
                dex::DexBuilder& dst) {
  const std::string& descriptor = src.type_descriptor(cls.type_idx);
  std::string super = cls.super_type_idx != dex::kNoIndex
                          ? src.type_descriptor(cls.super_type_idx)
                          : "";
  dst.start_class(descriptor, super, cls.access_flags);

  auto copy_field = [&](const dex::FieldDef& f, bool is_static) {
    const dex::FieldRef& ref = src.fields.at(f.field_ref);
    std::optional<dex::EncodedValue> init;
    if (f.static_init) {
      init = *f.static_init;
      if (init->kind == dex::EncodedValue::Kind::kString) {
        init->string_idx = dst.intern_string(src.string_at(f.static_init->string_idx));
      }
    }
    if (is_static) {
      dst.add_static_field(src.string_at(ref.name), src.type_descriptor(ref.type),
                           init, f.access_flags);
    } else {
      dst.add_instance_field(src.string_at(ref.name),
                             src.type_descriptor(ref.type), f.access_flags);
    }
  };
  for (const dex::FieldDef& f : cls.static_fields) copy_field(f, true);
  for (const dex::FieldDef& f : cls.instance_fields) copy_field(f, false);

  auto copy_method = [&](const dex::MethodDef& m, bool direct) {
    const dex::MethodRef& ref = src.methods.at(m.method_ref);
    const dex::Proto& proto = src.protos.at(ref.proto);
    std::vector<std::string> params;
    for (uint32_t p : proto.param_types) params.push_back(src.type_descriptor(p));
    const std::string& name = src.string_at(ref.name);
    const std::string& ret = src.type_descriptor(proto.return_type);
    if (m.access_flags & dex::kAccNative) {
      dst.add_native_method(name, ret, params, m.access_flags);
      return;
    }
    dex::CodeItem code = m.code ? remap_code(src, *m.code, dst) : dex::CodeItem{};
    if (direct) {
      dst.add_direct_method(name, ret, params, std::move(code), m.access_flags);
    } else {
      dst.add_virtual_method(name, ret, params, std::move(code), m.access_flags);
    }
  };
  for (const dex::MethodDef& m : cls.direct_methods) copy_method(m, true);
  for (const dex::MethodDef& m : cls.virtual_methods) copy_method(m, false);
}

dex::DexFile merge_dex_files(std::span<const dex::DexFile* const> files) {
  dex::DexBuilder dst;
  std::set<std::string> seen;
  for (const dex::DexFile* file : files) {
    for (const dex::ClassDef& cls : file->classes) {
      const std::string& descriptor = file->type_descriptor(cls.type_idx);
      if (!seen.insert(descriptor).second) continue;
      copy_class(*file, cls, dst);
    }
  }
  return std::move(dst).build();
}

}  // namespace dexlego::bc

#include "src/dex/io.h"

#include <cstring>

#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego::dex {

using support::ByteReader;
using support::ByteWriter;
using support::ParseError;

namespace {

void write_encoded_value(ByteWriter& w, const EncodedValue& v) {
  w.u8(static_cast<uint8_t>(v.kind));
  w.i64(v.i);
  w.u32(v.string_idx);
}

EncodedValue read_encoded_value(ByteReader& r) {
  EncodedValue v;
  uint8_t kind = r.u8();
  if (kind > 2) throw ParseError("bad encoded value kind");
  v.kind = static_cast<EncodedValue::Kind>(kind);
  v.i = r.i64();
  v.string_idx = r.u32();
  return v;
}

void write_code_item(ByteWriter& w, const CodeItem& code) {
  w.u16(code.registers_size);
  w.u16(code.ins_size);
  w.u32(static_cast<uint32_t>(code.insns.size()));
  for (uint16_t unit : code.insns) w.u16(unit);
  w.u32(static_cast<uint32_t>(code.tries.size()));
  for (const TryItem& t : code.tries) {
    w.u16(t.start_pc);
    w.u16(t.end_pc);
    w.u16(t.handler_pc);
  }
  w.u32(static_cast<uint32_t>(code.lines.size()));
  for (const LineEntry& e : code.lines) {
    w.u16(e.pc);
    w.u32(e.line);
  }
}

CodeItem read_code_item(ByteReader& r) {
  CodeItem code;
  code.registers_size = r.u16();
  code.ins_size = r.u16();
  // Arguments occupy the trailing ins_size registers of the frame; more ins
  // than registers would place them below it.
  if (code.ins_size > code.registers_size) {
    throw ParseError("ins exceed registers in code item");
  }
  uint32_t n_insns = r.u32();
  // Collected and reassembled pcs are 16-bit; the real-DEX loader has the
  // same bound.
  if (n_insns > 0xffff) throw ParseError("code longer than 65535 units");
  r.check_count(n_insns, 2, "insns");
  code.insns.reserve(n_insns);
  for (uint32_t i = 0; i < n_insns; ++i) code.insns.push_back(r.u16());
  uint32_t n_tries = r.u32();
  r.check_count(n_tries, 6, "tries");
  for (uint32_t i = 0; i < n_tries; ++i) {
    TryItem t;
    t.start_pc = r.u16();
    t.end_pc = r.u16();
    t.handler_pc = r.u16();
    code.tries.push_back(t);
  }
  uint32_t n_lines = r.u32();
  r.check_count(n_lines, 6, "lines");
  for (uint32_t i = 0; i < n_lines; ++i) {
    LineEntry e;
    e.pc = r.u16();
    e.line = r.u32();
    code.lines.push_back(e);
  }
  return code;
}

void write_field_def(ByteWriter& w, const FieldDef& f) {
  w.u32(f.field_ref);
  w.u32(f.access_flags);
  w.u8(f.static_init ? 1 : 0);
  if (f.static_init) write_encoded_value(w, *f.static_init);
}

FieldDef read_field_def(ByteReader& r) {
  FieldDef f;
  f.field_ref = r.u32();
  f.access_flags = r.u32();
  if (r.u8()) f.static_init = read_encoded_value(r);
  return f;
}

void write_method_def(ByteWriter& w, const MethodDef& m) {
  w.u32(m.method_ref);
  w.u32(m.access_flags);
  w.u8(m.code ? 1 : 0);
  if (m.code) write_code_item(w, *m.code);
}

MethodDef read_method_def(ByteReader& r) {
  MethodDef m;
  m.method_ref = r.u32();
  m.access_flags = r.u32();
  if (r.u8()) m.code = read_code_item(r);
  return m;
}

}  // namespace

std::vector<uint8_t> write_dex(const DexFile& file) {
  // Body first so the header can carry its checksum.
  ByteWriter body;
  body.u32(static_cast<uint32_t>(file.strings.size()));
  body.u32(static_cast<uint32_t>(file.types.size()));
  body.u32(static_cast<uint32_t>(file.protos.size()));
  body.u32(static_cast<uint32_t>(file.fields.size()));
  body.u32(static_cast<uint32_t>(file.methods.size()));
  body.u32(static_cast<uint32_t>(file.classes.size()));

  for (const std::string& s : file.strings) body.str(s);
  for (uint32_t t : file.types) body.u32(t);
  for (const Proto& p : file.protos) {
    body.u32(p.return_type);
    body.u32(static_cast<uint32_t>(p.param_types.size()));
    for (uint32_t param : p.param_types) body.u32(param);
  }
  for (const FieldRef& f : file.fields) {
    body.u32(f.class_type);
    body.u32(f.type);
    body.u32(f.name);
  }
  for (const MethodRef& m : file.methods) {
    body.u32(m.class_type);
    body.u32(m.proto);
    body.u32(m.name);
  }
  for (const ClassDef& cls : file.classes) {
    body.u32(cls.type_idx);
    body.u32(cls.super_type_idx);
    body.u32(cls.access_flags);
    body.u32(static_cast<uint32_t>(cls.static_fields.size()));
    for (const FieldDef& f : cls.static_fields) write_field_def(body, f);
    body.u32(static_cast<uint32_t>(cls.instance_fields.size()));
    for (const FieldDef& f : cls.instance_fields) write_field_def(body, f);
    body.u32(static_cast<uint32_t>(cls.direct_methods.size()));
    for (const MethodDef& m : cls.direct_methods) write_method_def(body, m);
    body.u32(static_cast<uint32_t>(cls.virtual_methods.size()));
    for (const MethodDef& m : cls.virtual_methods) write_method_def(body, m);
  }

  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(support::adler32(body.data()));
  out.u32(static_cast<uint32_t>(sizeof(kMagic) + 8 + body.size()));
  out.bytes(body.data());
  return out.take();
}

DexFile read_dex(std::span<const uint8_t> data) {
  ByteReader r(data);
  auto magic = r.bytes(sizeof(kMagic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("bad LDEX magic");
  }
  uint32_t checksum = r.u32();
  uint32_t file_size = r.u32();
  if (file_size != data.size()) throw ParseError("LDEX size mismatch");
  if (support::adler32(data.subspan(sizeof(kMagic) + 8)) != checksum) {
    throw ParseError("LDEX checksum mismatch");
  }

  DexFile file;
  uint32_t n_strings = r.u32();
  uint32_t n_types = r.u32();
  uint32_t n_protos = r.u32();
  uint32_t n_fields = r.u32();
  uint32_t n_methods = r.u32();
  uint32_t n_classes = r.u32();

  // Minimal encoded sizes per element; a count promising more than the
  // remaining bytes could hold is hostile, not merely truncated.
  r.check_count(n_strings, 4, "string");
  r.check_count(n_types, 4, "type");
  r.check_count(n_protos, 8, "proto");
  r.check_count(n_fields, 12, "field");
  r.check_count(n_methods, 12, "method");
  r.check_count(n_classes, 28, "class");

  file.strings.reserve(n_strings);
  for (uint32_t i = 0; i < n_strings; ++i) file.strings.push_back(r.str());
  file.types.reserve(n_types);
  for (uint32_t i = 0; i < n_types; ++i) file.types.push_back(r.u32());
  file.protos.reserve(n_protos);
  for (uint32_t i = 0; i < n_protos; ++i) {
    Proto p;
    p.return_type = r.u32();
    uint32_t n_params = r.u32();
    r.check_count(n_params, 4, "proto param");
    p.param_types.reserve(n_params);
    for (uint32_t j = 0; j < n_params; ++j) p.param_types.push_back(r.u32());
    file.protos.push_back(std::move(p));
  }
  file.fields.reserve(n_fields);
  for (uint32_t i = 0; i < n_fields; ++i) {
    FieldRef f;
    f.class_type = r.u32();
    f.type = r.u32();
    f.name = r.u32();
    file.fields.push_back(f);
  }
  file.methods.reserve(n_methods);
  for (uint32_t i = 0; i < n_methods; ++i) {
    MethodRef m;
    m.class_type = r.u32();
    m.proto = r.u32();
    m.name = r.u32();
    file.methods.push_back(m);
  }
  file.classes.reserve(n_classes);
  for (uint32_t i = 0; i < n_classes; ++i) {
    ClassDef cls;
    cls.type_idx = r.u32();
    cls.super_type_idx = r.u32();
    cls.access_flags = r.u32();
    uint32_t n = r.u32();
    for (uint32_t j = 0; j < n; ++j) cls.static_fields.push_back(read_field_def(r));
    n = r.u32();
    for (uint32_t j = 0; j < n; ++j) cls.instance_fields.push_back(read_field_def(r));
    n = r.u32();
    for (uint32_t j = 0; j < n; ++j) cls.direct_methods.push_back(read_method_def(r));
    n = r.u32();
    for (uint32_t j = 0; j < n; ++j) cls.virtual_methods.push_back(read_method_def(r));
    file.classes.push_back(std::move(cls));
  }
  if (!r.at_end()) throw ParseError("trailing bytes after LDEX payload");
  return file;
}

}  // namespace dexlego::dex

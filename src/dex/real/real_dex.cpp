#include "src/dex/real/real_dex.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "src/bytecode/dalvik_map.h"
#include "src/bytecode/insn.h"
#include "src/dex/io.h"
#include "src/dex/real/leb128.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego::dex {

using real::read_sleb128;
using real::read_uleb128;
using real::read_uleb128p1;
using real::uleb128_size;
using real::write_sleb128;
using real::write_uleb128;
using support::ByteReader;
using support::ByteWriter;
using support::ParseError;

namespace {

constexpr uint32_t kHeaderSize = 0x70;
constexpr uint32_t kEndianTag = 0x12345678;

// map_list item type codes (Dalvik Executable spec, map_item.type).
constexpr uint16_t kMapHeader = 0x0000;
constexpr uint16_t kMapStringId = 0x0001;
constexpr uint16_t kMapTypeId = 0x0002;
constexpr uint16_t kMapProtoId = 0x0003;
constexpr uint16_t kMapFieldId = 0x0004;
constexpr uint16_t kMapMethodId = 0x0005;
constexpr uint16_t kMapClassDef = 0x0006;
constexpr uint16_t kMapMapList = 0x1000;
constexpr uint16_t kMapTypeList = 0x1001;
constexpr uint16_t kMapCodeItem = 0x2001;
constexpr uint16_t kMapStringData = 0x2002;
constexpr uint16_t kMapDebugInfo = 0x2003;
constexpr uint16_t kMapClassData = 0x2000;
constexpr uint16_t kMapEncodedArray = 0x2005;

// debug_info_item state-machine opcodes (subset the emitter produces; the
// parser accepts the full AOSP set, skipping local-variable bookkeeping).
constexpr uint8_t kDbgEndSequence = 0x00;
constexpr uint8_t kDbgAdvancePc = 0x01;
constexpr uint8_t kDbgAdvanceLine = 0x02;
constexpr uint8_t kDbgStartLocal = 0x03;
constexpr uint8_t kDbgStartLocalExtended = 0x04;
constexpr uint8_t kDbgEndLocal = 0x05;
constexpr uint8_t kDbgRestartLocal = 0x06;
constexpr uint8_t kDbgSetPrologueEnd = 0x07;
constexpr uint8_t kDbgSetEpilogueBegin = 0x08;
constexpr uint8_t kDbgSetFile = 0x09;
constexpr uint8_t kDbgFirstSpecial = 0x0a;
constexpr int kDbgLineBase = -4;
constexpr int kDbgLineRange = 15;

// encoded_value type codes.
constexpr uint8_t kValueByte = 0x00;
constexpr uint8_t kValueShort = 0x02;
constexpr uint8_t kValueInt = 0x04;
constexpr uint8_t kValueLong = 0x06;
constexpr uint8_t kValueString = 0x17;
constexpr uint8_t kValueNull = 0x1e;
constexpr uint8_t kValueBoolean = 0x1f;

uint32_t mapped(const std::vector<uint32_t>& table, uint32_t idx,
                const char* what) {
  if (idx >= table.size()) {
    throw ParseError(std::string(what) + " index out of range");
  }
  return table[idx];
}

// ---------------------------------------------------------------------------
// Index remapping (shared by emit-time canonicalization and multidex merge).
// ---------------------------------------------------------------------------

struct Remap {
  std::vector<uint32_t> strings, types, protos, fields, methods;
};

// Rewrites pool-index operands in an instruction stream through `m`. Only
// instructions that carry a pool reference are re-encoded; everything else
// (including switch payloads, whose targets the Insn struct does not carry)
// is copied verbatim, so the rewrite is byte-stable for unaffected units.
std::vector<uint16_t> remap_code(std::span<const uint16_t> units,
                                 const Remap& m) {
  std::vector<uint16_t> out;
  out.reserve(units.size());
  size_t pc = 0;
  while (pc < units.size()) {
    bc::Insn insn = bc::decode_at(units, pc);
    size_t n = bc::consumed_units(insn);
    bc::RefKind ref = bc::op_info(insn.op).ref;
    if (ref == bc::RefKind::kNone) {
      out.insert(out.end(), units.begin() + static_cast<ptrdiff_t>(pc),
                 units.begin() + static_cast<ptrdiff_t>(pc + n));
    } else {
      const std::vector<uint32_t>* table = nullptr;
      switch (ref) {
        case bc::RefKind::kString: table = &m.strings; break;
        case bc::RefKind::kType: table = &m.types; break;
        case bc::RefKind::kField: table = &m.fields; break;
        case bc::RefKind::kMethod: table = &m.methods; break;
        case bc::RefKind::kNone: break;
      }
      uint32_t idx = mapped(*table, insn.idx, "instruction pool");
      if (idx > 0xffff) {
        throw ParseError("remapped pool index exceeds 16 bits");
      }
      insn.idx = static_cast<uint16_t>(idx);
      bc::encode_to(insn, out);
    }
    pc += n;
  }
  return out;
}

void remap_class(ClassDef& cls, const Remap& m) {
  cls.type_idx = mapped(m.types, cls.type_idx, "class type");
  if (cls.super_type_idx != kNoIndex) {
    cls.super_type_idx = mapped(m.types, cls.super_type_idx, "superclass type");
  }
  auto remap_fields = [&](std::vector<FieldDef>& fields) {
    for (FieldDef& f : fields) {
      f.field_ref = mapped(m.fields, f.field_ref, "field");
      if (f.static_init && f.static_init->kind == EncodedValue::Kind::kString) {
        f.static_init->string_idx =
            mapped(m.strings, f.static_init->string_idx, "static value string");
      }
    }
  };
  remap_fields(cls.static_fields);
  remap_fields(cls.instance_fields);
  auto remap_methods = [&](std::vector<MethodDef>& methods) {
    for (MethodDef& mth : methods) {
      mth.method_ref = mapped(m.methods, mth.method_ref, "method");
      if (mth.code) mth.code->insns = remap_code(mth.code->insns, m);
    }
  };
  remap_methods(cls.direct_methods);
  remap_methods(cls.virtual_methods);
}

// ---------------------------------------------------------------------------
// Shorty computation.
// ---------------------------------------------------------------------------

char shorty_char(const std::string& descriptor) {
  if (descriptor.empty()) throw ParseError("empty type descriptor");
  char c = descriptor[0];
  if (c == 'L' || c == '[') return 'L';
  if (std::string_view("VZBSCIJFD").find(c) != std::string_view::npos) return c;
  throw ParseError("unrecognized type descriptor");
}

std::string shorty_of(const DexFile& f, const Proto& p) {
  auto desc = [&](uint32_t type_idx) -> const std::string& {
    if (type_idx >= f.types.size()) throw ParseError("type index out of range");
    uint32_t s = f.types[type_idx];
    if (s >= f.strings.size()) throw ParseError("type descriptor out of range");
    return f.strings[s];
  };
  std::string shorty(1, shorty_char(desc(p.return_type)));
  for (uint32_t t : p.param_types) shorty.push_back(shorty_char(desc(t)));
  return shorty;
}

// ---------------------------------------------------------------------------
// Canonicalization: the model, rewritten with sorted deduplicated pools and
// shorty strings interned — the form real DEX requires and the form that
// makes emit -> parse -> emit byte-identical (sorting is idempotent).
// ---------------------------------------------------------------------------

bool proto_less(const Proto& a, const Proto& b) {
  if (a.return_type != b.return_type) return a.return_type < b.return_type;
  return a.param_types < b.param_types;
}

DexFile canonicalize(const DexFile& in) {
  DexFile out;

  // Strings: everything the input carries plus the shorty of every proto.
  std::vector<std::string> strings = in.strings;
  for (const Proto& p : in.protos) strings.push_back(shorty_of(in, p));
  std::sort(strings.begin(), strings.end());
  strings.erase(std::unique(strings.begin(), strings.end()), strings.end());
  auto string_idx = [&](const std::string& s) {
    auto it = std::lower_bound(strings.begin(), strings.end(), s);
    return static_cast<uint32_t>(it - strings.begin());
  };

  Remap m;
  m.strings.reserve(in.strings.size());
  for (const std::string& s : in.strings) m.strings.push_back(string_idx(s));

  // Types: sorted by descriptor (string order == string index order now).
  std::vector<uint32_t> type_strings;
  type_strings.reserve(in.types.size());
  for (uint32_t t : in.types) {
    type_strings.push_back(mapped(m.strings, t, "type descriptor"));
  }
  std::vector<uint32_t> types = type_strings;
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
  m.types.reserve(in.types.size());
  for (uint32_t s : type_strings) {
    auto it = std::lower_bound(types.begin(), types.end(), s);
    m.types.push_back(static_cast<uint32_t>(it - types.begin()));
  }

  // Protos: remapped, then sorted by (return type, parameter list).
  std::vector<Proto> remapped_protos;
  remapped_protos.reserve(in.protos.size());
  for (const Proto& p : in.protos) {
    Proto q;
    q.return_type = mapped(m.types, p.return_type, "proto return type");
    q.param_types.reserve(p.param_types.size());
    for (uint32_t t : p.param_types) {
      q.param_types.push_back(mapped(m.types, t, "proto parameter type"));
    }
    remapped_protos.push_back(std::move(q));
  }
  std::vector<Proto> protos = remapped_protos;
  std::sort(protos.begin(), protos.end(), proto_less);
  protos.erase(std::unique(protos.begin(), protos.end()), protos.end());
  m.protos.reserve(in.protos.size());
  for (const Proto& p : remapped_protos) {
    auto it = std::lower_bound(protos.begin(), protos.end(), p, proto_less);
    m.protos.push_back(static_cast<uint32_t>(it - protos.begin()));
  }

  // Fields: sorted by (declaring class, name, type) — the real DEX order.
  using FieldKey = std::tuple<uint32_t, uint32_t, uint32_t>;
  std::vector<FieldKey> remapped_fields;
  remapped_fields.reserve(in.fields.size());
  for (const FieldRef& f : in.fields) {
    remapped_fields.emplace_back(mapped(m.types, f.class_type, "field class"),
                                 mapped(m.strings, f.name, "field name"),
                                 mapped(m.types, f.type, "field type"));
  }
  std::vector<FieldKey> fields = remapped_fields;
  std::sort(fields.begin(), fields.end());
  fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
  m.fields.reserve(in.fields.size());
  for (const FieldKey& k : remapped_fields) {
    auto it = std::lower_bound(fields.begin(), fields.end(), k);
    m.fields.push_back(static_cast<uint32_t>(it - fields.begin()));
  }

  // Methods: sorted by (declaring class, name, proto).
  using MethodKey = std::tuple<uint32_t, uint32_t, uint32_t>;
  std::vector<MethodKey> remapped_methods;
  remapped_methods.reserve(in.methods.size());
  for (const MethodRef& mr : in.methods) {
    remapped_methods.emplace_back(mapped(m.types, mr.class_type, "method class"),
                                  mapped(m.strings, mr.name, "method name"),
                                  mapped(m.protos, mr.proto, "method proto"));
  }
  std::vector<MethodKey> methods = remapped_methods;
  std::sort(methods.begin(), methods.end());
  methods.erase(std::unique(methods.begin(), methods.end()), methods.end());
  m.methods.reserve(in.methods.size());
  for (const MethodKey& k : remapped_methods) {
    auto it = std::lower_bound(methods.begin(), methods.end(), k);
    m.methods.push_back(static_cast<uint32_t>(it - methods.begin()));
  }

  out.strings = std::move(strings);
  out.types = std::move(types);
  out.protos = std::move(protos);
  out.fields.reserve(fields.size());
  for (const auto& [cls, name, type] : fields) {
    out.fields.push_back(FieldRef{cls, type, name});
  }
  out.methods.reserve(methods.size());
  for (const auto& [cls, name, proto] : methods) {
    out.methods.push_back(MethodRef{cls, proto, name});
  }

  out.classes = in.classes;
  for (ClassDef& cls : out.classes) {
    remap_class(cls, m);
    // class_data requires member lists sorted by ascending pool index.
    auto by_field = [](const FieldDef& a, const FieldDef& b) {
      return a.field_ref < b.field_ref;
    };
    auto by_method = [](const MethodDef& a, const MethodDef& b) {
      return a.method_ref < b.method_ref;
    };
    std::stable_sort(cls.static_fields.begin(), cls.static_fields.end(), by_field);
    std::stable_sort(cls.instance_fields.begin(), cls.instance_fields.end(), by_field);
    std::stable_sort(cls.direct_methods.begin(), cls.direct_methods.end(), by_method);
    std::stable_sort(cls.virtual_methods.begin(), cls.virtual_methods.end(), by_method);
    auto sort_lines = [](std::vector<MethodDef>& methods_list) {
      for (MethodDef& mth : methods_list) {
        if (!mth.code) continue;
        std::stable_sort(mth.code->lines.begin(), mth.code->lines.end(),
                         [](const LineEntry& a, const LineEntry& b) {
                           return a.pc < b.pc;
                         });
      }
    };
    sort_lines(cls.direct_methods);
    sort_lines(cls.virtual_methods);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MUTF-8 string data.
// ---------------------------------------------------------------------------

// UTF-16 unit count as real DEX defines it for string_data headers: one unit
// per non-continuation byte of the stored MUTF-8 (NUL stored as 0xC0 0x80
// counts once). Emitter and parser use the same rule, so the header always
// validates on round trip.
uint32_t mutf8_units(std::string_view utf8) {
  uint32_t units = 0;
  for (unsigned char b : utf8) {
    if (b == 0x00 || (b & 0xc0) != 0x80) ++units;
  }
  return units;
}

void write_string_data(ByteWriter& w, const std::string& s) {
  write_uleb128(w, mutf8_units(s));
  for (unsigned char b : s) {
    if (b == 0x00) {
      w.u8(0xc0);
      w.u8(0x80);
    } else {
      w.u8(b);
    }
  }
  w.u8(0x00);
}

std::string read_string_data(ByteReader& r) {
  uint32_t utf16 = read_uleb128(r);
  r.check_count(utf16, 1, "string utf16");
  std::string s;
  uint32_t units = 0;
  for (;;) {
    uint8_t b = r.u8();
    if (b == 0x00) break;
    if ((b & 0xc0) != 0x80) ++units;
    if (b == 0xc0) {
      uint8_t b2 = r.u8();
      if (b2 != 0x80) throw ParseError("bad MUTF-8 escape in string data");
      s.push_back('\0');
    } else {
      s.push_back(static_cast<char>(b));
    }
  }
  if (units != utf16) throw ParseError("string utf16 length mismatch");
  return s;
}

// ---------------------------------------------------------------------------
// Debug info (source line table <-> AOSP debug_info_item state machine).
// ---------------------------------------------------------------------------

void write_debug_info(ByteWriter& w, const std::vector<LineEntry>& lines) {
  write_uleb128(w, lines.front().line);  // line_start
  write_uleb128(w, 0);                   // parameters_size
  uint32_t addr = 0;
  uint32_t line = lines.front().line;
  for (const LineEntry& e : lines) {
    if (e.pc < addr) throw ParseError("line table not sorted by pc");
    uint32_t addr_diff = e.pc - addr;
    int64_t line_diff = static_cast<int64_t>(e.line) - line;
    if (line_diff < kDbgLineBase || line_diff >= kDbgLineBase + kDbgLineRange) {
      if (line_diff < INT32_MIN || line_diff > INT32_MAX) {
        throw ParseError("line delta overflows debug info");
      }
      w.u8(kDbgAdvanceLine);
      write_sleb128(w, static_cast<int32_t>(line_diff));
      line_diff = 0;
    }
    int64_t adjusted =
        (line_diff - kDbgLineBase) + static_cast<int64_t>(addr_diff) * kDbgLineRange;
    if (kDbgFirstSpecial + adjusted > 0xff) {
      w.u8(kDbgAdvancePc);
      write_uleb128(w, addr_diff);
      adjusted = line_diff - kDbgLineBase;
    }
    w.u8(static_cast<uint8_t>(kDbgFirstSpecial + adjusted));
    addr = e.pc;
    line = e.line;
  }
  w.u8(kDbgEndSequence);
}

std::vector<LineEntry> read_debug_info(ByteReader& r, size_t insns_units) {
  int64_t line = read_uleb128(r);
  uint32_t params = read_uleb128(r);
  r.check_count(params, 1, "debug parameter");
  for (uint32_t i = 0; i < params; ++i) read_uleb128p1(r);
  uint64_t addr = 0;
  std::vector<LineEntry> lines;
  for (;;) {
    uint8_t op = r.u8();
    if (op == kDbgEndSequence) break;
    switch (op) {
      case kDbgAdvancePc:
        addr += read_uleb128(r);
        break;
      case kDbgAdvanceLine:
        line += read_sleb128(r);
        break;
      case kDbgStartLocal:
        read_uleb128(r);
        read_uleb128p1(r);
        read_uleb128p1(r);
        break;
      case kDbgStartLocalExtended:
        read_uleb128(r);
        read_uleb128p1(r);
        read_uleb128p1(r);
        read_uleb128p1(r);
        break;
      case kDbgEndLocal:
      case kDbgRestartLocal:
        read_uleb128(r);
        break;
      case kDbgSetPrologueEnd:
      case kDbgSetEpilogueBegin:
        break;
      case kDbgSetFile:
        read_uleb128p1(r);
        break;
      default: {
        int adjusted = op - kDbgFirstSpecial;
        line += kDbgLineBase + (adjusted % kDbgLineRange);
        addr += static_cast<uint64_t>(adjusted) / kDbgLineRange;
        if (addr >= insns_units || addr > 0xffff) {
          throw ParseError("debug position outside the code item");
        }
        if (line < 0 || line > 0xffffffffll) {
          throw ParseError("debug line out of range");
        }
        lines.push_back(LineEntry{static_cast<uint16_t>(addr),
                                  static_cast<uint32_t>(line)});
        break;
      }
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Encoded values.
// ---------------------------------------------------------------------------

size_t signed_value_bytes(int64_t v) {
  size_t n = 1;
  while (n < 8) {
    int64_t trunc = (v << (64 - 8 * n)) >> (64 - 8 * n);  // sign-extend low n bytes
    if (trunc == v) break;
    ++n;
  }
  return n;
}

size_t unsigned_value_bytes(uint32_t v) {
  size_t n = 1;
  while (n < 4 && (v >> (8 * n)) != 0) ++n;
  return n;
}

void write_encoded_value(ByteWriter& w, const EncodedValue& v) {
  switch (v.kind) {
    case EncodedValue::Kind::kNull:
      w.u8(kValueNull);
      return;
    case EncodedValue::Kind::kString: {
      size_t n = unsigned_value_bytes(v.string_idx);
      w.u8(static_cast<uint8_t>(kValueString | ((n - 1) << 5)));
      for (size_t i = 0; i < n; ++i) {
        w.u8(static_cast<uint8_t>(v.string_idx >> (8 * i)));
      }
      return;
    }
    case EncodedValue::Kind::kInt: {
      size_t n = signed_value_bytes(v.i);
      uint8_t type;
      if (n <= 1) {
        type = kValueByte;
        n = 1;
      } else if (n <= 2) {
        type = kValueShort;
      } else if (n <= 4) {
        type = kValueInt;
      } else {
        type = kValueLong;
      }
      w.u8(static_cast<uint8_t>(type | ((n - 1) << 5)));
      for (size_t i = 0; i < n; ++i) {
        w.u8(static_cast<uint8_t>(static_cast<uint64_t>(v.i) >> (8 * i)));
      }
      return;
    }
  }
  throw ParseError("bad encoded value kind");
}

EncodedValue read_encoded_value(ByteReader& r, size_t n_strings) {
  uint8_t head = r.u8();
  uint8_t type = head & 0x1f;
  uint8_t arg = head >> 5;
  auto read_bytes = [&](size_t n) {
    uint64_t raw = 0;
    for (size_t i = 0; i < n; ++i) {
      raw |= static_cast<uint64_t>(r.u8()) << (8 * i);
    }
    return raw;
  };
  auto sign_extend = [](uint64_t raw, size_t n) {
    int64_t v = static_cast<int64_t>(raw << (64 - 8 * n));
    return v >> (64 - 8 * n);
  };
  EncodedValue v;
  switch (type) {
    case kValueByte:
    case kValueShort:
    case kValueInt:
    case kValueLong: {
      size_t max_bytes = type == kValueByte  ? 1
                         : type == kValueShort ? 2
                         : type == kValueInt   ? 4
                                               : 8;
      size_t n = static_cast<size_t>(arg) + 1;
      if (n > max_bytes) throw ParseError("oversized encoded integer value");
      v.kind = EncodedValue::Kind::kInt;
      v.i = sign_extend(read_bytes(n), n);
      return v;
    }
    case kValueString: {
      size_t n = static_cast<size_t>(arg) + 1;
      if (n > 4) throw ParseError("oversized encoded string index");
      uint64_t idx = read_bytes(n);
      if (idx >= n_strings) throw ParseError("encoded string index out of range");
      v.kind = EncodedValue::Kind::kString;
      v.string_idx = static_cast<uint32_t>(idx);
      return v;
    }
    case kValueNull:
      if (arg != 0) throw ParseError("bad encoded null");
      v.kind = EncodedValue::Kind::kNull;
      return v;
    case kValueBoolean:
      if (arg > 1) throw ParseError("bad encoded boolean");
      v.kind = EncodedValue::Kind::kInt;
      v.i = arg;
      return v;
    default:
      throw ParseError("unsupported encoded value type");
  }
}

// ---------------------------------------------------------------------------
// Code items.
// ---------------------------------------------------------------------------

uint16_t compute_outs(std::span<const uint16_t> units) {
  uint16_t outs = 0;
  size_t pc = 0;
  while (pc < units.size()) {
    bc::Insn insn = bc::decode_at(units, pc);
    if (bc::is_invoke(insn.op)) outs = std::max<uint16_t>(outs, insn.a);
    pc += bc::consumed_units(insn);
  }
  return outs;
}

void write_code_item(ByteWriter& w, const CodeItem& code, uint32_t debug_off) {
  if (code.insns.size() > 0xffff) {
    throw ParseError("code item longer than 65535 units");
  }
  if (code.tries.size() > 0xffff) throw ParseError("too many try items");
  w.u16(code.registers_size);
  w.u16(code.ins_size);
  w.u16(compute_outs(code.insns));
  w.u16(static_cast<uint16_t>(code.tries.size()));
  w.u32(debug_off);
  w.u32(static_cast<uint32_t>(code.insns.size()));
  std::vector<uint16_t> dalvik = bc::transcode_to_dalvik(code.insns);
  for (uint16_t unit : dalvik) w.u16(unit);
  if (code.tries.empty()) return;
  if (code.insns.size() % 2 != 0) w.u16(0);  // 4-byte alignment padding
  // encoded_catch_handler_list: one catch-all entry per try, offsets measured
  // from the start of the list (after all try_items).
  std::vector<uint32_t> handler_offs;
  uint32_t off = static_cast<uint32_t>(
      uleb128_size(static_cast<uint32_t>(code.tries.size())));
  for (const TryItem& t : code.tries) {
    handler_offs.push_back(off);
    off += 1 /* sleb128(0) */ +
           static_cast<uint32_t>(uleb128_size(t.handler_pc));
  }
  for (size_t i = 0; i < code.tries.size(); ++i) {
    const TryItem& t = code.tries[i];
    if (t.end_pc < t.start_pc) throw ParseError("inverted try range");
    if (handler_offs[i] > 0xffff) throw ParseError("handler offset overflow");
    w.u32(t.start_pc);
    w.u16(static_cast<uint16_t>(t.end_pc - t.start_pc));
    w.u16(static_cast<uint16_t>(handler_offs[i]));
  }
  write_uleb128(w, static_cast<uint32_t>(code.tries.size()));
  for (const TryItem& t : code.tries) {
    write_sleb128(w, 0);  // catch-all only
    write_uleb128(w, t.handler_pc);
  }
}

CodeItem read_code_item(std::span<const uint8_t> data, uint32_t off) {
  ByteReader r(data);
  r.seek(off);
  CodeItem code;
  code.registers_size = r.u16();
  code.ins_size = r.u16();
  r.u16();  // outs_size: recomputed at emit
  uint16_t tries_size = r.u16();
  uint32_t debug_off = r.u32();
  uint32_t insns_size = r.u32();
  if (code.ins_size > code.registers_size) {
    throw ParseError("ins exceed registers in code item");
  }
  if (insns_size > 0xffff) throw ParseError("code longer than 65535 units");
  r.check_count(insns_size, 2, "insns");
  std::vector<uint16_t> dalvik;
  dalvik.reserve(insns_size);
  for (uint32_t i = 0; i < insns_size; ++i) dalvik.push_back(r.u16());
  code.insns = bc::transcode_from_dalvik(dalvik);
  if (tries_size > 0) {
    if (insns_size % 2 != 0) r.u16();  // alignment padding
    r.check_count(tries_size, 8, "tries");
    struct RawTry {
      uint32_t start;
      uint16_t count;
      uint16_t handler_off;
    };
    std::vector<RawTry> raw;
    raw.reserve(tries_size);
    for (uint16_t i = 0; i < tries_size; ++i) {
      RawTry t{r.u32(), r.u16(), r.u16()};
      if (t.start > 0xffff ||
          t.start + static_cast<uint32_t>(t.count) > insns_size) {
        throw ParseError("try range outside the code item");
      }
      raw.push_back(t);
    }
    size_t handlers_start = r.pos();
    {
      uint32_t list_size = read_uleb128(r);
      r.check_count(list_size, 2, "catch handler");
    }
    for (const RawTry& t : raw) {
      ByteReader hr(data);
      hr.seek(handlers_start + t.handler_off);
      int32_t size = read_sleb128(hr);
      if (size != 0) {
        throw ParseError("typed catch handlers unsupported (catch-all only)");
      }
      uint32_t handler = read_uleb128(hr);
      if (handler >= insns_size) {
        throw ParseError("catch handler outside the code item");
      }
      TryItem item;
      item.start_pc = static_cast<uint16_t>(t.start);
      item.end_pc = static_cast<uint16_t>(t.start + t.count);
      item.handler_pc = static_cast<uint16_t>(handler);
      code.tries.push_back(item);
    }
  }
  if (debug_off != 0) {
    if (debug_off < kHeaderSize || debug_off >= data.size()) {
      throw ParseError("debug info offset outside the file");
    }
    ByteReader dr(data);
    dr.seek(debug_off);
    code.lines = read_debug_info(dr, insns_size);
  }
  return code;
}

// ---------------------------------------------------------------------------
// Interner: content-addressed pool merge (multidex ingestion).
// ---------------------------------------------------------------------------

struct Interner {
  DexFile& out;
  std::map<std::string, uint32_t> strings;
  std::map<uint32_t, uint32_t> types;  // descriptor string idx -> type idx
  std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint32_t> protos;
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, uint32_t> fields;
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, uint32_t> methods;

  explicit Interner(DexFile& o) : out(o) {}

  uint32_t string(const std::string& s) {
    auto [it, fresh] =
        strings.try_emplace(s, static_cast<uint32_t>(out.strings.size()));
    if (fresh) out.strings.push_back(s);
    return it->second;
  }
  uint32_t type(uint32_t string_idx) {
    auto [it, fresh] =
        types.try_emplace(string_idx, static_cast<uint32_t>(out.types.size()));
    if (fresh) out.types.push_back(string_idx);
    return it->second;
  }
  uint32_t proto(Proto p) {
    auto key = std::make_pair(p.return_type, p.param_types);
    auto [it, fresh] =
        protos.try_emplace(key, static_cast<uint32_t>(out.protos.size()));
    if (fresh) out.protos.push_back(std::move(p));
    return it->second;
  }
  uint32_t field(const FieldRef& f) {
    auto key = std::make_tuple(f.class_type, f.type, f.name);
    auto [it, fresh] =
        fields.try_emplace(key, static_cast<uint32_t>(out.fields.size()));
    if (fresh) out.fields.push_back(f);
    return it->second;
  }
  uint32_t method(const MethodRef& mr) {
    auto key = std::make_tuple(mr.class_type, mr.proto, mr.name);
    auto [it, fresh] =
        methods.try_emplace(key, static_cast<uint32_t>(out.methods.size()));
    if (fresh) out.methods.push_back(mr);
    return it->second;
  }
};

void merge_into(Interner& interner, const DexFile& src) {
  Remap m;
  m.strings.reserve(src.strings.size());
  for (const std::string& s : src.strings) m.strings.push_back(interner.string(s));
  m.types.reserve(src.types.size());
  for (uint32_t t : src.types) {
    m.types.push_back(interner.type(mapped(m.strings, t, "type descriptor")));
  }
  m.protos.reserve(src.protos.size());
  for (const Proto& p : src.protos) {
    Proto q;
    q.return_type = mapped(m.types, p.return_type, "proto return type");
    for (uint32_t t : p.param_types) {
      q.param_types.push_back(mapped(m.types, t, "proto parameter type"));
    }
    m.protos.push_back(interner.proto(std::move(q)));
  }
  m.fields.reserve(src.fields.size());
  for (const FieldRef& f : src.fields) {
    FieldRef g;
    g.class_type = mapped(m.types, f.class_type, "field class");
    g.type = mapped(m.types, f.type, "field type");
    g.name = mapped(m.strings, f.name, "field name");
    m.fields.push_back(interner.field(g));
  }
  m.methods.reserve(src.methods.size());
  for (const MethodRef& mr : src.methods) {
    MethodRef n;
    n.class_type = mapped(m.types, mr.class_type, "method class");
    n.proto = mapped(m.protos, mr.proto, "method proto");
    n.name = mapped(m.strings, mr.name, "method name");
    m.methods.push_back(interner.method(n));
  }
  for (const ClassDef& cls : src.classes) {
    ClassDef copy = cls;
    remap_class(copy, m);
    interner.out.classes.push_back(std::move(copy));
  }
}

bool parse_real_entry_index(std::string_view name, size_t* index) {
  if (name == "classes.dex") {
    *index = 0;
    return true;
  }
  constexpr std::string_view kPrefix = "classes";
  constexpr std::string_view kSuffix = ".dex";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  size_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<size_t>(c - '0');
    if (n > 4096) return false;  // nobody ships four thousand dex parts
  }
  if (n < 2) return false;  // "classes1.dex" / "classes0.dex" are not a thing
  *index = n - 1;
  return true;
}

}  // namespace

bool is_real_dex(std::span<const uint8_t> data) {
  return data.size() >= sizeof(kRealDexMagic) &&
         std::memcmp(data.data(), kRealDexMagic, sizeof(kRealDexMagic)) == 0;
}

bool is_ldex(std::span<const uint8_t> data) {
  return data.size() >= sizeof(kMagic) &&
         std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
}

std::vector<uint8_t> emit_real(const DexFile& file) {
  DexFile f = canonicalize(file);
  if (f.types.size() > 0xffff) {
    throw ParseError("type pool exceeds the real DEX 16-bit limit");
  }
  if (f.protos.size() > 0xffff) {
    throw ParseError("proto pool exceeds the real DEX 16-bit limit");
  }

  const size_t S = f.strings.size(), T = f.types.size(), P = f.protos.size();
  const size_t F = f.fields.size(), M = f.methods.size(), C = f.classes.size();
  const uint32_t string_ids_off = kHeaderSize;
  const uint32_t type_ids_off = static_cast<uint32_t>(string_ids_off + 4 * S);
  const uint32_t proto_ids_off = static_cast<uint32_t>(type_ids_off + 4 * T);
  const uint32_t field_ids_off = static_cast<uint32_t>(proto_ids_off + 12 * P);
  const uint32_t method_ids_off = static_cast<uint32_t>(field_ids_off + 8 * F);
  const uint32_t class_defs_off = static_cast<uint32_t>(method_ids_off + 8 * M);
  const uint32_t data_start = static_cast<uint32_t>(class_defs_off + 32 * C);

  ByteWriter data;
  auto off_of = [&] { return data_start + static_cast<uint32_t>(data.size()); };

  struct Section {
    uint32_t count = 0;
    uint32_t first = 0;
    void record(uint32_t off) {
      if (count == 0) first = off;
      ++count;
    }
  };
  Section sec_type_lists, sec_debug, sec_code, sec_class_data, sec_arrays,
      sec_string_data;

  // (a) type_lists for proto parameter lists, deduplicated by content.
  std::map<std::vector<uint32_t>, uint32_t> type_list_off;
  for (const Proto& p : f.protos) {
    if (p.param_types.empty() || type_list_off.count(p.param_types)) continue;
    data.align(4);
    uint32_t off = off_of();
    sec_type_lists.record(off);
    type_list_off[p.param_types] = off;
    data.u32(static_cast<uint32_t>(p.param_types.size()));
    for (uint32_t t : p.param_types) data.u16(static_cast<uint16_t>(t));
  }

  auto each_code = [&](auto&& fn) {
    for (ClassDef& cls : f.classes) {
      for (MethodDef& mth : cls.direct_methods) {
        if (mth.code) fn(*mth.code);
      }
      for (MethodDef& mth : cls.virtual_methods) {
        if (mth.code) fn(*mth.code);
      }
    }
  };

  // (b) debug_info items (only methods with line tables).
  std::map<const CodeItem*, uint32_t> debug_offs;
  each_code([&](const CodeItem& code) {
    if (code.lines.empty()) return;
    uint32_t off = off_of();
    sec_debug.record(off);
    debug_offs[&code] = off;
    write_debug_info(data, code.lines);
  });

  // (c) code items (4-aligned).
  std::map<const CodeItem*, uint32_t> code_offs;
  each_code([&](const CodeItem& code) {
    data.align(4);
    uint32_t off = off_of();
    sec_code.record(off);
    code_offs[&code] = off;
    auto it = debug_offs.find(&code);
    write_code_item(data, code, it == debug_offs.end() ? 0 : it->second);
  });

  // (d) class_data items.
  std::vector<uint32_t> class_data_offs(C, 0);
  for (size_t i = 0; i < C; ++i) {
    ClassDef& cls = f.classes[i];
    if (cls.static_fields.empty() && cls.instance_fields.empty() &&
        cls.direct_methods.empty() && cls.virtual_methods.empty()) {
      continue;
    }
    uint32_t off = off_of();
    sec_class_data.record(off);
    class_data_offs[i] = off;
    write_uleb128(data, static_cast<uint32_t>(cls.static_fields.size()));
    write_uleb128(data, static_cast<uint32_t>(cls.instance_fields.size()));
    write_uleb128(data, static_cast<uint32_t>(cls.direct_methods.size()));
    write_uleb128(data, static_cast<uint32_t>(cls.virtual_methods.size()));
    auto write_fields = [&](const std::vector<FieldDef>& fields) {
      uint32_t prev = 0;
      for (size_t j = 0; j < fields.size(); ++j) {
        uint32_t idx = fields[j].field_ref;
        write_uleb128(data, j == 0 ? idx : idx - prev);
        write_uleb128(data, fields[j].access_flags);
        prev = idx;
      }
    };
    write_fields(cls.static_fields);
    write_fields(cls.instance_fields);
    auto write_methods = [&](const std::vector<MethodDef>& methods) {
      uint32_t prev = 0;
      for (size_t j = 0; j < methods.size(); ++j) {
        uint32_t idx = methods[j].method_ref;
        write_uleb128(data, j == 0 ? idx : idx - prev);
        write_uleb128(data, methods[j].access_flags);
        uint32_t code_off = 0;
        if (methods[j].code) code_off = code_offs.at(&*methods[j].code);
        write_uleb128(data, code_off);
        prev = idx;
      }
    };
    write_methods(cls.direct_methods);
    write_methods(cls.virtual_methods);
  }

  // (e) encoded arrays: static field initializer prefixes.
  std::vector<uint32_t> static_values_offs(C, 0);
  for (size_t i = 0; i < C; ++i) {
    const ClassDef& cls = f.classes[i];
    size_t prefix = 0;
    for (size_t j = 0; j < cls.static_fields.size(); ++j) {
      if (cls.static_fields[j].static_init) prefix = j + 1;
    }
    if (prefix == 0) continue;
    uint32_t off = off_of();
    sec_arrays.record(off);
    static_values_offs[i] = off;
    write_uleb128(data, static_cast<uint32_t>(prefix));
    for (size_t j = 0; j < prefix; ++j) {
      const FieldDef& fd = cls.static_fields[j];
      if (fd.static_init) {
        write_encoded_value(data, *fd.static_init);
      } else {
        // Gap in the prefix: the field's default value, typed so a parse ->
        // emit round trip reproduces these exact bytes.
        const FieldRef& ref = f.fields.at(fd.field_ref);
        char c = shorty_char(f.strings.at(f.types.at(ref.type)));
        EncodedValue dflt;
        dflt.kind = c == 'L' ? EncodedValue::Kind::kNull
                             : EncodedValue::Kind::kInt;
        write_encoded_value(data, dflt);
      }
    }
  }

  // (f) string_data, in string_ids order (offsets strictly increasing).
  std::vector<uint32_t> string_data_offs(S);
  for (size_t i = 0; i < S; ++i) {
    uint32_t off = off_of();
    sec_string_data.record(off);
    string_data_offs[i] = off;
    write_string_data(data, f.strings[i]);
  }

  // (g) map_list.
  data.align(4);
  const uint32_t map_off = off_of();
  struct MapEntry {
    uint16_t type;
    uint32_t count;
    uint32_t off;
  };
  std::vector<MapEntry> map;
  map.push_back({kMapHeader, 1, 0});
  if (S) map.push_back({kMapStringId, static_cast<uint32_t>(S), string_ids_off});
  if (T) map.push_back({kMapTypeId, static_cast<uint32_t>(T), type_ids_off});
  if (P) map.push_back({kMapProtoId, static_cast<uint32_t>(P), proto_ids_off});
  if (F) map.push_back({kMapFieldId, static_cast<uint32_t>(F), field_ids_off});
  if (M) map.push_back({kMapMethodId, static_cast<uint32_t>(M), method_ids_off});
  if (C) map.push_back({kMapClassDef, static_cast<uint32_t>(C), class_defs_off});
  auto add_section = [&](uint16_t type, const Section& s) {
    if (s.count) map.push_back({type, s.count, s.first});
  };
  add_section(kMapTypeList, sec_type_lists);
  add_section(kMapDebugInfo, sec_debug);
  add_section(kMapCodeItem, sec_code);
  add_section(kMapClassData, sec_class_data);
  add_section(kMapEncodedArray, sec_arrays);
  add_section(kMapStringData, sec_string_data);
  map.push_back({kMapMapList, 1, map_off});
  data.u32(static_cast<uint32_t>(map.size()));
  for (const MapEntry& e : map) {
    data.u16(e.type);
    data.u16(0);
    data.u32(e.count);
    data.u32(e.off);
  }

  const uint32_t file_size = data_start + static_cast<uint32_t>(data.size());

  ByteWriter out;
  out.raw(kRealDexMagic, sizeof(kRealDexMagic));
  out.u32(0);                                   // checksum (patched below)
  for (int i = 0; i < 20; ++i) out.u8(0);       // signature (patched below)
  out.u32(file_size);
  out.u32(kHeaderSize);
  out.u32(kEndianTag);
  out.u32(0);  // link_size
  out.u32(0);  // link_off
  out.u32(map_off);
  out.u32(static_cast<uint32_t>(S));
  out.u32(S ? string_ids_off : 0);
  out.u32(static_cast<uint32_t>(T));
  out.u32(T ? type_ids_off : 0);
  out.u32(static_cast<uint32_t>(P));
  out.u32(P ? proto_ids_off : 0);
  out.u32(static_cast<uint32_t>(F));
  out.u32(F ? field_ids_off : 0);
  out.u32(static_cast<uint32_t>(M));
  out.u32(M ? method_ids_off : 0);
  out.u32(static_cast<uint32_t>(C));
  out.u32(C ? class_defs_off : 0);
  out.u32(file_size - data_start);  // data_size
  out.u32(data_start);              // data_off

  for (uint32_t off : string_data_offs) out.u32(off);
  for (uint32_t t : f.types) out.u32(t);
  for (const Proto& p : f.protos) {
    std::string shorty = shorty_of(f, p);
    auto it = std::lower_bound(f.strings.begin(), f.strings.end(), shorty);
    if (it == f.strings.end() || *it != shorty) {
      throw ParseError("shorty string missing from canonical pool");
    }
    out.u32(static_cast<uint32_t>(it - f.strings.begin()));
    out.u32(p.return_type);
    out.u32(p.param_types.empty() ? 0 : type_list_off.at(p.param_types));
  }
  for (const FieldRef& fr : f.fields) {
    out.u16(static_cast<uint16_t>(fr.class_type));
    out.u16(static_cast<uint16_t>(fr.type));
    out.u32(fr.name);
  }
  for (const MethodRef& mr : f.methods) {
    out.u16(static_cast<uint16_t>(mr.class_type));
    out.u16(static_cast<uint16_t>(mr.proto));
    out.u32(mr.name);
  }
  for (size_t i = 0; i < C; ++i) {
    const ClassDef& cls = f.classes[i];
    out.u32(cls.type_idx);
    out.u32(cls.access_flags);
    out.u32(cls.super_type_idx);  // kNoIndex == NO_INDEX == 0xffffffff
    out.u32(0);                   // interfaces_off
    out.u32(kNoIndex);            // source_file_idx
    out.u32(0);                   // annotations_off
    out.u32(class_data_offs[i]);
    out.u32(static_values_offs[i]);
  }
  out.bytes(data.data());

  std::vector<uint8_t> bytes = out.take();
  std::array<uint8_t, 20> sig =
      support::sha1(std::span<const uint8_t>(bytes).subspan(32));
  std::memcpy(bytes.data() + 12, sig.data(), sig.size());
  uint32_t checksum =
      support::adler32(std::span<const uint8_t>(bytes).subspan(12));
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<size_t>(8 + i)] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  return bytes;
}

DexFile parse_real(std::span<const uint8_t> data) {
  if (data.size() < kHeaderSize) {
    throw ParseError("real DEX shorter than its header");
  }
  if (!is_real_dex(data)) throw ParseError("bad real DEX magic");

  ByteReader hr(data);
  hr.skip(sizeof(kRealDexMagic));
  uint32_t checksum = hr.u32();
  std::vector<uint8_t> sig = hr.bytes(20);
  uint32_t file_size = hr.u32();
  uint32_t header_size = hr.u32();
  uint32_t endian_tag = hr.u32();
  uint32_t link_size = hr.u32();
  uint32_t link_off = hr.u32();
  uint32_t map_off = hr.u32();
  uint32_t n_strings = hr.u32(), string_ids_off = hr.u32();
  uint32_t n_types = hr.u32(), type_ids_off = hr.u32();
  uint32_t n_protos = hr.u32(), proto_ids_off = hr.u32();
  uint32_t n_fields = hr.u32(), field_ids_off = hr.u32();
  uint32_t n_methods = hr.u32(), method_ids_off = hr.u32();
  uint32_t n_classes = hr.u32(), class_defs_off = hr.u32();
  hr.u32();  // data_size
  hr.u32();  // data_off

  if (file_size != data.size()) throw ParseError("real DEX size mismatch");
  if (header_size != kHeaderSize) {
    throw ParseError("unsupported real DEX header size");
  }
  if (endian_tag != kEndianTag) throw ParseError("unsupported DEX endianness");
  if (link_size != 0 || link_off != 0) {
    throw ParseError("linked real DEX unsupported");
  }
  if (support::adler32(data.subspan(12)) != checksum) {
    throw ParseError("real DEX checksum mismatch");
  }
  std::array<uint8_t, 20> want = support::sha1(data.subspan(32));
  if (std::memcmp(want.data(), sig.data(), want.size()) != 0) {
    throw ParseError("real DEX signature mismatch");
  }
  if (n_types > 0x10000) throw ParseError("implausible type_ids count");
  if (n_protos > 0x10000) throw ParseError("implausible proto_ids count");

  // Section plausibility: offset inside the file, 4-aligned, and the count
  // must fit in the bytes after it (check_count lifted to absolute offsets).
  auto check_section = [&](uint32_t off, uint64_t n, size_t elem,
                           const char* what) {
    if (n == 0) return;
    if (off < kHeaderSize || off % 4 != 0 || off >= data.size() ||
        n > (data.size() - off) / elem) {
      throw ParseError(std::string("implausible ") + what + " section");
    }
  };
  check_section(string_ids_off, n_strings, 4, "string_ids");
  check_section(type_ids_off, n_types, 4, "type_ids");
  check_section(proto_ids_off, n_protos, 12, "proto_ids");
  check_section(field_ids_off, n_fields, 8, "field_ids");
  check_section(method_ids_off, n_methods, 8, "method_ids");
  check_section(class_defs_off, n_classes, 32, "class_defs");

  DexFile f;

  // Strings. Offsets must be strictly increasing — equal or backward offsets
  // are the pool-aliasing attack (two ids sharing bytes confuse dedup and
  // make emit non-idempotent), so they fail closed here.
  {
    ByteReader ids(data);
    ids.seek(string_ids_off);
    uint32_t prev = 0;
    f.strings.reserve(n_strings);
    for (uint32_t i = 0; i < n_strings; ++i) {
      uint32_t off = ids.u32();
      if (off < kHeaderSize || off >= data.size()) {
        throw ParseError("string data offset outside the file");
      }
      if (i > 0 && off <= prev) {
        throw ParseError("string data offsets alias or go backwards");
      }
      prev = off;
      ByteReader sr(data);
      sr.seek(off);
      f.strings.push_back(read_string_data(sr));
    }
  }

  // Types.
  {
    ByteReader ids(data);
    ids.seek(type_ids_off);
    f.types.reserve(n_types);
    for (uint32_t i = 0; i < n_types; ++i) {
      uint32_t s = ids.u32();
      if (s >= n_strings) throw ParseError("type descriptor index out of range");
      f.types.push_back(s);
    }
  }

  // Protos (with shorty cross-validation — a lying shorty is hostile).
  {
    ByteReader ids(data);
    ids.seek(proto_ids_off);
    f.protos.reserve(n_protos);
    for (uint32_t i = 0; i < n_protos; ++i) {
      uint32_t shorty_idx = ids.u32();
      uint32_t return_type = ids.u32();
      uint32_t params_off = ids.u32();
      if (shorty_idx >= n_strings) throw ParseError("shorty index out of range");
      if (return_type >= n_types) {
        throw ParseError("proto return type out of range");
      }
      Proto p;
      p.return_type = return_type;
      if (params_off != 0) {
        if (params_off < kHeaderSize || params_off % 4 != 0 ||
            params_off >= data.size()) {
          throw ParseError("proto parameter list offset outside the file");
        }
        ByteReader tl(data);
        tl.seek(params_off);
        uint32_t n = tl.u32();
        tl.check_count(n, 2, "type_list");
        p.param_types.reserve(n);
        for (uint32_t j = 0; j < n; ++j) {
          uint16_t t = tl.u16();
          if (t >= n_types) throw ParseError("parameter type out of range");
          p.param_types.push_back(t);
        }
      }
      if (f.strings[shorty_idx] != shorty_of(f, p)) {
        throw ParseError("proto shorty does not match its signature");
      }
      f.protos.push_back(std::move(p));
    }
  }

  // Fields.
  {
    ByteReader ids(data);
    ids.seek(field_ids_off);
    f.fields.reserve(n_fields);
    for (uint32_t i = 0; i < n_fields; ++i) {
      FieldRef fr;
      fr.class_type = ids.u16();
      fr.type = ids.u16();
      fr.name = ids.u32();
      if (fr.class_type >= n_types || fr.type >= n_types) {
        throw ParseError("field type out of range");
      }
      if (fr.name >= n_strings) throw ParseError("field name out of range");
      f.fields.push_back(fr);
    }
  }

  // Methods.
  {
    ByteReader ids(data);
    ids.seek(method_ids_off);
    f.methods.reserve(n_methods);
    for (uint32_t i = 0; i < n_methods; ++i) {
      MethodRef mr;
      mr.class_type = ids.u16();
      mr.proto = ids.u16();
      mr.name = ids.u32();
      if (mr.class_type >= n_types) throw ParseError("method class out of range");
      if (mr.proto >= n_protos) throw ParseError("method proto out of range");
      if (mr.name >= n_strings) throw ParseError("method name out of range");
      f.methods.push_back(mr);
    }
  }

  // Class definitions.
  {
    ByteReader ids(data);
    ids.seek(class_defs_off);
    f.classes.reserve(n_classes);
    for (uint32_t i = 0; i < n_classes; ++i) {
      ClassDef cls;
      cls.type_idx = ids.u32();
      cls.access_flags = ids.u32();
      cls.super_type_idx = ids.u32();
      uint32_t interfaces_off = ids.u32();
      uint32_t source_file_idx = ids.u32();
      uint32_t annotations_off = ids.u32();
      uint32_t class_data_off = ids.u32();
      uint32_t static_values_off = ids.u32();
      if (cls.type_idx >= n_types) throw ParseError("class type out of range");
      if (cls.super_type_idx != kNoIndex && cls.super_type_idx >= n_types) {
        throw ParseError("superclass type out of range");
      }
      if (source_file_idx != kNoIndex && source_file_idx >= n_strings) {
        throw ParseError("source file index out of range");
      }
      if (annotations_off != 0) {
        throw ParseError("annotations unsupported in real DEX reader");
      }
      if (interfaces_off != 0) {
        // Validated as a well-formed type_list, then ignored (the model has
        // no interface table).
        if (interfaces_off < kHeaderSize || interfaces_off % 4 != 0 ||
            interfaces_off >= data.size()) {
          throw ParseError("interface list offset outside the file");
        }
        ByteReader tl(data);
        tl.seek(interfaces_off);
        uint32_t n = tl.u32();
        tl.check_count(n, 2, "interface list");
        for (uint32_t j = 0; j < n; ++j) {
          if (tl.u16() >= n_types) throw ParseError("interface type out of range");
        }
      }
      if (class_data_off != 0) {
        if (class_data_off < kHeaderSize || class_data_off >= data.size()) {
          throw ParseError("class data offset outside the file");
        }
        ByteReader cd(data);
        cd.seek(class_data_off);
        uint32_t n_static = read_uleb128(cd);
        uint32_t n_instance = read_uleb128(cd);
        uint32_t n_direct = read_uleb128(cd);
        uint32_t n_virtual = read_uleb128(cd);
        cd.check_count(n_static, 2, "static field");
        cd.check_count(n_instance, 2, "instance field");
        cd.check_count(n_direct, 3, "direct method");
        cd.check_count(n_virtual, 3, "virtual method");
        auto read_fields = [&](uint32_t n, std::vector<FieldDef>& out_list) {
          uint64_t idx = 0;
          for (uint32_t j = 0; j < n; ++j) {
            uint32_t diff = read_uleb128(cd);
            if (j > 0 && diff == 0) {
              throw ParseError("duplicate field in class data");
            }
            idx = j == 0 ? diff : idx + diff;
            if (idx >= n_fields) throw ParseError("class field out of range");
            FieldDef fd;
            fd.field_ref = static_cast<uint32_t>(idx);
            fd.access_flags = read_uleb128(cd);
            out_list.push_back(fd);
          }
        };
        auto read_methods = [&](uint32_t n, std::vector<MethodDef>& out_list) {
          uint64_t idx = 0;
          for (uint32_t j = 0; j < n; ++j) {
            uint32_t diff = read_uleb128(cd);
            if (j > 0 && diff == 0) {
              throw ParseError("duplicate method in class data");
            }
            idx = j == 0 ? diff : idx + diff;
            if (idx >= n_methods) throw ParseError("class method out of range");
            MethodDef md;
            md.method_ref = static_cast<uint32_t>(idx);
            md.access_flags = read_uleb128(cd);
            uint32_t code_off = read_uleb128(cd);
            if (code_off != 0) {
              if (code_off < kHeaderSize || code_off % 4 != 0 ||
                  code_off >= data.size()) {
                throw ParseError("code item offset outside the file");
              }
              md.code = read_code_item(data, code_off);
            }
            out_list.push_back(std::move(md));
          }
        };
        read_fields(n_static, cls.static_fields);
        read_fields(n_instance, cls.instance_fields);
        read_methods(n_direct, cls.direct_methods);
        read_methods(n_virtual, cls.virtual_methods);
      }
      if (static_values_off != 0) {
        if (static_values_off < kHeaderSize ||
            static_values_off >= data.size()) {
          throw ParseError("static values offset outside the file");
        }
        ByteReader ev(data);
        ev.seek(static_values_off);
        uint32_t n = read_uleb128(ev);
        if (n > cls.static_fields.size()) {
          throw ParseError("static values exceed static fields");
        }
        ev.check_count(n, 1, "static value");
        for (uint32_t j = 0; j < n; ++j) {
          cls.static_fields[j].static_init = read_encoded_value(ev, n_strings);
        }
      }
      f.classes.push_back(std::move(cls));
    }
  }

  // Map list: required, bounded, and its entries must stay inside the file.
  if (map_off == 0 || map_off % 4 != 0 || map_off >= data.size()) {
    throw ParseError("map list offset outside the file");
  }
  {
    ByteReader mr(data);
    mr.seek(map_off);
    uint32_t n = mr.u32();
    mr.check_count(n, 12, "map entry");
    for (uint32_t i = 0; i < n; ++i) {
      mr.u16();  // type
      mr.u16();  // unused
      mr.u32();  // size
      uint32_t off = mr.u32();
      if (off > data.size()) throw ParseError("map entry offset outside the file");
    }
  }

  return f;
}

DexFile load_any(std::span<const uint8_t> data) {
  if (is_ldex(data)) return read_dex(data);
  if (is_real_dex(data)) return parse_real(data);
  throw ParseError("unknown executable container magic");
}

std::string real_classes_entry(size_t index) {
  if (index == 0) return "classes.dex";
  return "classes" + std::to_string(index + 1) + ".dex";
}

bool has_classes(const Apk& apk) {
  return apk.has_entry(Apk::kClassesEntry) ||
         apk.has_entry(real_classes_entry(0));
}

DexFile load_classes(const Apk& apk) {
  if (apk.has_entry(Apk::kClassesEntry)) return read_dex(apk.classes());
  if (!apk.has_entry(real_classes_entry(0))) {
    throw ParseError("APK carries no executable payload");
  }
  size_t parts = 1;
  while (apk.has_entry(real_classes_entry(parts))) ++parts;
  // A classesN.dex beyond the first gap means the sequence is truncated —
  // loading a subset of the app silently would be wrong, so fail closed.
  for (const std::string& name : apk.entry_names()) {
    size_t index = 0;
    if (parse_real_entry_index(name, &index) && index >= parts) {
      throw ParseError("multidex sequence has a gap before " + name);
    }
  }
  DexFile merged;
  Interner interner(merged);
  for (size_t i = 0; i < parts; ++i) {
    merge_into(interner, parse_real(apk.entry(real_classes_entry(i))));
  }
  // Aliased parts (the same class defined by two classesN.dex) would make the
  // winner load-order-dependent; fail closed instead.
  std::set<uint32_t> defined;
  for (const ClassDef& cls : merged.classes) {
    if (!defined.insert(cls.type_idx).second) {
      throw ParseError("duplicate class definition across multidex parts: " +
                       merged.type_descriptor(cls.type_idx));
    }
  }
  return merged;
}

void strip_real_classes(Apk& apk) {
  for (const std::string& name : apk.entry_names()) {
    size_t index = 0;
    if (parse_real_entry_index(name, &index)) apk.remove_entry(name);
  }
}

Apk to_real_container(const Apk& apk, size_t parts) {
  if (parts == 0) parts = 1;
  DexFile model = load_classes(apk);
  Apk out = apk;
  if (out.has_entry(Apk::kClassesEntry)) out.remove_entry(Apk::kClassesEntry);
  strip_real_classes(out);
  const size_t per = (model.classes.size() + parts - 1) / parts;
  for (size_t k = 0; k < parts; ++k) {
    DexFile part = model;
    size_t begin = std::min(k * per, model.classes.size());
    size_t end = std::min(begin + per, model.classes.size());
    part.classes.assign(model.classes.begin() + static_cast<ptrdiff_t>(begin),
                        model.classes.begin() + static_cast<ptrdiff_t>(end));
    out.set_entry(real_classes_entry(k), emit_real(part));
  }
  return out;
}

}  // namespace dexlego::dex

// In-memory model of an LDEX file — the DEX-like executable format used by
// the whole reproduction. Mirrors the real Dalvik Executable layout at the
// level DexLego cares about: constant pools indexed by instructions, class
// definitions that own field/method definitions, and exactly one 16-bit
// instruction array per method (the constraint that makes reassembling
// self-modifying code non-trivial, Section IV-B of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dexlego::dex {

inline constexpr uint32_t kNoIndex = 0xffffffffu;

// Method prototype: return type + parameter types (type pool indices).
struct Proto {
  uint32_t return_type = 0;
  std::vector<uint32_t> param_types;

  bool operator==(const Proto&) const = default;
};

// Reference pools. Instructions address fields/methods through these,
// exactly like field_ids / method_ids in real DEX.
struct FieldRef {
  uint32_t class_type = 0;  // type pool index of declaring class
  uint32_t type = 0;        // type pool index of field type
  uint32_t name = 0;        // string pool index

  bool operator==(const FieldRef&) const = default;
};

struct MethodRef {
  uint32_t class_type = 0;  // type pool index of declaring class
  uint32_t proto = 0;       // proto pool index
  uint32_t name = 0;        // string pool index

  bool operator==(const MethodRef&) const = default;
};

// Exception table entry (catch-all handlers only; enough for the paper's
// force-execution exception-tolerance machinery and try/catch samples).
struct TryItem {
  uint16_t start_pc = 0;   // first covered code unit
  uint16_t end_pc = 0;     // one past last covered code unit
  uint16_t handler_pc = 0; // handler entry
};

// Source-line table entry (JaCoCo-style line coverage needs this).
struct LineEntry {
  uint16_t pc = 0;
  uint32_t line = 0;
};

// The source line of every pc under a line table: the line of the last
// entry, in table order, whose pc is <= the pc, or 0 when there is none.
// Tables need not be sorted. Built in one pass over the table, so looking
// up every instruction of a method costs time linear in its size.
class LineTable {
 public:
  explicit LineTable(std::span<const LineEntry> lines);
  uint32_t at(size_t pc) const;

 private:
  std::vector<uint32_t> line_;  // indexed by pc, up to the table's last pc
};

struct CodeItem {
  uint16_t registers_size = 0;  // total registers in the frame
  uint16_t ins_size = 0;        // trailing registers holding arguments
  std::vector<uint16_t> insns;  // the single instruction array
  std::vector<TryItem> tries;
  std::vector<LineEntry> lines;
};

// Access flags, a subset of real DEX access_flags values.
enum AccessFlags : uint32_t {
  kAccPublic = 0x0001,
  kAccPrivate = 0x0002,
  kAccStatic = 0x0008,
  kAccNative = 0x0100,
  kAccAbstract = 0x0400,
  kAccConstructor = 0x10000,
  kAccSynthetic = 0x1000,
};

// Static field initializer (encoded_value analog).
struct EncodedValue {
  enum class Kind : uint8_t { kInt = 0, kString = 1, kNull = 2 };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  uint32_t string_idx = 0;
};

struct FieldDef {
  uint32_t field_ref = 0;  // field pool index
  uint32_t access_flags = kAccPublic;
  std::optional<EncodedValue> static_init;  // static fields only
};

struct MethodDef {
  uint32_t method_ref = 0;  // method pool index
  uint32_t access_flags = kAccPublic;
  std::optional<CodeItem> code;  // absent for native/abstract methods
};

struct ClassDef {
  uint32_t type_idx = 0;                 // type pool index of this class
  uint32_t super_type_idx = kNoIndex;    // kNoIndex for root classes
  uint32_t access_flags = kAccPublic;
  std::vector<FieldDef> static_fields;
  std::vector<FieldDef> instance_fields;
  std::vector<MethodDef> direct_methods;   // static / private / constructors
  std::vector<MethodDef> virtual_methods;
};

// A complete LDEX file.
struct DexFile {
  std::vector<std::string> strings;
  std::vector<uint32_t> types;  // type descriptor as string pool index
  std::vector<Proto> protos;
  std::vector<FieldRef> fields;
  std::vector<MethodRef> methods;
  std::vector<ClassDef> classes;

  // --- convenience accessors (bounds-checked, throw std::out_of_range) ---
  const std::string& string_at(uint32_t idx) const { return strings.at(idx); }
  const std::string& type_descriptor(uint32_t type_idx) const {
    return strings.at(types.at(type_idx));
  }
  const std::string& field_name(uint32_t field_idx) const {
    return strings.at(fields.at(field_idx).name);
  }
  const std::string& method_name(uint32_t method_idx) const {
    return strings.at(methods.at(method_idx).name);
  }

  // Human-readable signature "Lcom/Foo;->bar(II)V" for diagnostics.
  std::string pretty_method(uint32_t method_idx) const;
  std::string pretty_field(uint32_t field_idx) const;
  // "(II)V"-style descriptor of a proto.
  std::string proto_shorty(uint32_t proto_idx) const;

  // Find a class definition by descriptor; nullptr if absent.
  const ClassDef* find_class(std::string_view descriptor) const;
  ClassDef* find_class(std::string_view descriptor);

  // Find the method pool index for class+name (first match); kNoIndex if absent.
  uint32_t find_method_ref(std::string_view class_descriptor,
                           std::string_view name) const;

  // Total instruction count (decoded, not code units) across all code items —
  // the "# of Instructions" metric in Tables I and VI. Counted in code units
  // of real instructions (payloads excluded) via the bytecode walker.
  size_t total_code_units() const;
};

}  // namespace dexlego::dex

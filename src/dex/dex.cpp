#include "src/dex/dex.h"

#include <algorithm>
#include <stdexcept>

namespace dexlego::dex {

namespace {
// Compact one-letter form of a type for shorty strings.
char shorty_char(const std::string& descriptor) {
  if (descriptor.empty()) return '?';
  switch (descriptor[0]) {
    case 'V': return 'V';
    case 'I': return 'I';
    case 'Z': return 'Z';
    case 'J': return 'J';
    case 'L': return 'L';
    case '[': return '[';
    default: return '?';
  }
}
}  // namespace

LineTable::LineTable(std::span<const LineEntry> lines) {
  if (lines.empty()) return;
  uint16_t last_pc = std::ranges::max_element(lines, {}, &LineEntry::pc)->pc;
  // First the 1-based index of the last entry at each pc, then a running
  // maximum turns it into the last entry at or below each pc.
  line_.assign(size_t{last_pc} + 1, 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    line_[lines[i].pc] = static_cast<uint32_t>(i + 1);
  }
  uint32_t best = 0;
  for (uint32_t& slot : line_) {
    best = std::max(best, slot);
    slot = best == 0 ? 0 : lines[best - 1].line;
  }
}

uint32_t LineTable::at(size_t pc) const {
  if (line_.empty()) return 0;
  return line_[std::min(pc, line_.size() - 1)];
}

std::string DexFile::pretty_method(uint32_t method_idx) const {
  const MethodRef& ref = methods.at(method_idx);
  return type_descriptor(ref.class_type) + "->" + strings.at(ref.name) +
         proto_shorty(ref.proto);
}

std::string DexFile::pretty_field(uint32_t field_idx) const {
  const FieldRef& ref = fields.at(field_idx);
  return type_descriptor(ref.class_type) + "->" + strings.at(ref.name) + ":" +
         type_descriptor(ref.type);
}

std::string DexFile::proto_shorty(uint32_t proto_idx) const {
  const Proto& proto = protos.at(proto_idx);
  std::string out = "(";
  for (uint32_t p : proto.param_types) out += shorty_char(type_descriptor(p));
  out += ")";
  out += shorty_char(type_descriptor(proto.return_type));
  return out;
}

const ClassDef* DexFile::find_class(std::string_view descriptor) const {
  for (const ClassDef& cls : classes) {
    if (type_descriptor(cls.type_idx) == descriptor) return &cls;
  }
  return nullptr;
}

ClassDef* DexFile::find_class(std::string_view descriptor) {
  return const_cast<ClassDef*>(
      static_cast<const DexFile*>(this)->find_class(descriptor));
}

uint32_t DexFile::find_method_ref(std::string_view class_descriptor,
                                  std::string_view name) const {
  for (uint32_t i = 0; i < methods.size(); ++i) {
    const MethodRef& ref = methods[i];
    if (strings.at(ref.name) == name &&
        type_descriptor(ref.class_type) == class_descriptor) {
      return i;
    }
  }
  return kNoIndex;
}

size_t DexFile::total_code_units() const {
  size_t total = 0;
  for (const ClassDef& cls : classes) {
    for (const auto* methods_vec : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const MethodDef& m : *methods_vec) {
        if (m.code) total += m.code->insns.size();
      }
    }
  }
  return total;
}

}  // namespace dexlego::dex

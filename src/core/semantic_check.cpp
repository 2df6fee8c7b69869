#include "src/core/semantic_check.h"

#include <map>
#include <sstream>

#include "src/bytecode/insn.h"
#include "src/support/bytes.h"

namespace dexlego::core {

namespace {

// Canonical token for an instruction: opcode plus the *symbolic* operand
// (pool indices differ between files; offsets differ between layouts).
std::string token_of(const dex::DexFile& file, const bc::Insn& insn) {
  std::string tok(bc::op_info(insn.op).name);
  switch (bc::op_info(insn.op).ref) {
    case bc::RefKind::kString:
      tok += " s:" + file.string_at(insn.idx);
      break;
    case bc::RefKind::kType:
      tok += " t:" + file.type_descriptor(insn.idx);
      break;
    case bc::RefKind::kField:
      tok += " f:" + file.pretty_field(insn.idx);
      break;
    case bc::RefKind::kMethod:
      tok += " m:" + file.pretty_method(insn.idx);
      break;
    case bc::RefKind::kNone:
      break;
  }
  return tok;
}

std::map<std::string, size_t> tokens_of(const dex::DexFile& file,
                                        const dex::CodeItem& code) {
  std::map<std::string, size_t> tokens;
  std::span<const uint16_t> insns(code.insns);
  size_t pc = 0;
  while (pc < insns.size()) {
    bc::Insn insn;
    try {
      insn = bc::decode_at(insns, pc);
    } catch (const support::ParseError&) {
      break;
    }
    if (insn.op != bc::Op::kPayload && insn.op != bc::Op::kNop) {
      ++tokens[token_of(file, insn)];
    }
    pc += bc::consumed_units(insn);
  }
  return tokens;
}

std::string method_key(const dex::DexFile& file, uint32_t method_ref) {
  const dex::MethodRef& ref = file.methods.at(method_ref);
  std::string name = file.string_at(ref.name);
  // Method variants fold into their base method.
  auto dollar = name.find("$v");
  if (dollar != std::string::npos) name = name.substr(0, dollar);
  return file.type_descriptor(ref.class_type) + "->" + name +
         file.proto_shorty(ref.proto);
}

}  // namespace

std::string ContainmentReport::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAILED") << " (" << methods_checked << " methods";
  if (!missing.empty()) os << ", " << missing.size() << " missing tokens";
  os << ")";
  return os.str();
}

ContainmentReport check_containment(const dex::DexFile& original,
                                    const dex::DexFile& revealed) {
  ContainmentReport report;

  // Accumulate revealed tokens per base method (variants merged).
  std::map<std::string, std::map<std::string, size_t>> revealed_tokens;
  for (const dex::ClassDef& cls : revealed.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        auto tokens = tokens_of(revealed, *m.code);
        auto& slot = revealed_tokens[method_key(revealed, m.method_ref)];
        for (const auto& [tok, count] : tokens) slot[tok] += count;
      }
    }
  }

  report.ok = true;
  for (const dex::ClassDef& cls : original.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        ++report.methods_checked;
        std::string key = method_key(original, m.method_ref);
        auto it = revealed_tokens.find(key);
        auto orig_tokens = tokens_of(original, *m.code);
        if (it == revealed_tokens.end()) {
          report.ok = false;
          report.missing.push_back(key + ": method absent");
          continue;
        }
        for (const auto& [tok, count] : orig_tokens) {
          auto rit = it->second.find(tok);
          size_t have = rit == it->second.end() ? 0 : rit->second;
          if (have < count) {
            report.ok = false;
            report.missing.push_back(key + ": " + tok);
          }
        }
      }
    }
  }
  return report;
}

}  // namespace dexlego::core

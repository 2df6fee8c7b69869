#include "src/bytecode/disasm.h"

#include <span>
#include <sstream>
#include <vector>

namespace dexlego::bc {

namespace {
// "<prefix><n>". Built by appending: GCC 12 at -O3 reports a -Wrestrict
// false positive on a one-letter literal + std::to_string once inlined.
std::string numbered(const char* prefix, size_t n) {
  std::string text = prefix;
  text += std::to_string(n);
  return text;
}

std::string reg(uint8_t r) { return numbered("v", r); }
}  // namespace

std::string disassemble_insn(const dex::DexFile* file, const Insn& insn, size_t pc) {
  const OpInfo& info = op_info(insn.op);
  std::ostringstream os;
  os << info.name;

  auto ref_name = [&](uint16_t idx) -> std::string {
    if (file == nullptr) return numbered("@", idx);
    try {
      switch (info.ref) {
        case RefKind::kString:
          return "\"" + file->string_at(idx) + "\"";
        case RefKind::kType:
          return file->type_descriptor(idx);
        case RefKind::kField:
          return file->pretty_field(idx);
        case RefKind::kMethod:
          return file->pretty_method(idx);
        default:
          return numbered("@", idx);
      }
    } catch (const std::out_of_range&) {
      return "@!" + std::to_string(idx);
    }
  };

  switch (insn.op) {
    case Op::kNop:
    case Op::kReturnVoid:
      break;
    case Op::kConstNull:
    case Op::kMoveResult:
    case Op::kMoveException:
    case Op::kReturn:
    case Op::kThrow:
      os << " " << reg(insn.a);
      break;
    case Op::kMove:
    case Op::kNeg:
    case Op::kNot:
    case Op::kArrayLength:
      os << " " << reg(insn.a) << ", " << reg(insn.b);
      break;
    case Op::kConst16:
    case Op::kConst32:
    case Op::kConstWide:
      os << " " << reg(insn.a) << ", #" << insn.lit;
      break;
    case Op::kConstString:
      os << " " << reg(insn.a) << ", " << ref_name(insn.idx);
      break;
    case Op::kGoto:
      os << " :" << (static_cast<ptrdiff_t>(pc) + insn.off);
      break;
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kIfLt:
    case Op::kIfGe:
    case Op::kIfGt:
    case Op::kIfLe:
      os << " " << reg(insn.a) << ", " << reg(insn.b) << ", :"
         << (static_cast<ptrdiff_t>(pc) + insn.off);
      break;
    case Op::kIfEqz:
    case Op::kIfNez:
    case Op::kIfLtz:
    case Op::kIfGez:
    case Op::kIfGtz:
    case Op::kIfLez:
      os << " " << reg(insn.a) << ", :" << (static_cast<ptrdiff_t>(pc) + insn.off);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kRem:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kCmp:
    case Op::kAget:
    case Op::kAput:
      os << " " << reg(insn.a) << ", " << reg(insn.b) << ", " << reg(insn.c);
      break;
    case Op::kAddLit8:
    case Op::kMulLit8:
      os << " " << reg(insn.a) << ", " << reg(insn.b) << ", #" << insn.lit;
      break;
    case Op::kNewInstance:
      os << " " << reg(insn.a) << ", " << ref_name(insn.idx);
      break;
    case Op::kNewArray:
    case Op::kInstanceOf:
      os << " " << reg(insn.a) << ", " << reg(insn.b) << ", " << ref_name(insn.idx);
      break;
    case Op::kIget:
    case Op::kIput:
      os << " " << reg(insn.a) << ", " << reg(insn.b) << ", " << ref_name(insn.idx);
      break;
    case Op::kSget:
    case Op::kSput:
      os << " " << reg(insn.a) << ", " << ref_name(insn.idx);
      break;
    case Op::kInvokeVirtual:
    case Op::kInvokeDirect:
    case Op::kInvokeStatic: {
      os << " {";
      for (uint8_t i = 0; i < insn.a; ++i) {
        if (i > 0) os << ", ";
        os << reg(insn.args[i]);
      }
      os << "}, " << ref_name(insn.idx);
      break;
    }
    case Op::kPackedSwitch:
      os << " " << reg(insn.a) << ", :payload@"
         << (static_cast<ptrdiff_t>(pc) + insn.off);
      break;
    case Op::kPayload:
      os << " first_key=" << insn.lit << " count=" << insn.payload_count;
      break;
  }
  return os.str();
}

std::string disassemble_code(const dex::DexFile& file, const dex::CodeItem& code) {
  std::ostringstream os;
  os << "    .registers " << code.registers_size << " (ins " << code.ins_size
     << ")\n";
  std::span<const uint16_t> insns(code.insns);
  size_t pc = 0;
  while (pc < insns.size()) {
    Insn insn = decode_at(insns, pc);
    os << "    " << pc << ": " << disassemble_insn(&file, insn, pc) << "\n";
    pc += consumed_units(insn);
  }
  for (const dex::TryItem& t : code.tries) {
    os << "    .catchall {" << t.start_pc << " .. " << t.end_pc << "} -> "
       << t.handler_pc << "\n";
  }
  return os.str();
}

std::string disassemble_class(const dex::DexFile& file, const dex::ClassDef& cls) {
  std::ostringstream os;
  os << ".class " << file.type_descriptor(cls.type_idx) << "\n";
  if (cls.super_type_idx != dex::kNoIndex) {
    os << ".super " << file.type_descriptor(cls.super_type_idx) << "\n";
  }
  auto dump_methods = [&](const std::vector<dex::MethodDef>& methods) {
    for (const dex::MethodDef& m : methods) {
      os << ".method " << file.pretty_method(m.method_ref);
      if (m.access_flags & dex::kAccNative) os << " (native)";
      os << "\n";
      if (m.code) os << disassemble_code(file, *m.code);
      os << ".end method\n";
    }
  };
  dump_methods(cls.direct_methods);
  dump_methods(cls.virtual_methods);
  return os.str();
}

}  // namespace dexlego::bc

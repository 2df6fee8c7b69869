#include "src/bytecode/verify_code.h"

#include <set>

#include "src/bytecode/insn.h"
#include "src/support/bytes.h"

namespace dexlego::bc {

namespace {

class CodeVerifier {
 public:
  CodeVerifier(const dex::DexFile& file, const dex::CodeItem& code,
               const std::string& context, dex::VerifyResult& result)
      : file_(file), code_(code), context_(context), result_(result) {}

  void run() {
    if (code_.insns.empty()) {
      fail("empty instruction array");
      return;
    }
    if (code_.insns.size() > 0xffff) {
      fail("code longer than 65535 units");  // no loader accepts it
      return;
    }
    if (!collect_starts()) return;
    check_instructions();
    check_flow_termination();
  }

 private:
  void fail(const std::string& msg) {
    result_.errors.push_back(context_ + ": " + msg);
  }

  // First pass: decode linearly to learn instruction boundaries.
  bool collect_starts() {
    std::span<const uint16_t> insns(code_.insns);
    size_t pc = 0;
    while (pc < insns.size()) {
      size_t width;
      try {
        width = width_at(insns, pc);
        if (pc + width > insns.size()) {
          fail("instruction at " + std::to_string(pc) + " runs past code end");
          return false;
        }
      } catch (const support::ParseError& e) {
        fail("undecodable instruction at " + std::to_string(pc) + ": " + e.what());
        return false;
      }
      starts_.insert(pc);
      uint8_t raw = static_cast<uint8_t>(insns[pc] & 0xff);
      if (static_cast<Op>(raw) == Op::kPayload) payloads_.insert(pc);
      pc += width;
    }
    return true;
  }

  void check_ref(const Insn& insn, size_t pc) {
    const OpInfo& info = op_info(insn.op);
    bool ok = true;
    switch (info.ref) {
      case RefKind::kString: ok = insn.idx < file_.strings.size(); break;
      case RefKind::kType: ok = insn.idx < file_.types.size(); break;
      case RefKind::kField: ok = insn.idx < file_.fields.size(); break;
      case RefKind::kMethod: ok = insn.idx < file_.methods.size(); break;
      case RefKind::kNone: break;
    }
    if (!ok) {
      fail("pool index out of bounds at pc " + std::to_string(pc));
    }
  }

  void check_regs(const Insn& insn, size_t pc) {
    auto check = [&](uint8_t r) {
      if (r >= code_.registers_size) {
        fail("register v" + std::to_string(r) + " out of frame at pc " +
             std::to_string(pc));
      }
    };
    switch (insn.op) {
      case Op::kNop:
      case Op::kReturnVoid:
      case Op::kGoto:
      case Op::kPayload:
        break;
      case Op::kInvokeVirtual:
      case Op::kInvokeDirect:
      case Op::kInvokeStatic:
        for (uint8_t i = 0; i < insn.a; ++i) check(insn.args[i]);
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
        check(insn.a);
        check(insn.b);
        check(insn.c);
        break;
      case Op::kMove:
      case Op::kNeg:
      case Op::kNot:
      case Op::kArrayLength:
      case Op::kNewArray:
      case Op::kInstanceOf:
      case Op::kIget:
      case Op::kIput:
      case Op::kIfEq:
      case Op::kIfNe:
      case Op::kIfLt:
      case Op::kIfGe:
      case Op::kIfGt:
      case Op::kIfLe:
      case Op::kAddLit8:
      case Op::kMulLit8:
        check(insn.a);
        check(insn.b);
        break;
      default:
        check(insn.a);
        break;
    }
  }

  void check_branch_target(size_t pc, ptrdiff_t target) {
    if (target < 0 || static_cast<size_t>(target) >= code_.insns.size() ||
        !starts_.contains(static_cast<size_t>(target))) {
      fail("branch target " + std::to_string(target) +
           " from pc " + std::to_string(pc) + " is not an instruction start");
      return;
    }
    if (payloads_.contains(static_cast<size_t>(target))) {
      fail("branch into switch payload from pc " + std::to_string(pc));
    }
  }

  void check_instructions() {
    std::span<const uint16_t> insns(code_.insns);
    for (size_t pc : starts_) {
      Insn insn = decode_at(insns, pc);
      check_ref(insn, pc);
      check_regs(insn, pc);
      if (insn.op == Op::kGoto || is_conditional_branch(insn.op)) {
        check_branch_target(pc, static_cast<ptrdiff_t>(pc) + insn.off);
      } else if (insn.op == Op::kPackedSwitch) {
        ptrdiff_t ppc = static_cast<ptrdiff_t>(pc) + insn.off;
        if (ppc < 0 || !payloads_.contains(static_cast<size_t>(ppc))) {
          fail("switch at pc " + std::to_string(pc) + " has no payload");
          continue;
        }
        SwitchPayload payload = read_switch_payload(insns, pc, insn);
        for (int32_t rel : payload.rel_targets) {
          check_branch_target(pc, static_cast<ptrdiff_t>(pc) + rel);
        }
      }
    }
    for (const dex::TryItem& t : code_.tries) {
      if (!starts_.contains(t.handler_pc)) {
        fail("try handler not at instruction start");
      }
    }
  }

  // Execution must never fall off the end of the array or into a payload.
  void check_flow_termination() {
    std::span<const uint16_t> insns(code_.insns);
    for (size_t pc : starts_) {
      Insn insn = decode_at(insns, pc);
      if (insn.op == Op::kPayload) continue;
      if (!can_continue(insn.op)) continue;
      size_t next = pc + insn.width;
      if (next >= insns.size()) {
        fail("execution can run off code end at pc " + std::to_string(pc));
      } else if (payloads_.contains(next)) {
        fail("execution can fall into switch payload after pc " +
             std::to_string(pc));
      }
    }
  }

  const dex::DexFile& file_;
  const dex::CodeItem& code_;
  std::string context_;
  dex::VerifyResult& result_;
  std::set<size_t> starts_;
  std::set<size_t> payloads_;
};

}  // namespace

dex::VerifyResult verify_code(const dex::DexFile& file, const dex::CodeItem& code,
                              const std::string& context) {
  dex::VerifyResult result;
  CodeVerifier(file, code, context, result).run();
  return result;
}

dex::VerifyResult verify_dex(const dex::DexFile& file) {
  dex::VerifyResult result = dex::verify_structure(file);
  if (!result.ok()) return result;  // pool indices unsafe to chase further
  for (const dex::ClassDef& cls : file.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        dex::VerifyResult mr =
            verify_code(file, *m.code, file.pretty_method(m.method_ref));
        for (std::string& e : mr.errors) result.errors.push_back(std::move(e));
      }
    }
  }
  return result;
}

}  // namespace dexlego::bc

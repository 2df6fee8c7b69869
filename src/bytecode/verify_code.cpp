#include "src/bytecode/verify_code.h"

#include <functional>

#include "src/bytecode/insn.h"
#include "src/support/bytes.h"

namespace dexlego::bc {

namespace {

class CodeVerifier {
 public:
  // `context` names the code in error messages; it runs only when there is
  // an error to report.
  CodeVerifier(const dex::DexFile& file, const dex::CodeItem& code,
               std::function<std::string()> context, dex::VerifyResult& result)
      : file_(file),
        code_(code),
        context_fn_(std::move(context)),
        result_(result) {}

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
    if (context_.empty()) context_ = context_fn_();
    result_.errors.push_back(context_ + ": " + msg);
  }

  // Flags of one code unit.
  static constexpr uint8_t kStart = 1;    // an instruction starts here
  static constexpr uint8_t kPayload = 2;  // ... and it is a switch payload
  bool has(ptrdiff_t pc, uint8_t flag) const {
    return pc >= 0 && static_cast<size_t>(pc) < flags_.size() &&
           (flags_[static_cast<size_t>(pc)] & flag) != 0;
  }

  // First pass: decode linearly to learn instruction boundaries.
  bool collect_starts() {
    std::span<const uint16_t> insns(code_.insns);
    flags_.assign(insns.size(), 0);
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
      uint8_t raw = static_cast<uint8_t>(insns[pc] & 0xff);
      flags_[pc] = static_cast<Op>(raw) == Op::kPayload ? kStart | kPayload
                                                        : kStart;
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
    if (!has(target, kStart)) {
      fail("branch target " + std::to_string(target) +
           " from pc " + std::to_string(pc) + " is not an instruction start");
      return;
    }
    if (has(target, kPayload)) {
      fail("branch into switch payload from pc " + std::to_string(pc));
    }
  }

  void check_instructions() {
    std::span<const uint16_t> insns(code_.insns);
    for (size_t pc = 0; pc < insns.size(); ++pc) {
      if ((flags_[pc] & kStart) == 0) continue;
      Insn insn = decode_at(insns, pc);
      check_ref(insn, pc);
      check_regs(insn, pc);
      if (insn.op == Op::kGoto || is_conditional_branch(insn.op)) {
        check_branch_target(pc, static_cast<ptrdiff_t>(pc) + insn.off);
      } else if (insn.op == Op::kPackedSwitch) {
        ptrdiff_t ppc = static_cast<ptrdiff_t>(pc) + insn.off;
        if (!has(ppc, kPayload)) {
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
      if (!has(t.handler_pc, kStart)) {
        fail("try handler not at instruction start");
      }
    }
  }

  // Execution must never fall off the end of the array or into a payload.
  void check_flow_termination() {
    std::span<const uint16_t> insns(code_.insns);
    for (size_t pc = 0; pc < insns.size(); ++pc) {
      if ((flags_[pc] & kStart) == 0) continue;
      Insn insn = decode_at(insns, pc);
      if (insn.op == Op::kPayload) continue;
      if (!can_continue(insn.op)) continue;
      size_t next = pc + insn.width;
      if (next >= insns.size()) {
        fail("execution can run off code end at pc " + std::to_string(pc));
      } else if ((flags_[next] & kPayload) != 0) {
        fail("execution can fall into switch payload after pc " +
             std::to_string(pc));
      }
    }
  }

  const dex::DexFile& file_;
  const dex::CodeItem& code_;
  std::function<std::string()> context_fn_;
  std::string context_;  // context_fn_'s, from the first error on
  dex::VerifyResult& result_;
  std::vector<uint8_t> flags_;  // per code unit: kStart, kPayload
};

}  // namespace

dex::VerifyResult verify_code(const dex::DexFile& file, const dex::CodeItem& code,
                              const std::string& context) {
  dex::VerifyResult result;
  CodeVerifier(file, code, [&context] { return context; }, result).run();
  return result;
}

dex::VerifyResult verify_dex(const dex::DexFile& file) {
  dex::VerifyResult result = dex::verify_structure(file);
  if (!result.ok()) return result;  // pool indices unsafe to chase further
  for (const dex::ClassDef& cls : file.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        CodeVerifier(
            file, *m.code,
            [&file, &m] { return file.pretty_method(m.method_ref); }, result)
            .run();
      }
    }
  }
  return result;
}

}  // namespace dexlego::bc

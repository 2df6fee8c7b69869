#include "src/analysis/static_taint.h"

#include <deque>
#include <optional>

#include "src/analysis/taint_core.h"
#include "src/bytecode/insn.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/support/bytes.h"

namespace dexlego::analysis {

using bc::Insn;
using bc::Op;

namespace {

// Per-pc abstract state: one AbsValue per frame register plus the pending
// invoke result and the field-override map.
struct State {
  std::vector<AbsValue> regs;
  AbsValue result;                  // move-result source
  FieldOverrides field_override;    // strong updates (flow-sens.)

  bool merge(const State& other) {
    bool changed = false;
    for (size_t i = 0; i < regs.size(); ++i) {
      AbsValue before = regs[i];
      regs[i].merge(other.regs[i]);
      changed |= !(before == regs[i]);
    }
    AbsValue before_res = result;
    result.merge(other.result);
    changed |= !(before_res == result);
    for (const auto& [key, word] : other.field_override) {
      auto it = field_override.find(key);
      if (it == field_override.end()) {
        field_override[key] = word;
        changed = true;
      } else if ((it->second | word) != it->second) {
        it->second |= word;
        changed = true;
      }
    }
    return changed;
  }
};

// The per-pc worklist engine over raw LDEX bytecode.
class BytecodeEngine final : public TaintCore {
 public:
  BytecodeEngine(const ToolConfig& cfg, const dex::DexFile& file)
      : TaintCore(cfg, file) {}

 private:
  void analyze_method(AMethod& method) override;
  void transfer(AMethod& method, size_t pc, const Insn& insn, State& state);
  void handle_invoke(AMethod& method, const Insn& insn, State& state);
};

void BytecodeEngine::handle_invoke(AMethod& method, const Insn& insn,
                                   State& state) {
  std::vector<AbsValue> args;
  for (uint8_t i = 0; i < insn.a; ++i) args.push_back(state.regs.at(insn.args[i]));
  InvokeResult r = invoke_transfer(method, insn.op, insn.idx, args);
  state.result = r.result;
  if (r.update_receiver) state.regs.at(insn.args[0]) = r.receiver;
}

void BytecodeEngine::transfer(AMethod& method, size_t pc, const Insn& insn,
                              State& state) {
  // Implicit-flow context for this pc (HornDroid preset only).
  Taint implicit = implicit_context(method, pc);
  auto write_reg = [&](uint8_t r, AbsValue v) {
    v.taint |= implicit;
    state.regs.at(r) = std::move(v);
  };
  // Flow-sensitive field handling defers global-store publication to method
  // exits so intra-method strong updates can kill overwritten taint first.
  auto fold_exit = [&] { publish_overrides(state.field_override); };

  switch (insn.op) {
    case Op::kReturnVoid:
    case Op::kThrow:
      fold_exit();
      break;
    case Op::kMove:
      write_reg(insn.a, state.regs.at(insn.b));
      break;
    case Op::kConst16:
    case Op::kConst32:
    case Op::kConstWide: {
      AbsValue v;
      v.int_const = insn.lit;
      write_reg(insn.a, v);
      break;
    }
    case Op::kConstString: {
      AbsValue v;
      v.str_const = file_.string_at(insn.idx);
      write_reg(insn.a, v);
      break;
    }
    case Op::kConstNull:
      write_reg(insn.a, AbsValue{});
      break;
    case Op::kMoveResult:
      write_reg(insn.a, state.result);
      break;
    case Op::kMoveException:
      write_reg(insn.a, AbsValue{});
      break;
    case Op::kReturn:
      changed_ |= method.summary.merge_ret(state.regs.at(insn.a).taint);
      fold_exit();
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
    case Op::kCmp: {
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint | state.regs.at(insn.c).taint;
      if (cfg_.value_sensitive && state.regs.at(insn.b).int_const &&
          state.regs.at(insn.c).int_const) {
        int64_t b = *state.regs.at(insn.b).int_const;
        int64_t c = *state.regs.at(insn.c).int_const;
        switch (insn.op) {
          case Op::kAdd: v.int_const = b + c; break;
          case Op::kSub: v.int_const = b - c; break;
          case Op::kMul: v.int_const = b * c; break;
          case Op::kXor: v.int_const = b ^ c; break;
          default: break;  // leave unknown (div by zero etc.)
        }
      }
      write_reg(insn.a, v);
      break;
    }
    case Op::kAddLit8:
    case Op::kMulLit8: {
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint;
      if (cfg_.value_sensitive && state.regs.at(insn.b).int_const) {
        v.int_const = insn.op == Op::kAddLit8
                          ? *state.regs.at(insn.b).int_const + insn.lit
                          : *state.regs.at(insn.b).int_const * insn.lit;
      }
      write_reg(insn.a, v);
      break;
    }
    case Op::kNeg:
    case Op::kNot:
    case Op::kArrayLength: {
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint;
      write_reg(insn.a, v);
      break;
    }
    case Op::kNewInstance: {
      AbsValue v;
      v.known_class = file_.type_descriptor(insn.idx);
      write_reg(insn.a, v);
      break;
    }
    case Op::kNewArray:
      write_reg(insn.a, AbsValue{});
      break;
    case Op::kAget: {
      // Coarse array abstraction: element reads carry the array's taint.
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint | state.regs.at(insn.c).taint;
      write_reg(insn.a, v);
      break;
    }
    case Op::kAput: {
      // Stores taint the whole array (register-level).
      AbsValue arr = state.regs.at(insn.b);
      arr.taint |= state.regs.at(insn.a).taint;
      state.regs.at(insn.b) = arr;
      break;
    }
    case Op::kIget: {
      const dex::FieldRef& f = file_.fields.at(insn.idx);
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint |
                read_cell(state.field_override,
                          field_key(file_.type_descriptor(f.class_type),
                                    file_.string_at(f.name)));
      write_reg(insn.a, v);
      break;
    }
    case Op::kIput: {
      const dex::FieldRef& f = file_.fields.at(insn.idx);
      write_cell(method, state.field_override,
                 field_key(file_.type_descriptor(f.class_type),
                           file_.string_at(f.name)),
                 state.regs.at(insn.a).taint | implicit);
      break;
    }
    case Op::kSget: {
      const dex::FieldRef& f = file_.fields.at(insn.idx);
      AbsValue v;
      v.taint = read_cell(state.field_override,
                          field_key(file_.type_descriptor(f.class_type),
                                    file_.string_at(f.name)));
      write_reg(insn.a, v);
      break;
    }
    case Op::kSput: {
      const dex::FieldRef& f = file_.fields.at(insn.idx);
      write_cell(method, state.field_override,
                 field_key(file_.type_descriptor(f.class_type),
                           file_.string_at(f.name)),
                 state.regs.at(insn.a).taint | implicit);
      break;
    }
    case Op::kInvokeVirtual:
    case Op::kInvokeDirect:
    case Op::kInvokeStatic:
      handle_invoke(method, insn, state);
      if (implicit != 0) state.result.taint |= implicit;
      break;
    case Op::kInstanceOf: {
      AbsValue v;
      v.taint = state.regs.at(insn.b).taint;
      write_reg(insn.a, v);
      break;
    }
    default:
      break;
  }
}

void BytecodeEngine::analyze_method(AMethod& method) {
  const dex::CodeItem& code = *method.def->code;
  std::span<const uint16_t> insns(code.insns);

  State entry;
  entry.regs.assign(code.registers_size, AbsValue{});
  size_t base = code.registers_size - code.ins_size;
  for (size_t i = 0; i < method.num_args && i < code.ins_size && i < kMaxArgs; ++i) {
    entry.regs[base + i].taint = arg_token(i);
  }

  std::map<size_t, State> states;
  states.emplace(0, entry);
  std::deque<size_t> worklist{0};
  std::set<size_t> seen;
  size_t iterations = 0;
  const size_t kMaxIterations = 20000;

  while (!worklist.empty() && ++iterations < kMaxIterations) {
    size_t pc = worklist.front();
    worklist.pop_front();
    State state = states.at(pc);
    Insn insn;
    try {
      insn = bc::decode_at(insns, pc);
    } catch (const support::ParseError&) {
      continue;
    }
    if (insn.op == Op::kPayload) continue;

    // Record conditional-branch condition taints for implicit flows, and
    // determine successors (value-sensitive pruning of constant branches).
    std::vector<size_t> succ;
    if (bc::is_conditional_branch(insn.op)) {
      Taint cond = state.regs.at(insn.a).taint;
      if (bc::is_two_reg_if(insn.op)) cond |= state.regs.at(insn.b).taint;
      record_branch_taint(method, pc, cond);
      std::optional<bool> known;
      if (cfg_.value_sensitive) {
        const AbsValue& a = state.regs.at(insn.a);
        if (!bc::is_two_reg_if(insn.op) && a.int_const) {
          int64_t x = *a.int_const;
          switch (insn.op) {
            case Op::kIfEqz: known = (x == 0); break;
            case Op::kIfNez: known = (x != 0); break;
            case Op::kIfLtz: known = (x < 0); break;
            case Op::kIfGez: known = (x >= 0); break;
            case Op::kIfGtz: known = (x > 0); break;
            case Op::kIfLez: known = (x <= 0); break;
            default: break;
          }
        } else if (bc::is_two_reg_if(insn.op) && a.int_const &&
                   state.regs.at(insn.b).int_const) {
          int64_t x = *a.int_const, y = *state.regs.at(insn.b).int_const;
          switch (insn.op) {
            case Op::kIfEq: known = (x == y); break;
            case Op::kIfNe: known = (x != y); break;
            case Op::kIfLt: known = (x < y); break;
            case Op::kIfGe: known = (x >= y); break;
            case Op::kIfGt: known = (x > y); break;
            case Op::kIfLe: known = (x <= y); break;
            default: break;
          }
        }
      }
      if (known.has_value()) {
        succ.push_back(*known ? pc + static_cast<size_t>(insn.off)
                              : pc + insn.width);
      } else {
        succ.push_back(pc + insn.width);
        succ.push_back(pc + static_cast<size_t>(insn.off));
      }
      transfer(method, pc, insn, state);
    } else {
      transfer(method, pc, insn, state);
      try {
        succ = bc::successors_at(insns, pc);
      } catch (const support::ParseError&) {
        succ.clear();
      }
    }

    // Exception edges: any instruction inside a try range may reach the
    // handler (registers merged conservatively).
    for (const dex::TryItem& t : code.tries) {
      if (pc >= t.start_pc && pc < t.end_pc) succ.push_back(t.handler_pc);
    }

    for (size_t next : succ) {
      if (next >= insns.size()) continue;
      auto [it, inserted] = states.emplace(next, state);
      bool changed = inserted || it->second.merge(state);
      if (changed || !seen.contains(next)) {
        seen.insert(next);
        worklist.push_back(next);
      }
    }
  }
}

}  // namespace

AnalysisResult StaticAnalyzer::analyze(const dex::DexFile& file) {
  BytecodeEngine engine(cfg_, file);
  return engine.run();
}

AnalysisResult StaticAnalyzer::analyze_apk(const dex::Apk& apk) {
  dex::DexFile file = dex::load_classes(apk);
  return analyze(file);
}

}  // namespace dexlego::analysis

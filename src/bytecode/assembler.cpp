#include "src/bytecode/assembler.h"

#include <stdexcept>

namespace dexlego::bc {

MethodAssembler::MethodAssembler(uint16_t registers, uint16_t ins)
    : registers_(registers), ins_(ins) {
  if (ins > registers) throw std::logic_error("ins exceeds registers");
  // Most bodies fit these. Without them the reassembler, which makes a
  // label per instruction, reallocates both buffers several times per
  // method, and that showed as a tenth of its time.
  code_.reserve(64);
  labels_.reserve(32);
}

MethodAssembler::Label MethodAssembler::make_label() {
  labels_.emplace_back(std::nullopt);
  return labels_.size() - 1;
}

void MethodAssembler::bind(Label label) {
  if (labels_.at(label).has_value()) throw std::logic_error("label bound twice");
  labels_[label] = code_.size();
}

void MethodAssembler::line(uint32_t line_number) { current_line_ = line_number; }

void MethodAssembler::start_line() {
  if (current_line_ != 0 &&
      (lines_.empty() || lines_.back().line != current_line_)) {
    lines_.push_back({static_cast<uint16_t>(code_.size()), current_line_});
  }
}

void MethodAssembler::emit(const Insn& insn) {
  start_line();
  encode_to(insn, code_);
}

void MethodAssembler::nop() { emit({.op = Op::kNop}); }

void MethodAssembler::move(uint8_t dst, uint8_t src) {
  emit({.op = Op::kMove, .a = dst, .b = src});
}

void MethodAssembler::const16(uint8_t dst, int16_t v) {
  emit({.op = Op::kConst16, .a = dst, .lit = v});
}

void MethodAssembler::const32(uint8_t dst, int32_t v) {
  emit({.op = Op::kConst32, .a = dst, .lit = v});
}

void MethodAssembler::const_wide(uint8_t dst, int64_t v) {
  emit({.op = Op::kConstWide, .a = dst, .lit = v});
}

void MethodAssembler::const_string(uint8_t dst, uint16_t string_idx) {
  emit({.op = Op::kConstString, .a = dst, .idx = string_idx});
}

void MethodAssembler::const_null(uint8_t dst) {
  emit({.op = Op::kConstNull, .a = dst});
}

void MethodAssembler::move_result(uint8_t dst) {
  emit({.op = Op::kMoveResult, .a = dst});
}

void MethodAssembler::move_exception(uint8_t dst) {
  emit({.op = Op::kMoveException, .a = dst});
}

void MethodAssembler::return_void() { emit({.op = Op::kReturnVoid}); }

void MethodAssembler::return_value(uint8_t src) {
  emit({.op = Op::kReturn, .a = src});
}

void MethodAssembler::throw_value(uint8_t src) {
  emit({.op = Op::kThrow, .a = src});
}

void MethodAssembler::goto_(Label target) {
  size_t pc = code_.size();
  emit({.op = Op::kGoto});
  fixups_.push_back({target, pc, pc + 1});
}

void MethodAssembler::if_test(Op op, uint8_t a, uint8_t b, Label target) {
  if (!is_two_reg_if(op)) throw std::logic_error("not a two-register if opcode");
  size_t pc = code_.size();
  emit({.op = op, .a = a, .b = b});
  fixups_.push_back({target, pc, pc + 2});
}

void MethodAssembler::if_testz(Op op, uint8_t a, Label target) {
  if (!is_conditional_branch(op) || is_two_reg_if(op)) {
    throw std::logic_error("not a zero-test if opcode");
  }
  size_t pc = code_.size();
  emit({.op = op, .a = a});
  fixups_.push_back({target, pc, pc + 1});
}

void MethodAssembler::binop(Op op, uint8_t dst, uint8_t lhs, uint8_t rhs) {
  if (op < Op::kAdd || op > Op::kCmp) throw std::logic_error("not a binop");
  emit({.op = op, .a = dst, .b = lhs, .c = rhs});
}

void MethodAssembler::add_lit8(uint8_t dst, uint8_t src, int8_t lit) {
  emit({.op = Op::kAddLit8,
        .a = dst,
        .b = src,
        .c = static_cast<uint8_t>(lit),
        .lit = lit});
}

void MethodAssembler::mul_lit8(uint8_t dst, uint8_t src, int8_t lit) {
  emit({.op = Op::kMulLit8,
        .a = dst,
        .b = src,
        .c = static_cast<uint8_t>(lit),
        .lit = lit});
}

void MethodAssembler::unop(Op op, uint8_t dst, uint8_t src) {
  if (op != Op::kNeg && op != Op::kNot) throw std::logic_error("not a unop");
  emit({.op = op, .a = dst, .b = src});
}

void MethodAssembler::new_instance(uint8_t dst, uint16_t type_idx) {
  emit({.op = Op::kNewInstance, .a = dst, .idx = type_idx});
}

void MethodAssembler::new_array(uint8_t dst, uint8_t len_reg, uint16_t type_idx) {
  emit({.op = Op::kNewArray, .a = dst, .b = len_reg, .idx = type_idx});
}

void MethodAssembler::array_length(uint8_t dst, uint8_t array_reg) {
  emit({.op = Op::kArrayLength, .a = dst, .b = array_reg});
}

void MethodAssembler::aget(uint8_t dst, uint8_t array_reg, uint8_t index_reg) {
  emit({.op = Op::kAget, .a = dst, .b = array_reg, .c = index_reg});
}

void MethodAssembler::aput(uint8_t src, uint8_t array_reg, uint8_t index_reg) {
  emit({.op = Op::kAput, .a = src, .b = array_reg, .c = index_reg});
}

void MethodAssembler::iget(uint8_t dst, uint8_t obj_reg, uint16_t field_idx) {
  emit({.op = Op::kIget, .a = dst, .b = obj_reg, .idx = field_idx});
}

void MethodAssembler::iput(uint8_t src, uint8_t obj_reg, uint16_t field_idx) {
  emit({.op = Op::kIput, .a = src, .b = obj_reg, .idx = field_idx});
}

void MethodAssembler::sget(uint8_t dst, uint16_t field_idx) {
  emit({.op = Op::kSget, .a = dst, .idx = field_idx});
}

void MethodAssembler::sput(uint8_t src, uint16_t field_idx) {
  emit({.op = Op::kSput, .a = src, .idx = field_idx});
}

void MethodAssembler::invoke(Op op, uint16_t method_idx,
                             std::initializer_list<uint8_t> args) {
  invoke(op, method_idx, std::vector<uint8_t>(args));
}

void MethodAssembler::invoke(Op op, uint16_t method_idx,
                             const std::vector<uint8_t>& args) {
  if (!is_invoke(op)) throw std::logic_error("not an invoke opcode");
  if (args.size() > 4) throw std::logic_error("invoke supports at most 4 args");
  Insn insn{.op = op, .a = static_cast<uint8_t>(args.size()), .idx = method_idx};
  for (size_t i = 0; i < args.size(); ++i) insn.args[i] = args[i];
  emit(insn);
}

void MethodAssembler::instance_of(uint8_t dst, uint8_t obj_reg, uint16_t type_idx) {
  emit({.op = Op::kInstanceOf, .a = dst, .b = obj_reg, .idx = type_idx});
}

void MethodAssembler::packed_switch(uint8_t reg, int32_t first_key,
                                    const std::vector<Label>& targets) {
  if (targets.empty()) throw std::logic_error("empty switch");
  size_t pc = code_.size();
  emit({.op = Op::kPackedSwitch, .a = reg});
  switches_.push_back({pc, first_key, targets});
}

std::span<uint16_t> MethodAssembler::raw(std::span<const uint16_t> units) {
  if (units.empty()) throw std::logic_error("empty raw instruction");
  start_line();
  raw_pc_ = code_.size();
  code_.insert(code_.end(), units.begin(), units.end());
  return std::span<uint16_t>(code_).subspan(*raw_pc_);
}

Op MethodAssembler::raw_op() const {
  if (!raw_pc_) throw std::logic_error("no raw instruction");
  return static_cast<Op>(code_[*raw_pc_] & 0xff);
}

void MethodAssembler::raw_branch(Label target) {
  Op op = raw_op();
  if (op != Op::kGoto && !is_conditional_branch(op)) {
    throw std::logic_error("raw instruction is not a branch");
  }
  fixups_.push_back({target, *raw_pc_, *raw_pc_ + (is_two_reg_if(op) ? 2 : 1)});
}

void MethodAssembler::raw_switch(int32_t first_key, std::vector<Label> targets) {
  if (raw_op() != Op::kPackedSwitch) {
    throw std::logic_error("raw instruction is not a packed-switch");
  }
  switches_.push_back({*raw_pc_, first_key, std::move(targets)});
}

void MethodAssembler::begin_try() { open_tries_.push_back(code_.size()); }

void MethodAssembler::end_try(Label handler) {
  if (open_tries_.empty()) throw std::logic_error("end_try without begin_try");
  size_t start = open_tries_.back();
  open_tries_.pop_back();
  dex::TryItem item;
  item.start_pc = static_cast<uint16_t>(start);
  item.end_pc = static_cast<uint16_t>(code_.size());
  tries_.push_back(item);
  try_handler_fixups_.emplace_back(tries_.size() - 1, handler);
}

void MethodAssembler::fixup_branch(Label target, size_t insn_pc, size_t unit_offset) {
  const auto& bound = labels_.at(target);
  if (!bound) throw std::logic_error("unbound label");
  ptrdiff_t delta = static_cast<ptrdiff_t>(*bound) - static_cast<ptrdiff_t>(insn_pc);
  if (delta < INT16_MIN || delta > INT16_MAX) {
    throw std::logic_error("branch offset out of rel16 range");
  }
  code_.at(unit_offset) = static_cast<uint16_t>(static_cast<int16_t>(delta));
}

dex::CodeItem MethodAssembler::finish() {
  if (!open_tries_.empty()) throw std::logic_error("unterminated try block");

  // Lay out switch payloads after the instruction stream. The code must end
  // in a non-continuing instruction (return/goto/throw) so execution can
  // never fall into payload data — the code verifier enforces this too.
  for (const PendingSwitch& sw : switches_) {
    size_t payload_pc = code_.size();
    ptrdiff_t delta =
        static_cast<ptrdiff_t>(payload_pc) - static_cast<ptrdiff_t>(sw.insn_pc);
    if (delta > INT16_MAX) throw std::logic_error("switch payload out of range");
    code_.at(sw.insn_pc + 1) = static_cast<uint16_t>(static_cast<int16_t>(delta));
    code_.push_back(static_cast<uint16_t>(Op::kPayload));
    code_.push_back(static_cast<uint16_t>(sw.targets.size()));
    code_.push_back(static_cast<uint16_t>(sw.first_key & 0xffff));
    code_.push_back(static_cast<uint16_t>((sw.first_key >> 16) & 0xffff));
    for (Label t : sw.targets) {
      const auto& bound = labels_.at(t);
      if (!bound) throw std::logic_error("unbound switch label");
      ptrdiff_t rel =
          static_cast<ptrdiff_t>(*bound) - static_cast<ptrdiff_t>(sw.insn_pc);
      if (rel < INT16_MIN || rel > INT16_MAX) {
        throw std::logic_error("switch target out of rel16 range");
      }
      code_.push_back(static_cast<uint16_t>(static_cast<int16_t>(rel)));
    }
  }

  for (const Fixup& fx : fixups_) fixup_branch(fx.label, fx.insn_pc, fx.unit_offset);
  for (const auto& [try_index, handler] : try_handler_fixups_) {
    const auto& bound = labels_.at(handler);
    if (!bound) throw std::logic_error("unbound try handler label");
    tries_.at(try_index).handler_pc = static_cast<uint16_t>(*bound);
  }

  dex::CodeItem item;
  item.registers_size = registers_;
  item.ins_size = ins_;
  item.insns = std::move(code_);
  // A revealed file holds every body until it is written; growth slack
  // there read as half a megabyte more peak RSS on force jobs.
  item.insns.shrink_to_fit();
  item.tries = std::move(tries_);
  item.lines = std::move(lines_);
  return item;
}

}  // namespace dexlego::bc

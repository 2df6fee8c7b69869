// MethodAssembler — label-based builder for LDEX code items. All sample
// programs, the synthetic app generators, the packer stubs and DexLego's
// reassembler emit code through this class, which resolves forward branches,
// lays out switch payloads after the code stream and records line tables.
// The reassembler also carries instructions over from collected code: raw()
// appends their encoded units, and raw_branch()/raw_switch() turn their
// branch and switch targets into labels, so every offset in a reassembled
// body is placed and range-checked here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/bytecode/insn.h"
#include "src/dex/dex.h"

namespace dexlego::bc {

class MethodAssembler {
 public:
  // registers = total frame registers, ins = trailing argument registers.
  MethodAssembler(uint16_t registers, uint16_t ins);

  using Label = size_t;
  Label make_label();
  // Binds `label` to the current emission point. A label may be bound once.
  void bind(Label label);

  // Source line for subsequently emitted instructions (coverage granularity).
  void line(uint32_t line_number);

  // --- instruction emitters (regs are frame-register numbers) ---
  void nop();
  void move(uint8_t dst, uint8_t src);
  void const16(uint8_t dst, int16_t v);
  void const32(uint8_t dst, int32_t v);
  void const_wide(uint8_t dst, int64_t v);
  void const_string(uint8_t dst, uint16_t string_idx);
  void const_null(uint8_t dst);
  void move_result(uint8_t dst);
  void move_exception(uint8_t dst);
  void return_void();
  void return_value(uint8_t src);
  void throw_value(uint8_t src);
  void goto_(Label target);
  // op must be one of the if-test opcodes.
  void if_test(Op op, uint8_t a, uint8_t b, Label target);
  void if_testz(Op op, uint8_t a, Label target);
  void binop(Op op, uint8_t dst, uint8_t lhs, uint8_t rhs);
  void add_lit8(uint8_t dst, uint8_t src, int8_t lit);
  void mul_lit8(uint8_t dst, uint8_t src, int8_t lit);
  void unop(Op op, uint8_t dst, uint8_t src);
  void new_instance(uint8_t dst, uint16_t type_idx);
  void new_array(uint8_t dst, uint8_t len_reg, uint16_t type_idx);
  void array_length(uint8_t dst, uint8_t array_reg);
  void aget(uint8_t dst, uint8_t array_reg, uint8_t index_reg);
  void aput(uint8_t src, uint8_t array_reg, uint8_t index_reg);
  void iget(uint8_t dst, uint8_t obj_reg, uint16_t field_idx);
  void iput(uint8_t src, uint8_t obj_reg, uint16_t field_idx);
  void sget(uint8_t dst, uint16_t field_idx);
  void sput(uint8_t src, uint16_t field_idx);
  void invoke(Op op, uint16_t method_idx, std::initializer_list<uint8_t> args);
  void invoke(Op op, uint16_t method_idx, const std::vector<uint8_t>& args);
  void instance_of(uint8_t dst, uint8_t obj_reg, uint16_t type_idx);
  // Packed switch over keys first_key..first_key+targets.size()-1.
  void packed_switch(uint8_t reg, int32_t first_key, const std::vector<Label>& targets);

  // --- already-encoded instructions (code carried over from another body) ---
  // Appends one instruction's units and returns them in the code stream for
  // operand patching; the span is valid until the next emission.
  std::span<uint16_t> raw(std::span<const uint16_t> units);
  // Points the goto or if-test last appended by raw() at `target`.
  void raw_branch(Label target);
  // Lays out a payload for the packed-switch last appended by raw(), as
  // packed_switch does; `targets` may be empty.
  void raw_switch(int32_t first_key, std::vector<Label> targets);

  // --- try/catch (catch-all handler, Dalvik-style pc ranges) ---
  void begin_try();
  void end_try(Label handler);

  size_t current_pc() const { return code_.size(); }

  // Resolves all fixups, lays out switch payloads, emits the line table.
  // Throws std::logic_error on unbound labels or out-of-range branches.
  dex::CodeItem finish();

 private:
  void start_line();
  void emit(const Insn& insn);
  Op raw_op() const;
  void fixup_branch(Label target, size_t insn_pc, size_t unit_offset);

  struct Fixup {
    Label label;
    size_t insn_pc;      // branch instruction start (offset base)
    size_t unit_offset;  // code unit holding the rel16 to patch
  };
  struct PendingSwitch {
    size_t insn_pc;       // switch instruction start
    int32_t first_key;
    std::vector<Label> targets;
  };

  uint16_t registers_;
  uint16_t ins_;
  std::vector<uint16_t> code_;
  std::vector<std::optional<size_t>> labels_;
  std::vector<Fixup> fixups_;
  std::vector<PendingSwitch> switches_;
  std::vector<dex::TryItem> tries_;
  std::vector<size_t> open_tries_;  // start pcs of begin_try without end_try yet
  std::vector<std::pair<size_t, Label>> try_handler_fixups_;  // try index, handler
  std::vector<dex::LineEntry> lines_;
  uint32_t current_line_ = 0;
  std::optional<size_t> raw_pc_;  // start of the last raw() instruction
};

}  // namespace dexlego::bc

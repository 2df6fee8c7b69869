// Decoded instruction form plus decode/encode between the 16-bit code-unit
// representation (what the interpreter executes and DexLego collects) and a
// structured view (what analyses consume).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/bytecode/opcodes.h"

namespace dexlego::bc {

struct Insn {
  Op op = Op::kNop;
  uint8_t a = 0;                  // primary register, or argc for invokes
  uint8_t b = 0;                  // second register
  uint8_t c = 0;                  // third register / lit8
  int64_t lit = 0;                // const literal (sign-extended)
  int32_t off = 0;                // branch offset in code units (rel. to insn start)
  uint16_t idx = 0;               // pool index (see op_info().ref)
  std::array<uint8_t, 4> args{};  // invoke argument registers
  uint16_t payload_count = 0;     // kPayload only
  uint8_t width = 1;              // total code units

  bool operator==(const Insn&) const = default;
};

// Decodes the instruction starting at code[pc]. Throws support::ParseError on
// truncated or invalid encodings (the runtime turns this into a verify error,
// never undefined behaviour — self-modifying code may write garbage).
Insn decode_at(std::span<const uint16_t> code, size_t pc);

// True number of code units a decoded instruction occupies. Equals
// insn.width except for switch payloads, whose 4 + payload_count extent can
// exceed the 8-bit width field.
inline size_t consumed_units(const Insn& insn) {
  return insn.op == Op::kPayload ? 4 + static_cast<size_t>(insn.payload_count)
                                 : insn.width;
}

// Width of the instruction at pc without full decoding (payload-aware).
size_t width_at(std::span<const uint16_t> code, size_t pc);

// Re-encodes a decoded instruction to code units. encode(decode_at(x)) == x
// for all valid encodings (property-tested).
std::vector<uint16_t> encode(const Insn& insn);
void encode_to(const Insn& insn, std::vector<uint16_t>& out);

// The code unit at which encode_to places an instruction's pool index
// (Insn::idx) when op_info(op).ref is not kNone: unit 2 for iget, iput,
// new-array and instance-of, unit 1 for the rest.
size_t pool_index_unit(Op op);

// Switch payload view: keys first_key..first_key+count-1 map to
// switch_pc + target[i].
struct SwitchPayload {
  int32_t first_key = 0;
  std::vector<int32_t> rel_targets;  // relative to the switch instruction
};
// Reads the payload referenced by a kPackedSwitch at switch_pc.
SwitchPayload read_switch_payload(std::span<const uint16_t> code, size_t switch_pc,
                                  const Insn& switch_insn);

// All successor pcs of the instruction at pc (fallthrough + branch targets).
// Returns empty for return/throw. Used by the CFG builder, the force-execution
// branch analysis and the code verifier.
std::vector<size_t> successors_at(std::span<const uint16_t> code, size_t pc);

}  // namespace dexlego::bc

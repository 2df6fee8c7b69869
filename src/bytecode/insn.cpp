#include "src/bytecode/insn.h"

#include "src/support/bytes.h"

namespace dexlego::bc {

using support::ParseError;

namespace {
void need(std::span<const uint16_t> code, size_t pc, size_t units) {
  if (pc + units > code.size()) throw ParseError("truncated instruction");
}
}  // namespace

Insn decode_at(std::span<const uint16_t> code, size_t pc) {
  need(code, pc, 1);
  uint16_t unit0 = code[pc];
  uint8_t raw_op = static_cast<uint8_t>(unit0 & 0xff);
  if (!valid_op(raw_op)) throw ParseError("invalid opcode " + std::to_string(raw_op));

  Insn insn;
  insn.op = static_cast<Op>(raw_op);
  insn.a = static_cast<uint8_t>(unit0 >> 8);

  switch (insn.op) {
    case Op::kNop:
    case Op::kConstNull:
    case Op::kMoveResult:
    case Op::kMoveException:
    case Op::kReturnVoid:
    case Op::kReturn:
    case Op::kThrow:
      insn.width = 1;
      break;
    case Op::kMove:
      need(code, pc, 2);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.width = 2;
      break;
    case Op::kConst16:
      need(code, pc, 2);
      insn.lit = static_cast<int16_t>(code[pc + 1]);
      insn.width = 2;
      break;
    case Op::kConst32:
      need(code, pc, 3);
      insn.lit = static_cast<int32_t>(code[pc + 1] |
                                      (static_cast<uint32_t>(code[pc + 2]) << 16));
      insn.width = 3;
      break;
    case Op::kConstWide: {
      need(code, pc, 5);
      uint64_t v = 0;
      for (int i = 0; i < 4; ++i) v |= static_cast<uint64_t>(code[pc + 1 + i]) << (16 * i);
      insn.lit = static_cast<int64_t>(v);
      insn.width = 5;
      break;
    }
    case Op::kConstString:
      need(code, pc, 2);
      insn.idx = code[pc + 1];
      insn.width = 2;
      break;
    case Op::kGoto:
      need(code, pc, 2);
      insn.off = static_cast<int16_t>(code[pc + 1]);
      insn.width = 2;
      break;
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kIfLt:
    case Op::kIfGe:
    case Op::kIfGt:
    case Op::kIfLe:
      need(code, pc, 3);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.off = static_cast<int16_t>(code[pc + 2]);
      insn.width = 3;
      break;
    case Op::kIfEqz:
    case Op::kIfNez:
    case Op::kIfLtz:
    case Op::kIfGez:
    case Op::kIfGtz:
    case Op::kIfLez:
      need(code, pc, 2);
      insn.off = static_cast<int16_t>(code[pc + 1]);
      insn.width = 2;
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
      need(code, pc, 2);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.c = static_cast<uint8_t>(code[pc + 1] >> 8);
      insn.width = 2;
      break;
    case Op::kAddLit8:
    case Op::kMulLit8:
      need(code, pc, 2);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.c = static_cast<uint8_t>(code[pc + 1] >> 8);  // lit8 payload
      insn.lit = static_cast<int8_t>(insn.c);
      insn.width = 2;
      break;
    case Op::kNeg:
    case Op::kNot:
    case Op::kArrayLength:
      need(code, pc, 2);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.width = 2;
      break;
    case Op::kNewInstance:
      need(code, pc, 2);
      insn.idx = code[pc + 1];
      insn.width = 2;
      break;
    case Op::kNewArray:
    case Op::kInstanceOf:
      need(code, pc, 3);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.idx = code[pc + 2];
      insn.width = 3;
      break;
    case Op::kIget:
    case Op::kIput:
      need(code, pc, 3);
      insn.b = static_cast<uint8_t>(code[pc + 1] & 0xff);
      insn.idx = code[pc + 2];
      insn.width = 3;
      break;
    case Op::kSget:
    case Op::kSput:
      need(code, pc, 2);
      insn.idx = code[pc + 1];
      insn.width = 2;
      break;
    case Op::kInvokeVirtual:
    case Op::kInvokeDirect:
    case Op::kInvokeStatic:
      need(code, pc, 4);
      if (insn.a > 4) throw ParseError("invoke argc > 4");
      insn.idx = code[pc + 1];
      insn.args[0] = static_cast<uint8_t>(code[pc + 2] & 0xff);
      insn.args[1] = static_cast<uint8_t>(code[pc + 2] >> 8);
      insn.args[2] = static_cast<uint8_t>(code[pc + 3] & 0xff);
      insn.args[3] = static_cast<uint8_t>(code[pc + 3] >> 8);
      insn.width = 4;
      break;
    case Op::kPackedSwitch:
      need(code, pc, 2);
      insn.off = static_cast<int16_t>(code[pc + 1]);
      insn.width = 2;
      break;
    case Op::kPayload: {
      need(code, pc, 4);
      insn.payload_count = code[pc + 1];
      insn.lit = static_cast<int32_t>(code[pc + 2] |
                                      (static_cast<uint32_t>(code[pc + 3]) << 16));
      need(code, pc, 4 + static_cast<size_t>(insn.payload_count));
      insn.width = static_cast<uint8_t>(4 + insn.payload_count);
      break;
    }
  }
  return insn;
}

size_t width_at(std::span<const uint16_t> code, size_t pc) {
  need(code, pc, 1);
  uint8_t raw_op = static_cast<uint8_t>(code[pc] & 0xff);
  if (!valid_op(raw_op)) throw ParseError("invalid opcode");
  Op op = static_cast<Op>(raw_op);
  if (op == Op::kPayload) {
    need(code, pc, 2);
    return 4 + static_cast<size_t>(code[pc + 1]);
  }
  return op_info(op).width;
}

void encode_to(const Insn& insn, std::vector<uint16_t>& out) {
  auto unit0 = static_cast<uint16_t>(static_cast<uint8_t>(insn.op) |
                                     (static_cast<uint16_t>(insn.a) << 8));
  out.push_back(unit0);
  switch (insn.op) {
    case Op::kNop:
    case Op::kConstNull:
    case Op::kMoveResult:
    case Op::kMoveException:
    case Op::kReturnVoid:
    case Op::kReturn:
    case Op::kThrow:
      break;
    case Op::kMove:
    case Op::kNeg:
    case Op::kNot:
    case Op::kArrayLength:
      out.push_back(insn.b);
      break;
    case Op::kConst16:
      out.push_back(static_cast<uint16_t>(insn.lit & 0xffff));
      break;
    case Op::kConst32:
      out.push_back(static_cast<uint16_t>(insn.lit & 0xffff));
      out.push_back(static_cast<uint16_t>((insn.lit >> 16) & 0xffff));
      break;
    case Op::kConstWide:
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<uint16_t>((insn.lit >> (16 * i)) & 0xffff));
      }
      break;
    case Op::kConstString:
    case Op::kNewInstance:
    case Op::kSget:
    case Op::kSput:
      out.push_back(insn.idx);
      break;
    case Op::kGoto:
    case Op::kIfEqz:
    case Op::kIfNez:
    case Op::kIfLtz:
    case Op::kIfGez:
    case Op::kIfGtz:
    case Op::kIfLez:
    case Op::kPackedSwitch:
      out.push_back(static_cast<uint16_t>(insn.off & 0xffff));
      break;
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kIfLt:
    case Op::kIfGe:
    case Op::kIfGt:
    case Op::kIfLe:
      out.push_back(insn.b);
      out.push_back(static_cast<uint16_t>(insn.off & 0xffff));
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
    case Op::kAddLit8:
    case Op::kMulLit8:
      out.push_back(static_cast<uint16_t>(insn.b | (static_cast<uint16_t>(insn.c) << 8)));
      break;
    case Op::kNewArray:
    case Op::kInstanceOf:
    case Op::kIget:
    case Op::kIput:
      out.push_back(insn.b);
      out.push_back(insn.idx);
      break;
    case Op::kInvokeVirtual:
    case Op::kInvokeDirect:
    case Op::kInvokeStatic:
      out.push_back(insn.idx);
      out.push_back(static_cast<uint16_t>(insn.args[0] |
                                          (static_cast<uint16_t>(insn.args[1]) << 8)));
      out.push_back(static_cast<uint16_t>(insn.args[2] |
                                          (static_cast<uint16_t>(insn.args[3]) << 8)));
      break;
    case Op::kPayload:
      out.push_back(insn.payload_count);
      out.push_back(static_cast<uint16_t>(insn.lit & 0xffff));
      out.push_back(static_cast<uint16_t>((insn.lit >> 16) & 0xffff));
      // Caller appends the target list; encode() only emits the header here.
      break;
  }
}

size_t pool_index_unit(Op op) {
  switch (op) {
    case Op::kIget:
    case Op::kIput:
    case Op::kNewArray:
    case Op::kInstanceOf:
      return 2;
    default:
      return 1;
  }
}

std::vector<uint16_t> encode(const Insn& insn) {
  std::vector<uint16_t> out;
  encode_to(insn, out);
  return out;
}

SwitchPayload read_switch_payload(std::span<const uint16_t> code, size_t switch_pc,
                                  const Insn& switch_insn) {
  size_t payload_pc = switch_pc + static_cast<size_t>(switch_insn.off);
  Insn payload = decode_at(code, payload_pc);
  if (payload.op != Op::kPayload) throw ParseError("switch target is not a payload");
  SwitchPayload result;
  result.first_key = static_cast<int32_t>(payload.lit);
  result.rel_targets.reserve(payload.payload_count);
  for (uint16_t i = 0; i < payload.payload_count; ++i) {
    result.rel_targets.push_back(static_cast<int16_t>(code[payload_pc + 4 + i]));
  }
  return result;
}

std::vector<size_t> successors_at(std::span<const uint16_t> code, size_t pc) {
  Insn insn = decode_at(code, pc);
  std::vector<size_t> succ;
  if (can_continue(insn.op)) succ.push_back(pc + insn.width);
  if (insn.op == Op::kGoto || is_conditional_branch(insn.op)) {
    succ.push_back(pc + static_cast<size_t>(insn.off));
  } else if (insn.op == Op::kPackedSwitch) {
    SwitchPayload payload = read_switch_payload(code, pc, insn);
    for (int32_t rel : payload.rel_targets) {
      succ.push_back(pc + static_cast<size_t>(rel));
    }
  }
  return succ;
}

}  // namespace dexlego::bc

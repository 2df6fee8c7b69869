#include <gtest/gtest.h>

#include "src/bytecode/assembler.h"
#include "src/bytecode/disasm.h"
#include "src/bytecode/insn.h"
#include "src/bytecode/opcodes.h"
#include "src/bytecode/verify_code.h"
#include "src/dex/builder.h"
#include "src/support/bytes.h"
#include "src/support/rng.h"

namespace dexlego::bc {
namespace {

TEST(Opcodes, TableConsistent) {
  for (uint8_t raw = 0; raw <= static_cast<uint8_t>(Op::kMaxOp); ++raw) {
    const OpInfo& info = op_info(static_cast<Op>(raw));
    EXPECT_FALSE(info.name.empty());
    if (static_cast<Op>(raw) != Op::kPayload) {
      EXPECT_GE(info.width, 1);
      EXPECT_LE(info.width, 5);
    }
  }
  EXPECT_FALSE(valid_op(0xfe));
}

TEST(Opcodes, Predicates) {
  EXPECT_TRUE(is_conditional_branch(Op::kIfEq));
  EXPECT_TRUE(is_conditional_branch(Op::kIfLez));
  EXPECT_FALSE(is_conditional_branch(Op::kGoto));
  EXPECT_TRUE(is_two_reg_if(Op::kIfLe));
  EXPECT_FALSE(is_two_reg_if(Op::kIfEqz));
  EXPECT_TRUE(is_invoke(Op::kInvokeStatic));
  EXPECT_TRUE(is_return(Op::kReturnVoid));
  EXPECT_FALSE(can_continue(Op::kGoto));
  EXPECT_FALSE(can_continue(Op::kThrow));
  EXPECT_TRUE(can_continue(Op::kIfEq));  // branches fall through when false
}

TEST(Decode, RejectsInvalidOpcode) {
  std::vector<uint16_t> code = {0x00fe};
  EXPECT_THROW(decode_at(code, 0), support::ParseError);
}

TEST(Decode, RejectsTruncated) {
  std::vector<uint16_t> code = {static_cast<uint16_t>(Op::kConst32)};
  EXPECT_THROW(decode_at(code, 0), support::ParseError);
}

TEST(Decode, ConstWideCarriesFullLiteral) {
  Insn in{.op = Op::kConstWide, .a = 3, .lit = -123456789012345ll};
  auto code = encode(in);
  EXPECT_EQ(code.size(), 5u);
  Insn out = decode_at(code, 0);
  EXPECT_EQ(out.lit, -123456789012345ll);
  EXPECT_EQ(out.a, 3);
}

TEST(Decode, NegativeLiterals) {
  auto c16 = encode({.op = Op::kConst16, .a = 0, .lit = -5});
  EXPECT_EQ(decode_at(c16, 0).lit, -5);
  auto lit8 = encode({.op = Op::kAddLit8, .a = 1, .b = 2,
                      .c = static_cast<uint8_t>(-7), .lit = -7});
  EXPECT_EQ(decode_at(lit8, 0).lit, -7);
}

TEST(Encode, PoolIndexUnitHoldsTheIndex) {
  size_t checked = 0;
  for (uint8_t raw = 0; raw <= static_cast<uint8_t>(Op::kMaxOp); ++raw) {
    Op op = static_cast<Op>(raw);
    if (!valid_op(raw) || op_info(op).ref == RefKind::kNone) continue;
    SCOPED_TRACE(std::string(op_info(op).name));
    std::vector<uint16_t> code = encode({.op = op, .idx = 0xBEEF});
    ASSERT_LT(pool_index_unit(op), code.size());
    EXPECT_EQ(code[pool_index_unit(op)], 0xBEEF);
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

// Property: encode(decode(x)) == x over all structured instructions.
TEST(Decode, EncodeDecodeRoundTripRandomized) {
  support::Rng rng(1234);
  int checked = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    Insn in;
    auto raw = static_cast<uint8_t>(rng.below(static_cast<uint8_t>(Op::kMaxOp)));
    in.op = static_cast<Op>(raw);
    if (in.op == Op::kPayload) continue;
    in.a = static_cast<uint8_t>(rng.below(256));
    in.b = static_cast<uint8_t>(rng.below(256));
    in.c = static_cast<uint8_t>(rng.below(256));
    in.idx = static_cast<uint16_t>(rng.below(65536));
    in.off = static_cast<int16_t>(rng.below(65536));
    in.lit = static_cast<int16_t>(rng.below(65536));
    if (in.op == Op::kConst32) in.lit = static_cast<int32_t>(rng.next());
    if (in.op == Op::kConstWide) in.lit = static_cast<int64_t>(rng.next());
    if (in.op == Op::kAddLit8 || in.op == Op::kMulLit8) {
      in.c = static_cast<uint8_t>(rng.below(256));
      in.lit = static_cast<int8_t>(in.c);
    }
    if (is_invoke(in.op)) {
      in.a = static_cast<uint8_t>(rng.below(5));
      for (uint8_t i = 0; i < in.a; ++i) {
        in.args[i] = static_cast<uint8_t>(rng.below(256));
      }
    }

    auto code = encode(in);
    Insn out = decode_at(code, 0);
    // Normalize fields decode() doesn't reconstruct for this op so the
    // comparison is meaningful per opcode format.
    in.width = out.width;
    if (!is_two_reg_if(in.op) && out.b == 0 &&
        (in.op == Op::kConst16 || in.op == Op::kConst32 || in.op == Op::kConstWide ||
         in.op == Op::kConstString || in.op == Op::kConstNull ||
         in.op == Op::kGoto || is_invoke(in.op) ||
         (is_conditional_branch(in.op) && !is_two_reg_if(in.op)) ||
         in.op == Op::kSget || in.op == Op::kSput || in.op == Op::kNewInstance ||
         in.op == Op::kPackedSwitch || in.op == Op::kNop ||
         in.op == Op::kMoveResult || in.op == Op::kMoveException ||
         in.op == Op::kReturnVoid || in.op == Op::kReturn || in.op == Op::kThrow)) {
      in.b = 0;
    }
    switch (in.op) {
      case Op::kNop: case Op::kConstNull: case Op::kMoveResult:
      case Op::kMoveException: case Op::kReturnVoid: case Op::kReturn:
      case Op::kThrow:
        in.b = in.c = 0; in.lit = 0; in.off = 0; in.idx = 0; break;
      case Op::kMove: case Op::kNeg: case Op::kNot: case Op::kArrayLength:
        in.c = 0; in.lit = 0; in.off = 0; in.idx = 0; break;
      case Op::kConst16: case Op::kConst32: case Op::kConstWide:
        in.b = in.c = 0; in.off = 0; in.idx = 0; break;
      case Op::kConstString: case Op::kNewInstance: case Op::kSget: case Op::kSput:
        in.b = in.c = 0; in.lit = 0; in.off = 0; break;
      case Op::kGoto:
        in.b = in.c = 0; in.lit = 0; in.idx = 0; break;
      case Op::kIfEqz: case Op::kIfNez: case Op::kIfLtz: case Op::kIfGez:
      case Op::kIfGtz: case Op::kIfLez: case Op::kPackedSwitch:
        in.b = in.c = 0; in.lit = 0; in.idx = 0; break;
      case Op::kIfEq: case Op::kIfNe: case Op::kIfLt: case Op::kIfGe:
      case Op::kIfGt: case Op::kIfLe:
        in.c = 0; in.lit = 0; in.idx = 0; break;
      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kRem:
      case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kShl: case Op::kShr:
      case Op::kCmp: case Op::kAget: case Op::kAput:
        in.lit = 0; in.off = 0; in.idx = 0; break;
      case Op::kAddLit8: case Op::kMulLit8:
        in.off = 0; in.idx = 0; break;
      case Op::kNewArray: case Op::kInstanceOf: case Op::kIget: case Op::kIput:
        in.c = 0; in.lit = 0; in.off = 0; break;
      case Op::kInvokeVirtual: case Op::kInvokeDirect: case Op::kInvokeStatic:
        in.b = in.c = 0; in.lit = 0; in.off = 0; break;
      default: break;
    }
    // Offsets re-read as int16.
    in.off = static_cast<int16_t>(in.off);
    if (in.op == Op::kConst16) in.lit = static_cast<int16_t>(in.lit);
    if (in.op == Op::kConst32) in.lit = static_cast<int32_t>(in.lit);
    EXPECT_EQ(out, in) << "op=" << op_info(in.op).name;
    ++checked;
  }
  EXPECT_GT(checked, 4000);
}

// --- assembler ---

dex::DexBuilder sample_builder() {
  dex::DexBuilder b;
  b.intern_string("hello");
  b.intern_type("Lcom/A;");
  b.intern_field("Lcom/A;", "I", "x");
  b.intern_method("Lcom/A;", "foo", "V", {});
  return b;
}

TEST(Assembler, LoopWithBranch) {
  // v0 = 0; while (v0 < 10) v0++; return v0
  MethodAssembler as(2, 0);
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);
  as.const16(1, 10);
  as.bind(loop);
  as.if_test(Op::kIfGe, 0, 1, done);
  as.add_lit8(0, 0, 1);
  as.goto_(loop);
  as.bind(done);
  as.return_value(0);
  dex::CodeItem code = as.finish();

  dex::DexBuilder b = sample_builder();
  dex::DexFile f = std::move(b).build();
  auto result = verify_code(f, code, "loop");
  EXPECT_TRUE(result.ok()) << result.message();

  // Check the backward goto resolves to the loop head.
  std::span<const uint16_t> insns(code.insns);
  size_t pc = 0;
  std::vector<std::pair<size_t, Insn>> decoded;
  while (pc < insns.size()) {
    Insn i = decode_at(insns, pc);
    decoded.emplace_back(pc, i);
    pc += i.width;
  }
  const auto& [goto_pc, goto_insn] = decoded[4];
  EXPECT_EQ(goto_insn.op, Op::kGoto);
  EXPECT_EQ(static_cast<ptrdiff_t>(goto_pc) + goto_insn.off, 4);  // loop head pc
}

TEST(Assembler, UnboundLabelThrows) {
  MethodAssembler as(1, 0);
  auto l = as.make_label();
  as.goto_(l);
  as.return_void();
  EXPECT_THROW(as.finish(), std::logic_error);
}

TEST(Assembler, DoubleBindThrows) {
  MethodAssembler as(1, 0);
  auto l = as.make_label();
  as.bind(l);
  EXPECT_THROW(as.bind(l), std::logic_error);
}

TEST(Assembler, PackedSwitchLayout) {
  dex::DexFile f = std::move(sample_builder()).build();

  MethodAssembler as(2, 1);
  auto case0 = as.make_label();
  auto case1 = as.make_label();
  auto fall = as.make_label();
  as.packed_switch(1, 5, {case0, case1});
  as.bind(fall);
  as.const16(0, -1);
  as.return_value(0);
  as.bind(case0);
  as.const16(0, 100);
  as.return_value(0);
  as.bind(case1);
  as.const16(0, 200);
  as.return_value(0);
  dex::CodeItem code = as.finish();

  auto result = verify_code(f, code, "switch");
  EXPECT_TRUE(result.ok()) << result.message();

  Insn sw = decode_at(code.insns, 0);
  ASSERT_EQ(sw.op, Op::kPackedSwitch);
  SwitchPayload payload = read_switch_payload(code.insns, 0, sw);
  EXPECT_EQ(payload.first_key, 5);
  ASSERT_EQ(payload.rel_targets.size(), 2u);
  // Successors: fallthrough + two cases.
  auto succ = successors_at(code.insns, 0);
  EXPECT_EQ(succ.size(), 3u);
}

TEST(Assembler, TryCatchRanges) {
  dex::DexFile f = std::move(sample_builder()).build();
  MethodAssembler as(2, 0);
  auto handler = as.make_label();
  auto end = as.make_label();
  as.begin_try();
  as.const16(0, 1);
  as.const16(1, 0);
  as.binop(Op::kDiv, 0, 0, 1);  // throws
  as.end_try(handler);
  as.goto_(end);
  as.bind(handler);
  as.move_exception(0);
  as.bind(end);
  as.return_void();
  dex::CodeItem code = as.finish();
  ASSERT_EQ(code.tries.size(), 1u);
  EXPECT_EQ(code.tries[0].start_pc, 0);
  EXPECT_GT(code.tries[0].end_pc, code.tries[0].start_pc);
  auto result = verify_code(f, code, "try");
  EXPECT_TRUE(result.ok()) << result.message();
}

TEST(Assembler, LineTable) {
  MethodAssembler as(1, 0);
  as.line(10);
  as.const16(0, 1);
  as.line(11);
  as.const16(0, 2);
  as.const16(0, 3);  // still line 11
  as.line(12);
  as.return_void();
  dex::CodeItem code = as.finish();
  ASSERT_EQ(code.lines.size(), 3u);
  EXPECT_EQ(code.lines[0].line, 10u);
  EXPECT_EQ(code.lines[1].line, 11u);
  EXPECT_EQ(code.lines[2].line, 12u);
}

TEST(Assembler, RawInstructionsTakeLabels) {
  // Carried-over units keep everything but their targets, which become
  // labels: the stale offsets 0x7777 are overwritten.
  dex::DexFile f = std::move(sample_builder()).build();
  MethodAssembler as(2, 1);
  auto done = as.make_label();
  auto other = as.make_label();
  as.raw(encode({.op = Op::kPackedSwitch, .a = 1, .off = 0x7777}));
  as.raw_switch(3, {other, done});
  as.raw(encode({.op = Op::kIfNe, .a = 1, .b = 1, .off = 0x7777}));
  as.raw_branch(other);
  std::span<uint16_t> units = as.raw(encode({.op = Op::kConst16, .a = 0}));
  units[1] = 42;  // patched in place
  EXPECT_THROW(as.raw_branch(done), std::logic_error);  // const/16 has no target
  as.bind(other);
  as.raw(encode({.op = Op::kGoto, .off = 0x7777}));
  as.raw_branch(done);
  as.bind(done);
  as.return_void();
  dex::CodeItem code = as.finish();
  EXPECT_EQ(code.insns, (std::vector<uint16_t>{
                            0x0134, 10,            // packed-switch v1, +10
                            0x010e, 1, 5,          // if-ne v1, v1, +5
                            0x0002, 42,            // const/16 v0, 42
                            0x000c, 2,             // goto +2
                            0x0009,                // return-void
                            0x0036, 2, 3, 0, 7, 9  // payload: +7, +9
                        }));
  auto result = verify_code(f, code, "raw");
  EXPECT_TRUE(result.ok()) << result.message();
}

TEST(Assembler, RawBranchOutOfRangeThrows) {
  MethodAssembler as(1, 0);
  auto far = as.make_label();
  as.raw(encode({.op = Op::kGoto}));
  as.raw_branch(far);
  for (int i = 0; i < 40000; ++i) as.nop();
  as.bind(far);
  as.return_void();
  EXPECT_THROW(as.finish(), std::logic_error);
}

TEST(Assembler, InvokeTooManyArgsThrows) {
  MethodAssembler as(8, 0);
  EXPECT_THROW(as.invoke(Op::kInvokeStatic, 0, {0, 1, 2, 3, 4}), std::logic_error);
}

// --- verifier rejection cases ---

TEST(VerifyCode, RejectsRunOffEnd) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  code.insns = encode({.op = Op::kConst16, .a = 0, .lit = 1});  // no return
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsBranchIntoMiddleOfInsn) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  // goto +1 lands inside the goto itself (unit 1 is its offset operand).
  code.insns = {static_cast<uint16_t>(Op::kGoto), 1, 0x0009};
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsOutOfBoundsRegister) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  code.insns = encode({.op = Op::kConst16, .a = 5, .lit = 0});
  code.insns.push_back(0x0009);
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsBadPoolIndex) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  code.insns = encode({.op = Op::kConstString, .a = 0, .idx = 9999});
  code.insns.push_back(0x0009);
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsFallIntoPayload) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  // const16 then payload data directly after with no terminator.
  code.insns = encode({.op = Op::kConst16, .a = 0, .lit = 0});
  code.insns.push_back(static_cast<uint16_t>(Op::kPayload));
  code.insns.push_back(0);  // count = 0
  code.insns.push_back(0);
  code.insns.push_back(0);
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsEmptyCode) {
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 0;
  EXPECT_FALSE(verify_code(f, code, "t").ok());
}

TEST(VerifyCode, RejectsCodePastSixteenBitPcs) {
  // The loaders refuse a code item of 65,536 units or more.
  dex::DexFile f = std::move(sample_builder()).build();
  dex::CodeItem code;
  code.registers_size = 1;
  code.insns.assign(0xfffe, static_cast<uint16_t>(Op::kNop));
  code.insns.push_back(0x0009);
  EXPECT_TRUE(verify_code(f, code, "t").ok());
  code.insns.insert(code.insns.begin(), static_cast<uint16_t>(Op::kNop));
  dex::VerifyResult result = verify_code(f, code, "t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors, (std::vector<std::string>{
                               "t: code longer than 65535 units"}));
}

TEST(VerifyDex, WholeFilePasses) {
  dex::DexBuilder b;
  b.start_class("Lcom/A;");
  MethodAssembler as(2, 1);
  as.const16(0, 7);
  as.return_value(0);
  b.add_virtual_method("value", "I", {}, as.finish());
  dex::DexFile f = std::move(b).build();
  auto result = verify_dex(f);
  EXPECT_TRUE(result.ok()) << result.message();
}

// --- disassembler ---

TEST(Disasm, ShowsPoolNames) {
  dex::DexBuilder b;
  uint32_t str = b.intern_string("secret");
  b.start_class("Lcom/A;");
  MethodAssembler as(2, 1);
  as.const_string(0, static_cast<uint16_t>(str));
  as.return_void();
  b.add_virtual_method("foo", "V", {}, as.finish());
  dex::DexFile f = std::move(b).build();

  std::string text = bc::disassemble_class(f, f.classes[0]);
  EXPECT_NE(text.find("const-string v0, \"secret\""), std::string::npos);
  EXPECT_NE(text.find(".method Lcom/A;->foo()V"), std::string::npos);
  EXPECT_NE(text.find("return-void"), std::string::npos);
}

TEST(Disasm, BranchTargetsAbsolute) {
  MethodAssembler as(2, 0);
  auto end = as.make_label();
  as.if_testz(Op::kIfEqz, 0, end);
  as.nop();
  as.bind(end);
  as.return_void();
  dex::CodeItem code = as.finish();
  dex::DexFile f = std::move(sample_builder()).build();
  std::string text = disassemble_code(f, code);
  EXPECT_NE(text.find("if-eqz v0, :3"), std::string::npos);
}

TEST(Disasm, InvokeArgListAndWithoutFile) {
  Insn invoke{.op = Op::kInvokeVirtual, .a = 2, .idx = 0};
  invoke.args = {4, 5, 0, 0};
  std::string text = disassemble_insn(nullptr, invoke, 0);
  EXPECT_NE(text.find("{v4, v5}"), std::string::npos);
  EXPECT_NE(text.find("@0"), std::string::npos);
}

}  // namespace
}  // namespace dexlego::bc

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/fuzz/triage.h"
#include "src/runtime/runtime.h"
#include "src/runtime/script.h"
#include "src/runtime/source_sink.h"

namespace dexlego::rt {
namespace {

using bc::MethodAssembler;
using bc::Op;

// Builds a runtime with the given DEX registered and returns the runtime.
std::unique_ptr<Runtime> runtime_with(dex::DexFile file, RuntimeConfig cfg = {}) {
  auto rt = std::make_unique<Runtime>(cfg);
  rt->linker().register_dex(std::move(file), "test.ldex");
  return rt;
}

RtMethod* find_method(Runtime& rt, const char* cls, const char* name) {
  RtClass* c = rt.linker().resolve(cls);
  if (c == nullptr) return nullptr;
  return c->find_declared(name);
}

TEST(Interp, LoopArithmetic) {
  // static int sum(): s=0; for(i=0;i<10;++i) s+=i; return s  => 45
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(3, 0);
  auto loop = as.make_label();
  auto done = as.make_label();
  as.const16(0, 0);   // s
  as.const16(1, 0);   // i
  as.const16(2, 10);  // bound
  as.bind(loop);
  as.if_test(Op::kIfGe, 1, 2, done);
  as.binop(Op::kAdd, 0, 0, 1);
  as.add_lit8(1, 1, 1);
  as.goto_(loop);
  as.bind(done);
  as.return_value(0);
  b.add_direct_method("sum", "I", {}, as.finish());

  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "sum"), {});
  ASSERT_TRUE(out.completed) << out.abort_reason << out.exception_type;
  EXPECT_EQ(out.ret.i, 45);
}

TEST(Interp, AllBinops) {
  // f(a, b) returns a table of ops applied; test via separate methods.
  struct Case { Op op; int64_t a, b, expect; };
  const Case cases[] = {
      {Op::kAdd, 7, 3, 10},  {Op::kSub, 7, 3, 4},   {Op::kMul, 7, 3, 21},
      {Op::kDiv, 7, 3, 2},   {Op::kRem, 7, 3, 1},   {Op::kAnd, 6, 3, 2},
      {Op::kOr, 6, 3, 7},    {Op::kXor, 6, 3, 5},   {Op::kShl, 1, 4, 16},
      {Op::kShr, 16, 2, 4},  {Op::kCmp, 2, 9, -1},  {Op::kCmp, 9, 2, 1},
      {Op::kCmp, 4, 4, 0},
  };
  for (const Case& c : cases) {
    dex::DexBuilder b;
    b.start_class("Lt/A;");
    MethodAssembler as(3, 2);
    as.binop(c.op, 0, 1, 2);
    as.return_value(0);
    b.add_direct_method("f", "I", {"I", "I"}, as.finish());
    auto rt = runtime_with(std::move(b).build());
    ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"),
                                          {Value::Int(c.a), Value::Int(c.b)});
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(out.ret.i, c.expect) << bc::op_info(c.op).name;
  }
}

TEST(Interp, OverflowingArithmeticWraps) {
  // Like Java long arithmetic: two's-complement wrap-around, and MIN / -1
  // is MIN with remainder 0 instead of a host trap.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case { Op op; int64_t a, b, expect; };
  const Case cases[] = {
      {Op::kAdd, kMax, 1, kMin},     {Op::kSub, kMin, 1, kMax},
      {Op::kMul, kMax, 2, -2},       {Op::kDiv, kMin, -1, kMin},
      {Op::kRem, kMin, -1, 0},       {Op::kShl, -1, 63, kMin},
      {Op::kAddLit8, kMax, 1, kMin}, {Op::kMulLit8, kMin, -1, kMin},
      {Op::kNeg, kMin, 0, kMin},
  };
  for (const Case& c : cases) {
    dex::DexBuilder b;
    b.start_class("Lt/A;");
    MethodAssembler as(3, 2);
    if (c.op == Op::kAddLit8) {
      as.add_lit8(0, 1, static_cast<int8_t>(c.b));
    } else if (c.op == Op::kMulLit8) {
      as.mul_lit8(0, 1, static_cast<int8_t>(c.b));
    } else if (c.op == Op::kNeg) {
      as.unop(Op::kNeg, 0, 1);
    } else {
      as.binop(c.op, 0, 1, 2);
    }
    as.return_value(0);
    b.add_direct_method("f", "I", {"I", "I"}, as.finish());
    auto rt = runtime_with(std::move(b).build());
    ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"),
                                          {Value::Int(c.a), Value::Int(c.b)});
    ASSERT_TRUE(out.completed) << bc::op_info(c.op).name;
    EXPECT_EQ(out.ret.i, c.expect) << bc::op_info(c.op).name;
  }
}

TEST(Interp, DivByZeroThrows) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 0);
  as.const16(0, 1);
  as.const16(1, 0);
  as.binop(Op::kDiv, 0, 0, 1);
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  EXPECT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/ArithmeticException;");
}

TEST(Interp, TryCatchHandlesException) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 0);
  auto handler = as.make_label();
  as.begin_try();
  as.const16(0, 1);
  as.const16(1, 0);
  as.binop(Op::kDiv, 0, 0, 1);
  as.end_try(handler);
  as.const16(0, -1);
  as.return_value(0);
  as.bind(handler);
  as.move_exception(1);
  as.const16(0, 42);
  as.return_value(0);
  b.add_direct_method("f", "I", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.ret.i, 42);
}

TEST(Interp, StaticFieldsAndClinit) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  b.add_static_field("X", "I", dex::DexBuilder::int_value(5));
  uint32_t fx = b.intern_field("Lt/A;", "I", "X");
  {
    // <clinit>: X = X * 3
    MethodAssembler as(1, 0);
    as.sget(0, static_cast<uint16_t>(fx));
    as.mul_lit8(0, 0, 3);
    as.sput(0, static_cast<uint16_t>(fx));
    as.return_void();
    b.add_direct_method("<clinit>", "V", {}, as.finish(),
                        dex::kAccStatic | dex::kAccConstructor);
  }
  {
    MethodAssembler as(1, 0);
    as.sget(0, static_cast<uint16_t>(fx));
    as.return_value(0);
    b.add_direct_method("get", "I", {}, as.finish());
  }
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "get"), {});
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.ret.i, 15);  // 5 * 3 applied by <clinit> before first sget
}

TEST(Interp, InstanceFieldsAndVirtualDispatch) {
  dex::DexBuilder b;
  // class Base { int v; int get() { return v; } }
  b.start_class("Lt/Base;");
  b.add_instance_field("v", "I");
  uint32_t fv = b.intern_field("Lt/Base;", "I", "v");
  {
    MethodAssembler as(2, 1);  // p0 = this in v1
    as.iget(0, 1, static_cast<uint16_t>(fv));
    as.return_value(0);
    b.add_virtual_method("get", "I", {}, as.finish());
  }
  // class Sub extends Base { int get() { return 99; } }
  b.start_class("Lt/Sub;", "Lt/Base;");
  {
    MethodAssembler as(1, 1);
    as.const16(0, 99);
    as.return_value(0);
    b.add_virtual_method("get", "I", {}, as.finish());
  }
  // static int test(): Base b1 = new Base(); b1.v = 7; Base b2 = new Sub();
  //                    return b1.get() + b2.get();  => 7 + 99
  uint32_t base_t = b.intern_type("Lt/Base;");
  uint32_t sub_t = b.intern_type("Lt/Sub;");
  uint32_t get_m = b.intern_method("Lt/Base;", "get", "I", {});
  b.start_class("Lt/Main;");
  {
    MethodAssembler as(4, 0);
    as.new_instance(0, static_cast<uint16_t>(base_t));
    as.const16(1, 7);
    as.iput(1, 0, static_cast<uint16_t>(fv));
    as.new_instance(2, static_cast<uint16_t>(sub_t));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(get_m), {0});
    as.move_result(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(get_m), {2});
    as.move_result(3);
    as.binop(Op::kAdd, 0, 1, 3);
    as.return_value(0);
    b.add_direct_method("test", "I", {}, as.finish());
  }
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/Main;", "test"), {});
  ASSERT_TRUE(out.completed) << out.exception_type << out.exception_message;
  EXPECT_EQ(out.ret.i, 106);
}

TEST(Interp, ArraysAndBoundsCheck) {
  dex::DexBuilder b;
  uint32_t arr_t = b.intern_type("[I");
  b.start_class("Lt/A;");
  {
    // int[] a = new int[3]; a[1] = 5; return a[1] + a.length
    MethodAssembler as(4, 0);
    as.const16(0, 3);
    as.new_array(1, 0, static_cast<uint16_t>(arr_t));
    as.const16(2, 1);
    as.const16(3, 5);
    as.aput(3, 1, 2);
    as.aget(0, 1, 2);
    as.array_length(2, 1);
    as.binop(Op::kAdd, 0, 0, 2);
    as.return_value(0);
    b.add_direct_method("f", "I", {}, as.finish());
  }
  {
    // out-of-bounds read
    MethodAssembler as(3, 0);
    as.const16(0, 2);
    as.new_array(1, 0, static_cast<uint16_t>(arr_t));
    as.const16(2, 9);
    as.aget(0, 1, 2);
    as.return_value(0);
    b.add_direct_method("oob", "I", {}, as.finish());
  }
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.ret.i, 8);
  out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "oob"), {});
  EXPECT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/ArrayIndexOutOfBoundsException;");
}

TEST(Interp, PackedSwitchDispatch) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(2, 1);
  auto c0 = as.make_label();
  auto c1 = as.make_label();
  as.packed_switch(1, 10, {c0, c1});
  as.const16(0, -1);
  as.return_value(0);
  as.bind(c0);
  as.const16(0, 100);
  as.return_value(0);
  as.bind(c1);
  as.const16(0, 200);
  as.return_value(0);
  b.add_direct_method("f", "I", {"I"}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  RtMethod* f = find_method(*rt, "Lt/A;", "f");
  EXPECT_EQ(rt->interp().invoke(*f, {Value::Int(10)}).ret.i, 100);
  EXPECT_EQ(rt->interp().invoke(*f, {Value::Int(11)}).ret.i, 200);
  EXPECT_EQ(rt->interp().invoke(*f, {Value::Int(12)}).ret.i, -1);  // fallthrough
  EXPECT_EQ(rt->interp().invoke(*f, {Value::Int(-3)}).ret.i, -1);
}

TEST(Interp, StringBuiltinsPropagateTaint) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Landroid/telephony/TelephonyManager;",
                                 "getDeviceId", "Ljava/lang/String;", {});
  uint32_t concat =
      b.intern_method("Ljava/lang/String;", "concat", "Ljava/lang/String;",
                      {"Ljava/lang/String;"});
  uint32_t prefix = b.intern_string("id=");
  b.start_class("Lt/A;");
  MethodAssembler as(2, 0);
  as.const_string(0, static_cast<uint16_t>(prefix));
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
  as.move_result(1);
  as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(concat), {0, 1});
  as.move_result(0);
  as.return_value(0);
  b.add_direct_method("f", "Ljava/lang/String;", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.ret.is_ref());
  EXPECT_EQ(out.ret.ref->str, "id=356938035643809");
  EXPECT_EQ(out.ret.ref->taint & kTaintDeviceId, kTaintDeviceId);
}

TEST(Interp, SourceToSinkLeakRecorded) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Landroid/telephony/TelephonyManager;",
                                 "getDeviceId", "Ljava/lang/String;", {});
  uint32_t sink = b.intern_method("Landroid/util/Log;", "i", "V",
                                  {"Ljava/lang/String;"});
  b.start_class("Lt/A;");
  MethodAssembler as(1, 0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(sink), {0});
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_EQ(rt->leaks().size(), 1u);
  EXPECT_EQ(rt->leaks()[0].sink, "log");
  EXPECT_EQ(rt->leaks()[0].taint & kTaintDeviceId, kTaintDeviceId);
}

TEST(Interp, UntaintedSinkIsNotALeak) {
  dex::DexBuilder b;
  uint32_t sink = b.intern_method("Landroid/util/Log;", "i", "V",
                                  {"Ljava/lang/String;"});
  uint32_t msg = b.intern_string("benign");
  b.start_class("Lt/A;");
  MethodAssembler as(1, 0);
  as.const_string(0, static_cast<uint16_t>(msg));
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(sink), {0});
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  EXPECT_EQ(rt->sink_events().size(), 1u);
  EXPECT_TRUE(rt->leaks().empty());
}

// The paper's Code 1: a native method rewrites bytecode between loop
// iterations so that the source statement and the sink statement never
// coexist in memory. The runtime must execute the tampered code faithfully —
// and the dynamic taint layer still sees the leak because the value is
// already in a register.
TEST(Interp, SelfModifyingBytecodeExecutes) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t normal_m = b.intern_method("Lt/Main;", "normal", "V",
                                      {"Ljava/lang/String;"});
  uint32_t sink_m = b.intern_method("Lt/Main;", "sink", "V",
                                    {"Ljava/lang/String;"});
  uint32_t tamper_m = b.intern_method("Lt/Main;", "bytecodeTamper", "V", {"I"});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});

  b.start_class("Lt/Main;");
  size_t call_pc;  // dex_pc of the normal/sink call, patched by the native
  {
    // advancedLeak: v0 = secret(); for (v1=0; v1<2; ++v1) { normal(v0); tamper(v1); }
    MethodAssembler as(4, 1);  // v3 = this
    auto loop = as.make_label();
    auto done = as.make_label();
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(0);
    as.const16(1, 0);
    as.const16(2, 2);
    as.bind(loop);
    as.if_test(Op::kIfGe, 1, 2, done);
    call_pc = as.current_pc();
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(normal_m), {3, 0});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(tamper_m), {3, 1});
    as.add_lit8(1, 1, 1);
    as.goto_(loop);
    as.bind(done);
    as.return_void();
    b.add_virtual_method("advancedLeak", "V", {}, as.finish());
  }
  {
    MethodAssembler as(2, 2);
    as.return_void();
    b.add_virtual_method("normal", "V", {"Ljava/lang/String;"}, as.finish());
  }
  {
    MethodAssembler as(2, 2);  // this in v0, param in v1
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {1});
    as.return_void();
    b.add_virtual_method("sink", "V", {"Ljava/lang/String;"}, as.finish());
  }
  b.add_native_method("bytecodeTamper", "V", {"I"});

  uint32_t main_t = b.intern_type("Lt/Main;");
  uint32_t leak_m = b.intern_method("Lt/Main;", "advancedLeak", "V", {});
  b.start_class("Lt/Entry;");
  {
    MethodAssembler as(1, 0);
    as.new_instance(0, static_cast<uint16_t>(main_t));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(leak_m), {0});
    as.return_void();
    b.add_direct_method("run", "V", {}, as.finish());
  }

  auto rt = runtime_with(std::move(b).build());
  // bytecodeTamper(i): i==0 -> patch the call at call_pc to target sink;
  //                    i==1 -> patch it back to normal.
  int tamper_calls = 0;
  rt->register_native(
      "Lt/Main;->bytecodeTamper",
      [call_pc, normal_m, sink_m, &tamper_calls](NativeContext& ctx,
                                                 std::span<Value> args) {
        ++tamper_calls;
        RtClass* cls = ctx.runtime.linker().resolve("Lt/Main;");
        RtMethod* leak = cls->find_declared("advancedLeak");
        // The invoke's method index lives in code unit call_pc + 1.
        leak->code->insns[call_pc + 1] = static_cast<uint16_t>(
            args[1].test_value() == 0 ? sink_m : normal_m);
        return Value::Null();
      });

  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/Entry;", "run"), {});
  ASSERT_TRUE(out.completed) << out.exception_type;
  EXPECT_EQ(tamper_calls, 2);
  // Second loop iteration executed sink(v0) with the sensitive value.
  ASSERT_EQ(rt->leaks().size(), 1u);
  EXPECT_EQ(rt->leaks()[0].taint & kTaintSensitive, kTaintSensitive);
}

TEST(Interp, ReflectionInvokeAndHook) {
  dex::DexBuilder b;
  uint32_t forname = b.intern_method("Ljava/lang/Class;", "forName",
                                     "Ljava/lang/Class;", {"Ljava/lang/String;"});
  uint32_t getm = b.intern_method("Ljava/lang/Class;", "getMethod",
                                  "Ljava/lang/reflect/Method;",
                                  {"Ljava/lang/String;"});
  uint32_t invoke_m = b.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                      "Ljava/lang/Object;",
                                      {"Ljava/lang/Object;"});
  uint32_t cls_name = b.intern_string("Lt/T;");
  uint32_t m_name = b.intern_string("answer");
  b.start_class("Lt/T;");
  {
    MethodAssembler as(1, 0);
    as.const16(0, 41);
    as.add_lit8(0, 0, 1);
    as.return_value(0);
    b.add_direct_method("answer", "I", {}, as.finish());
  }
  b.start_class("Lt/A;");
  {
    MethodAssembler as(3, 0);
    as.const_string(0, static_cast<uint16_t>(cls_name));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(m_name));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 1});
    as.move_result(0);
    as.const_null(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {0, 1});
    as.move_result(0);
    as.return_value(0);
    b.add_direct_method("f", "I", {}, as.finish());
  }

  struct ReflectHook : RuntimeHooks {
    std::vector<std::string> targets;
    void on_reflective_invoke(RtMethod&, uint32_t, RtMethod& target) override {
      targets.push_back(target.full_name());
    }
  } hook;

  auto rt = runtime_with(std::move(b).build());
  rt->add_hooks(&hook);
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_TRUE(out.completed) << out.exception_type << out.exception_message;
  EXPECT_EQ(out.ret.i, 42);
  ASSERT_EQ(hook.targets.size(), 1u);
  EXPECT_EQ(hook.targets[0], "Lt/T;->answer");
}

TEST(Interp, FrameworkTaintMarshalling) {
  // setTag/getTag round trip: taint survives by default, is stripped in the
  // TaintDroid/TaintART configuration.
  for (bool through : {true, false}) {
    dex::DexBuilder b;
    uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                   "Ljava/lang/String;", {});
    uint32_t find_view = b.intern_method("Landroid/app/Activity;", "findViewById",
                                         "Landroid/view/View;", {"I"});
    uint32_t set_tag = b.intern_method("Landroid/view/View;", "setTag", "V",
                                       {"Ljava/lang/Object;"});
    uint32_t get_tag = b.intern_method("Landroid/view/View;", "getTag",
                                       "Ljava/lang/Object;", {});
    uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                     {"Ljava/lang/String;"});
    b.start_class("Lt/A;", "Landroid/app/Activity;");
    MethodAssembler as(4, 1);  // this in v3
    as.const16(0, 7);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(find_view), {3, 0});
    as.move_result(0);  // view
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(set_tag), {0, 1});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(get_tag), {0});
    as.move_result(2);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {2});
    as.return_void();
    b.add_virtual_method("leak", "V", {}, as.finish());

    RuntimeConfig cfg;
    cfg.taint_through_framework = through;
    auto rt = runtime_with(std::move(b).build(), cfg);
    RtClass* cls = rt->linker().resolve("Lt/A;");
    Object* self = rt->heap().new_instance(cls, cls->descriptor,
                                           cls->instance_slot_count);
    rt->interp().invoke(*cls->find_declared("leak"), {Value::Ref(self)});
    if (through) {
      EXPECT_EQ(rt->leaks().size(), 1u) << "taint should survive the framework";
    } else {
      EXPECT_TRUE(rt->leaks().empty()) << "TaintDroid-mode loses tag taint";
      EXPECT_EQ(rt->sink_events().size(), 1u);  // the call still happened
    }
  }
}

TEST(Interp, StepLimitAborts) {
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  MethodAssembler as(1, 0);
  auto loop = as.make_label();
  as.bind(loop);
  as.goto_(loop);  // infinite
  b.add_direct_method("spin", "V", {}, as.finish());
  RuntimeConfig cfg;
  cfg.step_limit = 10'000;
  auto rt = runtime_with(std::move(b).build(), cfg);
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "spin"), {});
  EXPECT_TRUE(out.aborted);
}

TEST(Interp, NullPointerOnVirtualCall) {
  dex::DexBuilder b;
  uint32_t m = b.intern_method("Lt/A;", "foo", "V", {});
  b.start_class("Lt/A;");
  {
    MethodAssembler as(1, 1);
    as.return_void();
    b.add_virtual_method("foo", "V", {}, as.finish());
  }
  {
    MethodAssembler as(1, 0);
    as.const_null(0);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(m), {0});
    as.return_void();
    b.add_direct_method("f", "V", {}, as.finish());
  }
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  EXPECT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/NullPointerException;");
}

TEST(Runtime, LaunchLifecycleAndClick) {
  dex::DexBuilder b;
  uint32_t set_cv = b.intern_method("Landroid/app/Activity;", "setContentView",
                                    "V", {"I"});
  uint32_t find_view = b.intern_method("Landroid/app/Activity;", "findViewById",
                                       "Landroid/view/View;", {"I"});
  uint32_t set_click = b.intern_method("Landroid/view/View;", "setOnClickListener",
                                       "V", {"Ljava/lang/Object;"});
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  b.start_class("Lapp/Main;", "Landroid/app/Activity;");
  b.add_instance_field("data", "Ljava/lang/String;");
  uint32_t fdata = b.intern_field("Lapp/Main;", "Ljava/lang/String;", "data");
  {
    // onCreate: setContentView(1); findViewById(7).setOnClickListener(this);
    //           this.data = secret();
    MethodAssembler as(3, 1);  // this in v2
    as.const16(0, 1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(set_cv), {2, 0});
    as.const16(0, 7);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(find_view), {2, 0});
    as.move_result(0);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(set_click), {0, 2});
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(1);
    as.iput(1, 2, static_cast<uint16_t>(fdata));
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  {
    // onClick(View): Log.i(this.data)
    MethodAssembler as(3, 2);  // this in v1, view in v2
    as.iget(0, 1, static_cast<uint16_t>(fdata));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    b.add_virtual_method("onClick", "V", {"Landroid/view/View;"}, as.finish());
  }

  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "app";
  manifest.entry_class = "Lapp/Main;";
  manifest.version = "1.0";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));

  Runtime rt;
  rt.install(std::move(apk));
  ExecOutcome out = rt.launch();
  ASSERT_TRUE(out.completed) << out.abort_reason << out.exception_type;
  ASSERT_EQ(rt.ui_clickable_ids(), std::vector<int>{7});
  EXPECT_TRUE(rt.leaks().empty());  // leak only fires on the click
  out = rt.fire_click(7);
  ASSERT_TRUE(out.completed) << out.abort_reason;
  ASSERT_EQ(rt.leaks().size(), 1u);
  EXPECT_EQ(rt.leaks()[0].sink, "log");
}

TEST(Runtime, DynamicDexLoadingFromAsset) {
  // Shell app loads an encrypted secondary DEX from assets, then reflects
  // into it — the standard packer release flow.
  dex::DexBuilder payload;
  payload.start_class("Lhidden/P;");
  {
    MethodAssembler as(1, 0);
    as.const16(0, 1234);
    as.return_value(0);
    payload.add_direct_method("value", "I", {}, as.finish());
  }
  std::vector<uint8_t> payload_bytes = dex::write_dex(std::move(payload).build());
  // Encrypt with the rolling xor the loader reverses (key 42).
  std::vector<uint8_t> enc = payload_bytes;
  uint8_t rolling = 42;
  for (uint8_t& byte : enc) {
    byte ^= rolling;
    rolling = static_cast<uint8_t>(rolling * 31 + 7);
  }

  dex::DexBuilder shell;
  uint32_t load = shell.intern_method("Ldalvik/system/DexClassLoader;",
                                      "loadFromAsset", "V",
                                      {"Ljava/lang/String;", "I"});
  uint32_t forname = shell.intern_method("Ljava/lang/Class;", "forName",
                                         "Ljava/lang/Class;",
                                         {"Ljava/lang/String;"});
  uint32_t getm = shell.intern_method("Ljava/lang/Class;", "getMethod",
                                      "Ljava/lang/reflect/Method;",
                                      {"Ljava/lang/String;"});
  uint32_t invoke_m = shell.intern_method("Ljava/lang/reflect/Method;", "invoke",
                                          "Ljava/lang/Object;",
                                          {"Ljava/lang/Object;"});
  uint32_t asset_s = shell.intern_string("assets/payload.bin");
  uint32_t cls_s = shell.intern_string("Lhidden/P;");
  uint32_t m_s = shell.intern_string("value");
  shell.start_class("Lshell/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);  // this in v2
    as.const_string(0, static_cast<uint16_t>(asset_s));
    as.const16(1, 42);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(load), {0, 1});
    as.const_string(0, static_cast<uint16_t>(cls_s));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(forname), {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(m_s));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(getm), {0, 1});
    as.move_result(0);
    as.const_null(1);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(invoke_m), {0, 1});
    as.move_result(0);
    as.return_value(0);
    shell.add_virtual_method("onCreate", "I", {}, as.finish());
  }

  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "shell";
  manifest.entry_class = "Lshell/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(shell).build()));
  apk.set_entry("assets/payload.bin", enc);

  Runtime rt;
  rt.install(std::move(apk));
  RtClass* cls = rt.linker().ensure_initialized("Lshell/Main;");
  ASSERT_NE(cls, nullptr);
  Object* self = rt.heap().new_instance(cls, cls->descriptor,
                                        cls->instance_slot_count);
  ExecOutcome out =
      rt.interp().invoke(*cls->find_declared("onCreate"), {Value::Ref(self)});
  ASSERT_TRUE(out.completed) << out.exception_type << out.exception_message;
  EXPECT_EQ(out.ret.i, 1234);  // reflected into the dynamically loaded class
  // The second image is registered with the linker.
  EXPECT_EQ(rt.linker().images().size(), 2u);
  EXPECT_EQ(rt.linker().images()[1]->source, "dynamic:assets/payload.bin");
}

TEST(Runtime, IntentsCarryExtrasAcrossActivities) {
  dex::DexBuilder b;
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t intent_t = b.intern_type("Landroid/content/Intent;");
  uint32_t intent_init = b.intern_method("Landroid/content/Intent;", "<init>", "V",
                                         {"Ljava/lang/String;"});
  uint32_t put_extra = b.intern_method("Landroid/content/Intent;", "putExtra",
                                       "Landroid/content/Intent;",
                                       {"Ljava/lang/String;", "Ljava/lang/Object;"});
  uint32_t start_act = b.intern_method("Landroid/app/Activity;", "startActivity",
                                       "V", {"Landroid/content/Intent;"});
  uint32_t get_intent = b.intern_method("Landroid/app/Activity;", "getIntent",
                                        "Landroid/content/Intent;", {});
  uint32_t get_extra = b.intern_method("Landroid/content/Intent;", "getStringExtra",
                                       "Ljava/lang/String;", {"Ljava/lang/String;"});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  uint32_t second_s = b.intern_string("Lapp/Second;");
  uint32_t key_s = b.intern_string("payload");

  b.start_class("Lapp/First;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);  // this in v3
    as.new_instance(0, static_cast<uint16_t>(intent_t));
    as.const_string(1, static_cast<uint16_t>(second_s));
    as.invoke(Op::kInvokeDirect, static_cast<uint16_t>(intent_init), {0, 1});
    as.const_string(1, static_cast<uint16_t>(key_s));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
    as.move_result(2);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(put_extra), {0, 1, 2});
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(start_act), {3, 0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  b.start_class("Lapp/Second;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);  // this in v2
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(get_intent), {2});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(key_s));
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(get_extra), {0, 1});
    as.move_result(0);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }

  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "app";
  manifest.entry_class = "Lapp/First;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));

  Runtime rt;
  rt.install(std::move(apk));
  ExecOutcome out = rt.launch();
  ASSERT_TRUE(out.completed) << out.abort_reason << out.exception_type;
  ASSERT_EQ(rt.leaks().size(), 1u);  // taint crossed the intent boundary
  EXPECT_EQ(rt.leaks()[0].sink, "log");
}

TEST(Runtime, TabletOnlyLeakRespectsDeviceProfile) {
  dex::DexBuilder b;
  uint32_t is_tablet = b.intern_method("Landroid/os/Build;", "isTablet", "I", {});
  uint32_t src = b.intern_method("Ldexlego/api/Source;", "secret",
                                 "Ljava/lang/String;", {});
  uint32_t log_i = b.intern_method("Landroid/util/Log;", "i", "V",
                                   {"Ljava/lang/String;"});
  b.start_class("Lt/A;");
  MethodAssembler as(1, 0);
  auto skip = as.make_label();
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(is_tablet), {});
  as.move_result(0);
  as.if_testz(Op::kIfEqz, 0, skip);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(src), {});
  as.move_result(0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
  as.bind(skip);
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  dex::DexFile file = std::move(b).build();

  for (auto device : {DeviceProfile::kPhone, DeviceProfile::kTablet}) {
    RuntimeConfig cfg;
    cfg.device = device;
    auto rt = runtime_with(file, cfg);
    rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
    if (device == DeviceProfile::kTablet) {
      EXPECT_EQ(rt->leaks().size(), 1u);
    } else {
      EXPECT_TRUE(rt->leaks().empty());
    }
  }
}

// A tolerated exception skips the faulting instruction by its true extent.
// A switch payload of `targets` targets occupies 4 + targets units, which
// Insn::width's 8 bits wrap from 252 targets on (256 -> 0, 257 -> 1):
// stepping by the width would re-execute the payload in place, or resume on
// its count word and die on "invalid opcode 253".
class ToleratedPayloadSkip : public ::testing::TestWithParam<uint16_t> {};

TEST_P(ToleratedPayloadSkip, CompletesInThreeSteps) {
  struct TolerateAll : RuntimeHooks {
    uint32_t subscribed_events() const override {
      return hook_mask(HookEvent::kTolerateException);
    }
    bool tolerate_exception(RtMethod&, uint32_t) override { return true; }
  };
  const uint16_t targets = GetParam();
  // goto +2; a payload of `targets` zero targets; return-void.
  dex::CodeItem code;
  code.registers_size = 1;
  code.insns = {static_cast<uint16_t>(Op::kGoto), 2,
                static_cast<uint16_t>(Op::kPayload), targets, 0, 0};
  code.insns.resize(code.insns.size() + targets, 0);
  code.insns.push_back(static_cast<uint16_t>(Op::kReturnVoid));
  dex::DexBuilder b;
  b.start_class("Lt/A;");
  b.add_direct_method("skip", "V", {}, std::move(code));
  RuntimeConfig cfg;
  cfg.step_limit = 10'000;
  auto rt = runtime_with(std::move(b).build(), cfg);
  TolerateAll tolerate;
  rt->add_hooks(&tolerate);

  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "skip"), {});
  EXPECT_TRUE(out.completed) << out.exception_type << " "
                             << out.exception_message << out.abort_reason;
  EXPECT_EQ(rt->interp().steps(), 3u);  // goto, the payload, return-void
}

INSTANTIATE_TEST_SUITE_P(Targets, ToleratedPayloadSkip,
                         ::testing::Values(uint16_t{251}, uint16_t{252},
                                           uint16_t{253}),
                         [](const auto& info) {
                           return "targets" + std::to_string(info.param);
                         });

dex::Apk make_apk(dex::DexFile file, const std::string& entry) {
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "t";
  manifest.entry_class = entry;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(file));
  return apk;
}

// --- const-string interning (Dalvik identity semantics) --------------------

dex::Apk literal_identity_app() {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t lit = b.intern_string("the-literal");
  uint32_t same = b.intern_string("same");
  uint32_t diff = b.intern_string("diff");
  b.start_class("Lt/Lit;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 1);
    auto eq = as.make_label();
    auto end = as.make_label();
    as.const_string(0, static_cast<uint16_t>(lit));
    as.const_string(1, static_cast<uint16_t>(lit));
    as.if_test(Op::kIfEq, 0, 1, eq);
    as.const_string(2, static_cast<uint16_t>(diff));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {2});
    as.goto_(end);
    as.bind(eq);
    as.const_string(2, static_cast<uint16_t>(same));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {2});
    as.bind(end);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  return make_apk(std::move(b).build(), "Lt/Lit;");
}

TEST(StringInterning, RepeatedConstStringIsReferenceEqual) {
  ExecutionTrace trace = trace_app(literal_identity_app());
  ASSERT_EQ(trace.sink_log.size(), 1u);
  EXPECT_NE(trace.sink_log[0].find("same"), std::string::npos)
      << "two executions of the same literal must be reference-equal "
      << "(interned)";
}

TEST(StringInterning, LiteralIdentitySurvivesTheRevealRoundTrip) {
  // Containment stays off: the "diff" branch is never executed.
  fuzz::OracleOptions options;
  options.step_limit = RuntimeConfig{}.step_limit;
  fuzz::OracleReport report =
      fuzz::run_oracle({literal_identity_app(), {}}, options);
  EXPECT_EQ(report.outcome, fuzz::Outcome::kEquivalent) << report.detail;
}

// Interned literals are shared program-wide, so they must be immune to a
// hostile invoke-virtual of StringBuilder.append with a *string* receiver
// (unrepresentable under the on-device verifier, but reachable here): the
// builtin must not mutate the shared literal in place.
TEST(StringInterning, HostileStringBuilderAppendCannotMutateLiterals) {
  dex::DexBuilder b;
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t append = b.intern_method("Ljava/lang/StringBuilder;", "append",
                                    "Ljava/lang/StringBuilder;",
                                    {"Ljava/lang/String;"});
  uint32_t lit = b.intern_string("SECRET");
  b.start_class("Lt/Sb;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 1);
    as.const_string(0, static_cast<uint16_t>(lit));
    // Hostile: the "builder" receiver is the interned literal itself.
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(append), {0, 0});
    as.const_string(1, static_cast<uint16_t>(lit));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(log_i), {1});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  ExecutionTrace trace = trace_app(make_apk(std::move(b).build(), "Lt/Sb;"));
  ASSERT_EQ(trace.sink_log.size(), 1u);
  EXPECT_EQ(trace.sink_log[0].substr(trace.sink_log[0].rfind('|') + 1),
            "SECRET");
}

// Interning is by content, not by image: the literal a dynamically loaded
// DEX uses, at a different string index, is the object the APK's code gets.
TEST(StringInterning, SameLiteralInTwoImagesIsOneObject) {
  auto literal_dex = [](const char* cls, bool pad) {
    dex::DexBuilder b;
    if (pad) b.intern_string("a-padding-literal");  // shifts the index
    uint32_t lit = b.intern_string("shared-literal");
    b.start_class(cls);
    MethodAssembler as(1, 0);
    as.const_string(0, static_cast<uint16_t>(lit));
    as.return_value(0);
    b.add_direct_method("lit", "Ljava/lang/String;", {}, as.finish());
    return std::move(b).build();
  };
  auto rt = runtime_with(literal_dex("Lt/A;", false));
  rt->linker().register_dex(literal_dex("Lt/B;", true), "dynamic:b");
  ExecOutcome a = rt->interp().invoke(*find_method(*rt, "Lt/A;", "lit"), {});
  ExecOutcome b = rt->interp().invoke(*find_method(*rt, "Lt/B;", "lit"), {});
  ASSERT_TRUE(a.completed && b.completed);
  ASSERT_NE(a.ret.ref, nullptr);
  EXPECT_EQ(a.ret.ref, b.ret.ref);
}

// --- unique-name-only method resolution fallback ---------------------------

// Two static overloads pick(I)V / pick(II)V and a method ref whose proto
// matches neither: resolution is ambiguous and must raise NoSuchMethodError
// instead of silently dispatching whichever overload linked first.
TEST(ResolveMethodOverloads, AmbiguousNameOnlyFallbackRaises) {
  dex::DexBuilder b;
  uint32_t bad_ref =
      b.intern_method("Lt/Ov;", "pick", "V", {"Ljava/lang/String;"});
  b.start_class("Lt/Ov;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    as.return_void();
    b.add_direct_method("pick", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(3, 2);
    as.return_void();
    b.add_direct_method("pick", "V", {"I", "I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(bad_ref), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  Runtime runtime;
  runtime.install(make_apk(std::move(b).build(), "Lt/Ov;"));
  ExecOutcome out = runtime.launch();
  EXPECT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/NoSuchMethodError;");
}

// The same uniqueness rule applies to virtual dispatch: two virtual
// overloads and a ref proto matching neither must not silently pick the
// first-declared one (RtClass::find_dispatch name-only fallback).
TEST(ResolveMethodOverloads, AmbiguousVirtualDispatchRaises) {
  dex::DexBuilder b;
  uint32_t bad_ref =
      b.intern_method("Lt/Ov2;", "pick", "V", {"Ljava/lang/String;"});
  b.start_class("Lt/Ov2;", "Landroid/app/Activity;");
  {
    MethodAssembler as(3, 2);
    as.return_void();
    b.add_virtual_method("pick", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(4, 3);
    as.return_void();
    b.add_virtual_method("pick", "V", {"I", "I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(bad_ref), {1, 0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  Runtime runtime;
  runtime.install(make_apk(std::move(b).build(), "Lt/Ov2;"));
  ExecOutcome out = runtime.launch();
  EXPECT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/NoSuchMethodError;");
}

// A unique name still resolves under a mismatched proto (the leniency the
// fallback exists for — erased-generics style call sites).
TEST(ResolveMethodOverloads, UniqueNameFallbackStillResolves) {
  dex::DexBuilder b;
  uint32_t ref =
      b.intern_method("Lt/Solo;", "solo", "V", {"Ljava/lang/String;"});
  b.start_class("Lt/Solo;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);
    as.return_void();
    b.add_direct_method("solo", "V", {"I"}, as.finish());
  }
  {
    MethodAssembler as(2, 1);  // this v1
    as.const16(0, 5);
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(ref), {0});
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  Runtime runtime;
  runtime.install(make_apk(std::move(b).build(), "Lt/Solo;"));
  EXPECT_TRUE(runtime.launch().completed);
}

// --- framework builtins: one shared table ---------------------------------

TEST(FrameworkBuiltins, EveryRuntimeReadsTheOneTable) {
  Runtime a;
  Runtime b;
  const Builtin* length = a.find_builtin("Ljava/lang/String;", "length");
  ASSERT_NE(length, nullptr);
  EXPECT_EQ(b.find_builtin("Ljava/lang/String;", "length"), length);
  EXPECT_EQ(length, &framework_builtins().at("Ljava/lang/String;->length"));
  // The wildcard fallback resolves to the same shared entry as well.
  EXPECT_EQ(a.find_builtin("Lt/Any;", "toString"),
            &framework_builtins().at("*->toString"));
  EXPECT_EQ(b.find_builtin("Lt/Any;", "toString"),
            a.find_builtin("Lt/Any;", "toString"));
}

// Every key of the table through invoke-static, with 0-4 arguments, each an
// int, a string literal, a null reference or a framework object. A call
// with fewer arguments than the builtin reads is refused with
// NoSuchMethodError; every other call completes or raises a Java
// exception, so no builtin reads past its arguments or dereferences a
// non-reference.
TEST(FrameworkBuiltins, HostileArgumentSweepFailsOnlyTheCall) {
  constexpr size_t kMaxArgs = 4;
  constexpr size_t kKinds = 4;  // int, string literal, null, framework object
  size_t calls = 0;
  size_t refused = 0;
  for (const auto& [key, builtin] : framework_builtins()) {
    SCOPED_TRACE(key);
    size_t arrow = key.find("->");
    std::string cls = key.substr(0, arrow);
    if (cls == "*") cls = "Lt/AnyFramework;";
    std::string name = key.substr(arrow + 2);

    dex::DexBuilder b;
    std::vector<uint16_t> refs;
    for (size_t n = 0; n <= kMaxArgs; ++n) {
      std::vector<std::string> params(n, "Ljava/lang/Object;");
      refs.push_back(static_cast<uint16_t>(b.intern_method(cls, name, "V", params)));
    }
    auto literal = static_cast<uint16_t>(b.intern_string("sweep"));
    auto view = static_cast<uint16_t>(b.intern_type("Landroid/view/View;"));
    b.start_class("Lt/Sweep;", "Landroid/app/Activity;");
    std::vector<std::pair<std::string, size_t>> probes;  // method, arg count
    for (size_t n = 0; n <= kMaxArgs; ++n) {
      size_t patterns = 1;
      for (size_t i = 0; i < n; ++i) patterns *= kKinds;
      for (size_t pattern = 0; pattern < patterns; ++pattern) {
        MethodAssembler as(kMaxArgs, 0);
        std::vector<uint8_t> regs;
        for (size_t i = 0, p = pattern; i < n; ++i, p /= kKinds) {
          auto reg = static_cast<uint8_t>(i);
          switch (p % kKinds) {
            case 0: as.const16(reg, 7); break;
            case 1: as.const_string(reg, literal); break;
            case 2: as.const_null(reg); break;
            default: as.new_instance(reg, view); break;
          }
          regs.push_back(reg);
        }
        as.invoke(Op::kInvokeStatic, refs[n], regs);
        as.return_void();
        std::string method = "p" + std::to_string(n) + "_" + std::to_string(pattern);
        b.add_direct_method(method, "V", {}, as.finish());
        probes.emplace_back(method, n);
      }
    }
    Runtime runtime;
    runtime.install(make_apk(std::move(b).build(), "Lt/Sweep;"));
    RtClass* sweep = runtime.linker().ensure_initialized("Lt/Sweep;");
    ASSERT_NE(sweep, nullptr);
    for (const auto& [method, n] : probes) {
      SCOPED_TRACE(method);
      ExecOutcome out = runtime.interp().invoke(*sweep->find_declared(method), {});
      ++calls;
      if (n < builtin.arity) {
        ++refused;
        ASSERT_TRUE(out.uncaught);
        EXPECT_EQ(out.exception_type, "Ljava/lang/NoSuchMethodError;");
        EXPECT_EQ(out.exception_message,
                  cls + "->" + name + " (framework) takes " +
                      std::to_string(builtin.arity) + " argument(s), got " +
                      std::to_string(n));
        continue;
      }
      bool exited = out.aborted && key == "Ljava/lang/System;->exit";
      EXPECT_TRUE(out.completed || out.uncaught || exited)
          << out.abort_reason << out.exception_type;
    }
  }
  EXPECT_EQ(calls, framework_builtins().size() * 341);  // 1+4+16+64+256
  EXPECT_GT(refused, 0u);
}

TEST(FrameworkBuiltins, NonReferenceArgumentTakesTheNullPath) {
  // An int where newInstance dereferences its Class receiver raises what a
  // null receiver raises.
  dex::DexBuilder b;
  uint32_t new_instance = b.intern_method("Ljava/lang/Class;", "newInstance",
                                          "Ljava/lang/Object;", {});
  b.start_class("Lt/A;");
  MethodAssembler as(1, 0);
  as.const16(0, 0);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(new_instance), {0});
  as.return_void();
  b.add_direct_method("f", "V", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  ExecOutcome out = rt->interp().invoke(*find_method(*rt, "Lt/A;", "f"), {});
  ASSERT_TRUE(out.uncaught);
  EXPECT_EQ(out.exception_type, "Ljava/lang/NullPointerException;");
  EXPECT_EQ(out.exception_message, "newInstance on null");
}

// --- framework builtins on hostile wide values ------------------------------

// Calls the framework method cls->name with one const-wide argument from a
// one-method app; the builtin's result is in the outcome's ret.
ExecOutcome call_with_wide(const char* cls, const char* name, int64_t arg) {
  dex::DexBuilder b;
  uint32_t ref = b.intern_method(cls, name, "J", {"J"});
  b.start_class("Lt/Wide;");
  MethodAssembler as(1, 0);
  as.const_wide(0, arg);
  as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(ref), {0});
  as.move_result(0);
  as.return_value(0);
  b.add_direct_method("f", "J", {}, as.finish());
  auto rt = runtime_with(std::move(b).build());
  return rt->interp().invoke(*find_method(*rt, "Lt/Wide;", "f"), {});
}

TEST(FrameworkBuiltins, MathAbsWrapsLikeJava) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> cases[] = {
      {kMin, kMin}, {kMax, kMax}, {-7, 7}};
  for (const auto& [arg, expected] : cases) {
    SCOPED_TRACE(arg);
    ExecOutcome out = call_with_wide("Ljava/lang/Math;", "abs", arg);
    ASSERT_TRUE(out.completed) << out.abort_reason << out.exception_type;
    EXPECT_EQ(out.ret.i, expected);
  }
}

TEST(FrameworkBuiltins, RenderFramesBoundsItsNativeLoop) {
  const char* kChoreographer = "Landroid/view/Choreographer;";
  // A launch-sized k (the launch apps pass 125-575) is not clamped.
  ExecOutcome launch = call_with_wide(kChoreographer, "renderFrames", 575);
  ASSERT_TRUE(launch.completed);
  EXPECT_EQ(launch.ret.i, 1875209836);
  // A hostile wide k renders the 32767 frames a const/16 can ask for.
  ExecOutcome widest = call_with_wide(kChoreographer, "renderFrames",
                                      std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(widest.completed);
  ExecOutcome trillion =
      call_with_wide(kChoreographer, "renderFrames", 1'000'000'000'000);
  ASSERT_TRUE(trillion.completed);
  EXPECT_EQ(trillion.ret.i, widest.ret.i);
  // A negative k renders no frame: the seed comes back unmixed.
  ExecOutcome negative = call_with_wide(kChoreographer, "renderFrames", -5);
  ASSERT_TRUE(negative.completed);
  EXPECT_EQ(negative.ret.i, int64_t{88172645463325252 & 0x7fffffff});
}

// --- the default script and its trace --------------------------------------

TEST(DefaultScript, StepsInOrder) {
  // onCreate registers click handlers for ids 9 then 3; the activity has
  // onDestroy but no onPause.
  dex::DexBuilder b;
  uint32_t find_view = b.intern_method("Landroid/app/Activity;", "findViewById",
                                       "Landroid/view/View;", {"I"});
  uint32_t set_click = b.intern_method("Landroid/view/View;", "setOnClickListener",
                                       "V", {"Ljava/lang/Object;"});
  b.start_class("Lt/Two;", "Landroid/app/Activity;");
  {
    MethodAssembler as(2, 1);  // this in v1
    for (int16_t id : {9, 3}) {
      as.const16(0, id);
      as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(find_view), {1, 0});
      as.move_result(0);
      as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(set_click), {0, 1});
    }
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  {
    MethodAssembler as(2, 2);  // this in v0, view in v1
    as.return_void();
    b.add_virtual_method("onClick", "V", {"Landroid/view/View;"}, as.finish());
  }
  {
    MethodAssembler as(1, 1);
    as.return_void();
    b.add_virtual_method("onDestroy", "V", {}, as.finish());
  }
  Runtime runtime;
  runtime.install(make_apk(std::move(b).build(), "Lt/Two;"));

  std::vector<ScriptStep> steps = run_default_script(runtime);
  std::vector<std::string> names;
  for (const ScriptStep& step : steps) names.push_back(step.name);
  EXPECT_EQ(names, (std::vector<std::string>{"launch", "click:3", "click:9",
                                             "onPause", "onDestroy"}));
  ASSERT_EQ(steps.size(), 5u);
  for (size_t i : {0u, 1u, 2u, 4u}) {
    EXPECT_TRUE(steps[i].outcome.completed) << steps[i].name;
  }
  EXPECT_TRUE(steps[3].outcome.aborted);
  EXPECT_EQ(steps[3].outcome.abort_reason, "no such activity method: onPause");
}

// Each case pins the exact text: fuzz finding fingerprints hash it.
TEST(ExecutionTrace, FirstDifferenceText) {
  using Phase = ExecutionTrace::Phase;
  ExecutionTrace base;
  base.phases = {Phase{"launch", true, false, "", false, ""},
                 Phase{"click:3", true, false, "", false, ""},
                 Phase{"onPause", false, false, "", true,
                       "no such activity method: onPause"},
                 Phase{"onDestroy", false, true, "Ljava/lang/RuntimeException;",
                       false, ""}};
  base.sink_log = {"log|0|hello", "sms|1|secret"};
  base.leak_count = 1;

  EXPECT_EQ(first_difference(base, base), "");

  ExecutionTrace fewer = base;
  fewer.phases.pop_back();
  EXPECT_EQ(first_difference(base, fewer), "phase count 4 vs 3");

  ExecutionTrace exit_state = base;
  exit_state.phases[2] = Phase{"onPause", false, true,
                               "Ljava/lang/IllegalStateException;", false, ""};
  EXPECT_EQ(first_difference(base, exit_state),
            "phase[2] 'onPause: aborted (no such activity method: onPause)' vs "
            "'onPause: uncaught Ljava/lang/IllegalStateException;'");
  exit_state = base;
  exit_state.phases[3] = Phase{"onDestroy", true, false, "", false, ""};
  EXPECT_EQ(first_difference(base, exit_state),
            "phase[3] 'onDestroy: uncaught Ljava/lang/RuntimeException;' vs "
            "'onDestroy: completed'");

  ExecutionTrace more_sinks = base;
  more_sinks.sink_log.push_back("net|0|x");
  EXPECT_EQ(first_difference(base, more_sinks), "sink count 2 vs 3");

  ExecutionTrace other_sink = base;
  other_sink.sink_log[1] = "sms|0|secret";
  EXPECT_EQ(first_difference(base, other_sink),
            "sink[1] 'sms|1|secret' vs 'sms|0|secret'");

  ExecutionTrace more_leaks = base;
  more_leaks.leak_count = 2;
  EXPECT_EQ(first_difference(base, more_leaks), "leaks 1 vs 2");
}

// --- one parse, many runtimes ----------------------------------------------

TEST(SharedParse, InstallRegistersTheGivenParse) {
  dex::DexBuilder b;
  b.start_class("Lt/Main;", "Landroid/app/Activity;");
  MethodAssembler as(1, 1);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Apk apk = make_apk(std::move(b).build(), "Lt/Main;");

  auto parse = std::make_shared<const dex::DexFile>(dex::load_classes(apk));
  std::weak_ptr<const dex::DexFile> weak = parse;
  {
    Runtime a;
    Runtime b2;
    a.install(apk, parse);
    b2.install(apk, parse);
    for (Runtime* rt : {&a, &b2}) {
      ASSERT_EQ(rt->linker().images().size(), 1u);
      const DexImage& image = *rt->linker().images()[0];
      EXPECT_EQ(&image.file, parse.get());
      EXPECT_EQ(image.source, dex::Apk::kClassesEntry);
    }
    // The runtimes own the parse with the caller: dropping the caller's
    // reference leaves it alive until the last runtime goes.
    parse.reset();
    EXPECT_FALSE(weak.expired());
    EXPECT_TRUE(a.launch().completed);
    EXPECT_TRUE(b2.launch().completed);
  }
  EXPECT_TRUE(weak.expired());
}

TEST(SharedParse, DynamicallyLoadedImageOwnsItsFile) {
  dex::DexBuilder payload;
  payload.start_class("Lhidden/P;");
  MethodAssembler as(1, 0);
  as.const16(0, 1);
  as.return_value(0);
  payload.add_direct_method("value", "I", {}, as.finish());
  std::vector<uint8_t> bytes = dex::write_dex(std::move(payload).build());

  dex::DexBuilder shell;
  shell.start_class("Lt/Main;", "Landroid/app/Activity;");
  MethodAssembler ret(1, 1);
  ret.return_void();
  shell.add_virtual_method("onCreate", "V", {}, ret.finish());
  dex::Apk apk = make_apk(std::move(shell).build(), "Lt/Main;");
  auto parse = std::make_shared<const dex::DexFile>(dex::load_classes(apk));

  Runtime runtime;
  runtime.install(apk, parse);
  const DexImage& image = runtime.load_dex_buffer(bytes, "dynamic:payload");
  EXPECT_EQ(image.id, 1);
  EXPECT_EQ(image.parse.use_count(), 1);  // its own parse, shared with no one
  EXPECT_NE(&image.file, parse.get());
  EXPECT_NE(image.file.find_class("Lhidden/P;"), nullptr);
}

}  // namespace
}  // namespace dexlego::rt

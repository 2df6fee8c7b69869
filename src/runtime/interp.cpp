#include "src/runtime/interp.h"

#include <span>

#include "src/bytecode/insn.h"
#include "src/runtime/runtime.h"
#include "src/support/bytes.h"
#include "src/support/log.h"

namespace dexlego::rt {

using bc::Insn;
using bc::Op;

namespace {

constexpr int kMaxCallDepth = 200;

// Register arithmetic wraps in two's complement, like Java long arithmetic.
// Signed overflow is undefined in C++, so it is computed in uint64_t and
// converted back, which is exact modulo 2^64.
int64_t wrap(uint64_t v) { return static_cast<int64_t>(v); }
uint64_t bits(int64_t v) { return static_cast<uint64_t>(v); }

uint32_t effective_taint(const Value& v) {
  return v.taint | (v.ref != nullptr ? v.ref->taint : 0u);
}

bool eval_if(Op op, const Value& a, const Value& b) {
  // eq/ne compare references when both operands are refs; all other
  // comparisons use the integer test view.
  if ((op == Op::kIfEq || op == Op::kIfNe) && a.is_ref() && b.is_ref()) {
    // String comparisons in samples use equals(); == on refs is identity.
    bool eq = a.ref == b.ref;
    return op == Op::kIfEq ? eq : !eq;
  }
  int64_t x = a.test_value(), y = b.test_value();
  switch (op) {
    case Op::kIfEq: return x == y;
    case Op::kIfNe: return x != y;
    case Op::kIfLt: return x < y;
    case Op::kIfGe: return x >= y;
    case Op::kIfGt: return x > y;
    case Op::kIfLe: return x <= y;
    default: return false;
  }
}

bool eval_ifz(Op op, const Value& a) {
  int64_t x = a.test_value();
  switch (op) {
    case Op::kIfEqz: return x == 0;
    case Op::kIfNez: return x != 0;
    case Op::kIfLtz: return x < 0;
    case Op::kIfGez: return x >= 0;
    case Op::kIfGtz: return x > 0;
    case Op::kIfLez: return x <= 0;
    default: return false;
  }
}

}  // namespace

Object* Interpreter::make_exception(const char* descriptor, std::string message) {
  Object* ex = rt_.heap().new_framework(descriptor);
  ex->str = std::move(message);
  return ex;
}

void Interpreter::request_abort(std::string reason) {
  aborted_ = true;
  abort_reason_ = std::move(reason);
}

ExecOutcome Interpreter::invoke(RtMethod& method, std::vector<Value> args) {
  aborted_ = false;
  abort_reason_.clear();
  ExecOutcome outcome;
  CallResult r = call(method, std::move(args));
  if (aborted_) {
    outcome.aborted = true;
    outcome.abort_reason = abort_reason_;
    return outcome;
  }
  if (r.exception != nullptr) {
    outcome.uncaught = true;
    outcome.exception_type = r.exception->class_descriptor;
    outcome.exception_message = r.exception->str;
    return outcome;
  }
  outcome.completed = true;
  outcome.ret = r.ret;
  return outcome;
}

Interpreter::CallResult Interpreter::call(RtMethod& method, std::vector<Value> args,
                                          RtMethod* caller, uint32_t caller_pc) {
  CallResult result;
  if (aborted_) return result;
  if (depth_ >= kMaxCallDepth) {
    result.exception =
        make_exception("Ljava/lang/StackOverflowError;", method.full_name());
    return result;
  }
  ++depth_;
  rt_.hook_chain().dispatch_method_entry(method);

  if (method.is_native()) {
    if (!method.native) {
      if (const NativeFn* fn = rt_.find_native(method.full_name())) {
        method.native = *fn;  // bind once, like JNI registration
      }
    }
    if (!method.native) {
      result.exception =
          make_exception("Ljava/lang/UnsatisfiedLinkError;", method.full_name());
    } else {
      NativeContext ctx{rt_, *this, caller, caller_pc, nullptr};
      Value ret = method.native(ctx, std::span<Value>(args));
      if (ctx.pending_exception != nullptr) {
        result.exception = ctx.pending_exception;
      } else {
        result.ret = ret;
      }
    }
  } else if (!method.code) {
    result.exception =
        make_exception("Ljava/lang/AbstractMethodError;", method.full_name());
  } else {
    result = run_bytecode(method, args);
  }

  rt_.hook_chain().dispatch_method_exit(method);
  --depth_;
  return result;
}

Interpreter::CallResult Interpreter::run_bytecode(RtMethod& method,
                                                  std::vector<Value>& args) {
  CallResult out;
  const uint16_t registers = method.code->registers_size;
  const uint16_t ins = method.code->ins_size;
  std::vector<Value> regs(registers, Value::Null());
  size_t base = registers - ins;
  for (size_t i = 0; i < args.size() && i < ins; ++i) regs[base + i] = args[i];

  ClassLinker& linker = rt_.linker();

  Value result_reg = Value::Null();   // move-result source
  Object* caught = nullptr;           // move-exception source
  Object* pending = nullptr;          // in-flight exception
  size_t pc = 0;

  for (;;) {
    if (aborted_) return {};
    if (++steps_ > rt_.config().step_limit) {
      request_abort("step limit exceeded");
      return {};
    }

    // Re-fetch every iteration: native code may have patched (even resized)
    // the array since the previous instruction.
    std::span<const uint16_t> insns(method.code->insns);
    if (pc >= insns.size()) {
      out.exception = make_exception("Ljava/lang/VerifyError;",
                                     "pc out of bounds in " + method.full_name());
      return out;
    }

    rt_.hook_chain().dispatch_instruction(method, static_cast<uint32_t>(pc),
                                          insns);

    Insn insn;
    try {
      insn = bc::decode_at(insns, pc);
    } catch (const support::ParseError& e) {
      out.exception = make_exception("Ljava/lang/VerifyError;", e.what());
      return out;
    }

    size_t next = pc + insn.width;

    try {
      switch (insn.op) {
        case Op::kNop:
          break;
        case Op::kMove:
          regs.at(insn.a) = regs.at(insn.b);
          break;
        case Op::kConst16:
        case Op::kConst32:
        case Op::kConstWide:
          regs.at(insn.a) = Value::Int(insn.lit);
          break;
        case Op::kConstString: {
          // Interned (Dalvik semantics): repeat executions of one literal —
          // and the same literal elsewhere, in any image — share an object,
          // so if-eq identity checks on literals hold.
          Object* s =
              rt_.heap().intern_string(method.image->file.string_at(insn.idx));
          regs.at(insn.a) = Value::Ref(s);
          break;
        }
        case Op::kConstNull:
          regs.at(insn.a) = Value::Null();
          break;
        case Op::kMoveResult:
          regs.at(insn.a) = result_reg;
          break;
        case Op::kMoveException:
          regs.at(insn.a) =
              caught != nullptr ? Value::Ref(caught) : Value::Null();
          break;
        case Op::kReturnVoid:
          return out;
        case Op::kReturn:
          out.ret = regs.at(insn.a);
          return out;
        case Op::kThrow: {
          const Value& v = regs.at(insn.a);
          pending = v.is_null_ref()
                        ? make_exception("Ljava/lang/NullPointerException;",
                                         "throw on null")
                        : v.ref;
          break;
        }
        case Op::kGoto:
          next = pc + static_cast<size_t>(insn.off);
          break;
        case Op::kIfEq:
        case Op::kIfNe:
        case Op::kIfLt:
        case Op::kIfGe:
        case Op::kIfGt:
        case Op::kIfLe:
        case Op::kIfEqz:
        case Op::kIfNez:
        case Op::kIfLtz:
        case Op::kIfGez:
        case Op::kIfGtz:
        case Op::kIfLez: {
          bool taken = bc::is_two_reg_if(insn.op)
                           ? eval_if(insn.op, regs.at(insn.a), regs.at(insn.b))
                           : eval_ifz(insn.op, regs.at(insn.a));
          bool forced = taken;
          const HookChain& chain = rt_.hook_chain();
          if (chain.dispatch_force_branch(method, static_cast<uint32_t>(pc),
                                          &forced)) {
            taken = forced;
          }
          chain.dispatch_branch(method, static_cast<uint32_t>(pc), taken);
          if (taken) next = pc + static_cast<size_t>(insn.off);
          break;
        }
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
          int64_t b = regs.at(insn.b).test_value();
          int64_t c = regs.at(insn.c).test_value();
          uint32_t taint =
              effective_taint(regs.at(insn.b)) | effective_taint(regs.at(insn.c));
          int64_t r = 0;
          switch (insn.op) {
            case Op::kAdd: r = wrap(bits(b) + bits(c)); break;
            case Op::kSub: r = wrap(bits(b) - bits(c)); break;
            case Op::kMul: r = wrap(bits(b) * bits(c)); break;
            case Op::kDiv:
            case Op::kRem:
              if (c == 0) {
                pending = make_exception("Ljava/lang/ArithmeticException;",
                                         "divide by zero");
              } else if (c == -1) {
                // MIN / -1 overflows, and traps on x86; Java gives MIN, 0.
                r = insn.op == Op::kDiv ? wrap(0 - bits(b)) : 0;
              } else {
                r = insn.op == Op::kDiv ? b / c : b % c;
              }
              break;
            case Op::kAnd: r = b & c; break;
            case Op::kOr: r = b | c; break;
            case Op::kXor: r = b ^ c; break;
            case Op::kShl: r = wrap(bits(b) << (c & 63)); break;
            case Op::kShr: r = b >> (c & 63); break;
            case Op::kCmp: r = (b < c) ? -1 : (b > c ? 1 : 0); break;
            default: break;
          }
          if (pending == nullptr) regs.at(insn.a) = Value::Int(r, taint);
          break;
        }
        case Op::kAddLit8:
        case Op::kMulLit8: {
          const Value& b = regs.at(insn.b);
          int64_t r = insn.op == Op::kAddLit8
                          ? wrap(bits(b.test_value()) + bits(insn.lit))
                          : wrap(bits(b.test_value()) * bits(insn.lit));
          regs.at(insn.a) = Value::Int(r, effective_taint(b));
          break;
        }
        case Op::kNeg:
        case Op::kNot: {
          const Value& b = regs.at(insn.b);
          int64_t r =
              insn.op == Op::kNeg ? wrap(0 - bits(b.test_value())) : ~b.test_value();
          regs.at(insn.a) = Value::Int(r, effective_taint(b));
          break;
        }
        case Op::kNewInstance: {
          const std::string& desc = method.image->file.type_descriptor(insn.idx);
          if (rt_.linker().is_framework_descriptor(desc)) {
            regs.at(insn.a) = Value::Ref(rt_.heap().new_framework(desc));
          } else {
            RtClass* cls = rt_.linker().ensure_initialized(desc);
            if (cls == nullptr) {
              pending = make_exception("Ljava/lang/NoClassDefFoundError;", desc);
            } else {
              regs.at(insn.a) = Value::Ref(
                  rt_.heap().new_instance(cls, desc, cls->instance_slot_count));
            }
          }
          break;
        }
        case Op::kNewArray: {
          int64_t len = regs.at(insn.b).test_value();
          if (len < 0) {
            pending = make_exception("Ljava/lang/NegativeArraySizeException;",
                                     std::to_string(len));
          } else {
            const std::string& desc = method.image->file.type_descriptor(insn.idx);
            regs.at(insn.a) =
                Value::Ref(rt_.heap().new_array(desc, static_cast<size_t>(len)));
          }
          break;
        }
        case Op::kArrayLength: {
          const Value& arr = regs.at(insn.b);
          if (arr.is_null_ref()) {
            pending = make_exception("Ljava/lang/NullPointerException;",
                                     "array-length on null");
          } else {
            regs.at(insn.a) = Value::Int(
                static_cast<int64_t>(arr.ref->elems.size()), effective_taint(arr));
          }
          break;
        }
        case Op::kAget:
        case Op::kAput: {
          const Value& arr = regs.at(insn.b);
          if (arr.is_null_ref()) {
            pending = make_exception("Ljava/lang/NullPointerException;",
                                     "array access on null");
            break;
          }
          int64_t idx = regs.at(insn.c).test_value();
          if (idx < 0 || static_cast<size_t>(idx) >= arr.ref->elems.size()) {
            pending = make_exception("Ljava/lang/ArrayIndexOutOfBoundsException;",
                                     std::to_string(idx));
            break;
          }
          if (insn.op == Op::kAget) {
            Value v = arr.ref->elems[static_cast<size_t>(idx)];
            v.taint |= arr.ref->taint;
            regs.at(insn.a) = v;
          } else {
            arr.ref->elems[static_cast<size_t>(idx)] = regs.at(insn.a);
          }
          break;
        }
        case Op::kIget:
        case Op::kIput: {
          const Value& obj = regs.at(insn.b);
          if (obj.is_null_ref()) {
            pending = make_exception("Ljava/lang/NullPointerException;",
                                     "field access on null");
            break;
          }
          auto resolved = linker.resolve_field(*method.image, insn.idx, false);
          if (resolved.field == nullptr ||
              resolved.field->slot >= obj.ref->fields.size()) {
            pending = make_exception("Ljava/lang/NoSuchFieldError;",
                                     method.image->file.pretty_field(insn.idx));
            break;
          }
          if (insn.op == Op::kIget) {
            regs.at(insn.a) = obj.ref->fields[resolved.field->slot];
          } else {
            obj.ref->fields[resolved.field->slot] = regs.at(insn.a);
          }
          break;
        }
        case Op::kSget:
        case Op::kSput: {
          auto resolved = linker.resolve_field(*method.image, insn.idx, true);
          if (resolved.field == nullptr) {
            pending = make_exception("Ljava/lang/NoSuchFieldError;",
                                     method.image->file.pretty_field(insn.idx));
            break;
          }
          if (insn.op == Op::kSget) {
            regs.at(insn.a) = resolved.cls->static_values.at(resolved.field->slot);
          } else {
            resolved.cls->static_values.at(resolved.field->slot) = regs.at(insn.a);
          }
          break;
        }
        case Op::kInvokeVirtual:
        case Op::kInvokeDirect:
        case Op::kInvokeStatic: {
          std::vector<Value> call_args;
          call_args.reserve(insn.a);
          for (uint8_t i = 0; i < insn.a; ++i) call_args.push_back(regs.at(insn.args[i]));
          CallResult r =
              dispatch_invoke(static_cast<uint8_t>(insn.op), method,
                              static_cast<uint32_t>(pc), insn.idx,
                              std::move(call_args));
          if (aborted_) return {};
          if (r.exception != nullptr) {
            pending = r.exception;
          } else {
            result_reg = r.ret;
          }
          break;
        }
        case Op::kPackedSwitch: {
          bc::SwitchPayload payload;
          try {
            payload = bc::read_switch_payload(insns, pc, insn);
          } catch (const support::ParseError& e) {
            pending = make_exception("Ljava/lang/VerifyError;", e.what());
            break;
          }
          int64_t v = regs.at(insn.a).test_value();
          int64_t rel = v - payload.first_key;
          if (rel >= 0 && rel < static_cast<int64_t>(payload.rel_targets.size())) {
            next = pc + static_cast<size_t>(
                            payload.rel_targets[static_cast<size_t>(rel)]);
          }
          break;
        }
        case Op::kInstanceOf: {
          const Value& obj = regs.at(insn.b);
          const std::string& desc = method.image->file.type_descriptor(insn.idx);
          bool match = false;
          if (!obj.is_null_ref()) {
            if (obj.ref->klass != nullptr) {
              for (RtClass* c = obj.ref->klass; c != nullptr; c = c->super) {
                if (c->descriptor == desc) match = true;
              }
            }
            if (obj.ref->class_descriptor == desc) match = true;
          }
          regs.at(insn.a) = Value::Int(match ? 1 : 0);
          break;
        }
        case Op::kPayload:
          pending = make_exception("Ljava/lang/VerifyError;",
                                   "executed switch payload");
          break;
      }
    } catch (const std::out_of_range& e) {
      // Self-modifying code can write garbage indices; surface as VerifyError.
      pending = make_exception("Ljava/lang/VerifyError;", e.what());
    }

    if (pending != nullptr) {
      bool tolerated = rt_.hook_chain().dispatch_tolerate_exception(
          method, static_cast<uint32_t>(pc));
      if (tolerated) {
        pending = nullptr;
        // Skip the faulting instruction by its true extent: a switch
        // payload can outgrow Insn::width's 8 bits.
        pc += bc::consumed_units(insn);
        continue;
      }
      const dex::TryItem* handler = nullptr;
      for (const dex::TryItem& t : method.code->tries) {
        if (pc >= t.start_pc && pc < t.end_pc) {
          handler = &t;
          break;
        }
      }
      if (handler != nullptr) {
        caught = pending;
        pending = nullptr;
        pc = handler->handler_pc;
        continue;
      }
      out.exception = pending;
      return out;
    }

    pc = next;
  }
}

Interpreter::CallResult Interpreter::dispatch_invoke(uint8_t op_raw,
                                                     RtMethod& caller, uint32_t pc,
                                                     uint16_t method_idx,
                                                     std::vector<Value> args) {
  CallResult out;
  Op op = static_cast<Op>(op_raw);
  ClassLinker& linker = rt_.linker();

  ClassLinker::MethodRefInfo info;
  try {
    info = linker.method_ref_info(*caller.image, method_idx);
  } catch (const std::out_of_range&) {
    out.exception = make_exception("Ljava/lang/VerifyError;", "bad method index");
    return out;
  }

  if (op == Op::kInvokeVirtual || op == Op::kInvokeDirect) {
    // Non-reference receivers can appear in self-modified code; treat them
    // like null dispatch rather than crashing the host.
    if (args.empty() || !args[0].is_ref() || args[0].ref == nullptr) {
      out.exception = make_exception("Ljava/lang/NullPointerException;",
                                     "invoke on null: " + info.name);
      return out;
    }
  }

  if (op == Op::kInvokeVirtual) {
    Object* receiver = args[0].ref;
    if (receiver->klass != nullptr) {
      if (RtMethod* target = receiver->klass->find_dispatch(info.name, info.shorty)) {
        return call(*target, std::move(args), &caller, pc);
      }
    }
    // Framework receiver or inherited framework method: resolve against the
    // static reference type first, then the receiver's runtime type (models
    // framework subclassing, e.g. EditText methods on a View handle).
    if (rt_.find_builtin(info.class_descriptor, info.name) == nullptr &&
        rt_.find_builtin(receiver->class_descriptor, info.name) != nullptr) {
      return call_builtin(receiver->class_descriptor, info.name, &caller, pc, args);
    }
    return call_builtin(info.class_descriptor, info.name, &caller, pc, args);
  }

  // Static / direct.
  bool framework = false;
  RtMethod* resolved = linker.resolve_method(*caller.image, method_idx, &framework);
  if (framework) {
    return call_builtin(info.class_descriptor, info.name, &caller, pc, args);
  }
  if (resolved == nullptr) {
    out.exception = make_exception(
        "Ljava/lang/NoSuchMethodError;",
        info.class_descriptor + "->" + info.name + info.shorty);
    return out;
  }
  if (op == Op::kInvokeStatic) {
    linker.ensure_initialized(*resolved->declaring);
  }
  return call(*resolved, std::move(args), &caller, pc);
}

Interpreter::CallResult Interpreter::call_builtin(const std::string& class_descriptor,
                                                  const std::string& name,
                                                  RtMethod* caller,
                                                  uint32_t caller_pc,
                                                  std::vector<Value>& args) {
  CallResult out;
  const Builtin* builtin = rt_.find_builtin(class_descriptor, name);
  if (builtin == nullptr) {
    out.exception = make_exception("Ljava/lang/NoSuchMethodError;",
                                   class_descriptor + "->" + name + " (framework)");
    return out;
  }
  // invoke-static reaches here with whatever registers the caller named; a
  // body must not read past them.
  if (args.size() < builtin->arity) {
    out.exception = make_exception(
        "Ljava/lang/NoSuchMethodError;",
        class_descriptor + "->" + name + " (framework) takes " +
            std::to_string(builtin->arity) + " argument(s), got " +
            std::to_string(args.size()));
    return out;
  }
  NativeContext ctx{rt_, *this, caller, caller_pc, nullptr};
  Value ret = builtin->fn(ctx, std::span<Value>(args));
  if (ctx.pending_exception != nullptr) {
    out.exception = ctx.pending_exception;
  } else {
    out.ret = ret;
  }
  return out;
}

}  // namespace dexlego::rt

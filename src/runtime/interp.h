// The bytecode interpreter — the ExecuteSwitchImpl analog. A switch-based
// dispatch loop over 16-bit code units driven by a dex_pc variable, exactly
// the structure DexLego instruments (paper Section IV-A). The instruction
// array is re-fetched from the method on every step so native code patching
// it mid-execution (self-modifying apps) is observed faithfully.
//
// One loop, two dispatch modes (RuntimeConfig::dispatch,
// docs/INTERPRETER.md): kCached, the production mode, serves each step from
// the method's predecoded cache (src/runtime/predecode.h — decode-once,
// source-unit-guarded against self-modification, with inline caches for
// method/field/string pool refs); kBaseline decodes and resolves everything
// every step and is kept as the single differential oracle. Both must
// produce byte-identical traces (docs/ARCHITECTURE.md invariant 11,
// tests/interp_cache_test.cpp).
//
// The interpreter also implements the dynamic-taint substrate (value taint
// masks propagate through moves/arithmetic/fields) and the two
// force-execution interposition points: branch-outcome override and
// unhandled-exception tolerance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/rt_types.h"

namespace dexlego::rt {

class Runtime;

// Top-level execution outcome.
struct ExecOutcome {
  Value ret = Value::Null();
  bool completed = false;          // returned normally
  bool uncaught = false;           // an exception escaped the entry frame
  std::string exception_type;      // descriptor of the escaped exception
  std::string exception_message;
  bool aborted = false;            // step limit / System.exit / internal stop
  std::string abort_reason;
};

class Interpreter {
 public:
  explicit Interpreter(Runtime& runtime) : rt_(runtime) {}

  // Invokes a method as a fresh top-level activation (lifecycle callback,
  // <clinit>, fuzzer event...). Clears any previous abort state.
  ExecOutcome invoke(RtMethod& method, std::vector<Value> args);

  // Nested call used by invoke instructions and reflection builtins.
  struct CallResult {
    Value ret = Value::Null();
    Object* exception = nullptr;  // non-null: the call threw
  };
  CallResult call(RtMethod& method, std::vector<Value> args,
                  RtMethod* caller = nullptr, uint32_t caller_pc = 0);

  // Cumulative executed-instruction counter (performance metric for Fig. 6;
  // budget for fuzzing runs).
  uint64_t steps() const { return steps_; }
  void reset_steps() { steps_ = 0; }

  // Stops execution as soon as possible (System.exit, harness timeouts).
  void request_abort(std::string reason);
  bool aborted() const { return aborted_; }

  Object* make_exception(const char* descriptor, std::string message);

 private:
  CallResult run_bytecode(RtMethod& method, std::vector<Value>& args);
  // `ic` is the call site's inline-cache slot in cached dispatch mode,
  // nullptr in baseline mode.
  CallResult dispatch_invoke(uint8_t op_raw, RtMethod& caller, uint32_t pc,
                             uint16_t method_idx, std::vector<Value> args,
                             InlineSite* ic);
  CallResult call_builtin(const std::string& class_descriptor,
                          const std::string& name, RtMethod* caller,
                          uint32_t caller_pc, std::vector<Value>& args);

  Runtime& rt_;
  uint64_t steps_ = 0;
  int depth_ = 0;
  bool aborted_ = false;
  std::string abort_reason_;
};

}  // namespace dexlego::rt

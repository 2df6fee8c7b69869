// The bytecode interpreter — the ExecuteSwitchImpl analog. A switch-based
// dispatch loop over 16-bit code units driven by a dex_pc variable, exactly
// the structure DexLego instruments (paper Section IV-A). Every step
// re-fetches the instruction array from the method, bounds-checks the pc,
// fires the instruction hook and only then decodes the units it finds, so
// any write to code->insns — through RtMethod::patch_code_unit or direct,
// in place or by swapping the whole array — is seen at the next fetch. Nothing decoded or resolved is
// kept between steps: pool references resolve through the class linker on
// every execution (docs/INTERPRETER.md says why).
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

  // Stops execution as soon as possible (System.exit, harness timeouts).
  void request_abort(std::string reason);
  bool aborted() const { return aborted_; }

  Object* make_exception(const char* descriptor, std::string message);

 private:
  CallResult run_bytecode(RtMethod& method, std::vector<Value>& args);
  CallResult dispatch_invoke(uint8_t op_raw, RtMethod& caller, uint32_t pc,
                             uint16_t method_idx, std::vector<Value> args);
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

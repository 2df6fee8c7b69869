// The default event script and the behaviour trace it records. Every
// consumer that drives an installed app "the default way" runs this one
// script: the collect phase's core::default_driver, the dynamic taint
// presets, the unpacker baselines and the differential oracle
// (fuzz::run_oracle). The script launches the entry activity, fires every
// registered click handler in ui_clickable_ids() order, then calls onPause
// and onDestroy.
//
// The trace is what the differential oracle compares: two runs behaved the
// same when every step exited the same way, the sink logs match byte for
// byte and the leak counts agree. trace_app is the one apk->trace helper.
// coverage::execute_sequence keeps its own event script (text inputs, click
// rounds, lifecycle cycles); it is a different script, not a copy of this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/runtime.h"

namespace dexlego::rt {

// One step of the default script: "launch", "click:<id>", "onPause" or
// "onDestroy", and how it exited.
struct ScriptStep {
  std::string name;
  ExecOutcome outcome;
};

// Runs the default script on a runtime whose app is installed and returns
// each step in order. Every step runs whatever the previous ones did.
std::vector<ScriptStep> run_default_script(Runtime& runtime);

// Everything observable about one run of the default script.
struct ExecutionTrace {
  // How one step exited. An ExecOutcome is exactly one of completed,
  // uncaught or aborted; the exception message is not compared.
  struct Phase {
    std::string name;
    bool completed = false;
    bool uncaught = false;
    std::string exception_type;
    bool aborted = false;
    std::string abort_reason;

    bool operator==(const Phase&) const = default;
    // "<name>: completed", "<name>: uncaught <type>" or
    // "<name>: aborted (<reason>)".
    std::string describe() const;
  };

  std::vector<Phase> phases;
  // Every sink hit in execution order, rendered "sink|taint|detail". This is
  // the app's observable output channel (Log.*, sms, net, file sinks).
  std::vector<std::string> sink_log;
  size_t leak_count = 0;

  // Multi-line rendering for failure messages.
  std::string summary() const;
};

// Runs the default script on an installed runtime and records its trace.
ExecutionTrace trace_default_script(Runtime& runtime);

// Installs `apk` in a fresh runtime whose step budget per script step is
// `step_limit`, calls `configure` (sample natives) before the install, and
// returns the default script's trace.
ExecutionTrace trace_app(const dex::Apk& apk,
                         const std::function<void(Runtime&)>& configure = {},
                         uint64_t step_limit = RuntimeConfig{}.step_limit);

// The first divergence between two traces, or an empty string when they
// are equivalent: phase count, then each phase, then sink count, each sink
// line and the leak count. The text is part of fuzz finding fingerprints,
// so it must not change.
std::string first_difference(const ExecutionTrace& a, const ExecutionTrace& b);

}  // namespace dexlego::rt

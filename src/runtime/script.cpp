#include "src/runtime/script.h"

#include <sstream>
#include <utility>

namespace dexlego::rt {

std::vector<ScriptStep> run_default_script(Runtime& runtime) {
  std::vector<ScriptStep> steps;
  steps.push_back({"launch", runtime.launch()});
  for (int id : runtime.ui_clickable_ids()) {
    steps.push_back({"click:" + std::to_string(id), runtime.fire_click(id)});
  }
  steps.push_back({"onPause", runtime.call_activity_method("onPause")});
  steps.push_back({"onDestroy", runtime.call_activity_method("onDestroy")});
  return steps;
}

std::string ExecutionTrace::Phase::describe() const {
  std::string text = name + ": ";
  if (completed) return text + "completed";
  if (uncaught) return text + "uncaught " + exception_type;
  if (aborted) return text + "aborted (" + abort_reason + ")";
  return text + "no outcome";
}

std::string ExecutionTrace::summary() const {
  std::ostringstream os;
  for (const Phase& phase : phases) os << "  " << phase.describe() << "\n";
  os << "  sinks (" << sink_log.size() << "), leaks " << leak_count << ":\n";
  for (const std::string& line : sink_log) os << "    " << line << "\n";
  return os.str();
}

ExecutionTrace trace_default_script(Runtime& runtime) {
  ExecutionTrace trace;
  for (ScriptStep& step : run_default_script(runtime)) {
    ExecOutcome& out = step.outcome;
    trace.phases.push_back({std::move(step.name), out.completed, out.uncaught,
                            std::move(out.exception_type), out.aborted,
                            std::move(out.abort_reason)});
  }
  for (const Runtime::SinkEvent& ev : runtime.sink_events()) {
    trace.sink_log.push_back(ev.sink + "|" + std::to_string(ev.taint) + "|" +
                             ev.detail);
  }
  trace.leak_count = runtime.leaks().size();
  return trace;
}

ExecutionTrace trace_app(const dex::Apk& apk,
                         const std::function<void(Runtime&)>& configure,
                         uint64_t step_limit) {
  RuntimeConfig config;
  config.step_limit = step_limit;
  Runtime runtime(config);
  if (configure) configure(runtime);
  runtime.install(apk);
  return trace_default_script(runtime);
}

std::string first_difference(const ExecutionTrace& a, const ExecutionTrace& b) {
  if (a.phases.size() != b.phases.size()) {
    return "phase count " + std::to_string(a.phases.size()) + " vs " +
           std::to_string(b.phases.size());
  }
  for (size_t i = 0; i < a.phases.size(); ++i) {
    if (a.phases[i] != b.phases[i]) {
      return "phase[" + std::to_string(i) + "] '" + a.phases[i].describe() +
             "' vs '" + b.phases[i].describe() + "'";
    }
  }
  if (a.sink_log.size() != b.sink_log.size()) {
    return "sink count " + std::to_string(a.sink_log.size()) + " vs " +
           std::to_string(b.sink_log.size());
  }
  for (size_t i = 0; i < a.sink_log.size(); ++i) {
    if (a.sink_log[i] != b.sink_log[i]) {
      return "sink[" + std::to_string(i) + "] '" + a.sink_log[i] + "' vs '" +
             b.sink_log[i] + "'";
    }
  }
  if (a.leak_count != b.leak_count) {
    return "leaks " + std::to_string(a.leak_count) + " vs " +
           std::to_string(b.leak_count);
  }
  return {};
}

}  // namespace dexlego::rt

#include "tests/harness/diff_fixture.h"

#include <sstream>

#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"

namespace dexlego::harness {
namespace {

ExecutionTrace::Phase make_phase(std::string name, const rt::ExecOutcome& out) {
  ExecutionTrace::Phase phase;
  phase.name = std::move(name);
  phase.completed = out.completed;
  phase.uncaught = out.uncaught;
  phase.exception_type = out.exception_type;
  phase.aborted = out.aborted;
  phase.abort_reason = out.abort_reason;
  return phase;
}

std::string render_sink(const rt::Runtime::SinkEvent& ev) {
  return ev.sink + "|" + std::to_string(ev.taint) + "|" + ev.detail;
}

}  // namespace

bool ExecutionTrace::Phase::operator==(const Phase& other) const {
  return name == other.name && completed == other.completed &&
         uncaught == other.uncaught &&
         exception_type == other.exception_type && aborted == other.aborted &&
         abort_reason == other.abort_reason;
}

std::string ExecutionTrace::Phase::describe() const {
  std::ostringstream os;
  os << name << ": ";
  if (completed) os << "completed";
  if (uncaught) os << "uncaught " << exception_type;
  if (aborted) os << "aborted (" << abort_reason << ")";
  if (!completed && !uncaught && !aborted) os << "no outcome";
  return os.str();
}

std::string ExecutionTrace::summary() const {
  std::ostringstream os;
  for (const Phase& phase : phases) os << "  " << phase.describe() << "\n";
  os << "  sinks (" << sink_log.size() << "), leaks " << leak_count << ":\n";
  for (const std::string& line : sink_log) os << "    " << line << "\n";
  return os.str();
}

ExecutionTrace run_and_trace(const dex::Apk& apk, const ConfigureFn& configure) {
  rt::Runtime runtime;
  if (configure) configure(runtime);
  runtime.install(apk);

  ExecutionTrace trace;
  trace.phases.push_back(make_phase("launch", runtime.launch()));
  for (int id : runtime.ui_clickable_ids()) {
    trace.phases.push_back(
        make_phase("click:" + std::to_string(id), runtime.fire_click(id)));
  }
  trace.phases.push_back(
      make_phase("onPause", runtime.call_activity_method("onPause")));
  trace.phases.push_back(
      make_phase("onDestroy", runtime.call_activity_method("onDestroy")));

  for (const rt::Runtime::SinkEvent& ev : runtime.sink_events()) {
    trace.sink_log.push_back(render_sink(ev));
  }
  trace.leak_count = runtime.leaks().size();
  return trace;
}

DiffResult run_differential(const dex::Apk& apk, const DiffOptions& options) {
  DiffResult diff;
  diff.original = run_and_trace(apk, options.configure_runtime);

  core::DexLegoOptions reveal_options = options.reveal;
  if (options.configure_runtime) {
    reveal_options.configure_runtime = options.configure_runtime;
  }
  core::DexLego dexlego(reveal_options);
  diff.reveal = dexlego.reveal(apk);

  diff.revealed =
      run_and_trace(diff.reveal.revealed_apk, options.configure_runtime);

  if (options.check_containment) {
    dex::DexFile original_dex = dex::load_classes(apk);
    dex::DexFile revealed_dex =
        dex::load_classes(diff.reveal.revealed_apk);
    diff.containment = core::check_containment(original_dex, revealed_dex);
    diff.containment_checked = true;
  }
  return diff;
}

::testing::AssertionResult TraceEquivalent(const ExecutionTrace& original,
                                           const ExecutionTrace& revealed) {
  if (original.phases.size() != revealed.phases.size()) {
    return ::testing::AssertionFailure()
           << "phase count diverged: original " << original.phases.size()
           << " vs revealed " << revealed.phases.size()
           << "\noriginal:\n" << original.summary()
           << "revealed:\n" << revealed.summary();
  }
  for (size_t i = 0; i < original.phases.size(); ++i) {
    if (!(original.phases[i] == revealed.phases[i])) {
      return ::testing::AssertionFailure()
             << "exit state diverged at phase " << i << ":\n  original "
             << original.phases[i].describe() << "\n  revealed "
             << revealed.phases[i].describe();
    }
  }
  if (original.sink_log != revealed.sink_log) {
    return ::testing::AssertionFailure()
           << "sink/log output diverged\noriginal:\n" << original.summary()
           << "revealed:\n" << revealed.summary();
  }
  if (original.leak_count != revealed.leak_count) {
    return ::testing::AssertionFailure()
           << "leak count diverged: original " << original.leak_count
           << " vs revealed " << revealed.leak_count;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult VerifierClean(const core::RevealResult& result) {
  if (!result.verified) {
    return ::testing::AssertionFailure()
           << "reassembled DEX failed verification:\n" << result.verify_errors;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BehaviorallyEquivalent(const DiffResult& diff) {
  ::testing::AssertionResult verified = VerifierClean(diff.reveal);
  if (!verified) return verified;
  ::testing::AssertionResult traces =
      TraceEquivalent(diff.original, diff.revealed);
  if (!traces) return traces;
  if (diff.containment_checked && !diff.containment.ok) {
    return ::testing::AssertionFailure()
           << "containment failed: " << diff.containment.summary()
           << (diff.containment.missing.empty()
                   ? ""
                   : "\nfirst missing: " + diff.containment.missing[0]);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dexlego::harness

// Differential-testing harness (paper Section V-B): run the ORIGINAL app and
// the REVEALED app side by side under the same scripted driver and assert
// behavioural equivalence — same sink/log output, same leak count, same
// per-phase exit state — plus verifier cleanliness of the reassembled DEX.
//
// Suites link against dexlego_diff_harness and get the whole round trip from
// one call:
//
//   auto diff = harness::run_differential(apk, options);
//   EXPECT_TRUE(harness::BehaviorallyEquivalent(diff));
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/core/dexlego.h"
#include "src/core/semantic_check.h"
#include "src/dex/archive.h"
#include "src/runtime/runtime.h"

namespace dexlego::harness {

using ConfigureFn = std::function<void(rt::Runtime&)>;

// One scripted execution of an app. The script mirrors core::default_driver
// (launch, fire every click handler, remaining lifecycle callbacks) but
// records everything observable about the run.
struct ExecutionTrace {
  // Exit state of one driver phase ("launch", "click:7", "onPause", ...).
  struct Phase {
    std::string name;
    bool completed = false;
    bool uncaught = false;
    std::string exception_type;
    bool aborted = false;
    std::string abort_reason;

    bool operator==(const Phase& other) const;
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

// Installs `apk` in a fresh runtime, runs the default driver script and
// returns the trace. `configure` registers sample natives before install.
ExecutionTrace run_and_trace(const dex::Apk& apk,
                             const ConfigureFn& configure = {});

struct DiffOptions {
  // Registers natives on every runtime used: collection, original replay and
  // revealed replay all see the same native surface.
  ConfigureFn configure_runtime;
  // Forwarded to the collect/reassemble pipeline. configure_runtime above
  // wins over any callback set inside this struct.
  core::DexLegoOptions reveal;
  // Symbolic containment original ⊆ revealed (disable for packed inputs,
  // where classes.ldex is the packer stub, not the real program).
  bool check_containment = true;
};

struct DiffResult {
  core::RevealResult reveal;
  ExecutionTrace original;
  ExecutionTrace revealed;
  core::ContainmentReport containment;
  bool containment_checked = false;
};

// The full round trip: trace the original, reveal it (collection +
// reassembly), trace the revealed APK, and run the containment check.
DiffResult run_differential(const dex::Apk& apk,
                            const DiffOptions& options = {});

// --- gtest predicates (use with EXPECT_TRUE for rich failure output) ---

// Phase-by-phase exit states match, sink logs are identical byte for byte,
// and the leak counts agree.
::testing::AssertionResult TraceEquivalent(const ExecutionTrace& original,
                                           const ExecutionTrace& revealed);

// The reassembled DEX passed structural + instruction-level verification.
::testing::AssertionResult VerifierClean(const core::RevealResult& result);

// VerifierClean && TraceEquivalent && (containment, when checked).
::testing::AssertionResult BehaviorallyEquivalent(const DiffResult& diff);

}  // namespace dexlego::harness

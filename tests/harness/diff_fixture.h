// Differential-testing harness (paper Section V-B): run the ORIGINAL app and
// the REVEALED app side by side under the default script and assert
// behavioural equivalence — same sink/log output, same leak count, same
// per-phase exit state — plus verifier cleanliness of the reassembled DEX.
// The trace and its comparison are rt::ExecutionTrace and
// rt::first_difference (src/runtime/script.h), the oracle the fuzzer uses.
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
#include "src/runtime/script.h"

namespace dexlego::harness {

using ConfigureFn = std::function<void(rt::Runtime&)>;

// Installs `apk` in a fresh default-config runtime, runs the default script
// and returns its trace. `configure` registers sample natives before install.
rt::ExecutionTrace run_and_trace(const dex::Apk& apk,
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
  rt::ExecutionTrace original;
  rt::ExecutionTrace revealed;
  core::ContainmentReport containment;
  bool containment_checked = false;
};

// The full round trip: trace the original, reveal it (collection +
// reassembly), trace the revealed APK, and run the containment check.
DiffResult run_differential(const dex::Apk& apk,
                            const DiffOptions& options = {});

// --- gtest predicates (use with EXPECT_TRUE for rich failure output) ---

// rt::first_difference finds none: phase-by-phase exit states match, sink
// logs are identical byte for byte and the leak counts agree. A failure
// prints the difference and both traces.
::testing::AssertionResult TraceEquivalent(const rt::ExecutionTrace& original,
                                           const rt::ExecutionTrace& revealed);

// The reassembled DEX passed structural + instruction-level verification.
::testing::AssertionResult VerifierClean(const core::RevealResult& result);

// VerifierClean && TraceEquivalent && (containment, when checked).
::testing::AssertionResult BehaviorallyEquivalent(const DiffResult& diff);

}  // namespace dexlego::harness

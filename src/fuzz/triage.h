// The differential oracle, corpus triage and campaign driver for the fuzzer
// (docs/FUZZING.md). run_oracle is the one check that a reveal keeps an
// app's behaviour: the fuzz campaign, the pinned replays and the test suites
// all call it. It traces the input under the default script, reveals it
// through the full collect→reassemble pipeline, traces the revealed APK and
// demands identical observable behaviour plus verifier cleanliness and
// reveal idempotence (and, when asked, symbolic containment). Traces and
// their comparison are rt::trace_app and rt::first_difference
// (src/runtime/script.h). Every candidate lands in exactly one bucket:
//
//   kEquivalent — the round trip held (the expected verdict for valid apps)
//   kRejected   — the mutant was refused up front with a *clean* error
//                 (ParseError / verifier failure); a pass for structural
//                 mutants, a divergence for the pre-filtered families
//   kDivergent  — valid input, but behaviour/verification/idempotence broke
//   kCrash      — any layer failed with something other than a clean
//                 rejection (bad_alloc, out_of_range, logic_error...): the
//                 hardening bugs the structural family exists to find
//
// Divergences and crashes are deduplicated by a fingerprint of their
// normalized failure detail, auto-minimized by a delta-debugging loop that
// re-runs the oracle per reduction step, and packaged for replay
// (src/fuzz/replay.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/dexlego.h"
#include "src/fuzz/mutator.h"
#include "src/runtime/runtime.h"
#include "src/runtime/script.h"

namespace dexlego::fuzz {

enum class Outcome : uint8_t {
  kEquivalent = 0,
  kRejected = 1,
  kDivergent = 2,
  kCrash = 3,
};

std::string_view outcome_name(Outcome outcome);

struct OracleOptions {
  // Interpreter step budget per driver phase — keeps goto-loop mutants
  // bounded (both sides of the diff abort identically at the limit).
  uint64_t step_limit = 400'000;
  // Also reveal the revealed APK and demand the same behaviour again.
  bool check_idempotence = true;
  // Also demand that every instruction token of the input survives in the
  // revealed DEX (core::check_containment). Only full-coverage apps pass:
  // code that never runs, like a dead branch or a packer's stub, is never
  // collected.
  bool check_containment = false;
};

struct OracleReport {
  Outcome outcome = Outcome::kEquivalent;
  // First failure, normalized (no pointers, no timings) so identical root
  // causes fingerprint identically across runs and thread counts.
  std::string detail;
  uint64_t fingerprint = 0;  // nonzero for kDivergent / kCrash
  // What the stages produced before the verdict, for callers that assert
  // more; empty past the stage that ended the run. `original` traces the
  // input, `reveal` is its first reveal and `revealed` traces that reveal.
  rt::ExecutionTrace original;
  core::RevealResult reveal;
  rt::ExecutionTrace revealed;
};

OracleReport run_oracle(const Mutant& mutant, const OracleOptions& options = {});

// Shrinks `ops` while the oracle keeps reproducing `fingerprint` against
// `seed`. Deterministic; at most O(|ops|^2) oracle runs. `oracle_runs`
// (optional) reports how many re-executions the loop spent.
std::vector<MutationOp> minimize_ops(Family family, const SeedInput& seed,
                                     std::vector<MutationOp> ops,
                                     uint64_t fingerprint,
                                     const OracleOptions& options,
                                     size_t* oracle_runs = nullptr);

// The delta-debugging core behind minimize_ops: drops one op at a time (back
// to front, repeated until a fixpoint) while `reproduces` holds on the
// remaining subsequence. Relative op order is preserved. Exposed so the
// convergence contract is testable without a live divergence.
std::vector<MutationOp> minimize_ops_with(
    std::vector<MutationOp> ops,
    const std::function<bool(std::span<const MutationOp>)>& reproduces,
    size_t* runs = nullptr);

// --- campaign --------------------------------------------------------------

struct CampaignOptions {
  uint64_t seed = 1;
  size_t iters = 100;
  // 0 = one worker per hardware thread. Results are byte-identical across
  // thread counts: candidate i depends only on (seed, i) and reports fold in
  // iteration order.
  size_t threads = 1;
  std::vector<Family> families = {Family::kStructural, Family::kBytecode,
                                  Family::kBehavioral, Family::kRealDex};
  int max_ops = 5;
  OracleOptions oracle;
  bool minimize = true;
};

// One deduplicated divergence/crash.
struct Finding {
  uint64_t fingerprint = 0;
  Outcome outcome = Outcome::kEquivalent;
  Family family = Family::kStructural;
  std::string seed_key;
  uint64_t iter = 0;  // first iteration that hit it
  std::string detail;
  std::vector<MutationOp> ops;  // minimized when CampaignOptions::minimize
  size_t ops_before_minimize = 0;
  size_t hits = 0;  // candidates that landed on this fingerprint
};

struct CampaignReport {
  size_t executed = 0;
  size_t equivalent = 0;
  size_t rejected = 0;
  size_t divergent = 0;
  size_t crashed = 0;
  size_t skipped = 0;  // plans that came up empty for the drawn seed
  std::map<uint64_t, Finding> findings;  // fingerprint -> finding

  double wall_ms = 0.0;        // not part of the deterministic report
  double execs_per_sec = 0.0;  // ditto

  bool clean() const { return divergent == 0 && crashed == 0; }
  // Deterministic rendering (counts + findings, no timings).
  std::string summary() const;
  // Hash of the deterministic parts; identical across runs and thread counts
  // for the same (seed, iters, families) — pinned by tests/fuzz_test.cpp.
  uint64_t report_fingerprint() const;
};

CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace dexlego::fuzz

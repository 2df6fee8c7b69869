// Force execution (paper Section IV-E, Fig. 4) — the first force-execution
// prototype "on Android". Iteratively:
//   1. branch analysis identifies Uncovered Conditional Branches (UCBs) in
//      the accumulated coverage of previous executions,
//   2. path analysis computes, per UCB, the chain of branch outcomes that
//      steers control flow from the method entry to the UCB,
//   3. the paths (the paper's path files; ForcePlans here) drive the next
//      execution: the interpreter's force_branch hook overrides the
//      corresponding conditional outcomes, and unhandled exceptions raised
//      on infeasible paths are tolerated by clearing them.
// Iteration stops when no new UCB appears.
//
// This header holds the plan-level primitives (ForcePlan, ForceHooks,
// compute_path) and the serial app-level driver. Exploration itself is the
// worklist-driven ForceEngine in src/coverage/force_engine.h: every UCB gets
// its own independently-runnable plan (a branch-decision prefix + the path
// to the UCB). force_execute() runs the engine's waves serially in-process,
// each forced run replaying one event sequence; pipeline::run_job drives the
// same engine under the collect phase's driver for force jobs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/coverage/fuzzer.h"
#include "src/coverage/tracker.h"
#include "src/dex/archive.h"
#include "src/runtime/hooks.h"

namespace dexlego::coverage {

// A set of forced branch outcomes ("path file" content): one decision per
// (method, branch pc).
class ForcePlan {
 public:
  // One method's forced decisions: branch pc -> outcome.
  using Outcomes = std::map<uint32_t, bool>;

  void set(const std::string& method_key, uint32_t pc, bool outcome);
  const bool* find(const std::string& method_key, uint32_t pc) const;
  // The decisions for one method; null when the plan forces none of its
  // branches.
  const Outcomes* find(const std::string& method_key) const;
  size_t size() const;
  bool empty() const { return outcomes_.empty(); }

  // Content hash of the serialized form (support::fnv1a — the DedupStore
  // idiom): equal plans fingerprint equally in any run, which is what the
  // ForceEngine's visited-path set keys on.
  uint64_t fingerprint() const;

  // The canonical byte form fingerprint() hashes: every decision in method
  // key and pc order. Plans travel between runs in memory, not as files.
  std::vector<uint8_t> serialize() const;

  bool operator==(const ForcePlan&) const = default;

 private:
  // method key -> its decisions; never holds an empty Outcomes.
  std::map<std::string, Outcomes> outcomes_;
};

// Runtime hooks applying a ForcePlan: overrides the planned branches and
// clears unhandled exceptions (at most kTolerateCap per run, to avoid
// pathological loops). Each activation looks its method's decisions up in
// the plan once, on its first branch (ActivationSlots,
// src/coverage/tracker.h).
class ForceHooks : public rt::RuntimeHooks {
 public:
  static constexpr size_t kTolerateCap = 4096;

  explicit ForceHooks(const ForcePlan& plan) : plan_(plan) {}

  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kDexLoaded) |
           rt::hook_mask(rt::HookEvent::kMethodEntry) |
           rt::hook_mask(rt::HookEvent::kMethodExit) |
           rt::hook_mask(rt::HookEvent::kForceBranch) |
           rt::hook_mask(rt::HookEvent::kTolerateException);
  }

  void on_dex_loaded(const rt::DexImage& image) override {
    frames_.on_dex_loaded(image);
  }
  void on_method_entry(rt::RtMethod& method) override { frames_.enter(method); }
  void on_method_exit(rt::RtMethod& method) override {
    (void)method;
    frames_.exit();
  }
  bool force_branch(rt::RtMethod& method, uint32_t dex_pc, bool* outcome) override;
  bool tolerate_exception(rt::RtMethod& method, uint32_t dex_pc) override;

  size_t forced() const { return forced_; }
  size_t tolerated() const { return tolerated_; }

 private:
  struct MethodSlot {
    bool resolved = false;
    const ForcePlan::Outcomes* outcomes = nullptr;
  };
  const ForcePlan::Outcomes* outcomes_of(const rt::RtMethod& method);

  const ForcePlan& plan_;
  size_t forced_ = 0;
  size_t tolerated_ = 0;
  ActivationSlots<MethodSlot> frames_;
};

// Exploration budgets of the worklist engine (src/coverage/force_engine.h).
struct ForceEngineOptions {
  int max_depth = 8;       // forced-prefix generations per plan
  size_t max_plans = 512;  // total plan units issued per app
  int max_waves = 64;      // frontier rounds (Fig. 4 iterations)
};

struct ForceOptions {
  ForceEngineOptions engine;   // exploration budgets
  FuzzOptions run;             // natives + extra hooks for each forced run
  EventSequence seed_sequence; // inputs/clicks driving each forced run
};

struct ForceResult {
  CoverageTracker coverage;  // seed coverage + everything force reached
  int iterations = 0;        // waves executed
  size_t ucbs_targeted = 0;
  size_t paths_executed = 0;  // forced runs (plan units) performed
};

// Computes the branch decisions steering execution from the method entry to
// `ucb_pc`, then forces `outcome` at the UCB itself. Returns false when no
// static path exists. Exposed for tests.
bool compute_path(const dex::CodeItem& code, const std::string& method_key,
                  uint32_t ucb_pc, bool outcome, ForcePlan& plan);

// Iterative force execution seeded with previous coverage (typically a fuzz
// result, per the paper: "our force execution starts from the execution
// result of the previous execution"). Runs the ForceEngine's waves serially:
// one fresh runtime per plan unit, replaying options.seed_sequence
// (coverage::execute_sequence) under the plan's ForceHooks.
ForceResult force_execute(const dex::Apk& apk, const ForceOptions& options,
                          const CoverageTracker& seed);

}  // namespace dexlego::coverage

// Force execution (paper Section IV-E, Fig. 4) — the first force-execution
// prototype "on Android". Iteratively:
//   1. branch analysis identifies Uncovered Conditional Branches (UCBs) in
//      the accumulated coverage of previous executions,
//   2. path analysis computes, per UCB, the chain of branch outcomes that
//      steers control flow from the method entry to the UCB,
//   3. the paths are written to path files which drive the next execution:
//      the interpreter's force_branch hook overrides the corresponding
//      conditional outcomes, and unhandled exceptions raised on infeasible
//      paths are tolerated by clearing them.
// Iteration stops when no new UCB appears.
//
// This header holds the plan-level primitives (ForcePlan, ForceHooks,
// compute_path) and the app-level drivers. Exploration itself is the
// worklist-driven ForceEngine in src/coverage/force_engine.h: every UCB gets
// its own independently-runnable plan (a branch-decision prefix + the path
// to the UCB). force_execute() runs the engine's waves serially in-process,
// as pipeline::run_job does for force jobs; single_plan_force_execute() keeps
// the pre-engine algorithm (one combined plan re-run per iteration) as the
// comparison baseline for bench/force_paths and the coverage tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
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
  void set(const std::string& method_key, uint32_t pc, bool outcome);
  const bool* find(const std::string& method_key, uint32_t pc) const;
  size_t size() const { return outcomes_.size(); }
  bool empty() const { return outcomes_.empty(); }

  // Content hash of the serialized form (support::fnv1a — the DedupStore
  // idiom): equal plans fingerprint equally in any run, which is what the
  // ForceEngine's visited-path set keys on.
  uint64_t fingerprint() const;

  // Path-file round trip (the paper stores paths in files between runs).
  // deserialize throws support::ParseError on truncated, oversized or
  // trailing-garbage input; try_deserialize returns nullopt instead.
  std::vector<uint8_t> serialize() const;
  static ForcePlan deserialize(std::span<const uint8_t> data);
  static std::optional<ForcePlan> try_deserialize(std::span<const uint8_t> data);

  bool operator==(const ForcePlan&) const = default;

 private:
  std::map<std::pair<std::string, uint32_t>, bool> outcomes_;
};

// Runtime hooks applying a ForcePlan: overrides the planned branches and
// clears unhandled exceptions (bounded per run to avoid pathological loops).
class ForceHooks : public rt::RuntimeHooks {
 public:
  explicit ForceHooks(const ForcePlan& plan, size_t tolerate_cap = 4096)
      : plan_(plan), tolerate_cap_(tolerate_cap) {}

  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kForceBranch) |
           rt::hook_mask(rt::HookEvent::kTolerateException);
  }

  bool force_branch(rt::RtMethod& method, uint32_t dex_pc, bool* outcome) override;
  bool tolerate_exception(rt::RtMethod& method, uint32_t dex_pc) override;

  size_t forced() const { return forced_; }
  size_t tolerated() const { return tolerated_; }

 private:
  const ForcePlan& plan_;
  size_t tolerate_cap_;
  size_t forced_ = 0;
  size_t tolerated_ = 0;
};

// Exploration budgets of the worklist engine (src/coverage/force_engine.h).
struct ForceEngineOptions {
  int max_depth = 8;       // forced-prefix generations per plan
  size_t max_plans = 512;  // total plan units issued per app
  int max_waves = 64;      // frontier rounds (Fig. 4 iterations)
};

struct ForceOptions {
  ForceEngineOptions engine;   // exploration budgets
  FuzzOptions run;             // runtime config + natives for each forced run
  EventSequence seed_sequence; // inputs/clicks driving each forced run
  // When set, forced runs install the APK and call this instead of replaying
  // seed_sequence — lets callers force-execute under the same driver the
  // batch pipeline uses (e.g. core::default_driver).
  std::function<void(rt::Runtime&)> driver;
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
// one fresh runtime per plan unit.
ForceResult force_execute(const dex::Apk& apk, const ForceOptions& options,
                          const CoverageTracker& seed);

// The pre-engine algorithm: per iteration, ONE combined plan holding at most
// one UCB path per method, replayed in a single run. Kept as the baseline
// the ForceEngine is measured against (bench/force_paths, pipeline tests);
// the engine strictly dominates it because combined plans interfere (forcing
// method A's path can starve method B's forced branch, which is then never
// retried) and because plans never inherit the prefix that reached a UCB.
ForceResult single_plan_force_execute(const dex::Apk& apk,
                                      const ForceOptions& options,
                                      const CoverageTracker& seed);

}  // namespace dexlego::coverage

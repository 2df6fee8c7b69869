// Worklist-driven force execution — the exploration half of Section IV-E,
// rebuilt as an engine whose unit of work is one independently-runnable
// forced execution. The frontier holds (method, pc, outcome) targets, each
// carried by a branch-plan *prefix*: the plan of the run that first observed
// the UCB's branch site, extended with the intraprocedural path to the UCB
// (compute_path). A visited-path fingerprint set (support::fnv1a over the
// serialized plan, the DedupStore hashing idiom) dedups the frontier, plan
// generation is deterministically ordered (methods and pcs ascend), and
// depth / plan / wave budgets bound the exploration.
//
// The engine itself never executes anything: callers run each wave's plan
// units (force_execute, and pipeline::run_job for every force job a batch
// or service worker claims), feed the observed per-run coverage back
// through observe(), and ask for the next wave. Because accumulated
// coverage is a set union and observations arrive in plan order, the
// frontier — and therefore everything collected — is identical whatever
// the thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/coverage/force.h"
#include "src/coverage/tracker.h"
#include "src/dex/dex.h"

namespace dexlego::coverage {

// One frontier item: a fully-specified forced execution. depth counts the
// forced-prefix generations (1 = reached from natural execution).
struct PlanUnit {
  ForcePlan plan;
  std::string target_method;  // UCB this plan steers to; empty = baseline run
  uint32_t target_pc = 0;
  bool target_outcome = false;
  int depth = 0;
};

class ForceEngine {
 public:
  struct Stats {
    int waves = 0;             // non-empty frontiers issued
    size_t plans_issued = 0;   // plan units handed out
    size_t ucbs_targeted = 0;  // distinct (method, pc, outcome) targets
    size_t pruned_depth = 0;   // targets dropped by max_depth
    size_t pruned_budget = 0;  // targets dropped by max_plans
  };

  // `app` is the static image UCBs are computed against. The engine copies
  // the code items it needs, so the DexFile may be destroyed afterwards.
  explicit ForceEngine(const dex::DexFile& app, ForceEngineOptions options = {});

  // Feeds one executed unit's coverage back. MUST be called in plan order
  // (baseline first, then each wave's units in issue order) — that ordering
  // is what makes prefix attribution, and thus the whole exploration,
  // scheduling-independent. The baseline run is a default-constructed
  // PlanUnit with an empty plan.
  void observe(const PlanUnit& unit, const CoverageTracker& run_coverage);

  // Computes the next frontier from everything observed so far. Empty means
  // converged or out of budget.
  std::vector<PlanUnit> next_wave();

  // Union of every observed run's coverage.
  const CoverageTracker& coverage() const { return accumulated_; }
  const Stats& stats() const { return stats_; }

 private:
  // The plan of the run that first observed a branch site — the shallowest
  // known way to get execution there. Shared across the sites one run
  // discovered.
  struct Prefix {
    ForcePlan plan;
    int depth = 0;
  };

  // One method of the static image and its branch sites. Keyed by method
  // first, so observe() and next_wave() look a method up once, not once per
  // site, and build no key per site.
  struct Method {
    dex::CodeItem code;
    // pc -> first-seeing run's prefix, filled in observe order.
    std::map<uint32_t, std::shared_ptr<const Prefix>> first_seen;
    // (pc, outcome) targets already taken up, issued or pruned.
    std::set<std::pair<uint32_t, bool>> attempted;
  };

  ForceEngineOptions options_;
  // Method key -> its static code and sites, in the key order next_wave()
  // issues plans in. Only these methods' sites are ever targeted.
  std::map<std::string, Method, std::less<>> methods_;
  CoverageTracker accumulated_;
  std::set<uint64_t> visited_plans_;  // plan fingerprints
  Stats stats_;
};

}  // namespace dexlego::coverage

#include "src/coverage/force_engine.h"

namespace dexlego::coverage {

ForceEngine::ForceEngine(const dex::DexFile& app, ForceEngineOptions options)
    : options_(options) {
  for (const dex::ClassDef& cls : app.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (m.code) {
          methods_[app.pretty_method(m.method_ref)].code = *m.code;
        }
      }
    }
  }
}

void ForceEngine::observe(const PlanUnit& unit,
                          const CoverageTracker& run_coverage) {
  accumulated_.merge(run_coverage);
  // Claim every branch site this run saw first: calling observe() in plan
  // order makes the winner — and so the whole frontier — schedule-
  // independent.
  std::shared_ptr<const Prefix> prefix;
  for (const auto& [key, sites] : run_coverage.branch_sites()) {
    auto it = methods_.find(key);
    if (it == methods_.end()) continue;  // no static code: never a target
    for (const auto& [pc, seen] : sites) {
      (void)seen;
      if (!prefix) {
        prefix = std::make_shared<const Prefix>(Prefix{unit.plan, unit.depth});
      }
      it->second.first_seen.try_emplace(pc, prefix);
    }
  }
}

std::vector<PlanUnit> ForceEngine::next_wave() {
  std::vector<PlanUnit> wave;
  if (stats_.waves >= options_.max_waves) return wave;

  // Branch analysis over the accumulated coverage, in deterministic order:
  // methods ascend (methods_ is an ordered map), pcs ascend, untaken side
  // before taken. Both uncovered sides of a branch become separate targets.
  for (auto& [key, method] : methods_) {
    const auto* branch_map = accumulated_.branches(key);
    if (branch_map == nullptr) continue;
    for (const auto& [pc, seen] : *branch_map) {
      for (bool want : {false, true}) {
        bool covered = want ? seen.taken : seen.untaken;
        if (covered) continue;
        if (!method.attempted.emplace(pc, want).second) continue;
        auto seen_it = method.first_seen.find(pc);
        const Prefix* prefix = seen_it != method.first_seen.end()
                                   ? seen_it->second.get()
                                   : nullptr;
        int depth = (prefix != nullptr ? prefix->depth : 0) + 1;
        if (depth > options_.max_depth) {
          ++stats_.pruned_depth;
          continue;
        }
        if (stats_.plans_issued >= options_.max_plans) {
          ++stats_.pruned_budget;
          continue;
        }
        // Path analysis: the prefix plan that reached the branch site,
        // extended with the intraprocedural path to the UCB.
        ForcePlan plan = prefix != nullptr ? prefix->plan : ForcePlan();
        if (!compute_path(method.code, key, pc, want, plan)) continue;
        if (!visited_plans_.insert(plan.fingerprint()).second) continue;
        ++stats_.plans_issued;
        ++stats_.ucbs_targeted;
        wave.push_back(PlanUnit{std::move(plan), key, pc, want, depth});
      }
    }
  }
  if (!wave.empty()) ++stats_.waves;
  return wave;
}

}  // namespace dexlego::coverage

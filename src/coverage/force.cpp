#include "src/coverage/force.h"

#include <deque>

#include "src/bytecode/insn.h"
#include "src/coverage/force_engine.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego::coverage {

void ForcePlan::set(const std::string& method_key, uint32_t pc, bool outcome) {
  outcomes_[method_key][pc] = outcome;
}

const bool* ForcePlan::find(const std::string& method_key, uint32_t pc) const {
  const Outcomes* outcomes = find(method_key);
  if (outcomes == nullptr) return nullptr;
  auto it = outcomes->find(pc);
  return it == outcomes->end() ? nullptr : &it->second;
}

const ForcePlan::Outcomes* ForcePlan::find(const std::string& method_key) const {
  auto it = outcomes_.find(method_key);
  return it == outcomes_.end() ? nullptr : &it->second;
}

size_t ForcePlan::size() const {
  size_t n = 0;
  for (const auto& [key, outcomes] : outcomes_) n += outcomes.size();
  return n;
}

uint64_t ForcePlan::fingerprint() const { return support::fnv1a(serialize()); }

std::vector<uint8_t> ForcePlan::serialize() const {
  support::ByteWriter w;
  w.u32(static_cast<uint32_t>(size()));
  for (const auto& [key, outcomes] : outcomes_) {
    for (const auto& [pc, outcome] : outcomes) {
      w.str(key);
      w.u32(pc);
      w.u8(outcome ? 1 : 0);
    }
  }
  return w.take();
}

const ForcePlan::Outcomes* ForceHooks::outcomes_of(const rt::RtMethod& method) {
  MethodSlot* slot = frames_.top(method);
  if (slot == nullptr) return plan_.find(CoverageTracker::method_key(method));
  if (!slot->resolved) {
    slot->outcomes = plan_.find(CoverageTracker::method_key(method));
    slot->resolved = true;
  }
  return slot->outcomes;
}

bool ForceHooks::force_branch(rt::RtMethod& method, uint32_t dex_pc,
                              bool* outcome) {
  const ForcePlan::Outcomes* outcomes = outcomes_of(method);
  if (outcomes == nullptr) return false;
  auto planned = outcomes->find(dex_pc);
  if (planned == outcomes->end()) return false;
  *outcome = planned->second;
  ++forced_;
  return true;
}

bool ForceHooks::tolerate_exception(rt::RtMethod& method, uint32_t dex_pc) {
  (void)method, (void)dex_pc;
  if (tolerated_ >= kTolerateCap) return false;
  ++tolerated_;
  return true;
}

bool compute_path(const dex::CodeItem& code, const std::string& method_key,
                  uint32_t ucb_pc, bool outcome, ForcePlan& plan) {
  std::span<const uint16_t> insns(code.insns);
  // BFS over pcs; edges annotated with the branch decision that selects them.
  struct Edge {
    size_t from = SIZE_MAX;
    int decision = -1;  // -1: unconditional, 0: branch not taken, 1: taken
  };
  std::map<size_t, Edge> parent;
  std::deque<size_t> queue;
  parent[0] = Edge{};
  queue.push_back(0);
  bool found = false;
  while (!queue.empty()) {
    size_t pc = queue.front();
    queue.pop_front();
    if (pc == ucb_pc) {
      found = true;
      break;
    }
    bc::Insn insn;
    try {
      insn = bc::decode_at(insns, pc);
    } catch (const support::ParseError&) {
      continue;
    }
    auto visit = [&](size_t next, int decision) {
      if (next >= insns.size() || parent.contains(next)) return;
      parent[next] = Edge{pc, decision};
      queue.push_back(next);
    };
    if (bc::is_conditional_branch(insn.op)) {
      visit(pc + insn.width, 0);
      visit(pc + static_cast<size_t>(insn.off), 1);
    } else {
      try {
        for (size_t next : bc::successors_at(insns, pc)) visit(next, -1);
      } catch (const support::ParseError&) {
      }
    }
  }
  if (!found) return false;

  // Walk back collecting branch decisions along the path.
  size_t pc = ucb_pc;
  while (pc != 0) {
    const Edge& edge = parent.at(pc);
    if (edge.decision >= 0) {
      plan.set(method_key, static_cast<uint32_t>(edge.from), edge.decision == 1);
    }
    pc = edge.from;
  }
  plan.set(method_key, ucb_pc, outcome);
  return true;
}

ForceResult force_execute(const dex::Apk& apk, const ForceOptions& options,
                          const CoverageTracker& seed) {
  dex::DexFile app = dex::load_classes(apk);
  ForceEngine engine(app, options.engine);
  engine.observe(PlanUnit{}, seed);  // baseline: the seed's natural coverage

  ForceResult result;
  for (;;) {
    std::vector<PlanUnit> wave = engine.next_wave();
    if (wave.empty()) break;
    ++result.iterations;
    for (const PlanUnit& unit : wave) {
      ForceHooks hooks(unit.plan);
      FuzzOptions run = options.run;
      run.extra_hooks.push_back(&hooks);
      CoverageTracker tracker;
      execute_sequence(apk, options.seed_sequence, run, tracker);
      engine.observe(unit, tracker);
      ++result.paths_executed;
    }
  }
  result.coverage.merge(engine.coverage());
  result.ucbs_targeted = engine.stats().ucbs_targeted;
  return result;
}

}  // namespace dexlego::coverage

#include "src/coverage/tracker.h"

#include <set>

#include "src/bytecode/insn.h"
#include "src/support/bytes.h"

namespace dexlego::coverage {

std::string CoverageTracker::method_key(const rt::RtMethod& method) {
  return (method.declaring != nullptr ? method.declaring->descriptor : "?") +
         "->" + method.name + method.shorty;
}

PcBits& CoverageTracker::pcs_of(const rt::RtMethod& method) {
  MethodSlot* slot = frames_.top(method);
  if (slot == nullptr) return pcs_[method_key(method)];
  if (slot->pcs == nullptr) {
    if (slot->key.empty()) slot->key = method_key(method);
    slot->pcs = &pcs_[slot->key];
  }
  return *slot->pcs;
}

std::map<uint32_t, CoverageTracker::BranchSeen>& CoverageTracker::branches_of(
    const rt::RtMethod& method) {
  MethodSlot* slot = frames_.top(method);
  if (slot == nullptr) return branches_[method_key(method)];
  if (slot->branches == nullptr) {
    if (slot->key.empty()) slot->key = method_key(method);
    slot->branches = &branches_[slot->key];
  }
  return *slot->branches;
}

void CoverageTracker::on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                                     std::span<const uint16_t> code) {
  (void)code;
  pcs_of(method).set(dex_pc);
}

void CoverageTracker::on_branch(rt::RtMethod& method, uint32_t dex_pc,
                                bool taken) {
  BranchSeen& seen = branches_of(method)[dex_pc];
  if (taken) {
    seen.taken = true;
  } else {
    seen.untaken = true;
  }
}

const PcBits* CoverageTracker::executed_pcs(const std::string& key) const {
  auto it = pcs_.find(key);
  return it == pcs_.end() ? nullptr : &it->second;
}

const std::map<uint32_t, CoverageTracker::BranchSeen>* CoverageTracker::branches(
    const std::string& key) const {
  auto it = branches_.find(key);
  return it == branches_.end() ? nullptr : &it->second;
}

void CoverageTracker::merge(const CoverageTracker& other) {
  for (const auto& [key, pcs] : other.pcs_) pcs_[key].merge(pcs);
  for (const auto& [key, branch_map] : other.branches_) {
    std::map<uint32_t, BranchSeen>& mine = branches_[key];
    for (const auto& [pc, seen] : branch_map) {
      BranchSeen& site = mine[pc];
      site.taken |= seen.taken;
      site.untaken |= seen.untaken;
    }
  }
}

CoverageTracker::Report CoverageTracker::report(const dex::DexFile& app) const {
  Report report;
  for (const dex::ClassDef& cls : app.classes) {
    bool class_covered = false;
    bool class_has_code = false;
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        class_has_code = true;
        ++report.methods_total;
        std::string key = app.pretty_method(m.method_ref);
        const PcBits* executed = executed_pcs(key);
        if (executed != nullptr && !executed->empty()) {
          ++report.methods_covered;
          class_covered = true;
        }

        // Instructions and branch sides from the static code.
        std::span<const uint16_t> insns(m.code->insns);
        std::set<uint32_t> lines_hit;
        std::set<uint32_t> lines_all;
        const dex::LineTable line_of(m.code->lines);
        const auto* branch_map = branches(key);
        size_t pc = 0;
        while (pc < insns.size()) {
          bc::Insn insn;
          try {
            insn = bc::decode_at(insns, pc);
          } catch (const support::ParseError&) {
            break;
          }
          if (insn.op != bc::Op::kPayload) {
            ++report.instructions_total;
            uint32_t line = line_of.at(pc);
            if (line != 0) lines_all.insert(line);
            bool hit = executed != nullptr &&
                       executed->test(static_cast<uint32_t>(pc));
            if (hit) {
              ++report.instructions_covered;
              if (line != 0) lines_hit.insert(line);
            }
            if (bc::is_conditional_branch(insn.op)) {
              report.branches_total += 2;
              if (branch_map != nullptr) {
                auto bit = branch_map->find(static_cast<uint32_t>(pc));
                if (bit != branch_map->end()) {
                  report.branches_covered += (bit->second.taken ? 1 : 0) +
                                             (bit->second.untaken ? 1 : 0);
                }
              }
            }
          }
          pc += bc::consumed_units(insn);
        }
        report.lines_total += lines_all.size();
        report.lines_covered += lines_hit.size();
      }
    }
    if (class_has_code) {
      ++report.classes_total;
      if (class_covered) ++report.classes_covered;
    }
  }
  return report;
}

}  // namespace dexlego::coverage

// JaCoCo-analog coverage tracker (Table VII granularities: class / method /
// line / branch / instruction). A RuntimeHooks implementation that records
// executed pcs and branch outcomes per method identity, then scores them
// against the app's static totals.
//
// Executed pcs are one bitset per method. Each activation resolves its
// method's slots once, on its first event, and keeps them on a stack of
// activation frames, so the per-instruction and per-branch paths build no
// method key.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/dex/dex.h"
#include "src/runtime/hooks.h"

namespace dexlego::coverage {

// Per-activation memo of a hook's per-method slot, after the Collector's
// activation stack: on_method_entry pushes a frame for the entered method
// and on_method_exit pops it. A frame serves an event only while it is
// innermost and names the RtMethod the event is for; any other event takes
// the hook's key-lookup path. The first image a runtime loads (id 0) drops
// frames an aborted run left behind, so no frame outlives its runtime, whose
// RtMethod addresses a later runtime may reuse. Copies and moves leave both
// sides empty, so no hook points into another hook's maps.
template <typename Slot>
class ActivationSlots {
 public:
  ActivationSlots() = default;
  ActivationSlots(const ActivationSlots&) {}
  ActivationSlots(ActivationSlots&& other) noexcept { other.frames_.clear(); }
  ActivationSlots& operator=(const ActivationSlots&) {
    frames_.clear();
    return *this;
  }
  ActivationSlots& operator=(ActivationSlots&& other) noexcept {
    frames_.clear();
    other.frames_.clear();
    return *this;
  }

  void on_dex_loaded(const rt::DexImage& image) {
    if (image.id == 0) frames_.clear();
  }
  void enter(const rt::RtMethod& method) { frames_.push_back({&method, Slot{}}); }
  void exit() {
    if (!frames_.empty()) frames_.pop_back();
  }
  // The innermost activation's slot if it belongs to `method`, else null.
  Slot* top(const rt::RtMethod& method) {
    if (frames_.empty() || frames_.back().method != &method) return nullptr;
    return &frames_.back().slot;
  }

 private:
  struct Frame {
    const rt::RtMethod* method;
    Slot slot;
  };
  std::vector<Frame> frames_;
};

// Executed pcs of one method, one bit per code unit. The words grow with the
// highest pc set, not with the code size first seen: self-modifying natives
// may resize a method's insns.
class PcBits {
 public:
  void set(uint32_t pc) {
    size_t word = pc / 64;
    if (word >= words_.size()) words_.resize(word + 1);
    words_[word] |= uint64_t{1} << (pc % 64);
  }
  bool test(uint32_t pc) const {
    size_t word = pc / 64;
    return word < words_.size() && ((words_[word] >> (pc % 64)) & 1) != 0;
  }
  // No bit set: words only ever grow to hold one.
  bool empty() const { return words_.empty(); }
  void merge(const PcBits& other) {
    if (other.words_.size() > words_.size()) words_.resize(other.words_.size());
    for (size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
  }

 private:
  std::vector<uint64_t> words_;
};

class CoverageTracker : public rt::RuntimeHooks {
 public:
  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kDexLoaded) |
           rt::hook_mask(rt::HookEvent::kMethodEntry) |
           rt::hook_mask(rt::HookEvent::kMethodExit) |
           rt::hook_mask(rt::HookEvent::kInstruction) |
           rt::hook_mask(rt::HookEvent::kBranch);
  }
  void on_dex_loaded(const rt::DexImage& image) override {
    frames_.on_dex_loaded(image);
  }
  void on_method_entry(rt::RtMethod& method) override { frames_.enter(method); }
  void on_method_exit(rt::RtMethod& method) override {
    (void)method;
    frames_.exit();
  }
  void on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                      std::span<const uint16_t> code) override;
  void on_branch(rt::RtMethod& method, uint32_t dex_pc, bool taken) override;

  struct Report {
    size_t classes_total = 0, classes_covered = 0;
    size_t methods_total = 0, methods_covered = 0;
    size_t lines_total = 0, lines_covered = 0;
    size_t branches_total = 0, branches_covered = 0;  // branch *sides*
    size_t instructions_total = 0, instructions_covered = 0;

    double class_pct() const { return ratio(classes_covered, classes_total); }
    double method_pct() const { return ratio(methods_covered, methods_total); }
    double line_pct() const { return ratio(lines_covered, lines_total); }
    double branch_pct() const { return ratio(branches_covered, branches_total); }
    double instruction_pct() const {
      return ratio(instructions_covered, instructions_total);
    }

   private:
    static double ratio(size_t a, size_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    }
  };

  // Scores recorded coverage against the app's static structure.
  Report report(const dex::DexFile& app) const;

  // Executed pcs for a method ("class->name shorty" key); null if never run.
  const PcBits* executed_pcs(const std::string& key) const;
  // Branch outcomes seen: pc -> {taken?, untaken?}.
  struct BranchSeen {
    bool taken = false;
    bool untaken = false;
  };
  const std::map<uint32_t, BranchSeen>* branches(const std::string& key) const;
  // Every branch site observed, keyed by method: lets the force engine
  // enumerate sites without knowing method keys up front.
  const std::map<std::string, std::map<uint32_t, BranchSeen>>& branch_sites()
      const {
    return branches_;
  }

  // The key a method's coverage is filed under, "Lcls;->nameSHORTY": the
  // string dex::DexFile::pretty_method builds from the method's ref.
  static std::string method_key(const rt::RtMethod& method);

  // Merge another tracker's observations (fuzz + force accumulation).
  void merge(const CoverageTracker& other);

 private:
  // One activation's slots, each made in its map on first use so a method
  // that never branches has no branches_ entry.
  struct MethodSlot {
    std::string key;  // method_key, built on the activation's first event
    PcBits* pcs = nullptr;
    std::map<uint32_t, BranchSeen>* branches = nullptr;
  };
  PcBits& pcs_of(const rt::RtMethod& method);
  std::map<uint32_t, BranchSeen>& branches_of(const rt::RtMethod& method);

  std::map<std::string, PcBits> pcs_;
  std::map<std::string, std::map<uint32_t, BranchSeen>> branches_;
  ActivationSlots<MethodSlot> frames_;
};

}  // namespace dexlego::coverage

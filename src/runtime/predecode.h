// Per-method predecoded execution cache — the fast half of the
// interpreter's cached dispatch mode (docs/INTERPRETER.md). An RtMethod's
// cache holds one bc::PredecodedUnit per code unit (decode-once via
// bc::predecode_linear, lazily filled for hostile jump targets) plus one
// monomorphic inline-cache site per pc for invoke-virtual dispatch.
//
// DexLego must execute self-modifying code faithfully, so the cache is
// invalidation-correct by three layers:
//   1. wholesale — the cache is stamped with the backing array's identity
//      (data pointer + size) and the method's code generation; replacing or
//      resizing the array, or RtMethod::invalidate_code_cache(), orphans it
//      and the next step rebuilds;
//   2. targeted — RtMethod::patch_code_unit() bumps the generation, clears
//      exactly the slots whose decode can span the written unit, and
//      re-stamps the cache, so announced per-unit patches never force a
//      full rebuild;
//   3. guarded — every slot re-checks the source units its decode consumed
//      (PredecodedUnit::src_matches) before being served, so even a direct
//      un-announced write to code->insns (hostile natives do not announce)
//      is observed on the very next execution of the patched pc.
// Layers 1+2 keep the fast path fast; layer 3 makes correctness independent
// of patch discipline. tests/interp_cache_test.cpp pins all three against
// the decode-every-step kBaseline mode, the cache's only oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/bytecode/disasm.h"

namespace dexlego::rt {

struct RtClass;
struct RtMethod;

// Monomorphic inline-cache site for an invoke-virtual pc: the receiver
// class seen last time and the method it dispatched to. Valid because an
// RtClass's method table and super chain are immutable after linking; the
// site is cleared whenever its slot redecodes (a self-mod write may have
// changed the method index under the same pc).
struct InlineSite {
  RtClass* klass = nullptr;
  RtMethod* target = nullptr;
};

class PredecodedCode {
 public:
  // Churn cap: a hostile native that replaces or resizes the instruction
  // array on every step would otherwise force an O(method) rebuild per
  // instruction — quadratic, adversary-controlled work. After this many
  // rebuilds of one cache the interpreter degrades the method to
  // decode-every-step (semantically identical; it IS the baseline).
  // Announced structural edits reset the cache wholesale
  // (RtMethod::invalidate_code_cache) and start a fresh count.
  static constexpr uint64_t kMaxRebuilds = 64;

  struct Stats {
    uint64_t rebuilds = 0;        // full linear-sweep predecodes
    uint64_t lazy_decodes = 0;    // unmapped pcs decoded on demand
    uint64_t guard_redecodes = 0; // slots invalidated by the unit guard
  };

  // True when the cache still describes `code` at `generation`: same
  // backing array identity, no wholesale invalidation since the build.
  bool valid_for(std::span<const uint16_t> code, uint64_t generation) const {
    return data_ == code.data() && size_ == code.size() &&
           generation_ == generation;
  }

  // Full batch predecode of `code` (bc::predecode_linear) and re-stamp.
  void rebuild(std::span<const uint16_t> code, uint64_t generation);

  // The decoded instruction at pc (pc < code.size() is the caller's bounds
  // check). Serves the memoized slot when its source units still match,
  // otherwise decodes and re-memoizes; throws support::ParseError exactly
  // like bc::decode_at on garbage. The returned reference is stable until
  // the next rebuild() or destruction — slot invalidation and re-memoizing
  // never move the slot array.
  const bc::Insn& fetch(std::span<const uint16_t> code, size_t pc) {
    bc::PredecodedUnit& unit = units_[pc];
    if (unit.mapped && unit.src_matches(code, pc)) return unit.insn;
    return decode_slow(code, pc);
  }

  InlineSite& inline_site(size_t pc) { return sites_[pc]; }

  // Targeted invalidation: clears every slot whose decode can span the
  // written unit (instructions start at most kMaxGuardUnits-1 units before
  // it) and its inline-cache site, then re-stamps the generation.
  void patch_unit(size_t index, uint64_t new_generation);

  const Stats& stats() const { return stats_; }

 private:
  // Cold half of fetch(): lazy decode of unmapped slots and redecode of
  // guard-invalidated ones.
  const bc::Insn& decode_slow(std::span<const uint16_t> code, size_t pc);

  std::vector<bc::PredecodedUnit> units_;
  std::vector<InlineSite> sites_;
  const uint16_t* data_ = nullptr;
  size_t size_ = 0;
  uint64_t generation_ = 0;
  Stats stats_;
};

}  // namespace dexlego::rt

#include "src/runtime/predecode.h"

#include "src/bytecode/insn.h"

namespace dexlego::rt {

void PredecodedCode::rebuild(std::span<const uint16_t> code,
                             uint64_t generation) {
  units_ = bc::predecode_linear(code);
  sites_.assign(code.size(), InlineSite{});
  data_ = code.data();
  size_ = code.size();
  generation_ = generation;
  ++stats_.rebuilds;
}

const bc::Insn& PredecodedCode::decode_slow(std::span<const uint16_t> code,
                                            size_t pc) {
  bc::PredecodedUnit& unit = units_[pc];
  if (unit.mapped) {
    ++stats_.guard_redecodes;  // un-announced in-place write caught
  } else {
    ++stats_.lazy_decodes;  // jump target the linear sweep did not map
  }
  bc::Insn decoded = bc::decode_at(code, pc);  // may throw; slot unchanged
  unit.memoize(code, pc, decoded, bc::consumed_units(decoded));
  sites_[pc] = InlineSite{};  // the decode changed; drop the dispatch cache
  return unit.insn;
}

void PredecodedCode::patch_unit(size_t index, uint64_t new_generation) {
  size_t first =
      index >= bc::PredecodedUnit::kMaxGuardUnits - 1
          ? index - (bc::PredecodedUnit::kMaxGuardUnits - 1)
          : 0;
  for (size_t pc = first; pc <= index && pc < units_.size(); ++pc) {
    units_[pc].mapped = false;
    sites_[pc] = InlineSite{};
  }
  generation_ = new_generation;
}

}  // namespace dexlego::rt

// Smali-style disassembler plus the batch predecoder. The disassembler is
// used by tests (semantic diffing of reassembled output), the examples (to
// show Code 2/Code 3-style listings like the paper's) and debugging. The
// predecoder is the decode-once half of the interpreter's cached dispatch
// path (src/runtime/predecode.h): one linear sweep maps every reachable
// instruction start to its decoded form, and each mapped slot keeps the
// source units the decode consumed so self-modifying writes are detected
// per slot instead of trusting the sweep forever.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "src/bytecode/insn.h"
#include "src/dex/dex.h"

namespace dexlego::bc {

// One predecoded slot, indexed by code-unit pc. `mapped` is true when a
// decode is memoized for this pc — either the linear sweep started an
// instruction here or the interpreter lazily decoded a hostile jump target
// (self-modified code may branch into the middle of a swept instruction).
// decode_at is a pure function of the units it consumes, so a memoized
// decode is exact as long as those units are unchanged; `src` holds the
// first `src_len` of them (kMaxGuardUnits bounds the guard: every field of
// Insn is derived from the first 5 units, payload target lists are re-read
// live by the switch instruction).
struct PredecodedUnit {
  static constexpr size_t kMaxGuardUnits = 5;

  Insn insn;
  std::array<uint16_t, kMaxGuardUnits> src{};
  uint8_t src_len = 0;
  bool mapped = false;

  // True when the live units under this slot still match the units the
  // memoized decode consumed (the per-slot self-modification guard).
  bool src_matches(std::span<const uint16_t> code, size_t pc) const {
    if (pc + src_len > code.size()) return false;
    for (size_t i = 0; i < src_len; ++i) {
      if (code[pc + i] != src[i]) return false;
    }
    return true;
  }

  // Memoizes `decoded` for the instruction at code[pc] (records the guard
  // units). `consumed` is the actual unit count the decode consumed, which
  // for switch payloads can exceed Insn::width's 8-bit range.
  void memoize(std::span<const uint16_t> code, size_t pc, const Insn& decoded,
               size_t consumed);
};

// Batch decode: one linear sweep from pc 0, memoizing every instruction
// start. Stops quietly at the first undecodable pc (garbage tails decode
// lazily — and fail identically — when execution actually reaches them).
// Returns one slot per code unit; slots inside multi-unit instructions or
// payloads stay unmapped.
std::vector<PredecodedUnit> predecode_linear(std::span<const uint16_t> code);

// One instruction; `file` may be null (pool indices shown raw).
std::string disassemble_insn(const dex::DexFile* file, const Insn& insn, size_t pc);

// Whole code item with pc prefixes and payload annotations.
std::string disassemble_code(const dex::DexFile& file, const dex::CodeItem& code);

// Every method of a class, ".method"-framed like smali.
std::string disassemble_class(const dex::DexFile& file, const dex::ClassDef& cls);

}  // namespace dexlego::bc

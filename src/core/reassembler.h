// The offline reassembling phase (paper Section IV-B) — the key contribution:
// converts collection trees back into a single valid DEX file.
//
//  * Each tree linearizes into one instruction array in IL (first-execution)
//    order. Branch/switch offsets are retargeted to the new layout; edges
//    whose target was never executed are routed to a synthetic landing pad
//    (executed-only code is exactly what removes dead-code false positives).
//  * Divergence branches (self-modifying layers) merge bottom-up into their
//    parents behind guards on static fields of the synthetic
//    Ldexlego/Modification; class, so static analysis sees both the pre- and
//    post-modification code as reachable (paper Code 4).
//  * Multiple unique trees of one method become method variants
//    name$v0..name$vK behind a guarded dispatcher.
//  * Reflective Method.invoke call sites recorded by the collector are
//    rewritten into direct invoke instructions (paper Section IV-D).
//  * Pool indices are re-interned from the symbolic refs, merging every
//    dynamically loaded image into the one output DEX.
//
// Every body — linearized tree, dispatcher or stub — is laid out by
// bc::MethodAssembler. Carried-over instructions, guards, synthetic gotos
// and the landing pad each bind a label, and every branch, guard, goto and
// switch target is one, so the assembler places the code and range-checks
// every offset: a target beyond rel16 reach throws std::logic_error
// ("branch offset out of rel16 range") instead of being truncated, as does
// a dispatcher that would pass more than four argument registers.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/collection.h"
#include "src/dex/dex.h"

namespace dexlego::core {

struct ReassembleOptions {
  bool replace_reflection = true;
  // Lines/tries are remapped onto the new layout when true.
  bool keep_debug_info = true;
};

struct ReassembleStats {
  size_t classes = 0;
  size_t methods = 0;
  size_t variants = 0;            // extra method variants emitted
  size_t guards = 0;              // divergence guards inserted
  size_t reflection_replaced = 0;
  size_t pad_edges = 0;           // never-executed edges routed to the pad
  size_t output_code_units = 0;
};

struct ReassembleResult {
  dex::DexFile file;
  ReassembleStats stats;
};

ReassembleResult reassemble(const CollectionOutput& input,
                            const ReassembleOptions& options = {});

// Descriptor of the instrument class holding divergence-guard fields.
inline constexpr const char* kModificationClass = "Ldexlego/Modification;";

}  // namespace dexlego::core

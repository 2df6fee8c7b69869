// IR optimization passes. Each pass mutates a Function in place and leaves
// it SSA-well-formed (verify_function clean); lowering honours the marks
// the pass leaves behind (Inst::dead, Function::drop_unreachable). The
// contract every pass must keep: the lowered body stays behaviourally
// equivalent to the source under both interpreter dispatch modes
// (ARCHITECTURE invariant 15), checked by the differential oracle.
#pragma once

#include "src/ir/ir.h"

namespace dexlego::ir {

struct DceStats {
  uint32_t insts_removed = 0;   // pure instructions whose value is unused
  uint32_t blocks_dropped = 0;  // unreachable raw blocks scheduled for drop
  uint32_t units_removed = 0;   // code units the removals free up
};

// Dead-code elimination. Removes pure instructions whose results are never
// observed and schedules unreachable blocks (plus orphaned switch
// payloads) for dropping at lowering time. Anything that can throw, touch
// the heap, transfer control or return is a root and always survives —
// division, array/field accesses and invokes keep their exception
// behaviour exactly.
DceStats dead_code_elim(Function& fn);

}  // namespace dexlego::ir

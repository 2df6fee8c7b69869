// Smali-style disassembler, used by tests (semantic diffing of reassembled
// output), the examples (to show Code 2/Code 3-style listings like the
// paper's) and debugging.
#pragma once

#include <string>

#include "src/bytecode/insn.h"
#include "src/dex/dex.h"

namespace dexlego::bc {

// One instruction; `file` may be null (pool indices shown raw).
std::string disassemble_insn(const dex::DexFile* file, const Insn& insn, size_t pc);

// Whole code item with pc prefixes and payload annotations.
std::string disassemble_code(const dex::DexFile& file, const dex::CodeItem& code);

// Every method of a class, ".method"-framed like smali.
std::string disassemble_class(const dex::DexFile& file, const dex::ClassDef& cls);

}  // namespace dexlego::bc

// Data model of DexLego's JIT collection — the paper's Fig. 2/Fig. 3
// structures. A method execution produces a *collection tree*: the root
// holds the baseline Instruction List (IL) in first-execution order with an
// Instruction Index Map (IIM) from dex_pc to IL position; every divergence
// caused by self-modifying code forks a child node bounded by
// sm_start/sm_end. Unique trees per method are kept and later merged into
// method variants by the reassembler.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/opcodes.h"
#include "src/dex/dex.h"

namespace dexlego::core {

// Symbolic form of a pool reference, resolved at collection time so the
// offline reassembling phase is independent of the original images.
//   kString: parts = {content}
//   kType:   parts = {descriptor}
//   kField:  parts = {class, type, name}
//   kMethod: parts = {class, name, return_type, param0, param1, ...}
struct SymRef {
  bc::RefKind kind = bc::RefKind::kNone;
  std::vector<std::string> parts;

  bool operator==(const SymRef&) const = default;
};

// Snapshot of a packed-switch payload taken when the switch instruction
// executes (payload units are data, never "executed", so the collector
// records them as instruction metadata; targets are absolute original pcs).
struct SwitchSnapshot {
  int32_t first_key = 0;
  std::vector<uint16_t> target_pcs;

  bool operator==(const SwitchSnapshot&) const = default;
};

// One recorded instruction: its original dex_pc, its raw code units at the
// moment of execution, and the symbolic target of its pool operand (if any).
struct ILEntry {
  uint16_t pc = 0;
  std::vector<uint16_t> units;
  std::optional<SymRef> ref;
  std::optional<SwitchSnapshot> switch_payload;

  bool same_instruction(const ILEntry& other) const {
    return pc == other.pc && units == other.units && ref == other.ref;
  }
};

// TreeNode per Fig. 3: IL + IIM + divergence bounds + children.
struct TreeNode {
  std::vector<ILEntry> il;
  std::map<uint16_t, size_t> iim;  // dex_pc -> index in il
  uint16_t sm_start = 0;           // divergence start (children only)
  std::optional<uint16_t> sm_end;  // convergence pc; empty if never converged
  TreeNode* parent = nullptr;
  std::vector<std::unique_ptr<TreeNode>> children;

  uint64_t fingerprint() const;  // structural hash for tree dedup
};

// Identity of a method across runtimes and runs.
struct MethodKey {
  std::string class_descriptor;
  std::string name;
  std::string shorty;

  auto operator<=>(const MethodKey&) const = default;
  std::string pretty() const { return class_descriptor + "->" + name + shorty; }
};

// Everything collected about one method: frame metadata, the set of unique
// collection trees, the original exception table / line table (with original
// pcs; the reassembler remaps them) and reflection replacements keyed by the
// call-site dex_pc.
struct MethodRecord {
  MethodKey key;
  uint32_t access_flags = 0;
  uint16_t registers_size = 0;
  uint16_t ins_size = 0;
  std::string return_type;               // descriptor
  std::vector<std::string> param_types;  // descriptors
  bool is_native = false;
  std::vector<std::unique_ptr<TreeNode>> trees;  // unique per fingerprint
  // trees[i]->fingerprint(), stored by the Collector when it keeps a tree
  // and carried through merge_collection, so no fold re-hashes a kept tree.
  // Empty on a record decode_collection built (it does not hash); the next
  // merge_collection into or from the record fills it.
  std::vector<uint64_t> tree_fingerprints;
  std::vector<dex::TryItem> tries;   // original-pc ranges
  std::vector<dex::LineEntry> lines; // original-pc line table
  // dex_pc of a reflective Method.invoke call -> resolved direct target.
  std::map<uint16_t, SymRef> reflection_targets;
  uint64_t executions = 0;
  uint64_t dropped_trees = 0;  // unique trees beyond the variant cap
};

// Static value snapshot taken when the class linker initializes the class
// (paper IV-C: name, type and initial value of each static field).
struct CollectedValue {
  enum class Kind : uint8_t { kInt, kString, kNull } kind = Kind::kNull;
  int64_t i = 0;
  std::string s;
};

struct CollectedField {
  std::string name;
  std::string type_descriptor;
  uint32_t access_flags = 0;
  CollectedValue static_value;  // statics only
};

struct CollectedClass {
  std::string descriptor;
  std::string super_descriptor;
  uint32_t access_flags = 0;
  std::vector<CollectedField> static_fields;
  std::vector<CollectedField> instance_fields;
};

// The full collection output, in-memory form of the five collection files.
struct CollectionOutput {
  std::vector<CollectedClass> classes;                // class + field + static data
  std::map<MethodKey, MethodRecord> methods;          // method data + bytecode
  uint64_t total_instructions_observed = 0;           // raw per-step counter
  uint64_t divergences_detected = 0;                  // child nodes created
  uint64_t reflection_sites = 0;

  const MethodRecord* find_method(const MethodKey& key) const {
    auto it = methods.find(key);
    return it == methods.end() ? nullptr : &it->second;
  }
};

// Merges `from` into `into` with the Collector's own dedup semantics:
// classes union by descriptor (first arrival wins, order preserved), method
// records accumulate unique trees by fingerprint under the `max_variants`
// cap, reflection targets keep the first recorded target per call site.
// Fingerprints come from MethodRecord::tree_fingerprints, so a fold hashes
// only trees that arrive without one.
// Deterministic — merging the same outputs in the same order always yields
// the same result, which is how the batch pipeline makes per-plan-unit
// collection sharding byte-identical to a sequential run.
void merge_collection(CollectionOutput& into, CollectionOutput&& from,
                      size_t max_variants);

}  // namespace dexlego::core

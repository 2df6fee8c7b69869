// Capability presets for the static taint engine. One engine, three
// configurations — each knob encodes a *published* capability difference
// between FlowDroid, DroidSafe and HornDroid that the paper's evaluation
// depends on (Table II/III/IV and Fig. 5):
//
//   icc                   — inter-component taint through Intent extras
//                           (FlowDroid without IccTA misses these).
//   implicit_flows        — control-dependence tainting (HornDroid only).
//   value_sensitive       — constant propagation: prunes provably dead
//                           branches and resolves reflection strings built
//                           at runtime via concat/xor (HornDroid's
//                           value-sensitive analysis).
//   handler_edges         — callback edges through Handler.post runnables
//                           (EdgeMiner-style; DroidSafe's model lacks them).
//   orphan_callbacks      — analyze callback methods of classes never
//                           instantiated (FlowDroid's lifecycle
//                           over-approximation; sources false positives).
//   field_collision_heap  — heap keyed by field *name* only (DroidSafe's
//                           object-insensitive model; alias FPs).
//   flow_sensitive_fields — strong updates on field stores (DroidSafe is
//                           flow-insensitive; overwrite FPs).
//   max_summary_depth     — call-chain depth cut-off for summary
//                           propagation (DroidSafe's scalability cut).
#pragma once

#include <string>

namespace dexlego::analysis {

struct ToolConfig {
  std::string name;
  bool icc = false;
  bool implicit_flows = false;
  bool value_sensitive = false;
  bool handler_edges = true;
  bool orphan_callbacks = false;
  bool field_collision_heap = false;
  bool flow_sensitive_fields = true;
  int max_summary_depth = 64;  // effectively unbounded
  int max_rounds = 30;         // global fixpoint bound
};

inline ToolConfig flowdroid_config() {
  ToolConfig cfg;
  cfg.name = "FlowDroid";
  cfg.orphan_callbacks = true;
  return cfg;
}

inline ToolConfig droidsafe_config() {
  ToolConfig cfg;
  cfg.name = "DroidSafe";
  cfg.icc = true;
  cfg.handler_edges = false;
  cfg.field_collision_heap = true;
  cfg.flow_sensitive_fields = false;
  cfg.max_summary_depth = 5;
  return cfg;
}

inline ToolConfig horndroid_config() {
  ToolConfig cfg;
  cfg.name = "HornDroid";
  cfg.icc = true;
  cfg.implicit_flows = true;
  cfg.value_sensitive = true;
  return cfg;
}

}  // namespace dexlego::analysis

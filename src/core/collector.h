// The JIT collection hook — DexLego's online half. Implements Algorithm 1
// (comparison-based instruction collection with divergence/convergence
// detection) on the interpreter's per-instruction callback, plus the class/
// field/static-value collection on the class-linker callbacks and the
// reflection-target recording on the reflective-invoke callback.
//
// A Collector outlives individual Runtime instances: force execution and
// fuzzing run the app many times, and trees accumulate per MethodKey across
// runs (unique trees only, capped by `max_variants`). Each finished tree is
// hashed once and checked against the fingerprints its MethodRecord keeps
// beside its trees, the in-collector half of the dedup that
// pipeline::DedupStore extends across apps and worker threads.
//
// A Collector may also be given the collection its caller already holds (a
// force job's fold so far), and then collects only what merging into it
// reads:
// - An activation of a method whose known record has childless trees walks
//   them in lockstep. While every instruction it would append equals the
//   next IL entry of at least one of them, it builds and hashes nothing. It
//   compares the live code units with the entry's first; equal units decode
//   as the entry's did, so it decodes only to compare an entry's SymRef or
//   switch snapshot. A pc it already matched returns early as Algorithm 1
//   would, found in a pc-indexed table of the matched prefix. At the first
//   instruction that matches none, it copies the matched prefix into its
//   own tree and goes on with Algorithm 1. A walk that reaches the exit
//   having retraced a known tree in full counts against the record's dedup
//   set and variant cap as though kept, but is left out of the output,
//   where merge_collection would have skipped it.
// - The record of a method the collection holds is light: its key, counters,
//   trees and reflection targets, the fields merge_collection reads of a
//   record it already has. It copies no frame metadata: no exception table,
//   line table or proto.
// - A class the collection holds is not snapshotted: merge_collection keeps
//   the first arrival of a class.
// The output merges into the known collection exactly as a plain
// collection's would.
//
// Trees nest at most kMaxTreeDepth levels (src/core/files.h), the depth
// decode_collection accepts. A divergence that would open one level more
// ends instruction collection for good, and take_output() throws
// tree_too_deep(): an app whose self-modification never converges fails
// its own reveal instead of growing a tree whose recursive walks exhaust
// the stack.
#pragma once

#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/collection.h"
#include "src/runtime/hooks.h"

namespace dexlego::core {

class Collector : public rt::RuntimeHooks {
 public:
  struct Options {
    size_t max_variants = 8;  // unique trees kept per method
  };

  Collector() : options_(Options{}) {}
  // `known`, when given, is the collection the output will be merged into:
  // Collector outputs folded by merge_collection, such as a force job's
  // merged collection. Its childless method trees are walked instead of
  // rebuilt, and its methods and classes are not collected again (see
  // above), so the output is complete only as merged into `known`. It must
  // outlive the Collector and stay unchanged while the Collector collects.
  // Without it the Collector runs Algorithm 1 alone.
  explicit Collector(const Options& options,
                     const CollectionOutput* known = nullptr);

  // --- RuntimeHooks ---
  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kDexLoaded) |
           rt::hook_mask(rt::HookEvent::kClassLoaded) |
           rt::hook_mask(rt::HookEvent::kClassInitialized) |
           rt::hook_mask(rt::HookEvent::kMethodEntry) |
           rt::hook_mask(rt::HookEvent::kMethodExit) |
           rt::hook_mask(rt::HookEvent::kInstruction) |
           rt::hook_mask(rt::HookEvent::kReflectiveInvoke);
  }
  // Structure is captured at *load* so classes reached only reflectively
  // (Class.forName without a subsequent call) survive into the revealed
  // file; static values are re-snapshotted at *initialization* so they
  // reflect the post-<clinit> state. Split found by the structural fuzzer:
  // a mutant that died between forName and the first call produced a
  // revealed app missing the loaded class (replay file
  // tests/data/fuzz/structural-loaded-class-fixed.lfz).
  void on_dex_loaded(const rt::DexImage& image) override;
  void on_class_loaded(rt::RtClass& cls) override;
  void on_class_initialized(rt::RtClass& cls) override;
  void on_method_entry(rt::RtMethod& method) override;
  void on_method_exit(rt::RtMethod& method) override;
  void on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                      std::span<const uint16_t> code) override;
  void on_reflective_invoke(rt::RtMethod& caller, uint32_t dex_pc,
                            rt::RtMethod& target) override;

  // Finalizes any dangling activations and returns the collection output.
  // Throws tree_too_deep() once a tree would have passed kMaxTreeDepth.
  CollectionOutput take_output();
  const CollectionOutput& output() const { return output_; }

 private:
  struct Activation {
    MethodRecord* record = nullptr;  // this method's record in output_
    // The method entered, which on_instruction's early return requires.
    // Null once an instruction of another method with the same name was
    // recorded into this tree (a mismatched frame), or once a new runtime
    // started while the activation was still on the stack: that runtime
    // may reuse the address.
    const rt::RtMethod* method = nullptr;
    std::unique_ptr<TreeNode> root;  // null while walking
    TreeNode* current = nullptr;
    size_t depth = 1;  // level of `current`, the root's being 1
    bool bytecode = false;  // native/abstract activations collect nothing
    // `known_`'s record of this method, if any. The lockstep walk: in
    // walk_[walk_begin, walk_end) the indices of its childless trees whose
    // first `matched` IL entries are the tree this activation has executed
    // so far. Walking while the range is non-empty. prefix_at_[prefix_begin
    // + pc] is the index of the matched entry at pc, if one is.
    const MethodRecord* known = nullptr;
    size_t walk_begin = 0;
    size_t walk_end = 0;
    size_t matched = 0;
    size_t prefix_begin = 0;
  };
  // class_index_'s mark for a class `known_` holds.
  static constexpr size_t kKnownClass = static_cast<size_t>(-1);

  MethodRecord& record_for(rt::RtMethod& method, const MethodRecord*& known);
  size_t class_slot(rt::RtClass& cls);
  bool walk_step(Activation& act, const rt::RtMethod& method,
                 std::span<const uint16_t> code, uint32_t dex_pc);
  void depart(Activation& act);
  void finish_activation(Activation& act);
  void pop_activation();
  void keep_unique(const Activation& act, uint64_t fp,
                   std::unique_ptr<TreeNode> tree);
  static MethodKey key_of(const rt::RtMethod& method);

  Options options_;
  const CollectionOutput* known_ = nullptr;
  std::vector<std::string_view> known_classes_;  // `known_`'s, sorted
  CollectionOutput output_;
  std::vector<Activation> stack_;
  bool too_deep_ = false;  // a tree would have passed kMaxTreeDepth
  // descriptor -> index into output_.classes, for the init-time re-snapshot;
  // kKnownClass for a class `known_` holds.
  std::map<std::string, size_t> class_index_;
  // The walking activations' candidates and prefix tables, one slice per
  // activation in stack order: an activation's slices sit above its
  // callers', the top one's ends the buffer, and popping it drops them, so
  // the buffers are reused with no allocation per activation. Only the top
  // activation walks, so only its slices change. A prefix slot no step of
  // the activation wrote holds any index; walk_step checks a slot against
  // the entry it names.
  std::vector<uint32_t> walk_;
  std::vector<uint32_t> prefix_at_;
  // The full retraces counted as kept: (record, known tree fingerprint).
  std::vector<std::pair<const MethodRecord*, uint64_t>> retraced_;
};

}  // namespace dexlego::core

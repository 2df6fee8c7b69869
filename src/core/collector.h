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
// A Collector may also be given the trees its caller already holds (a force
// job's fold so far). An activation of a method whose known record has
// childless trees then walks them in lockstep: while every instruction it
// would append equals the next IL entry of at least one of them, it builds
// and hashes nothing. At the first instruction that matches none, it copies
// the matched prefix into its own tree and goes on with Algorithm 1. A walk
// that reaches the exit having retraced a known tree in full counts against
// the record's dedup set and variant cap as though kept, but is left out of
// the output, where merge_collection would have skipped it. The output
// merges into the known trees exactly as a plain collection's would.
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
#include <vector>

#include "src/core/collection.h"
#include "src/runtime/hooks.h"

namespace dexlego::bc {
struct Insn;
}  // namespace dexlego::bc

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
  // rebuilt (see above). It must outlive the Collector and stay unchanged
  // while the Collector collects. Without it the Collector runs Algorithm 1
  // alone.
  explicit Collector(const Options& options,
                     const CollectionOutput* known = nullptr)
      : options_(options), known_(known) {}

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
    MethodKey key;
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
    // The lockstep walk: `known_`'s record of this method, and the indices
    // of its childless trees whose first `matched` IL entries are the tree
    // this activation has executed so far. Walking while `walk` is
    // non-empty.
    const MethodRecord* known = nullptr;
    std::vector<size_t> walk;
    size_t matched = 0;
  };

  MethodRecord& record_for(rt::RtMethod& method);
  bool walk_step(Activation& act, const rt::RtMethod& method,
                 const bc::Insn& insn, std::span<const uint16_t> code,
                 uint32_t dex_pc, std::span<const uint16_t> units);
  void depart(Activation& act);
  void finish_activation(Activation& act);
  void keep_unique(const Activation& act, uint64_t fp,
                   std::unique_ptr<TreeNode> tree);
  static MethodKey key_of(const rt::RtMethod& method);

  Options options_;
  const CollectionOutput* known_ = nullptr;
  CollectionOutput output_;
  std::vector<Activation> stack_;
  bool too_deep_ = false;  // a tree would have passed kMaxTreeDepth
  // descriptor -> index into output_.classes, for the init-time re-snapshot.
  std::map<std::string, size_t> class_index_;
  // Fingerprints of the full retraces counted as kept, per known record.
  std::map<const MethodRecord*, std::vector<uint64_t>> retraced_;
};

}  // namespace dexlego::core

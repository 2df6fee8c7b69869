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
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/core/collection.h"
#include "src/runtime/hooks.h"

namespace dexlego::core {

class Collector : public rt::RuntimeHooks {
 public:
  struct Options {
    size_t max_variants = 8;  // unique trees kept per method
    bool collect_reflection = true;
  };

  Collector() : options_(Options{}) {}
  explicit Collector(const Options& options) : options_(options) {}

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
    std::unique_ptr<TreeNode> root;
    TreeNode* current = nullptr;
    bool bytecode = false;  // native/abstract activations collect nothing
  };

  MethodRecord& record_for(rt::RtMethod& method);
  void finish_activation(Activation& act);
  static MethodKey key_of(const rt::RtMethod& method);

  Options options_;
  CollectionOutput output_;
  std::vector<Activation> stack_;
  // descriptor -> index into output_.classes, for the init-time re-snapshot.
  std::map<std::string, size_t> class_index_;
};

}  // namespace dexlego::core

// Composable hook chain — the runtime's observation bus. Members register
// with their capability mask (RuntimeHooks::subscribed_events) and the
// chain maintains one flat, pre-filtered callback list per HookEvent.
// Dispatch sites (interpreter, class linker, reflection builtin) iterate
// exactly the hooks subscribed to that event, so a collector that never
// looks at branches costs the branch path nothing and an empty list is a
// two-word load + compare. Within one event list, registration order is
// dispatch order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/runtime/hooks.h"

namespace dexlego::rt {

class HookChain {
 public:
  // Registers `hooks` on every event list selected by its
  // subscribed_events() mask. Re-adding a member re-registers it at the end
  // of the order (remove + add).
  void add(RuntimeHooks* hooks);
  void remove(RuntimeHooks* hooks);

  // The pre-filtered callback list for one event, registration-ordered.
  std::span<RuntimeHooks* const> list(HookEvent e) const {
    return lists_[hook_event_index(e)];
  }
  bool empty(HookEvent e) const { return lists_[hook_event_index(e)].empty(); }

  // --- flat dispatch helpers (notification events) ---
  void dispatch_dex_loaded(const DexImage& image) const {
    for (RuntimeHooks* h : list(HookEvent::kDexLoaded)) h->on_dex_loaded(image);
  }
  void dispatch_class_loaded(RtClass& cls) const {
    for (RuntimeHooks* h : list(HookEvent::kClassLoaded)) h->on_class_loaded(cls);
  }
  void dispatch_class_initialized(RtClass& cls) const {
    for (RuntimeHooks* h : list(HookEvent::kClassInitialized)) {
      h->on_class_initialized(cls);
    }
  }
  void dispatch_method_entry(RtMethod& method) const {
    for (RuntimeHooks* h : list(HookEvent::kMethodEntry)) h->on_method_entry(method);
  }
  void dispatch_method_exit(RtMethod& method) const {
    for (RuntimeHooks* h : list(HookEvent::kMethodExit)) h->on_method_exit(method);
  }
  void dispatch_instruction(RtMethod& method, uint32_t dex_pc,
                            std::span<const uint16_t> code) const {
    for (RuntimeHooks* h : list(HookEvent::kInstruction)) {
      h->on_instruction(method, dex_pc, code);
    }
  }
  void dispatch_branch(RtMethod& method, uint32_t dex_pc, bool taken) const {
    for (RuntimeHooks* h : list(HookEvent::kBranch)) {
      h->on_branch(method, dex_pc, taken);
    }
  }
  void dispatch_reflective_invoke(RtMethod& caller, uint32_t dex_pc,
                                  RtMethod& target) const {
    for (RuntimeHooks* h : list(HookEvent::kReflectiveInvoke)) {
      h->on_reflective_invoke(caller, dex_pc, target);
    }
  }

  // --- interposition events. force_branch asks every subscriber and the
  // last one that answers owns the outcome; tolerate_exception stops at the
  // first subscriber that answers (the exception is already cleared) ---
  bool dispatch_force_branch(RtMethod& method, uint32_t dex_pc,
                             bool* outcome) const {
    bool forced = false;
    for (RuntimeHooks* h : list(HookEvent::kForceBranch)) {
      forced |= h->force_branch(method, dex_pc, outcome);
    }
    return forced;
  }
  bool dispatch_tolerate_exception(RtMethod& method, uint32_t dex_pc) const {
    for (RuntimeHooks* h : list(HookEvent::kTolerateException)) {
      if (h->tolerate_exception(method, dex_pc)) return true;
    }
    return false;
  }

 private:
  std::array<std::vector<RuntimeHooks*>, kHookEventCount> lists_;
};

}  // namespace dexlego::rt

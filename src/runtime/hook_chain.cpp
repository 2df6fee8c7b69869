#include "src/runtime/hook_chain.h"

#include <algorithm>

namespace dexlego::rt {

void HookChain::add(RuntimeHooks* hooks) {
  if (hooks == nullptr) return;
  remove(hooks);
  const uint32_t event_mask = hooks->subscribed_events();
  for (size_t i = 0; i < kHookEventCount; ++i) {
    if ((event_mask & (1u << i)) != 0) lists_[i].push_back(hooks);
  }
}

void HookChain::remove(RuntimeHooks* hooks) {
  for (auto& list : lists_) {
    list.erase(std::remove(list.begin(), list.end(), hooks), list.end());
  }
}

}  // namespace dexlego::rt

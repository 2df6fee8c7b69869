// HookChain contract: capability-flag registration builds flat per-event
// callback lists, registration order is dispatch order, unsubscribing drops
// a member from every list, and events with no subscriber are a constant-
// time no-op (the interpreter's fast path). Also pins the interposition
// semantics: the last force_branch subscriber that answers wins, and the
// first tolerate_exception subscriber that answers stops the sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runtime/hook_chain.h"

namespace dexlego::rt {
namespace {

// Records every delivered event into a shared journal.
class JournalHooks : public RuntimeHooks {
 public:
  JournalHooks(std::string name, std::vector<std::string>& journal,
               uint32_t events = kAllHookEvents)
      : name_(std::move(name)), journal_(journal), events_(events) {}

  uint32_t subscribed_events() const override { return events_; }

  void on_instruction(RtMethod&, uint32_t dex_pc,
                      std::span<const uint16_t>) override {
    journal_.push_back(name_ + ":insn@" + std::to_string(dex_pc));
  }
  void on_branch(RtMethod&, uint32_t dex_pc, bool taken) override {
    journal_.push_back(name_ + ":branch@" + std::to_string(dex_pc) +
                       (taken ? ":T" : ":F"));
  }
  void on_method_entry(RtMethod&) override {
    journal_.push_back(name_ + ":entry");
  }

 private:
  std::string name_;
  std::vector<std::string>& journal_;
  uint32_t events_;
};

class Forcer : public RuntimeHooks {
 public:
  Forcer(bool answer, bool outcome) : answer_(answer), outcome_(outcome) {}
  uint32_t subscribed_events() const override {
    return hook_mask(HookEvent::kForceBranch) |
           hook_mask(HookEvent::kTolerateException);
  }
  bool force_branch(RtMethod&, uint32_t, bool* outcome) override {
    ++asked_;
    if (!answer_) return false;
    *outcome = outcome_;
    return true;
  }
  bool tolerate_exception(RtMethod&, uint32_t) override {
    ++tolerate_asked_;
    return answer_;
  }
  int asked() const { return asked_; }
  int tolerate_asked() const { return tolerate_asked_; }

 private:
  bool answer_;
  bool outcome_;
  int asked_ = 0;
  int tolerate_asked_ = 0;
};

TEST(HookChain, RegistrationOrderIsDispatchOrder) {
  std::vector<std::string> journal;
  JournalHooks a("a", journal), b("b", journal), c("c", journal);
  HookChain chain;
  chain.add(&a);
  chain.add(&b);
  chain.add(&c);

  RtMethod method;
  chain.dispatch_instruction(method, 7, {});
  ASSERT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal[0], "a:insn@7");
  EXPECT_EQ(journal[1], "b:insn@7");
  EXPECT_EQ(journal[2], "c:insn@7");

  // Re-adding an existing member moves it to the end of the order.
  journal.clear();
  chain.add(&a);
  chain.dispatch_instruction(method, 9, {});
  ASSERT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal[0], "b:insn@9");
  EXPECT_EQ(journal[2], "a:insn@9");
}

TEST(HookChain, CapabilityMaskFiltersDelivery) {
  std::vector<std::string> journal;
  // Subscribes to branches only: its on_instruction override must never run.
  JournalHooks branch_only("b", journal, hook_mask(HookEvent::kBranch));
  HookChain chain;
  chain.add(&branch_only);

  RtMethod method;
  chain.dispatch_instruction(method, 1, {});
  EXPECT_TRUE(journal.empty());
  chain.dispatch_branch(method, 2, true);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0], "b:branch@2:T");

  EXPECT_EQ(chain.list(HookEvent::kBranch).size(), 1u);
  EXPECT_TRUE(chain.empty(HookEvent::kInstruction));
  EXPECT_TRUE(chain.empty(HookEvent::kMethodEntry));
}

TEST(HookChain, RemoveUnsubscribesEverywhere) {
  std::vector<std::string> journal;
  JournalHooks a("a", journal), b("b", journal);
  HookChain chain;
  chain.add(&a);
  chain.add(&b);
  chain.remove(&a);

  for (uint32_t i = 0; i < kHookEventCount; ++i) {
    EXPECT_FALSE(chain.empty(static_cast<HookEvent>(1u << i)));  // b stays
  }
  RtMethod method;
  chain.dispatch_instruction(method, 3, {});
  chain.dispatch_branch(method, 3, true);
  chain.dispatch_method_entry(method);
  for (const std::string& entry : journal) {
    EXPECT_EQ(entry.substr(0, 2), "b:") << entry;
  }
  chain.remove(&b);
  for (uint32_t i = 0; i < kHookEventCount; ++i) {
    EXPECT_TRUE(chain.empty(static_cast<HookEvent>(1u << i)));
  }
}

TEST(HookChain, NoSubscriberFastPath) {
  HookChain chain;
  RtMethod method;
  // Every dispatch on an empty chain is a no-op (and must not crash).
  chain.dispatch_instruction(method, 0, {});
  chain.dispatch_branch(method, 0, true);
  bool outcome = true;
  EXPECT_FALSE(chain.dispatch_force_branch(method, 0, &outcome));
  EXPECT_TRUE(outcome);  // untouched
  EXPECT_FALSE(chain.dispatch_tolerate_exception(method, 0));

  // A member that subscribes to nothing leaves every event list empty.
  std::vector<std::string> journal;
  JournalHooks hooks("h", journal, /*events=*/0);
  chain.add(&hooks);
  for (uint32_t i = 0; i < kHookEventCount; ++i) {
    EXPECT_TRUE(chain.empty(static_cast<HookEvent>(1u << i)));
  }
}

TEST(HookChain, LastForcerWinsFirstToleratorStops) {
  Forcer quiet(false, false), takes(true, true), skips(true, false);
  HookChain chain;
  chain.add(&quiet);
  chain.add(&takes);
  chain.add(&skips);

  RtMethod method;
  bool outcome = false;
  EXPECT_TRUE(chain.dispatch_force_branch(method, 5, &outcome));
  // Every subscriber is asked; the last answering hook's outcome stands.
  EXPECT_FALSE(outcome);
  EXPECT_EQ(quiet.asked(), 1);
  EXPECT_EQ(takes.asked(), 1);
  EXPECT_EQ(skips.asked(), 1);

  // tolerate_exception short-circuits at the first subscriber that answers.
  EXPECT_TRUE(chain.dispatch_tolerate_exception(method, 5));
  EXPECT_EQ(quiet.tolerate_asked(), 1);
  EXPECT_EQ(takes.tolerate_asked(), 1);
  EXPECT_EQ(skips.tolerate_asked(), 0);
}

}  // namespace
}  // namespace dexlego::rt

// Sapienz-analog UI fuzzer: evolves event sequences (text inputs + click
// orders + lifecycle cycles) against a coverage fitness function. It drives
// the coverage experiment of Tables VI and VII
// (bench/table6_7_coverage.cpp): its runs, with the DexLego collector
// attached, give the dump sizes and the Sapienz coverage baseline, and its
// best sequence seeds force execution. DroidBench reveals do not use it:
// they run rt::run_default_script.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/coverage/tracker.h"
#include "src/dex/archive.h"
#include "src/runtime/runtime.h"
#include "src/support/rng.h"

namespace dexlego::coverage {

// The most click passes one entry of EventSequence::click_rounds asks for.
inline constexpr int kMaxClicks = 8;
// Interpreter step budget of every run execute_sequence makes, fuzzing or
// forced.
inline constexpr uint64_t kStepsPerRun = 5'000'000;

struct FuzzOptions {
  int generations = 4;
  int population = 6;
  uint64_t seed = 0x5a11e42;
  std::function<void(rt::Runtime&)> configure_runtime;
  // Extra hooks attached to every run (e.g. a DexLego collector).
  std::vector<rt::RuntimeHooks*> extra_hooks;
};

// One individual: the inputs and the event schedule of a run.
struct EventSequence {
  std::map<int, std::string> text_inputs;  // view id -> text
  std::vector<int> click_rounds;           // how many click passes
  int lifecycle_cycles = 1;                // onPause/onResume repetitions

  static EventSequence random(support::Rng& rng);
  EventSequence mutate(support::Rng& rng) const;
  static EventSequence crossover(const EventSequence& a, const EventSequence& b,
                                 support::Rng& rng);
};

struct FuzzResult {
  CoverageTracker coverage;  // accumulated over every executed individual
  size_t runs = 0;
  EventSequence best;
  double best_fitness = 0.0;
};

// Executes one event sequence against a fresh runtime.
void execute_sequence(const dex::Apk& apk, const EventSequence& seq,
                      const FuzzOptions& options, CoverageTracker& tracker);

FuzzResult fuzz_app(const dex::Apk& apk, const FuzzOptions& options);

}  // namespace dexlego::coverage

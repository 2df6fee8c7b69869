#include "src/coverage/fuzzer.h"

#include <algorithm>

#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"

namespace dexlego::coverage {

namespace {
// Input dictionary without app-specific magic values — random fuzzing rarely
// satisfies semantic guards, which is what Table VII measures.
const char* kDictionary[] = {"", "", "a", "test", "1234", "hello world",
                             "x", "", "0", "fuzz"};

std::string random_text(support::Rng& rng) {
  return kDictionary[rng.below(std::size(kDictionary))];
}
}  // namespace

EventSequence EventSequence::random(support::Rng& rng) {
  EventSequence seq;
  int inputs = static_cast<int>(rng.below(6));
  for (int i = 0; i < inputs; ++i) {
    seq.text_inputs[static_cast<int>(rng.below(24))] = random_text(rng);
  }
  seq.click_rounds.assign(1 + rng.below(2), 0);
  for (int& r : seq.click_rounds) r = static_cast<int>(rng.below(kMaxClicks)) + 1;
  seq.lifecycle_cycles = static_cast<int>(rng.below(3)) + 1;
  return seq;
}

EventSequence EventSequence::mutate(support::Rng& rng) const {
  EventSequence out = *this;
  switch (rng.below(3)) {
    case 0:
      out.text_inputs[static_cast<int>(rng.below(24))] = random_text(rng);
      break;
    case 1:
      if (!out.click_rounds.empty()) {
        out.click_rounds[rng.below(out.click_rounds.size())] =
            static_cast<int>(rng.below(kMaxClicks)) + 1;
      }
      break;
    default:
      out.lifecycle_cycles = static_cast<int>(rng.below(3)) + 1;
      break;
  }
  return out;
}

EventSequence EventSequence::crossover(const EventSequence& a,
                                       const EventSequence& b,
                                       support::Rng& rng) {
  EventSequence out = rng.chance(0.5) ? a : b;
  const EventSequence& other = rng.chance(0.5) ? a : b;
  for (const auto& [id, text] : other.text_inputs) {
    if (rng.chance(0.5)) out.text_inputs[id] = text;
  }
  return out;
}

void execute_sequence(const dex::Apk& apk, const EventSequence& seq,
                      const FuzzOptions& options, CoverageTracker& tracker) {
  rt::RuntimeConfig cfg;
  cfg.step_limit = kStepsPerRun;
  rt::Runtime runtime(cfg);
  if (options.configure_runtime) options.configure_runtime(runtime);
  runtime.add_hooks(&tracker);
  for (rt::RuntimeHooks* hooks : options.extra_hooks) runtime.add_hooks(hooks);
  runtime.install(apk);
  for (const auto& [id, text] : seq.text_inputs) runtime.set_text_input(id, text);
  runtime.launch();
  for (int rounds : seq.click_rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int id : runtime.ui_clickable_ids()) {
        runtime.fire_click(id);
        if (runtime.interp().aborted()) return;
      }
    }
  }
  for (int i = 0; i < seq.lifecycle_cycles; ++i) {
    runtime.call_activity_method("onPause");
    runtime.call_activity_method("onResume");
  }
  runtime.call_activity_method("onPause");
  runtime.call_activity_method("onDestroy");
}

FuzzResult fuzz_app(const dex::Apk& apk, const FuzzOptions& options) {
  support::Rng rng(options.seed);
  dex::DexFile app = dex::load_classes(apk);
  FuzzResult result;

  std::vector<EventSequence> population;
  for (int i = 0; i < options.population; ++i) {
    population.push_back(EventSequence::random(rng));
  }

  for (int gen = 0; gen < options.generations; ++gen) {
    std::vector<std::pair<double, EventSequence>> scored;
    for (const EventSequence& seq : population) {
      CoverageTracker run_tracker;
      execute_sequence(apk, seq, options, run_tracker);
      ++result.runs;
      double fitness = run_tracker.report(app).instruction_pct();
      scored.emplace_back(fitness, seq);
      result.coverage.merge(run_tracker);
      if (fitness > result.best_fitness) {
        result.best_fitness = fitness;
        result.best = seq;
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    // Elitism + mutation + crossover (multi-objective Sapienz reduced to the
    // coverage objective; sequence length stays bounded by construction).
    population.clear();
    size_t elite = std::max<size_t>(1, scored.size() / 3);
    for (size_t i = 0; i < elite; ++i) population.push_back(scored[i].second);
    while (population.size() < static_cast<size_t>(options.population)) {
      if (rng.chance(0.4) && scored.size() >= 2) {
        population.push_back(EventSequence::crossover(
            scored[rng.below(elite)].second, scored[rng.below(scored.size())].second,
            rng));
      } else {
        population.push_back(scored[rng.below(elite)].second.mutate(rng));
      }
    }
  }
  return result;
}

}  // namespace dexlego::coverage

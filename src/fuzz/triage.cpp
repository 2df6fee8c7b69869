#include "src/fuzz/triage.h"

#include <new>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/bytecode/verify_code.h"
#include "src/core/semantic_check.h"
#include "src/dex/real/real_dex.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/parallel.h"
#include "src/support/timer.h"

namespace dexlego::fuzz {

namespace {

// Exception rendered with its dynamic type so a bad_alloc and an
// out_of_range with the same message fingerprint differently. The type is
// mapped to a fixed label — typeid names are implementation-defined mangled
// strings, which would make crash fingerprints toolchain-locked.
std::string render_exception(const std::exception& e) {
  const char* kind = "std::exception";
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    kind = "std::bad_alloc";
  } else if (dynamic_cast<const std::out_of_range*>(&e) != nullptr) {
    kind = "std::out_of_range";
  } else if (dynamic_cast<const std::length_error*>(&e) != nullptr) {
    kind = "std::length_error";
  } else if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    kind = "std::invalid_argument";
  } else if (dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    kind = "std::logic_error";
  } else if (dynamic_cast<const std::runtime_error*>(&e) != nullptr) {
    kind = "std::runtime_error";
  }
  return std::string(kind) + ": " + e.what();
}

std::string first_line(const std::string& text) {
  size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

uint64_t detail_fingerprint(Outcome outcome, const std::string& detail) {
  support::Fnv1a h;
  h.add(static_cast<uint64_t>(outcome));
  h.add_bytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(detail.data()), detail.size()));
  uint64_t digest = h.digest();
  return digest == 0 ? 1 : digest;  // 0 is reserved for "no finding"
}

}  // namespace

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kEquivalent: return "equivalent";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDivergent: return "divergent";
    case Outcome::kCrash: return "crash";
  }
  return "unknown";
}

OracleReport run_oracle(const Mutant& mutant, const OracleOptions& options) {
  OracleReport report;
  auto finish = [&report](Outcome outcome, std::string detail) {
    report.outcome = outcome;
    report.detail = std::move(detail);
    if (outcome == Outcome::kDivergent || outcome == Outcome::kCrash) {
      report.fingerprint = detail_fingerprint(outcome, report.detail);
    }
    return std::move(report);
  };
  auto reject = [&](std::string detail) {
    // A clean rejection only passes for mutants allowed to be invalid; the
    // verifier-prefiltered families must never produce one.
    return mutant.rejection_ok
               ? finish(Outcome::kRejected, std::move(detail))
               : finish(Outcome::kDivergent,
                        "unexpected rejection: " + std::move(detail));
  };
  // Every trace and reveal runs on a fresh runtime with the mutant's natives
  // and the oracle's step budget.
  auto trace = [&](const dex::Apk& apk) {
    return rt::trace_app(apk, mutant.configure_runtime, options.step_limit);
  };
  auto reveal = [&](const dex::Apk& apk) {
    core::DexLegoOptions reveal_options;
    reveal_options.configure_runtime = mutant.configure_runtime;
    reveal_options.runtime.step_limit = options.step_limit;
    return core::DexLego(std::move(reveal_options)).reveal(apk);
  };

  // Stage 1 — parse + verify, the loader hardening gate. Anything but a
  // ParseError / verifier failure here is a crash finding.
  try {
    if (!dex::has_classes(mutant.apk)) {
      return reject("no classes entry");
    }
    dex::DexFile file = dex::load_classes(mutant.apk);
    dex::VerifyResult vr = bc::verify_dex(file);
    if (!vr.ok()) return reject("verify: " + first_line(vr.message()));
  } catch (const support::ParseError& e) {
    return reject(std::string("parse: ") + e.what());
  } catch (const std::exception& e) {
    return finish(Outcome::kCrash, "parse crash: " + render_exception(e));
  }

  // Stage 2 — trace the mutant itself.
  try {
    report.original = trace(mutant.apk);
  } catch (const std::exception& e) {
    return finish(Outcome::kCrash, "trace(mutant): " + render_exception(e));
  }

  // Stage 3 — the collect→reassemble round trip.
  try {
    report.reveal = reveal(mutant.apk);
  } catch (const std::exception& e) {
    return finish(Outcome::kCrash, "reveal: " + render_exception(e));
  }
  if (!report.reveal.verified) {
    return finish(Outcome::kDivergent,
                  "reveal not verifier-clean: " +
                      first_line(report.reveal.verify_errors));
  }

  if (!mutant.replay_safe) {
    // Self-modifying mutants cannot replay the revealed APK: their tamper
    // natives patch offsets of the original layout. Instead demand that the
    // collection actually captured covert state.
    if (report.reveal.stats.guards + report.reveal.stats.variants == 0) {
      return finish(Outcome::kDivergent,
                    "self-modifying collection recorded no variants");
    }
    return finish(Outcome::kEquivalent, {});
  }

  // Stage 4 — behavioural equivalence of mutant vs revealed.
  try {
    report.revealed = trace(report.reveal.revealed_apk);
  } catch (const std::exception& e) {
    return finish(Outcome::kCrash, "trace(revealed): " + render_exception(e));
  }
  std::string diff = rt::first_difference(report.original, report.revealed);
  if (!diff.empty()) return finish(Outcome::kDivergent, "trace: " + diff);

  // Containment, when asked: original ⊆ revealed, token by token.
  if (options.check_containment) {
    core::ContainmentReport containment;
    try {
      containment =
          core::check_containment(dex::load_classes(mutant.apk),
                                  dex::load_classes(report.reveal.revealed_apk));
    } catch (const std::exception& e) {
      return finish(Outcome::kCrash, "containment: " + render_exception(e));
    }
    if (!containment.ok) {
      return finish(Outcome::kDivergent,
                    "containment: " + containment.summary() +
                        (containment.missing.empty()
                             ? ""
                             : "; first missing: " + containment.missing[0]));
    }
  }

  // Stage 5 — reveal idempotence (decompile/recompile fixed point).
  if (options.check_idempotence) {
    core::RevealResult again;
    try {
      again = reveal(report.reveal.revealed_apk);
    } catch (const std::exception& e) {
      return finish(Outcome::kCrash, "re-reveal: " + render_exception(e));
    }
    if (!again.verified) {
      return finish(Outcome::kDivergent,
                    "idempotence: re-reveal not verifier-clean: " +
                        first_line(again.verify_errors));
    }
    rt::ExecutionTrace twice;
    try {
      twice = trace(again.revealed_apk);
    } catch (const std::exception& e) {
      return finish(Outcome::kCrash,
                    "trace(re-revealed): " + render_exception(e));
    }
    diff = rt::first_difference(report.revealed, twice);
    if (!diff.empty()) {
      return finish(Outcome::kDivergent, "idempotence: " + diff);
    }
  }
  return finish(Outcome::kEquivalent, {});
}

std::vector<MutationOp> minimize_ops_with(
    std::vector<MutationOp> ops,
    const std::function<bool(std::span<const MutationOp>)>& reproduces,
    size_t* runs) {
  size_t spent = 0;
  bool changed = true;
  while (changed && ops.size() > 1) {
    changed = false;
    // Back to front: later ops most often ride on earlier ones.
    for (size_t i = ops.size(); i-- > 0;) {
      std::vector<MutationOp> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      ++spent;
      if (reproduces(candidate)) {
        ops = std::move(candidate);
        changed = true;
      }
    }
  }
  if (runs != nullptr) *runs = spent;
  return ops;
}

std::vector<MutationOp> minimize_ops(Family family, const SeedInput& seed,
                                     std::vector<MutationOp> ops,
                                     uint64_t fingerprint,
                                     const OracleOptions& options,
                                     size_t* oracle_runs) {
  return minimize_ops_with(
      std::move(ops),
      [&](std::span<const MutationOp> candidate) {
        return run_oracle(apply_ops(family, seed, candidate), options)
                   .fingerprint == fingerprint;
      },
      oracle_runs);
}

// --- campaign --------------------------------------------------------------

namespace {

std::vector<std::string> seed_keys_for(Family family) {
  switch (family) {
    case Family::kStructural: return structural_seed_keys();
    case Family::kBytecode: return bytecode_seed_keys();
    case Family::kBehavioral: return behavioral_seed_keys();
    case Family::kRealDex: return realdex_seed_keys();
  }
  return {};
}

// The verdict of one candidate. The campaign holds one per iteration until
// it folds them, so it keeps the verdict and not the report's reveal and
// traces.
struct CandidateResult {
  bool skipped = false;
  Family family = Family::kStructural;
  std::string seed_key;
  std::vector<MutationOp> ops;
  Outcome outcome = Outcome::kEquivalent;
  std::string detail;
  uint64_t fingerprint = 0;
};

}  // namespace

std::string CampaignReport::summary() const {
  std::ostringstream os;
  os << "fuzz campaign: " << executed << " executed | " << equivalent
     << " equivalent | " << rejected << " rejected | " << divergent
     << " divergent | " << crashed << " crashed | " << skipped << " skipped\n";
  for (const auto& [fp, finding] : findings) {
    char fp_hex[24];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    os << "finding " << fp_hex << " [" << family_name(finding.family) << "/"
       << outcome_name(finding.outcome) << "] seed=" << finding.seed_key
       << " iter=" << finding.iter << " hits=" << finding.hits << " ops="
       << finding.ops.size() << "(of " << finding.ops_before_minimize
       << "): " << finding.detail << "\n";
    for (const MutationOp& op : finding.ops) {
      os << "  - " << op.describe(finding.family) << "\n";
    }
  }
  return os.str();
}

uint64_t CampaignReport::report_fingerprint() const {
  support::Fnv1a h;
  for (size_t v : {executed, equivalent, rejected, divergent, crashed, skipped}) {
    h.add(v);
  }
  for (const auto& [fp, finding] : findings) {
    h.add(fp);
    h.add(static_cast<uint64_t>(finding.outcome));
    h.add(static_cast<uint64_t>(finding.family));
    h.add(support::fnv1a(finding.seed_key));
    h.add(finding.iter);
    h.add(finding.hits);
    h.add(finding.ops_before_minimize);
    for (const MutationOp& op : finding.ops) {
      h.add(op.kind);
      h.add(op.a);
      h.add(op.b);
      h.add(op.c);
    }
    h.add(support::fnv1a(finding.detail));
  }
  return h.digest();
}

CampaignReport run_campaign(const CampaignOptions& options) {
  CampaignReport report;
  if (options.iters == 0 || options.families.empty()) return report;

  // Resolve every seed pool once, up front; workers share const inputs.
  std::map<std::string, SeedInput> seeds;
  std::map<Family, std::vector<std::string>> pools;
  for (Family family : options.families) {
    if (pools.count(family) > 0) continue;
    std::vector<std::string> keys = seed_keys_for(family);
    for (const std::string& key : keys) {
      if (seeds.count(key) == 0) seeds.emplace(key, resolve_seed(key));
    }
    pools.emplace(family, std::move(keys));
  }

  support::Stopwatch wall;
  std::vector<CandidateResult> results(options.iters);
  support::parallel_for(options.iters, options.threads, [&](size_t i) {
    // Candidate i depends only on (campaign seed, i): the splitmix stream
    // is re-derived per iteration, never shared across workers.
    support::Rng rng(options.seed ^
                     (0x2545f4914f6cdd1dull * (static_cast<uint64_t>(i) + 1)));
    CandidateResult& r = results[i];
    r.family = options.families[rng.below(options.families.size())];
    const std::vector<std::string>& pool = pools.at(r.family);
    if (pool.empty()) {
      r.skipped = true;
      return;
    }
    r.seed_key = pool[rng.below(pool.size())];
    const SeedInput& seed = seeds.at(r.seed_key);
    r.ops = plan_ops(r.family, seed, rng.next(), options.max_ops);
    if (r.ops.empty()) {
      r.skipped = true;
      return;
    }
    OracleReport verdict =
        run_oracle(apply_ops(r.family, seed, r.ops), options.oracle);
    r.outcome = verdict.outcome;
    r.detail = std::move(verdict.detail);
    r.fingerprint = verdict.fingerprint;
  });

  // Fold in iteration order so first-hit attribution (and therefore the
  // whole report) is thread-count-invariant.
  for (size_t i = 0; i < results.size(); ++i) {
    CandidateResult& r = results[i];
    if (r.skipped) {
      ++report.skipped;
      continue;
    }
    ++report.executed;
    switch (r.outcome) {
      case Outcome::kEquivalent: ++report.equivalent; break;
      case Outcome::kRejected: ++report.rejected; break;
      case Outcome::kDivergent: ++report.divergent; break;
      case Outcome::kCrash: ++report.crashed; break;
    }
    if (r.fingerprint == 0) continue;
    auto [it, inserted] = report.findings.try_emplace(r.fingerprint);
    Finding& finding = it->second;
    ++finding.hits;
    if (!inserted) continue;
    finding.fingerprint = r.fingerprint;
    finding.outcome = r.outcome;
    finding.family = r.family;
    finding.seed_key = r.seed_key;
    finding.iter = i;
    finding.detail = std::move(r.detail);
    finding.ops = std::move(r.ops);
    finding.ops_before_minimize = finding.ops.size();
  }

  // Stop the clock before minimization: execs/sec measures the campaign's
  // oracle loop, and the minimizer's extra oracle runs are not counted in
  // `executed` (keeps the figure comparable with bench/fuzz_throughput).
  report.wall_ms = wall.elapsed_ms();
  if (report.wall_ms > 0.0) {
    report.execs_per_sec =
        static_cast<double>(report.executed) / (report.wall_ms / 1000.0);
  }

  if (options.minimize) {
    for (auto& [fp, finding] : report.findings) {
      finding.ops = minimize_ops(finding.family, seeds.at(finding.seed_key),
                                 std::move(finding.ops), fp, options.oracle);
    }
  }
  return report;
}

}  // namespace dexlego::fuzz

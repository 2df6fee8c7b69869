// The fuzzing subsystem's own contracts (docs/FUZZING.md): mutator
// determinism (same seed => byte-identical mutant), subsequence
// applicability (what the minimizer relies on), delta-debugging convergence,
// replay round-trips through support::bytes, corpus seed stability, and
// campaign-report fingerprint stability across runs and thread counts.
#include <gtest/gtest.h>

#include <set>

#include "src/dex/io.h"
#include "src/dex/verify.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/mutator.h"
#include "src/fuzz/replay.h"
#include "src/fuzz/triage.h"
#include "src/support/bytes.h"

namespace dexlego::fuzz {
namespace {

const std::vector<Family> kFamilies = {Family::kStructural, Family::kBytecode,
                                       Family::kBehavioral};

// --- corpus ----------------------------------------------------------------

TEST(Corpus, ResolveIsDeterministic) {
  for (const std::string& key :
       {std::string("droidbench:Straight1"), std::string("generated:701:600"),
        std::string("packed:360/Button1")}) {
    SeedInput a = resolve_seed(key);
    SeedInput b = resolve_seed(key);
    EXPECT_EQ(a.apk.write(), b.apk.write()) << key;
    EXPECT_EQ(a.key, key);
  }
}

TEST(Corpus, UnknownKeysThrow) {
  EXPECT_THROW(resolve_seed("no-scheme"), std::invalid_argument);
  EXPECT_THROW(resolve_seed("bogus:thing"), std::invalid_argument);
  EXPECT_THROW(resolve_seed("droidbench:NoSuchSample"), std::invalid_argument);
  EXPECT_THROW(resolve_seed("packed:NoVendor/Button1"), std::invalid_argument);
}

TEST(Corpus, EveryPoolKeyResolves) {
  for (const auto& keys : {structural_seed_keys(), bytecode_seed_keys(),
                           behavioral_seed_keys()}) {
    for (const std::string& key : keys) {
      SeedInput seed = resolve_seed(key);
      EXPECT_FALSE(seed.apk.write().empty()) << key;
    }
  }
  // The behavioral family mutates the generation recipe, so its seeds must
  // carry one.
  for (const std::string& key : behavioral_seed_keys()) {
    EXPECT_TRUE(resolve_seed(key).has_spec) << key;
  }
}

// --- mutator ---------------------------------------------------------------

TEST(Mutator, PlansAreDeterministic) {
  for (Family family : kFamilies) {
    SeedInput seed = resolve_seed(family == Family::kBehavioral
                                      ? "generated:711:600"
                                      : "generated:701:600");
    for (uint64_t rng_seed : {1ull, 77ull, 123456789ull}) {
      std::vector<MutationOp> a = plan_ops(family, seed, rng_seed, 5);
      std::vector<MutationOp> b = plan_ops(family, seed, rng_seed, 5);
      EXPECT_EQ(a, b) << family_name(family) << " seed " << rng_seed;
    }
  }
}

TEST(Mutator, ApplyIsDeterministic) {
  for (Family family : kFamilies) {
    SeedInput seed = resolve_seed(family == Family::kBehavioral
                                      ? "generated:711:600"
                                      : "generated:701:600");
    std::vector<MutationOp> ops = plan_ops(family, seed, 42, 5);
    ASSERT_FALSE(ops.empty()) << family_name(family);
    Mutant a = apply_ops(family, seed, ops);
    Mutant b = apply_ops(family, seed, ops);
    EXPECT_EQ(a.apk.write(), b.apk.write()) << family_name(family);
  }
}

TEST(Mutator, DistinctRngSeedsDiversify) {
  // Not a strict guarantee per pair, but across a handful of seeds the
  // mutants must not all collapse onto one output.
  SeedInput seed = resolve_seed("generated:701:600");
  std::set<std::vector<uint8_t>> outputs;
  for (uint64_t rng_seed = 1; rng_seed <= 6; ++rng_seed) {
    std::vector<MutationOp> ops = plan_ops(Family::kStructural, seed, rng_seed, 5);
    outputs.insert(apply_ops(Family::kStructural, seed, ops).apk.write());
  }
  EXPECT_GT(outputs.size(), 2u);
}

TEST(Mutator, EverySubsequenceStaysApplicable) {
  // The minimizer re-applies arbitrary subsequences; dropping ops must never
  // throw, for any family.
  for (Family family : kFamilies) {
    SeedInput seed = resolve_seed(family == Family::kBehavioral
                                      ? "generated:711:600"
                                      : "generated:701:600");
    std::vector<MutationOp> ops = plan_ops(family, seed, 7, 5);
    ASSERT_FALSE(ops.empty()) << family_name(family);
    for (size_t drop = 0; drop < ops.size(); ++drop) {
      std::vector<MutationOp> subset = ops;
      subset.erase(subset.begin() + static_cast<ptrdiff_t>(drop));
      EXPECT_NO_THROW(apply_ops(family, seed, subset))
          << family_name(family) << " drop " << drop;
    }
  }
}

TEST(Mutator, BytecodePlansAreVerifierClean) {
  // The family's paper-facing contract: every planned mutant passes
  // dex-level verification (plan_ops pre-filters through bc::verify_code).
  SeedInput seed = resolve_seed("generated:702:1400");
  for (uint64_t rng_seed = 1; rng_seed <= 8; ++rng_seed) {
    std::vector<MutationOp> ops = plan_ops(Family::kBytecode, seed, rng_seed, 5);
    Mutant mutant = apply_ops(Family::kBytecode, seed, ops);
    dex::DexFile file = dex::read_dex(mutant.apk.classes());
    EXPECT_TRUE(dex::verify_structure(file).ok()) << "seed " << rng_seed;
  }
}

TEST(Mutator, StructuralMutantsAllowRejection) {
  SeedInput seed = resolve_seed("droidbench:Straight1");
  std::vector<MutationOp> ops = plan_ops(Family::kStructural, seed, 3, 5);
  ASSERT_FALSE(ops.empty());
  EXPECT_TRUE(apply_ops(Family::kStructural, seed, ops).rejection_ok);
  EXPECT_FALSE(apply_ops(Family::kBytecode, seed,
                         plan_ops(Family::kBytecode, seed, 3, 5))
                   .rejection_ok);
}

// --- minimizer -------------------------------------------------------------

MutationOp flip(uint64_t at) { return MutationOp{kByteFlip, at, 1, 0}; }

TEST(Minimizer, ConvergesToTheNecessarySubset) {
  // A synthetic predicate: the "divergence" reproduces iff ops 2 and 5 are
  // both present. The minimizer must keep exactly those, in order.
  std::vector<MutationOp> ops;
  for (uint64_t i = 0; i < 7; ++i) ops.push_back(flip(i));
  size_t runs = 0;
  std::vector<MutationOp> kept = minimize_ops_with(
      ops,
      [](std::span<const MutationOp> candidate) {
        bool has2 = false, has5 = false;
        for (const MutationOp& op : candidate) {
          has2 |= op.a == 2;
          has5 |= op.a == 5;
        }
        return has2 && has5;
      },
      &runs);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].a, 2u);
  EXPECT_EQ(kept[1].a, 5u);
  EXPECT_GT(runs, 0u);
  EXPECT_LE(runs, ops.size() * ops.size());  // the documented O(n^2) bound
}

TEST(Minimizer, KeepsEverythingWhenNothingCanBeDropped) {
  std::vector<MutationOp> ops = {flip(0), flip(1), flip(2)};
  std::vector<MutationOp> kept = minimize_ops_with(
      ops,
      [&](std::span<const MutationOp> candidate) {
        return candidate.size() == ops.size();  // any drop loses the repro
      });
  EXPECT_EQ(kept, ops);
}

TEST(Minimizer, OraclePreservation) {
  // Against the real oracle: a fingerprint no subset reproduces leaves the
  // plan untouched (minimize_ops only ever commits reproducing subsets).
  SeedInput seed = resolve_seed("generated:701:600");
  std::vector<MutationOp> ops = plan_ops(Family::kBytecode, seed, 11, 3);
  ASSERT_FALSE(ops.empty());
  OracleOptions options;
  options.step_limit = 60'000;
  size_t runs = 0;
  std::vector<MutationOp> kept =
      minimize_ops(Family::kBytecode, seed, ops, /*fingerprint=*/0xdead,
                   options, &runs);
  EXPECT_EQ(kept, ops);
  EXPECT_GT(runs, 0u);
}

// --- oracle ----------------------------------------------------------------

// A sample with code that never runs passes the oracle as it stands, and
// fails it once containment is asked for: the reveal holds only what ran.
void expect_containment_gap(const std::string& sample) {
  SeedInput seed = resolve_seed("droidbench:" + sample);
  Mutant input{seed.apk, seed.configure_runtime};
  OracleOptions options;
  OracleReport plain = run_oracle(input, options);
  EXPECT_EQ(plain.outcome, Outcome::kEquivalent) << plain.detail;

  options.check_containment = true;
  OracleReport contained = run_oracle(input, options);
  EXPECT_EQ(contained.outcome, Outcome::kDivergent) << contained.detail;
  EXPECT_EQ(contained.detail.rfind("containment: FAILED", 0), 0u)
      << contained.detail;
  EXPECT_NE(contained.detail.find("first missing: Ldb/" + sample + "/"),
            std::string::npos)
      << contained.detail;
  EXPECT_NE(contained.fingerprint, 0u);
}

TEST(Oracle, ContainmentSeesTheDeadBranch) {
  expect_containment_gap("DeadBranch1");
}

TEST(Oracle, ContainmentSeesTheUnreachableMethod) {
  expect_containment_gap("Unreachable1");
}

// --- replay ----------------------------------------------------------------

ReplayFile sample_replay() {
  ReplayFile file;
  file.family = Family::kBytecode;
  file.seed_key = "generated:701:600";
  file.iter = 63;
  file.campaign_seed = 14;
  file.expected_fingerprint = 0x9f11a64176a2e5b7ull;
  file.expected_outcome = Outcome::kDivergent;
  file.note = "argument registers shifted by the scratch register";
  file.ops = {{kRegisterRename, 0, 21, (1ull << 8) | 7},
              {kGotoLoop, 3, 7, 0}};
  return file;
}

TEST(Replay, RoundTripsThroughBytes) {
  ReplayFile file = sample_replay();
  std::vector<uint8_t> bytes = serialize(file);
  ReplayFile back = deserialize(bytes);
  EXPECT_EQ(back.family, file.family);
  EXPECT_EQ(back.seed_key, file.seed_key);
  EXPECT_EQ(back.iter, file.iter);
  EXPECT_EQ(back.campaign_seed, file.campaign_seed);
  EXPECT_EQ(back.expected_fingerprint, file.expected_fingerprint);
  EXPECT_EQ(back.expected_outcome, file.expected_outcome);
  EXPECT_EQ(back.note, file.note);
  EXPECT_EQ(back.ops, file.ops);
  // Serialization is canonical: a round trip re-serializes identically.
  EXPECT_EQ(serialize(back), bytes);
}

TEST(Replay, RejectsCorruptBytes) {
  std::vector<uint8_t> bytes = serialize(sample_replay());
  // Any single byte flip breaks the trailing adler32.
  for (size_t at : {size_t{0}, bytes.size() / 2, bytes.size() - 5}) {
    std::vector<uint8_t> bad = bytes;
    bad[at] ^= 0x20;
    EXPECT_EQ(try_deserialize(bad), std::nullopt) << "flip @" << at;
  }
  // Truncations at every prefix length parse clean or throw ParseError —
  // never UB. (try_deserialize maps ParseError to nullopt.)
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(try_deserialize(std::span(bytes.data(), len)), std::nullopt)
        << "len " << len;
  }
  EXPECT_TRUE(try_deserialize(bytes).has_value());
}

TEST(Replay, FromFindingCarriesTheTriageRecord) {
  Finding finding;
  finding.fingerprint = 42;
  finding.outcome = Outcome::kDivergent;
  finding.family = Family::kStructural;
  finding.seed_key = "droidbench:Straight1";
  finding.iter = 9;
  finding.detail = "trace: phase[0] mismatch";
  finding.ops = {flip(3)};
  ReplayFile file = from_finding(finding, /*campaign_seed=*/5);
  EXPECT_EQ(file.expected_fingerprint, 42u);
  EXPECT_EQ(file.expected_outcome, Outcome::kDivergent);
  EXPECT_EQ(file.campaign_seed, 5u);
  EXPECT_EQ(file.seed_key, finding.seed_key);
  EXPECT_EQ(file.ops, finding.ops);
}

// --- campaign --------------------------------------------------------------

CampaignOptions small_campaign(uint64_t seed, size_t threads) {
  CampaignOptions options;
  options.seed = seed;
  options.iters = 24;
  options.threads = threads;
  options.oracle.step_limit = 120'000;
  options.minimize = false;  // findings are already minimal or absent here
  return options;
}

TEST(Campaign, ReportIsRunToRunStable) {
  CampaignReport a = run_campaign(small_campaign(5, 1));
  CampaignReport b = run_campaign(small_campaign(5, 1));
  EXPECT_EQ(a.report_fingerprint(), b.report_fingerprint());
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.executed + a.skipped, 24u);
}

TEST(Campaign, ReportIsThreadCountInvariant) {
  CampaignReport one = run_campaign(small_campaign(6, 1));
  CampaignReport four = run_campaign(small_campaign(6, 4));
  EXPECT_EQ(one.report_fingerprint(), four.report_fingerprint());
  EXPECT_EQ(one.summary(), four.summary());
}

TEST(Campaign, FindingDedupIsStable) {
  // Identical failure details must fold into one finding keyed by the same
  // fingerprint, whatever order candidates land in.
  OracleReport r1, r2;
  r1.outcome = r2.outcome = Outcome::kDivergent;
  CampaignReport report;
  Finding finding;
  finding.fingerprint = 7;
  finding.hits = 1;
  report.findings.emplace(finding.fingerprint, finding);
  auto [it, inserted] = report.findings.try_emplace(finding.fingerprint);
  EXPECT_FALSE(inserted);
  ++it->second.hits;
  EXPECT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings.at(7).hits, 2u);
}

TEST(Campaign, CleanMeansNoDivergenceOrCrash) {
  CampaignReport report;
  EXPECT_TRUE(report.clean());
  report.rejected = 10;
  EXPECT_TRUE(report.clean());
  report.divergent = 1;
  EXPECT_FALSE(report.clean());
  report.divergent = 0;
  report.crashed = 1;
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace dexlego::fuzz

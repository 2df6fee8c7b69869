// Deterministic replay files for fuzz findings (docs/FUZZING.md). A replay
// file names a seed input (corpus key), carries the minimized mutation trace
// and the divergence fingerprint observed at capture time — a few hundred
// bytes that rebuild the exact mutant from the repo's deterministic builders
// and re-run the differential oracle. Checked-in findings live under
// tests/data/fuzz/ and are replayed by the FuzzRegressions suite
// (tests/differential_test.cpp): a file either still reproduces its
// divergence or records (in `note`) the fix that closed it, in which case
// replay must come back clean.
//
// Binary layout (support::bytes, little-endian): magic "LFUZ0001", u32
// version, u8 family, seed key, u64 iter, u64 campaign seed, u64 expected
// fingerprint (0 = closed by a fix), u8 expected outcome, note, u32 op
// count, ops (u16 kind + 3x u64 params), u32 adler32 of everything before.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fuzz/triage.h"

namespace dexlego::fuzz {

inline constexpr char kReplayMagic[8] = {'L', 'F', 'U', 'Z', '0', '0', '0', '1'};
inline constexpr uint32_t kReplayVersion = 1;

struct ReplayFile {
  Family family = Family::kStructural;
  std::string seed_key;
  uint64_t iter = 0;           // provenance: campaign iteration that hit it
  uint64_t campaign_seed = 0;  // provenance: campaign --seed
  // Fingerprint the oracle reported at capture. 0 means the finding was
  // fixed: replay must now come back equivalent/rejected.
  uint64_t expected_fingerprint = 0;
  Outcome expected_outcome = Outcome::kEquivalent;
  std::string note;  // divergence summary, or the fix that closed it
  std::vector<MutationOp> ops;
};

std::vector<uint8_t> serialize(const ReplayFile& file);
// Throws support::ParseError on malformed bytes.
ReplayFile deserialize(std::span<const uint8_t> data);
std::optional<ReplayFile> try_deserialize(std::span<const uint8_t> data);

struct ReplayResult {
  OracleReport report;
  // expected_fingerprint != 0: the oracle reproduced exactly that failure.
  // expected_fingerprint == 0: the oracle came back clean (fix holds).
  bool matches_expectation = false;
};

// Rebuilds the seed, applies the recorded ops and re-runs the oracle.
ReplayResult replay(const ReplayFile& file, const OracleOptions& options = {});

// Packages a campaign finding for persistence.
ReplayFile from_finding(const Finding& finding, uint64_t campaign_seed);

}  // namespace dexlego::fuzz

// dexlego_fuzz — structure-aware differential fuzzing from the command line
// (docs/FUZZING.md). Two modes:
//
//   campaign (default): mutate seed apps across the chosen families, run
//   every candidate through the differential oracle on a worker pool,
//   dedup/minimize the findings and print the triage report. Deterministic:
//   the same --seed/--iters/--family yields an identical report at any
//   --threads value.
//
//   replay (--replay <file>): rebuild one finding from a replay file and
//   re-run the oracle. Exit 0 when the file's expectation holds (the
//   divergence reproduces, or — for files whose note documents a fix — the
//   mutant now comes back clean).
//
//   dexlego_fuzz [--seed S] [--iters N] [--threads T]
//                [--family structural|bytecode|behavioral|realdex|all]
//                [--max-ops K] [--steps N] [--no-minimize] [--no-idempotence]
//                [--out <dir>] [--json] [--quiet]
//   dexlego_fuzz --replay <file> [--steps N]
//
//   --out <dir>   write one .lfz replay file per finding into <dir>
//
// Exit status (campaign): 0 when no divergence/crash findings, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/fuzz/replay.h"
#include "src/fuzz/triage.h"
#include "src/support/bytes.h"

using namespace dexlego;

namespace {

int run_replay(const std::string& path, const fuzz::OracleOptions& oracle) {
  std::vector<uint8_t> bytes;
  try {
    bytes = support::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot read replay file: %s\n", e.what());
    return 2;
  }
  std::optional<fuzz::ReplayFile> parsed = fuzz::try_deserialize(bytes);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "malformed replay file: %s\n", path.c_str());
    return 2;
  }
  fuzz::ReplayFile& file = *parsed;
  std::printf("replay %s\n  family %s, seed %s, ops %zu\n  note: %s\n",
              path.c_str(), std::string(fuzz::family_name(file.family)).c_str(),
              file.seed_key.c_str(), file.ops.size(), file.note.c_str());
  for (const fuzz::MutationOp& op : file.ops) {
    std::printf("  - %s\n", op.describe(file.family).c_str());
  }
  fuzz::ReplayResult result;
  try {
    result = fuzz::replay(file, oracle);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay failed: %s\n", e.what());
    return 2;
  }
  std::printf("  oracle: %s%s%s\n",
              std::string(fuzz::outcome_name(result.report.outcome)).c_str(),
              result.report.detail.empty() ? "" : " — ",
              result.report.detail.c_str());
  if (file.expected_fingerprint != 0) {
    std::printf("  expectation: reproduce fingerprint %016llx -> %s\n",
                static_cast<unsigned long long>(file.expected_fingerprint),
                result.matches_expectation ? "REPRODUCED" : "NOT REPRODUCED");
  } else {
    std::printf("  expectation: closed by fix -> %s\n",
                result.matches_expectation ? "STILL CLEAN" : "REGRESSED");
  }
  return result.matches_expectation ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::CampaignOptions options;
  options.seed = 1;
  options.iters = 200;
  options.threads = 0;
  std::string family = "all";
  std::string replay_path;
  std::string out_dir;
  bool json = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_number = [&](long min, long max) -> long {
      const char* text = next();
      char* end = nullptr;
      long value = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || value < min || value > max) {
        std::fprintf(stderr, "%s: invalid value '%s' (want %ld..%ld)\n",
                     arg.c_str(), text, min, max);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(next_number(0, 1L << 62));
    } else if (arg == "--iters") {
      options.iters = static_cast<size_t>(next_number(1, 10000000));
    } else if (arg == "--threads") {
      options.threads = static_cast<size_t>(next_number(0, 4096));
    } else if (arg == "--max-ops") {
      options.max_ops = static_cast<int>(next_number(1, 64));
    } else if (arg == "--steps") {
      options.oracle.step_limit =
          static_cast<uint64_t>(next_number(1000, 2000000000));
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--no-idempotence") {
      options.oracle.check_idempotence = false;
    } else if (arg == "--family") {
      family = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path, options.oracle);

  if (family != "all") {
    auto parsed = fuzz::family_from_name(family);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
      return 2;
    }
    options.families = {*parsed};
  }

  fuzz::CampaignReport report = fuzz::run_campaign(options);

  if (!quiet) std::fputs(report.summary().c_str(), stdout);
  if (json) {
    std::printf(
        "{\"seed\":%llu,\"iters\":%zu,\"executed\":%zu,\"equivalent\":%zu,"
        "\"rejected\":%zu,\"divergent\":%zu,\"crashed\":%zu,\"skipped\":%zu,"
        "\"findings\":%zu,\"report_fingerprint\":\"%016llx\","
        "\"wall_ms\":%.2f,\"execs_per_sec\":%.2f}\n",
        static_cast<unsigned long long>(options.seed), options.iters,
        report.executed, report.equivalent, report.rejected, report.divergent,
        report.crashed, report.skipped, report.findings.size(),
        static_cast<unsigned long long>(report.report_fingerprint()),
        report.wall_ms, report.execs_per_sec);
  } else if (!quiet) {
    std::printf("wall %.1f ms | %.1f execs/sec | report %016llx\n",
                report.wall_ms, report.execs_per_sec,
                static_cast<unsigned long long>(report.report_fingerprint()));
  }

  if (!out_dir.empty()) {
    for (const auto& [fp, finding] : report.findings) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s-%016llx.lfz",
                    std::string(fuzz::family_name(finding.family)).c_str(),
                    static_cast<unsigned long long>(fp));
      std::string path = out_dir + "/" + name;
      std::vector<uint8_t> bytes =
          fuzz::serialize(fuzz::from_finding(finding, options.seed));
      try {
        support::write_file(path, bytes);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), e.what());
        return 2;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  }

  return report.clean() ? 0 : 1;
}

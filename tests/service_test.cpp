// Crash-recovery and service-layer battery for src/service: the record
// logs behind the PersistentDedupStore and the apps.log manifest (every open
// validates every record; truncation at EVERY byte boundary must recover to
// the last complete record; a foreign header is refused, never wiped; a
// failed fsync fails the write), and the ExtractionService's job lifecycle,
// tenant quotas, failure isolation and incremental re-extraction
// (docs/SERVICE.md; ARCHITECTURE invariant 14). The whole suite also runs
// under TSan in ci.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"
#include "src/service/persistent_store.h"
#include "src/service/record_log.h"
#include "src/service/service.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego {
namespace {

namespace fs = std::filesystem;

using service::ExtractionService;
using service::JobState;
using service::PersistentDedupStore;
using service::RecordLog;

// Fresh per-test directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("dexlego_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::vector<uint8_t> payload(uint8_t tag, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<uint8_t>(tag + i * 7);
  }
  return bytes;
}

// Ids with the top byte cleared, so every record lands in shard-0.log and
// record boundaries are computable.
PersistentDedupStore::Options crashy_options() {
  PersistentDedupStore::Options options;
  options.hash = [](std::span<const uint8_t> content, uint64_t salt) {
    support::Fnv1a h;
    h.add(salt);
    h.add_bytes(content);
    return h.digest() & 0x00FFFFFFFFFFFFFFull;
  };
  return options;
}

// --- PersistentDedupStore: durability and crash recovery --------------------

TEST(PersistentStore, RoundTripAcrossReopen) {
  const std::string dir = fresh_dir("roundtrip");
  std::vector<std::vector<uint8_t>> contents = {
      payload(1, 24), payload(2, 1), payload(3, 300), payload(4, 24)};
  std::vector<PersistentDedupStore::Id> ids;
  {
    PersistentDedupStore store(dir);
    for (const auto& c : contents) ids.push_back(store.intern(c).id);
    // Duplicate interns dedup exactly like the in-memory store.
    EXPECT_EQ(store.intern(contents[0]).id, ids[0]);
    EXPECT_FALSE(store.intern(contents[0]).inserted);
    EXPECT_EQ(store.stats().entries, 4u);
  }  // clean close

  PersistentDedupStore reopened(dir);
  EXPECT_EQ(reopened.stats().entries, 4u);
  EXPECT_EQ(reopened.open_stats().restored_entries, 4u);
  EXPECT_EQ(reopened.open_stats().truncated_bytes, 0u);
  // Reopen reports only post-open intern activity.
  EXPECT_EQ(reopened.stats().hits, 0u);
  EXPECT_EQ(reopened.stats().misses, 0u);
  for (size_t i = 0; i < contents.size(); ++i) {
    const std::vector<uint8_t>* stored = reopened.lookup(ids[i]);
    ASSERT_NE(stored, nullptr) << i;
    EXPECT_EQ(*stored, contents[i]) << i;
  }
  // Everything replayed is a hit on re-intern; ids are stable.
  for (size_t i = 0; i < contents.size(); ++i) {
    PersistentDedupStore::InternResult r = reopened.intern(contents[i]);
    EXPECT_FALSE(r.inserted) << i;
    EXPECT_EQ(r.id, ids[i]) << i;
  }
}

TEST(PersistentStore, CleanAndCrashCloseRecoverTheSameStore) {
  // Every append is flushed as it happens, so a clean close writes nothing
  // more: the files a live store leaves behind (a crash) and the files after
  // its close are the same store, and each open validates every record.
  const std::string dir = fresh_dir("clean_close");
  const std::string crash_dir = fresh_dir("crash_close");
  {
    PersistentDedupStore store(dir);
    for (int i = 0; i < 6; ++i) store.intern(payload(10 + i, 40 + i));
  }  // clean close
  {
    PersistentDedupStore store(dir);
    EXPECT_EQ(store.stats().entries, 6u);
    EXPECT_EQ(store.open_stats().validated_records, 6u);
    store.intern(payload(100, 64));
    store.intern(payload(101, 64));
    // Crash close: the store directory as it stands while the store is open.
    fs::copy(dir, crash_dir, fs::copy_options::recursive);
  }  // clean close
  for (const fs::directory_entry& file : fs::directory_iterator(dir)) {
    const fs::path crashed = fs::path(crash_dir) / file.path().filename();
    EXPECT_EQ(support::read_file(file.path().string()),
              support::read_file(crashed.string()))
        << file.path();
  }
  for (const std::string& d : {dir, crash_dir}) {
    SCOPED_TRACE(d);
    PersistentDedupStore store(d);
    EXPECT_EQ(store.stats().entries, 8u);
    EXPECT_EQ(store.open_stats().validated_records, 8u);
    EXPECT_EQ(store.open_stats().truncated_records, 0u);
    EXPECT_EQ(store.open_stats().truncated_bytes, 0u);
    EXPECT_FALSE(store.intern(payload(101, 64)).inserted);
  }

  // The logs alone decide what a reopen recovers, even after a clean close:
  // one flipped payload byte in the first record ends the valid prefix there.
  const std::string flip_dir = fresh_dir("clean_close_flip");
  {
    PersistentDedupStore store(flip_dir, crashy_options());
    for (uint8_t tag = 31; tag < 34; ++tag) store.intern(payload(tag, 20));
  }  // clean close
  const std::string log_path = flip_dir + "/shard-0.log";
  std::vector<uint8_t> bytes = support::read_file(log_path);
  bytes[PersistentDedupStore::kSegmentHeaderBytes +
        PersistentDedupStore::kRecordHeaderBytes + 3] ^= 0xFF;
  support::write_file(log_path, bytes);
  PersistentDedupStore store(flip_dir, crashy_options());
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.open_stats().truncated_bytes,
            3 * (PersistentDedupStore::kRecordHeaderBytes + 20));
}

TEST(PersistentStore, TruncationAtEveryByteBoundaryRecoversCompletePrefix) {
  // Build a 1-shard log, then simulate a crash at EVERY byte offset of the
  // file: reopening must always recover exactly the fully-contained
  // records, repair the tail, and accept subsequent interns that survive
  // yet another reopen byte-identically.
  const std::string seed_dir = fresh_dir("truncate_seed");
  const std::vector<std::vector<uint8_t>> contents = {
      payload(21, 5), payload(22, 7), payload(23, 9)};
  std::vector<PersistentDedupStore::Id> ids;
  {
    PersistentDedupStore store(seed_dir, crashy_options());
    for (const auto& c : contents) ids.push_back(store.intern(c).id);
  }
  const std::string log_path = seed_dir + "/shard-0.log";
  const std::vector<uint8_t> full = support::read_file(log_path);
  // header + three records of (16 + len) bytes.
  ASSERT_EQ(full.size(), PersistentDedupStore::kSegmentHeaderBytes +
                             3 * PersistentDedupStore::kRecordHeaderBytes + 5 +
                             7 + 9);
  std::vector<size_t> record_ends;
  size_t offset = PersistentDedupStore::kSegmentHeaderBytes;
  for (const auto& c : contents) {
    offset += PersistentDedupStore::kRecordHeaderBytes + c.size();
    record_ends.push_back(offset);
  }

  const std::vector<uint8_t> extra = payload(77, 11);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string dir = fresh_dir("truncate_cut");
    fs::create_directories(dir);
    support::write_file(dir + "/shard-0.log",
                        std::span<const uint8_t>(full.data(), cut));
    size_t expect_recovered = 0;
    for (size_t end : record_ends) expect_recovered += end <= cut ? 1 : 0;
    {
      PersistentDedupStore store(dir, crashy_options());
      EXPECT_EQ(store.stats().entries, expect_recovered);
      EXPECT_EQ(store.open_stats().restored_entries, expect_recovered);
      for (size_t i = 0; i < expect_recovered; ++i) {
        const std::vector<uint8_t>* stored = store.lookup(ids[i]);
        ASSERT_NE(stored, nullptr) << i;
        EXPECT_EQ(*stored, contents[i]) << i;
      }
      // The torn tail is physically gone: the next append starts exactly
      // after the last complete record (or a fresh header when the cut hit
      // the header itself).
      const size_t kept_prefix =
          cut < PersistentDedupStore::kSegmentHeaderBytes
              ? 0
              : (expect_recovered == 0
                     ? PersistentDedupStore::kSegmentHeaderBytes
                     : record_ends[expect_recovered - 1]);
      EXPECT_EQ(store.open_stats().truncated_bytes, cut - kept_prefix);
      store.intern(extra);
    }
    // The post-crash batch must itself survive a reopen byte-identically.
    PersistentDedupStore reopened(dir, crashy_options());
    EXPECT_EQ(reopened.stats().entries, expect_recovered + 1);
    const std::vector<uint8_t>* stored =
        reopened.lookup(reopened.intern(extra).id);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(*stored, extra);
  }
}

TEST(PersistentStore, CorruptTailIsDiscarded) {
  const std::string dir = fresh_dir("corrupt_tail");
  std::vector<PersistentDedupStore::Id> ids;
  {
    PersistentDedupStore store(dir, crashy_options());
    ids.push_back(store.intern(payload(31, 20)).id);
    ids.push_back(store.intern(payload(32, 20)).id);
  }
  // Flip one payload byte inside the SECOND record: with no index (crash
  // close), replay checksum-validates everything and must cut there.
  const std::string log_path = dir + "/shard-0.log";
  std::vector<uint8_t> bytes = support::read_file(log_path);
  const size_t second_payload = PersistentDedupStore::kSegmentHeaderBytes +
                                PersistentDedupStore::kRecordHeaderBytes + 20 +
                                PersistentDedupStore::kRecordHeaderBytes + 3;
  bytes[second_payload] ^= 0xFF;
  support::write_file(log_path, bytes);

  PersistentDedupStore store(dir, crashy_options());
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_NE(store.lookup(ids[0]), nullptr);
  EXPECT_EQ(store.lookup(ids[1]), nullptr);
  EXPECT_EQ(store.open_stats().truncated_bytes,
            PersistentDedupStore::kRecordHeaderBytes + 20);
}

TEST(PersistentStore, DirectoryLockRefusesSecondOpen) {
  // Two stores on one directory would interleave segment appends and
  // torn-tail truncation, so the second open must fail closed — as a store
  // and as a service — without touching the first store's data.
  const std::string dir = fresh_dir("lock");
  {
    PersistentDedupStore store(dir);
    EXPECT_TRUE(store.intern(payload(41, 12)).inserted);
    EXPECT_TRUE(fs::exists(dir + "/LOCK"));
    try {
      PersistentDedupStore second(dir);
      ADD_FAILURE() << "a second store opened a held directory";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
          << e.what();
    }
    service::ServiceOptions options;
    options.threads = 1;
    EXPECT_THROW(ExtractionService(dir, options), std::runtime_error);
    EXPECT_TRUE(store.intern(payload(42, 12)).inserted);
  }  // closing the store releases the lock

  {
    PersistentDedupStore reopened(dir);
    EXPECT_EQ(reopened.stats().entries, 2u);
    EXPECT_EQ(reopened.open_stats().truncated_bytes, 0u);
  }
  service::ServiceOptions options;
  options.threads = 1;
  ExtractionService svc(dir, options);
  EXPECT_EQ(svc.store().stats().entries, 2u);
}

TEST(PersistentStore, ForeignHeaderIsRefusedNotWiped) {
  // A complete header this code does not write (another magic or version)
  // is not a torn tail: the open throws, naming the file, and leaves it
  // byte for byte as it was.
  const std::string dir = fresh_dir("foreign_header");
  {
    PersistentDedupStore store(dir, crashy_options());
    store.intern(payload(51, 30));
  }
  const std::string log_path = dir + "/shard-0.log";
  std::vector<uint8_t> bytes = support::read_file(log_path);
  ASSERT_EQ(bytes.size(), PersistentDedupStore::kSegmentHeaderBytes +
                              PersistentDedupStore::kRecordHeaderBytes + 30);
  bytes[4] = 2;  // version field: 1 -> 2
  support::write_file(log_path, bytes);
  try {
    PersistentDedupStore store(dir, crashy_options());
    ADD_FAILURE() << "opened a log with a foreign header";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(log_path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(support::read_file(log_path), bytes);
}

TEST(PersistentStore, FailedFsyncFailsTheIntern) {
  // fsync(2) on /dev/null fails with EINVAL. The header write needs no
  // sync, so the open succeeds; every intern must then fail before its
  // entry becomes visible, and flush() must report the failure too.
  const std::string dir = fresh_dir("fsync_fails");
  fs::create_directories(dir);
  fs::create_symlink("/dev/null", dir + "/shard-0.log");
  PersistentDedupStore::Options options = crashy_options();
  options.fsync = true;
  PersistentDedupStore store(dir, options);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW(store.intern(payload(61, 24)), std::runtime_error);
  }
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_THROW(store.flush(), std::runtime_error);
}

TEST(PersistentStore, ForeignShardLayoutReopens) {
  // A directory written by a build that let callers pick 64 shards holds
  // shard-16.log ... shard-63.log too. Here shard-40.log carries records
  // whose ids a 64-shard layout routes there: reopening must restore each
  // of them, re-intern each as a hit, leave that log as it is, and append a
  // new miss to the log of its shard among shard-0.log ... shard-15.log.
  const std::string dir = fresh_dir("foreign_layout");
  fs::create_directories(dir);
  std::vector<std::vector<uint8_t>> contents;
  for (uint8_t tag = 0; contents.size() < 3; ++tag) {
    for (size_t len = 8; len < 64 && contents.size() < 3; ++len) {
      std::vector<uint8_t> c = payload(tag, len);
      if (((support::fnv1a(c) >> 56) & 63) == 40) contents.push_back(c);
    }
  }
  const std::string foreign = dir + "/shard-40.log";
  {
    RecordLog log(foreign, PersistentDedupStore::kSegmentMagic,
                  PersistentDedupStore::kFormatVersion, /*fsync=*/false);
    for (const auto& c : contents) log.append(c);
  }
  const std::vector<uint8_t> foreign_bytes = support::read_file(foreign);

  PersistentDedupStore store(dir);
  EXPECT_EQ(store.open_stats().segments, 1u);
  EXPECT_EQ(store.open_stats().restored_entries, contents.size());
  EXPECT_EQ(store.stats().entries, contents.size());
  for (const auto& c : contents) {
    const PersistentDedupStore::InternResult r = store.intern(c);
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.id, support::fnv1a(c));
    const std::vector<uint8_t>* stored = store.lookup(r.id);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(*stored, c);
  }

  const std::vector<uint8_t> fresh = payload(250, 33);
  const PersistentDedupStore::InternResult miss = store.intern(fresh);
  ASSERT_TRUE(miss.inserted);
  const size_t home = (miss.id >> 56) & (PersistentDedupStore::kShards - 1);
  EXPECT_EQ(support::read_file(foreign), foreign_bytes);
  for (size_t s = 0; s < PersistentDedupStore::kShards; ++s) {
    const std::string path = dir + "/shard-" + std::to_string(s) + ".log";
    EXPECT_EQ(fs::file_size(path),
              PersistentDedupStore::kSegmentHeaderBytes +
                  (s == home ? PersistentDedupStore::kRecordHeaderBytes +
                                   fresh.size()
                             : 0))
        << path;
  }
}

// --- concurrency (also under TSan via ci.sh) --------------------------------

TEST(ServiceThreads, ConcurrentInternAndReopen) {
  const std::string dir = fresh_dir("concurrent");
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 64;
  {
    PersistentDedupStore store(dir);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          // Every thread interns its own contents plus a shared set, so
          // the log append path races hits, misses and duplicate inserts.
          store.intern(payload(static_cast<uint8_t>(t), 16 + i % 23));
          store.intern(payload(200, 16 + i % 23));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  PersistentDedupStore reopened(dir);
  const size_t entries = reopened.stats().entries;
  EXPECT_GT(entries, 0u);
  // Everything that was visible in memory reached the log: re-interning
  // the whole population is pure hits.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reopened, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        EXPECT_FALSE(
            reopened.intern(payload(static_cast<uint8_t>(t), 16 + i % 23))
                .inserted);
        EXPECT_FALSE(reopened.intern(payload(200, 16 + i % 23)).inserted);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reopened.stats().misses, 0u);
  EXPECT_EQ(reopened.stats().entries, entries);
}

// --- ExtractionService: job lifecycle, quotas, isolation, incremental -------

TEST(Service, SubmitPollWaitLifecycle) {
  const std::string dir = fresh_dir("lifecycle");
  service::ServiceOptions options;
  options.threads = 2;
  ExtractionService svc(dir, options);

  std::vector<service::JobId> ids =
      svc.submit_batch(pipeline::generated_jobs(3));
  ASSERT_EQ(ids.size(), 3u);
  for (service::JobId id : ids) {
    service::JobStatus status = svc.wait(id);
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.result.ok);
    EXPECT_TRUE(status.result.verified);
    EXPECT_FALSE(status.result.dex.empty());
    EXPECT_FALSE(status.incremental);  // fresh store: everything cold
    // poll after completion sees the same terminal state.
    EXPECT_EQ(svc.poll(id).state, JobState::kDone);
  }
  service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  // Unknown ids are reported, not thrown.
  service::JobStatus missing = svc.poll(999999);
  EXPECT_EQ(missing.state, JobState::kRejected);
  EXPECT_FALSE(missing.error.empty());
}

TEST(Service, IncrementalRestartSkipsUnchangedAndMatchesCold) {
  const std::string dir = fresh_dir("incremental");
  constexpr size_t kApps = 8;
  constexpr size_t kMutateEvery = 4;  // apps 0 and 4 change in the update
  {
    service::ServiceOptions options;
    options.threads = 2;
    ExtractionService svc(dir, options);
    for (service::JobId id :
         svc.submit_batch(pipeline::large_corpus_jobs(kApps))) {
      service::JobStatus status = svc.wait(id);
      EXPECT_EQ(status.state, JobState::kDone) << status.error;
      EXPECT_FALSE(status.incremental);
    }
  }  // service restart: the destructor drains, then closes the logs

  // Cold reference for the updated corpus on a fresh in-memory store.
  std::vector<pipeline::BatchJob> reference =
      pipeline::large_corpus_update_jobs(kApps, 1701, 900, 48, kMutateEvery);
  pipeline::BatchReport cold = pipeline::run_batch(reference, {});
  ASSERT_EQ(cold.fleet.ok, kApps);

  service::ServiceOptions options;
  options.threads = 2;
  ExtractionService svc(dir, options);
  EXPECT_GT(svc.open_stats().restored_entries, 0u);
  EXPECT_EQ(svc.manifest_entries(), kApps);
  const size_t entries_at_open = svc.store().stats().entries;

  std::vector<service::JobId> ids = svc.submit_batch(
      pipeline::large_corpus_update_jobs(kApps, 1701, 900, 48, kMutateEvery));
  uint64_t methods_new = 0;
  size_t cold_jobs = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    service::JobStatus status = svc.wait(ids[i]);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    const bool mutated = i % kMutateEvery == 0;
    EXPECT_EQ(status.incremental, !mutated) << "app " << i;
    if (!mutated) {
      EXPECT_EQ(status.methods_new, 0u) << "app " << i;
      EXPECT_EQ(status.methods_reused, status.result.unique_trees);
    } else {
      ++cold_jobs;
      methods_new += status.methods_new;
    }
    // Invariant 14: warm or cold, the service's output is byte-identical
    // to the cold full run.
    EXPECT_EQ(status.result.dex_fingerprint, cold.jobs[i].dex_fingerprint)
        << "app " << i;
    EXPECT_EQ(status.result.dex, cold.jobs[i].dex) << "app " << i;
  }
  EXPECT_EQ(cold_jobs, kApps / kMutateEvery);
  // Store growth is exactly the mutated apps' new method trees plus one
  // revealed-dex blob per re-extracted app — nothing re-stored for the
  // warm majority.
  EXPECT_EQ(svc.store().stats().entries - entries_at_open,
            methods_new + cold_jobs);
  EXPECT_EQ(svc.stats().incremental_hits, kApps - cold_jobs);
}

TEST(Service, ForceJobsMatchBatchAndAreNeverCached) {
  // Force jobs run through pipeline::run_job on the service's workers and
  // must reveal exactly what run_batch reveals. Their exploration is never
  // cached (docs/SERVICE.md): a resubmission runs cold again and leaves the
  // manifest untouched.
  std::vector<pipeline::BatchJob> jobs = pipeline::guarded_jobs(2);
  pipeline::enable_force(jobs, {});
  pipeline::BatchReport batch = pipeline::run_batch(jobs, {});
  ASSERT_EQ(batch.fleet.ok, jobs.size());
  ASSERT_GT(batch.fleet.forced_paths, 0u);

  const std::string dir = fresh_dir("force");
  service::ServiceOptions options;
  options.threads = 2;
  ExtractionService svc(dir, options);
  const std::string manifest = dir + "/apps.log";
  const uintmax_t manifest_bytes = fs::file_size(manifest);
  for (const char* round : {"first", "resubmitted"}) {
    SCOPED_TRACE(round);
    std::vector<service::JobId> ids = svc.submit_batch(jobs);
    for (size_t i = 0; i < ids.size(); ++i) {
      service::JobStatus status = svc.wait(ids[i]);
      ASSERT_EQ(status.state, JobState::kDone) << status.error;
      EXPECT_FALSE(status.incremental) << "app " << i;
      EXPECT_EQ(status.result.dex_fingerprint, batch.jobs[i].dex_fingerprint)
          << "app " << i;
      EXPECT_EQ(status.result.dex, batch.jobs[i].dex) << "app " << i;
      EXPECT_EQ(status.result.force_paths, batch.jobs[i].force_paths)
          << "app " << i;
    }
    EXPECT_EQ(fs::file_size(manifest), manifest_bytes);
  }
  EXPECT_EQ(svc.manifest_entries(), 0u);
  EXPECT_EQ(svc.stats().incremental_hits, 0u);
  EXPECT_EQ(svc.stats().completed, 2 * jobs.size());
}

TEST(Service, QuotaBreachFailsOnlyOwnJobs) {
  const std::string dir = fresh_dir("quota");
  service::ServiceOptions options;
  options.threads = 1;
  ExtractionService svc(dir, options);
  svc.pause();  // keep everything queued so admission is deterministic
  svc.set_quota("small", {/*max_in_flight=*/2, /*max_in_flight_bytes=*/0});

  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(5);
  service::JobId small1 = svc.submit(std::move(jobs[0]), "small");
  service::JobId small2 = svc.submit(std::move(jobs[1]), "small");
  service::JobId small3 = svc.submit(std::move(jobs[2]), "small");
  service::JobId big1 = svc.submit(std::move(jobs[3]), "big");
  service::JobId big2 = svc.submit(std::move(jobs[4]), "big");

  // The breaching tenant's third job is rejected at submit; nobody else is
  // affected.
  service::JobStatus rejected = svc.poll(small3);
  EXPECT_EQ(rejected.state, JobState::kRejected);
  EXPECT_NE(rejected.error.find("quota"), std::string::npos);
  EXPECT_EQ(svc.poll(small1).state, JobState::kQueued);
  EXPECT_EQ(svc.poll(big1).state, JobState::kQueued);

  svc.resume();
  for (service::JobId id : {small1, small2, big1, big2}) {
    EXPECT_EQ(svc.wait(id).state, JobState::kDone);
  }
  // Terminal jobs release their quota charge: the tenant can submit again.
  service::JobId small4 =
      svc.submit(pipeline::generated_jobs(1)[0], "small");
  EXPECT_EQ(svc.wait(small4).state, JobState::kDone);
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(Service, ByteQuotaRejectsOversizedSubmissions) {
  const std::string dir = fresh_dir("byte_quota");
  service::ServiceOptions options;
  options.threads = 1;
  ExtractionService svc(dir, options);
  svc.set_quota("tiny", {/*max_in_flight=*/0, /*max_in_flight_bytes=*/1});

  service::JobId rejected = svc.submit(pipeline::generated_jobs(1)[0], "tiny");
  service::JobStatus status = svc.poll(rejected);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_NE(status.error.find("bytes"), std::string::npos);
  // The same app sails through for an unconstrained tenant.
  EXPECT_EQ(svc.wait(svc.submit(pipeline::generated_jobs(1)[0], "roomy")).state,
            JobState::kDone);
}

TEST(Service, MisbehavingJobIsIsolated) {
  const std::string dir = fresh_dir("isolation");
  service::ServiceOptions options;
  options.threads = 2;
  ExtractionService svc(dir, options);

  struct Boom {};
  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(2);
  pipeline::BatchJob broken;
  broken.name = "broken-apk";
  broken.apk.set_classes({0xde, 0xad, 0xbe, 0xef});
  pipeline::BatchJob thrower;
  thrower.name = "nonstd-throw";
  // Distinct scenario tag: this apk's bytes match a healthy generated app,
  // and the incremental cache must not serve the hostile job warm.
  thrower.scenario = "hostile";
  thrower.apk = pipeline::generated_jobs(1)[0].apk;
  thrower.configure_runtime = [](rt::Runtime&) { throw Boom{}; };

  service::JobId ok1 = svc.submit(std::move(jobs[0]));
  service::JobId bad1 = svc.submit(std::move(broken));
  service::JobId bad2 = svc.submit(std::move(thrower));
  service::JobId ok2 = svc.submit(std::move(jobs[1]));

  EXPECT_EQ(svc.wait(ok1).state, JobState::kDone);
  EXPECT_EQ(svc.wait(ok2).state, JobState::kDone);
  service::JobStatus failed1 = svc.wait(bad1);
  service::JobStatus failed2 = svc.wait(bad2);
  EXPECT_EQ(failed1.state, JobState::kFailed);
  EXPECT_FALSE(failed1.error.empty());
  EXPECT_EQ(failed2.state, JobState::kFailed);
  EXPECT_FALSE(failed2.error.empty());
  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.stats().failed, 2u);
  // Failed jobs never pollute the incremental manifest.
  EXPECT_EQ(svc.manifest_entries(), 2u);
}

TEST(Service, CancelDequeuesOnlyQueuedJobs) {
  const std::string dir = fresh_dir("cancel");
  service::ServiceOptions options;
  options.threads = 1;
  ExtractionService svc(dir, options);
  svc.pause();
  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(2);
  service::JobId keep = svc.submit(std::move(jobs[0]));
  service::JobId drop = svc.submit(std::move(jobs[1]));

  EXPECT_TRUE(svc.cancel(drop));
  EXPECT_FALSE(svc.cancel(drop));  // already terminal
  svc.resume();
  EXPECT_EQ(svc.wait(keep).state, JobState::kDone);
  EXPECT_EQ(svc.wait(drop).state, JobState::kCancelled);
  EXPECT_FALSE(svc.cancel(keep));  // terminal jobs cannot be cancelled
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, ClaimedOnlyWhenAWorkerStartsIt) {
  // A job reads kRunning only while a worker runs it: the jobs queued
  // behind a running one still read kQueued, and cancel still takes them.
  service::ServiceOptions options;
  options.threads = 1;
  ExtractionService svc(fresh_dir("claim"), options);
  svc.pause();
  std::promise<void> entered;
  std::future<void> in_first_job = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(5);
  // A classic job of one run builds one runtime, so this runs once.
  jobs[0].configure_runtime = [&entered, released,
                               base = jobs[0].configure_runtime](
                                  rt::Runtime& runtime) {
    entered.set_value();
    released.wait();
    if (base) base(runtime);
  };
  std::vector<service::JobId> ids = svc.submit_batch(std::move(jobs));

  svc.resume();
  in_first_job.wait();
  EXPECT_EQ(svc.poll(ids[0]).state, JobState::kRunning);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(svc.poll(ids[i]).state, JobState::kQueued) << "job " << i + 1;
  }
  EXPECT_TRUE(svc.cancel(ids[1]));
  release.set_value();
  svc.wait_idle();
  EXPECT_EQ(svc.poll(ids[1]).state, JobState::kCancelled);
  EXPECT_EQ(svc.stats().completed, 4u);
}

// --- ExtractionService: the apps.log manifest on disk -----------------------

constexpr size_t kManifestRecordBytes = RecordLog::kRecordHeaderBytes + 72;

service::ServiceOptions one_worker() {
  service::ServiceOptions options;
  options.threads = 1;  // jobs finish, and append to apps.log, in order
  return options;
}

TEST(Service, ManifestTruncationAtEveryByteRecoversCompleteRecords) {
  // Seed a store with a few apps, then simulate a crash at EVERY byte
  // offset of apps.log (the store logs stay intact): each reopen must
  // recover exactly the complete records, serve those apps warm and the
  // rest cold with run_batch's fingerprints, and keep the records the cold
  // runs append through one more reopen.
  constexpr size_t kApps = 3;
  const std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(kApps);
  const pipeline::BatchReport cold = pipeline::run_batch(jobs, {});
  ASSERT_EQ(cold.fleet.ok, kApps);
  const std::string seed_dir = fresh_dir("manifest_seed");
  {
    ExtractionService svc(seed_dir, one_worker());
    for (service::JobId id : svc.submit_batch(jobs)) {
      ASSERT_EQ(svc.wait(id).state, JobState::kDone);
    }
  }
  const std::vector<uint8_t> full = support::read_file(seed_dir + "/apps.log");
  ASSERT_EQ(full.size(), RecordLog::kHeaderBytes + kApps * kManifestRecordBytes);

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string dir = fresh_dir("manifest_cut");
    fs::copy(seed_dir, dir, fs::copy_options::recursive);
    support::write_file(dir + "/apps.log",
                        std::span<const uint8_t>(full.data(), cut));
    const size_t complete =
        cut < RecordLog::kHeaderBytes
            ? 0
            : (cut - RecordLog::kHeaderBytes) / kManifestRecordBytes;
    const size_t kept_prefix =
        cut < RecordLog::kHeaderBytes
            ? 0
            : RecordLog::kHeaderBytes + complete * kManifestRecordBytes;
    {
      ExtractionService svc(dir, one_worker());
      EXPECT_EQ(svc.manifest_entries(), complete);
      EXPECT_EQ(svc.open_stats().truncated_bytes, cut - kept_prefix);
      std::vector<service::JobId> ids = svc.submit_batch(jobs);
      for (size_t i = 0; i < ids.size(); ++i) {
        service::JobStatus status = svc.wait(ids[i]);
        ASSERT_EQ(status.state, JobState::kDone) << status.error;
        EXPECT_EQ(status.incremental, i < complete) << "app " << i;
        EXPECT_EQ(status.result.dex_fingerprint, cold.jobs[i].dex_fingerprint)
            << "app " << i;
      }
    }
    ExtractionService reopened(dir, one_worker());
    EXPECT_EQ(reopened.manifest_entries(), kApps);
    EXPECT_EQ(reopened.open_stats().truncated_bytes, 0u);
  }
}

TEST(Service, ManifestRecordWithoutItsDexRunsCold) {
  // Cut the store log that holds the last app's revealed-DEX blob just
  // before that blob and keep apps.log whole: that app's manifest record no
  // longer resolves, so it is dropped at load and the app runs cold, with
  // the cold fingerprint.
  constexpr size_t kApps = 3;
  const std::vector<pipeline::BatchJob> jobs = pipeline::generated_jobs(kApps);
  const pipeline::BatchReport cold = pipeline::run_batch(jobs, {});
  ASSERT_EQ(cold.fleet.ok, kApps);
  const std::string dir = fresh_dir("manifest_unresolved");
  std::vector<uint8_t> last_dex;
  {
    ExtractionService svc(dir, one_worker());
    for (service::JobId id : svc.submit_batch(jobs)) {
      service::JobStatus status = svc.wait(id);
      ASSERT_EQ(status.state, JobState::kDone);
      last_dex = status.result.dex;
    }
  }
  std::string log_path;
  std::vector<uint8_t> log;
  size_t blob = 0;
  for (const fs::directory_entry& file : fs::directory_iterator(dir)) {
    const std::string name = file.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const std::vector<uint8_t> bytes = support::read_file(file.path().string());
    for (size_t offset = PersistentDedupStore::kSegmentHeaderBytes;
         offset < bytes.size();) {
      uint32_t len;
      std::memcpy(&len, bytes.data() + offset + 4, sizeof len);
      const auto body =
          bytes.begin() + static_cast<std::ptrdiff_t>(
                              offset + PersistentDedupStore::kRecordHeaderBytes);
      if (len == last_dex.size() &&
          std::equal(last_dex.begin(), last_dex.end(), body)) {
        log_path = file.path().string();
        log = bytes;
        blob = offset;
      }
      offset += PersistentDedupStore::kRecordHeaderBytes + len;
    }
  }
  ASSERT_NE(blob, 0u);
  support::write_file(log_path, std::span<const uint8_t>(log.data(), blob));

  ExtractionService svc(dir, one_worker());
  EXPECT_EQ(svc.manifest_entries(), kApps - 1);
  std::vector<service::JobId> ids = svc.submit_batch(jobs);
  for (size_t i = 0; i < ids.size(); ++i) {
    service::JobStatus status = svc.wait(ids[i]);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_EQ(status.incremental, i + 1 < kApps) << "app " << i;
    EXPECT_EQ(status.result.dex_fingerprint, cold.jobs[i].dex_fingerprint)
        << "app " << i;
  }
}

TEST(Service, ForeignManifestHeaderIsRefusedNotWiped) {
  // An apps.log whose complete header is another version (here 1, the
  // format before record-log framing) refuses the open and stays intact.
  // Deleting it is the upgrade path: the method trees stay in the store and
  // each app re-extracts cold once, with nothing new to intern.
  const std::string dir = fresh_dir("foreign_manifest");
  const pipeline::BatchJob job = pipeline::generated_jobs(1)[0];
  {
    ExtractionService svc(dir, one_worker());
    ASSERT_EQ(svc.wait(svc.submit(job)).state, JobState::kDone);
  }
  const std::string manifest = dir + "/apps.log";
  std::vector<uint8_t> bytes = support::read_file(manifest);
  bytes[4] = 1;  // version field: 2 -> 1
  support::write_file(manifest, bytes);
  try {
    ExtractionService svc(dir, one_worker());
    ADD_FAILURE() << "opened a manifest with a foreign header";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(manifest), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(support::read_file(manifest), bytes);

  fs::remove(manifest);
  ExtractionService svc(dir, one_worker());
  EXPECT_EQ(svc.manifest_entries(), 0u);
  service::JobStatus status = svc.wait(svc.submit(job));
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_FALSE(status.incremental);
  EXPECT_EQ(status.methods_new, 0u);
}

TEST(Service, FailedManifestFsyncFailsTheJob) {
  // Manifest appends honour ServiceOptions::fsync like store appends: with
  // apps.log on /dev/null, where fsync(2) fails, the job fails and no
  // manifest entry appears.
  const std::string dir = fresh_dir("manifest_fsync");
  fs::create_directories(dir);
  fs::create_symlink("/dev/null", dir + "/apps.log");
  service::ServiceOptions options = one_worker();
  options.fsync = true;
  ExtractionService svc(dir, options);
  service::JobStatus status = svc.wait(svc.submit(pipeline::generated_jobs(1)[0]));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("fsync"), std::string::npos) << status.error;
  EXPECT_EQ(svc.manifest_entries(), 0u);
  EXPECT_THROW(svc.checkpoint(), std::runtime_error);
}

}  // namespace
}  // namespace dexlego

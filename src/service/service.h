// Long-running extraction service: lifts pipeline::run_batch's
// one-shot fleet into a submit/poll job API over a persistent store
// (docs/SERVICE.md). Multiple tenants multiplex jobs onto one work queue
// and one PersistentDedupStore, so method bodies extracted for any
// tenant dedup against every other's — and against everything extracted by
// previous incarnations of the service on the same store directory.
//
// The pieces:
//   - async job API: submit(BatchJob) -> JobId, poll/wait/cancel. Workers
//     run pipeline::run_job, the exact per-job path run_batch executes, so
//     service output is byte-identical to a batch run on the same inputs.
//   - per-tenant quotas + failure isolation: a tenant's in-flight job count
//     and byte budget cap what it can queue (breach -> kRejected, nothing
//     enqueued); a job that throws — std:: or not — fails only its own
//     JobId, never the worker or another tenant's jobs.
//   - incremental extraction: completed apps are recorded in a durable
//     manifest keyed by content fingerprint (apk bytes + scenario). A
//     resubmitted identical app is served warm from the manifest + store —
//     byte-identical dex, zero re-extraction — so after an app-store
//     catalog update only the changed apps pay for collection (ARCHITECTURE
//     invariant 14: warm incremental output == cold full output).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/pipeline/batch.h"
#include "src/service/persistent_store.h"

namespace dexlego::service {

using JobId = uint64_t;

enum class JobState {
  kQueued,     // accepted, waiting for a worker
  kRunning,    // claimed by a worker
  kDone,       // finished ok (cold or warm)
  kFailed,     // job-level failure; error says why
  kCancelled,  // dequeued by cancel() before a worker claimed it
  kRejected,   // refused at submit: tenant quota breach
};

const char* job_state_name(JobState state);

// Per-tenant admission budget, enforced at submit over that tenant's jobs
// still queued or running. 0 means unlimited. Bytes are measured as the
// submitted apk's entry payload total — the memory the queue pins.
struct TenantQuota {
  size_t max_in_flight = 0;
  uint64_t max_in_flight_bytes = 0;
};

// Snapshot of one job. `result` is populated once terminal (kDone/kFailed);
// `incremental` marks a warm manifest hit. methods_new/methods_reused split
// the job's method trees by whether the persistent store already held them
// (for a warm hit: everything reused, nothing new).
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string error;
  bool incremental = false;
  uint64_t methods_new = 0;
  uint64_t methods_reused = 0;
  pipeline::JobResult result;
};

struct ServiceOptions {
  size_t threads = 0;    // 0 = one worker per hardware thread
  bool keep_dex = true;  // keep revealed dex bytes in JobStatus::result
  TenantQuota default_quota;  // applies to tenants without a set_quota entry
  bool fsync = false;  // fsync store and manifest appends (RecordLog)
};

// Fleet counters since construction (not persisted).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;  // kDone
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t incremental_hits = 0;  // kDone jobs served warm
  uint64_t methods_new = 0;
  uint64_t methods_reused = 0;
};

class ExtractionService {
 public:
  // Opens (creating/replaying as needed) the persistent store and the app
  // manifest under `store_dir`, then starts the worker pool. Throws
  // std::runtime_error when the directory is unusable, another open store
  // holds its LOCK, or a log has a foreign header (the log is untouched).
  explicit ExtractionService(std::string store_dir, ServiceOptions options = {});
  // Drains the queue (finishing every accepted job), joins the workers and
  // closes the manifest, then the store.
  ~ExtractionService();

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  // Replaces `tenant`'s quota (otherwise ServiceOptions::default_quota
  // applies). Affects subsequent submits only.
  void set_quota(const std::string& tenant, TenantQuota quota);

  // Enqueues one job for `tenant`. Always returns a JobId — a quota breach
  // yields an id already in state kRejected (poll it for the error), so a
  // misbehaving tenant observes its own rejections without exceptions.
  JobId submit(pipeline::BatchJob job, const std::string& tenant = "default");
  std::vector<JobId> submit_batch(std::vector<pipeline::BatchJob> jobs,
                                  const std::string& tenant = "default");

  // Snapshot of a job's state. Unknown ids return state kRejected with an
  // error instead of throwing.
  JobStatus poll(JobId id) const;
  // Blocks until the job is terminal, then returns its final status.
  JobStatus wait(JobId id);
  // Dequeues a still-queued job. Returns false once a worker has claimed it
  // (running jobs are not interrupted) or if it is already terminal.
  bool cancel(JobId id);

  // Deterministic-scheduling aids for tests: pause() stops workers from
  // claiming NEW jobs (running ones finish), so submissions accumulate in
  // the queue; resume() releases them.
  void pause();
  void resume();
  // Blocks until no job is queued or running.
  void wait_idle();

  // Durability barrier: flushes the store's segments and the manifest
  // (fflush, plus fsync when ServiceOptions::fsync is set); throws
  // std::runtime_error when that fails.
  void checkpoint();

  ServiceStats stats() const;
  size_t manifest_entries() const;
  PersistentDedupStore& store() { return *store_; }
  // What the open found: the store's OpenStats with apps.log's replay
  // added in (its records count as validated, its torn tail as truncated).
  const PersistentDedupStore::OpenStats& open_stats() const {
    return open_stats_;
  }

 private:
  // One manifest record: what a completed job produced, keyed by the app's
  // content fingerprint. dex_id addresses the revealed dex bytes in the
  // persistent store (interned there BEFORE the manifest record is
  // appended, so a manifest entry never outlives its payload — records
  // whose dex_id does not resolve at load are dropped).
  struct ManifestEntry {
    uint64_t dex_id = 0;
    uint64_t dex_fingerprint = 0;
    uint64_t tree_count = 0;  // JobResult::unique_trees
    uint64_t leaks = 0;
    bool verified = false;
    double instruction_coverage = 0.0;
    double branch_coverage = 0.0;
    uint64_t collection_bytes = 0;
  };

  struct TenantState {
    TenantQuota quota;
    bool quota_set = false;  // false = default_quota applies
    size_t in_flight = 0;
    uint64_t in_flight_bytes = 0;
  };

  struct Record {
    pipeline::BatchJob job;
    JobStatus status;
    uint64_t bytes = 0;  // quota accounting charge
  };

  static uint64_t job_bytes(const pipeline::BatchJob& job);
  static uint64_t cache_key(const pipeline::BatchJob& job);

  void worker_loop();
  void execute(Record& record);
  // Serves a warm result from the manifest if the fingerprint is present and
  // its dex payload resolves in the store; returns false (result untouched)
  // when the app must run cold.
  bool try_warm(const pipeline::BatchJob& job, uint64_t key,
                pipeline::JobResult& result);
  void load_manifest();
  void append_manifest(uint64_t key, const ManifestEntry& entry);
  // Requires mu_ held.
  void release_tenant(const std::string& tenant, uint64_t bytes);

  std::string dir_;
  ServiceOptions options_;
  std::unique_ptr<PersistentDedupStore> store_;
  PersistentDedupStore::OpenStats open_stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::deque<JobId> queue_;
  std::unordered_map<JobId, Record> records_;
  std::unordered_map<std::string, TenantState> tenants_;
  ServiceStats stats_;
  JobId next_id_ = 1;
  size_t running_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  // Keeps manifest_ in apps.log's order. The log closes before store_.
  mutable std::mutex manifest_mu_;
  std::unordered_map<uint64_t, ManifestEntry> manifest_;
  std::unique_ptr<RecordLog> manifest_log_;

  std::vector<std::thread> workers_;
};

}  // namespace dexlego::service

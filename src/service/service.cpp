#include "src/service/service.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"
#include "src/support/timer.h"

namespace dexlego::service {

namespace {

// apps.log: a record log (record_log.h) of 72-byte payloads, so 88-byte
// records, with last-wins semantics per app key (a re-extracted app simply
// appends a fresher record).
constexpr uint32_t kManifestMagic = 0x48504144;  // "DAPH"
constexpr uint32_t kManifestVersion = 2;

uint64_t bits_of(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

double double_of(uint64_t v) {
  double out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

bool terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kRejected;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
  }
  return "unknown";
}

ExtractionService::ExtractionService(std::string store_dir,
                                     ServiceOptions options)
    : dir_(std::move(store_dir)), options_(options) {
  PersistentDedupStore::Options store_options;
  store_options.fsync = options_.fsync;
  store_ = std::make_unique<PersistentDedupStore>(dir_, store_options);
  open_stats_ = store_->open_stats();
  load_manifest();

  size_t threads = options_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads < 1) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ExtractionService::~ExtractionService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused service still drains its accepted jobs
    cv_work_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  // Every append was flushed as it happened, so there is nothing left to
  // write: the members close apps.log, then the store's segments and LOCK.
}

uint64_t ExtractionService::job_bytes(const pipeline::BatchJob& job) {
  uint64_t total = 0;
  for (const std::string& name : job.apk.entry_names()) {
    total += job.apk.entry(name).size();
  }
  return total;
}

uint64_t ExtractionService::cache_key(const pipeline::BatchJob& job) {
  // Content fingerprint of the INPUT: the serialized apk plus the scenario
  // tag. Jobs whose reveal options differ per scenario must use distinct
  // scenario strings — the contract docs/SERVICE.md spells out.
  support::Fnv1a h;
  std::vector<uint8_t> bytes = job.apk.write();
  h.add_bytes(bytes);
  h.add(support::fnv1a(job.scenario));
  return h.digest();
}

void ExtractionService::set_quota(const std::string& tenant,
                                  TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = tenants_[tenant];
  state.quota = quota;
  state.quota_set = true;
}

JobId ExtractionService::submit(pipeline::BatchJob job,
                                const std::string& tenant) {
  const uint64_t bytes = job_bytes(job);
  std::lock_guard<std::mutex> lock(mu_);
  const JobId id = next_id_++;
  Record& record = records_[id];
  record.status.id = id;
  record.status.tenant = tenant;
  record.bytes = bytes;
  ++stats_.submitted;

  TenantState& state = tenants_[tenant];
  const TenantQuota& quota =
      state.quota_set ? state.quota : options_.default_quota;
  const bool over_jobs =
      quota.max_in_flight != 0 && state.in_flight + 1 > quota.max_in_flight;
  const bool over_bytes =
      quota.max_in_flight_bytes != 0 &&
      state.in_flight_bytes + bytes > quota.max_in_flight_bytes;
  if (stopping_ || over_jobs || over_bytes) {
    record.status.state = JobState::kRejected;
    record.status.error =
        stopping_ ? "service is shutting down"
        : over_jobs
            ? "tenant quota exceeded: max_in_flight=" +
                  std::to_string(quota.max_in_flight)
            : "tenant quota exceeded: max_in_flight_bytes=" +
                  std::to_string(quota.max_in_flight_bytes);
    ++stats_.rejected;
    cv_done_.notify_all();
    return id;
  }

  record.job = std::move(job);
  record.status.state = JobState::kQueued;
  state.in_flight += 1;
  state.in_flight_bytes += bytes;
  queue_.push_back(id);
  cv_work_.notify_one();
  return id;
}

std::vector<JobId> ExtractionService::submit_batch(
    std::vector<pipeline::BatchJob> jobs, const std::string& tenant) {
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  for (pipeline::BatchJob& job : jobs) {
    ids.push_back(submit(std::move(job), tenant));
  }
  return ids;
}

JobStatus ExtractionService::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    JobStatus missing;
    missing.id = id;
    missing.state = JobState::kRejected;
    missing.error = "unknown job id";
    return missing;
  }
  return it->second.status;
}

JobStatus ExtractionService::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    JobStatus missing;
    missing.id = id;
    missing.state = JobState::kRejected;
    missing.error = "unknown job id";
    return missing;
  }
  Record& record = it->second;  // node-stable across rehash; never erased
  cv_done_.wait(lock, [&] { return terminal(record.status.state); });
  return record.status;
}

bool ExtractionService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end() || it->second.status.state != JobState::kQueued) {
    return false;  // already claimed, terminal, or unknown
  }
  auto pos = std::find(queue_.begin(), queue_.end(), id);
  if (pos == queue_.end()) return false;
  queue_.erase(pos);
  it->second.status.state = JobState::kCancelled;
  it->second.status.error = "cancelled before execution";
  ++stats_.cancelled;
  release_tenant(it->second.status.tenant, it->second.bytes);
  cv_done_.notify_all();
  return true;
}

void ExtractionService::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void ExtractionService::resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  cv_work_.notify_all();
}

void ExtractionService::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void ExtractionService::checkpoint() {
  store_->flush();
  manifest_log_->flush();
}

ServiceStats ExtractionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ExtractionService::manifest_entries() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_.size();
}

void ExtractionService::release_tenant(const std::string& tenant,
                                       uint64_t bytes) {
  TenantState& state = tenants_[tenant];
  if (state.in_flight > 0) state.in_flight -= 1;
  state.in_flight_bytes -= std::min(state.in_flight_bytes, bytes);
}

void ExtractionService::worker_loop() {
  for (;;) {
    Record* record = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // One job per claim: a job reads kRunning only while a worker runs
      // it, so the jobs behind it stay queued and cancellable.
      record = &records_.at(queue_.front());
      queue_.pop_front();
      record->status.state = JobState::kRunning;
      ++running_;
    }
    execute(*record);
  }
}

void ExtractionService::execute(Record& record) {
  // record.job is immutable once queued and only this worker owns the
  // record until the terminal publish below, so the extraction itself runs
  // without holding mu_.
  const pipeline::BatchJob& job = record.job;
  pipeline::JobResult result;
  bool warm = false;
  try {
    const bool cacheable = !job.force;  // force exploration is never cached
    const uint64_t key = cacheable ? cache_key(job) : 0;
    warm = cacheable && try_warm(job, key, result);
    if (!warm) {
      // keep_dex forced on: the revealed dex must be persisted for future
      // warm hits even when the caller does not want the bytes back.
      result = pipeline::run_job(job, *store_, /*keep_dex=*/true);
      if (result.ok && cacheable) {
        ManifestEntry entry;
        std::vector<uint8_t> dex = result.dex;
        entry.dex_id = store_->intern(std::move(dex)).id;
        entry.dex_fingerprint = result.dex_fingerprint;
        entry.tree_count = result.unique_trees;
        entry.leaks = result.leaks_observed;
        entry.verified = result.verified;
        entry.instruction_coverage = result.instruction_coverage;
        entry.branch_coverage = result.branch_coverage;
        entry.collection_bytes = result.collection_bytes;
        // Ordering is the crash contract: the dex bytes hit the store log
        // (write-ahead, inside intern) before this record exists, so a
        // manifest entry can never point at bytes a crash lost.
        append_manifest(key, entry);
      }
    }
    if (!options_.keep_dex) {
      result.dex.clear();
      result.dex.shrink_to_fit();
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  } catch (...) {
    // Fail closed for non-std throws too: the tenant's job fails, the
    // worker survives.
    result.ok = false;
    result.error = "unknown exception (non-std type)";
  }
  if (result.name.empty()) result.name = job.name;
  if (result.scenario.empty()) result.scenario = job.scenario;

  std::lock_guard<std::mutex> lock(mu_);
  JobStatus& status = record.status;
  status.incremental = warm;
  status.methods_new = warm ? 0 : result.dedup_misses;
  status.methods_reused = warm ? result.unique_trees : result.dedup_hits;
  status.state = result.ok ? JobState::kDone : JobState::kFailed;
  status.error = result.error;
  status.result = std::move(result);
  if (status.state == JobState::kDone) {
    ++stats_.completed;
    if (warm) ++stats_.incremental_hits;
  } else {
    ++stats_.failed;
  }
  stats_.methods_new += status.methods_new;
  stats_.methods_reused += status.methods_reused;
  release_tenant(status.tenant, record.bytes);
  running_ -= 1;
  cv_done_.notify_all();
}

bool ExtractionService::try_warm(const pipeline::BatchJob& job, uint64_t key,
                                 pipeline::JobResult& result) {
  ManifestEntry entry;
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    auto it = manifest_.find(key);
    if (it == manifest_.end()) return false;
    entry = it->second;
  }
  const std::vector<uint8_t>* dex = store_->lookup(entry.dex_id);
  if (!dex) return false;  // payload unexpectedly missing: run cold
  support::Stopwatch wall;
  result = pipeline::JobResult{};
  result.name = job.name;
  result.scenario = job.scenario;
  result.expect_leak = job.expect_leak;
  result.ok = true;
  result.verified = entry.verified;
  result.leaks_observed = static_cast<size_t>(entry.leaks);
  result.instruction_coverage = entry.instruction_coverage;
  result.branch_coverage = entry.branch_coverage;
  result.collection_bytes = static_cast<size_t>(entry.collection_bytes);
  result.unique_trees = entry.tree_count;
  result.dex_fingerprint = entry.dex_fingerprint;
  if (options_.keep_dex) result.dex = *dex;
  result.wall_ms = wall.elapsed_ms();
  return true;
}

void ExtractionService::load_manifest() {
  const std::string path = dir_ + "/apps.log";
  size_t dropped_unresolved = 0;
  open_stats_.add(RecordLog::replay(
      path, kManifestMagic, kManifestVersion,
      [&](std::span<const uint8_t> payload) {
        support::ByteReader r(payload);  // throws if a record is short
        const uint64_t key = r.u64();
        ManifestEntry entry;
        entry.dex_id = r.u64();
        entry.dex_fingerprint = r.u64();
        entry.tree_count = r.u64();
        entry.leaks = r.u64();
        entry.verified = r.u64() != 0;
        entry.instruction_coverage = double_of(r.u64());
        entry.branch_coverage = double_of(r.u64());
        entry.collection_bytes = r.u64();
        if (store_->lookup(entry.dex_id) == nullptr) {
          // The record survived but its dex payload did not (e.g. the store
          // log's tail was torn further back than the manifest's). Serving
          // it warm would fabricate bytes; drop it and let the app
          // re-extract cold.
          ++dropped_unresolved;
          return;
        }
        manifest_[key] = entry;  // last record for a key wins
      }));
  if (dropped_unresolved > 0) {
    DL_WARN << "service manifest: dropped " << dropped_unresolved
            << " records whose dex payload is not in the store";
  }
  manifest_log_ = std::make_unique<RecordLog>(path, kManifestMagic,
                                               kManifestVersion, options_.fsync);
}

void ExtractionService::append_manifest(uint64_t key,
                                        const ManifestEntry& entry) {
  support::ByteWriter w;
  w.u64(key);
  w.u64(entry.dex_id);
  w.u64(entry.dex_fingerprint);
  w.u64(entry.tree_count);
  w.u64(entry.leaks);
  w.u64(entry.verified ? 1 : 0);
  w.u64(bits_of(entry.instruction_coverage));
  w.u64(bits_of(entry.branch_coverage));
  w.u64(entry.collection_bytes);

  std::lock_guard<std::mutex> lock(manifest_mu_);
  manifest_log_->append(w.data());
  manifest_[key] = entry;
}

}  // namespace dexlego::service

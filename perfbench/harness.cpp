// perfbench harness: runs one workload through the library's public entry
// points (pipeline::run_batch and service::ExtractionService) and prints one
// JSON object of raw samples on stdout. perfbench/run.py builds this binary,
// turns the samples into the metrics named in BENCHMARK.json and checks the
// revealed output against the pinned digests.
//
// Workloads (see perfbench/README.md for why each exists):
//   market_cold     large_corpus_jobs through run_batch, fresh DedupStore
//   force_guarded   guarded_jobs with enable_force through run_batch
//   service_update  large_corpus_update_jobs submitted to an
//                   ExtractionService reopened on a store seeded with the
//                   base catalogue: a windowed pass (latency) then a bulk
//                   pass (throughput, CPU), each on its own store copy
//
// Phases of one invocation: set-up (repeated, each timed), one untimed
// warm-up pass that is also the output reference, then timed passes until
// --seconds of wall time are spent. With --trace 1 each timed pass is
// preceded by a traced pass: the same jobs run through the same public
// functions pipeline::run_one and run_job's force path call, in the same
// order, with a stopwatch around each layer call. Alternating keeps both
// under the same host load when their CPU time is compared.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// Every pass keeps at most min(2, nproc) threads busy: run_batch workers, or
// service workers plus the one submitting thread.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/bytecode/verify_code.h"
#include "src/core/dexlego.h"
#include "src/core/files.h"
#include "src/core/reassembler.h"
#include "src/coverage/force.h"
#include "src/coverage/force_engine.h"
#include "src/coverage/tracker.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"
#include "src/service/service.h"
#include "src/support/hash.h"
#include "src/support/timer.h"

using namespace dexlego;
namespace fs = std::filesystem;

namespace {

// --- workload shape --------------------------------------------------------

constexpr size_t kMarketApps = 1000;
constexpr size_t kGuardedApps = 48;
constexpr size_t kGuardedUnits = 4000;
// service_update mutates every 5th app: with 20% of its jobs on the cold
// path, job_ms_p50 reads the warm path and job_ms_p90 the cold one, each
// well away from the boundary between them.
constexpr size_t kMutateEvery = 5;
// Set-up repeats (setup_s is their median): at least kMinSetups, and more
// until kSetupBudgetMs is spent, so a short set-up is timed many times.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetMs = 1000.0;
constexpr size_t kMinJobs = 100;     // pooled latency samples per phase
constexpr size_t kMinPasses = 3;     // timed passes per phase, at least
// Jobs outstanding per service worker. Small, so a job's latency is its own
// path plus at most one job ahead of it, not the length of a queue.
constexpr size_t kWindowPerWorker = 2;
// Poll interval of a bulk service pass: ends the timed wall at most this far
// past the last job, against a pass of ~250 ms.
constexpr std::chrono::microseconds kBulkPollInterval{500};

// Generator seeds: --seed 0 is the library's own default population.
uint64_t market_seed0(uint64_t seed) { return 1701 + seed * 1000003; }
uint64_t guarded_seed0(uint64_t seed) { return 301 + seed * 1000003; }

std::vector<pipeline::BatchJob> market_jobs(uint64_t seed) {
  return pipeline::large_corpus_jobs(kMarketApps, market_seed0(seed));
}

std::vector<pipeline::BatchJob> market_update_jobs(uint64_t seed) {
  return pipeline::large_corpus_update_jobs(kMarketApps, market_seed0(seed),
                                            900, 48, kMutateEvery, 1);
}

std::vector<pipeline::BatchJob> force_jobs(uint64_t seed) {
  std::vector<pipeline::BatchJob> jobs =
      pipeline::guarded_jobs(kGuardedApps, guarded_seed0(seed), kGuardedUnits);
  return pipeline::enable_force(jobs, coverage::ForceEngineOptions{});
}

// --- process measurements ----------------------------------------------------

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// Peak RSS of this program: VmHWM, in kB. getrusage's ru_maxrss survives
// exec, so a parent with a larger peak than ours (a script that spawned us
// after reading big outputs) would set it; it is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// --- one pass over a corpus ----------------------------------------------------

// Everything one pass measured. Per-job vectors are in input order.
struct Pass {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;      // worker CPU over the pass
  std::vector<double> job_ms;      // JobResult::wall_ms, or submit -> done
  std::vector<double> job_cpu_ms;  // JobResult::cpu_ms
  std::vector<uint64_t> fingerprints;
  size_t verified = 0;
  size_t failed = 0;
  // Batch scheduler / dedup counters (FleetStats) or service equivalents.
  uint64_t useful = 0;    // dedup hits (batch) or reused trees (service)
  uint64_t attempts = 0;  // interns offered
  uint64_t queue_pops = 0;
  uint64_t queue_tasks = 0;
  // Service only.
  double open_ms = 0.0;
  double checkpoint_ms = 0.0;
  uint64_t bytes_appended = 0;
  size_t warm = 0;
  std::vector<double> queue_wait_ms;
};

Pass batch_pass(const std::vector<pipeline::BatchJob>& jobs, size_t workers) {
  pipeline::BatchOptions options;
  options.threads = workers;
  options.keep_dex = false;
  Pass pass;
  double cpu_start = process_cpu_ms();
  support::Stopwatch wall;
  pipeline::BatchReport report = pipeline::run_batch(jobs, options);
  pass.wall_ms = wall.elapsed_ms();
  pass.cpu_ms = process_cpu_ms() - cpu_start;
  for (const pipeline::JobResult& job : report.jobs) {
    pass.job_ms.push_back(job.wall_ms);
    pass.job_cpu_ms.push_back(job.cpu_ms);
    pass.fingerprints.push_back(job.dex_fingerprint);
    pass.verified += job.verified ? 1 : 0;
    pass.failed += job.ok ? 0 : 1;
  }
  pass.useful = report.fleet.dedup_hits;
  pass.attempts = report.fleet.dedup_hits + report.fleet.dedup_misses;
  pass.queue_pops = report.fleet.queue_pops;
  pass.queue_tasks = report.fleet.queue_tasks;
  return pass;
}

// Closed loop from this one thread: keeps `window` jobs outstanding and waits
// for them in submission order. A job's latency is from submit until a poll
// first sees it terminal. A window of 0 submits the whole corpus at once and
// sleeps between polls, so the submitter takes neither a vCPU nor the
// service's lock from the workers: such a pass measures throughput, and its
// latencies only restate the queue.
Pass service_pass(const std::string& dir, std::vector<pipeline::BatchJob> jobs,
                  size_t workers, size_t window) {
  Pass pass;
  const uint64_t bytes_before = fs::exists(dir) ? dir_bytes(dir) : 0;
  service::ServiceOptions options;
  options.threads = workers;
  options.keep_dex = false;
  {
    support::Stopwatch open;
    service::ExtractionService svc(dir, options);
    pass.open_ms = open.elapsed_ms();

    struct Outstanding {
      service::JobId id;
      size_t index;
      support::Stopwatch since_submit;
    };
    const bool bulk = window == 0;
    if (bulk) window = jobs.size();
    pass.job_ms.resize(jobs.size());
    pass.queue_wait_ms.resize(jobs.size());
    pass.job_cpu_ms.resize(jobs.size());
    pass.fingerprints.resize(jobs.size());
    std::deque<Outstanding> outstanding;
    size_t next = 0;
    double cpu_start = process_cpu_ms();
    double submitter_cpu_start = support::thread_cpu_ms();
    support::Stopwatch wall;
    while (next < jobs.size() || !outstanding.empty()) {
      while (next < jobs.size() && outstanding.size() < window) {
        support::Stopwatch since_submit;
        service::JobId id = svc.submit(std::move(jobs[next]));
        outstanding.push_back(Outstanding{id, next, since_submit});
        ++next;
      }
      Outstanding head = outstanding.front();
      outstanding.pop_front();
      // Poll instead of a blocking wait: a wait adds a thread wake-up to
      // every job, and on a shared VM wake-up latency swings with the
      // neighbours' load far more than the ~50 us warm path it would time.
      service::JobStatus status = svc.poll(head.id);
      while (status.state == service::JobState::kQueued ||
             status.state == service::JobState::kRunning) {
        if (bulk) {
          std::this_thread::sleep_for(kBulkPollInterval);
        } else {
          std::this_thread::yield();
        }
        status = svc.poll(head.id);
      }
      const double latency = head.since_submit.elapsed_ms();
      pass.job_ms[head.index] = latency;
      pass.queue_wait_ms[head.index] = latency - status.result.wall_ms;
      pass.fingerprints[head.index] = status.result.dex_fingerprint;
      pass.job_cpu_ms[head.index] = status.result.cpu_ms;
      pass.verified += status.result.verified ? 1 : 0;
      pass.failed += status.state == service::JobState::kDone ? 0 : 1;
      pass.warm += status.incremental ? 1 : 0;
    }
    pass.wall_ms = wall.elapsed_ms();
    // Worker CPU: the process's, less this thread's polling.
    pass.cpu_ms = (process_cpu_ms() - cpu_start) -
                  (support::thread_cpu_ms() - submitter_cpu_start);

    support::Stopwatch checkpoint;
    svc.checkpoint();
    pass.checkpoint_ms = checkpoint.elapsed_ms();
    service::ServiceStats stats = svc.stats();
    pass.useful = stats.methods_reused;
    pass.attempts = stats.methods_reused + stats.methods_new;
  }
  pass.bytes_appended = dir_bytes(dir) - bytes_before;
  return pass;
}

// --- the traced pass ---------------------------------------------------------

enum Stage : size_t {
  kConstruct,
  kInstall,
  kExecute,
  kEncode,
  kDecode,
  kReassemble,
  kMerge,
  kVerify,
  kSerialize,
  kParse,
  kReport,
  kPlan,
  kIntern,
  kStageCount,
};

constexpr std::array<const char*, kStageCount> kStageNames = {
    "runtime.construct", "runtime.install",  "runtime.execute",
    "core.encode",       "core.decode",      "core.reassemble",
    "core.merge",        "bytecode.verify",  "dex.serialize",
    "dex.parse",         "coverage.report",  "coverage.plan",
    "pipeline.intern",
};

struct JobTrace {
  std::array<double, kStageCount> stage_ms{};
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // thread CPU, as JobResult::cpu_ms measures it
  size_t runs = 0;
  uint64_t fingerprint = 0;
  bool ok = false;
};

// Adds the wall time of its scope to one stage of a job's trace.
class Span {
 public:
  Span(JobTrace& trace, Stage stage) : slot_(trace.stage_ms[stage]) {}
  ~Span() { slot_ += watch_.elapsed_ms(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& slot_;
  support::Stopwatch watch_;
};

// DexLego::collect with spans: `runs` fresh runtimes sharing one collector,
// hooks attached in the order run_one / run_unit attach them.
core::CollectionOutput traced_collect(const pipeline::BatchJob& job, int runs,
                                      coverage::CoverageTracker& tracker,
                                      coverage::ForceHooks* force,
                                      JobTrace& trace) {
  const core::DexLegoOptions& options = job.reveal;
  core::Collector collector(options.collector);
  for (int run = 0; run < runs; ++run) {
    std::optional<rt::Runtime> runtime;
    {
      Span span(trace, kConstruct);
      runtime.emplace(options.runtime);
    }
    if (options.configure_runtime) options.configure_runtime(*runtime);
    if (job.configure_runtime) job.configure_runtime(*runtime);
    runtime->add_hooks(&tracker);
    if (force != nullptr) runtime->add_hooks(force);
    runtime->add_hooks(&collector);
    {
      Span span(trace, kInstall);
      runtime->install(job.apk);
    }
    {
      Span span(trace, kExecute);
      if (options.driver) {
        options.driver(*runtime, run);
      } else {
        core::default_driver(*runtime, run);
      }
      (void)runtime->leaks();
    }
    runtime->remove_hooks(&collector);
    {
      Span span(trace, kConstruct);  // teardown of the run's heap
      runtime.reset();
    }
    ++trace.runs;
  }
  return collector.take_output();
}

// The offline half as run_one / finalize_force_app run it: encode, then
// DexLego::reassemble_files (decode, reassemble, verify, write_dex), intern,
// fingerprint, and the coverage report against the re-parsed original. Each
// intermediate is released inside the span of the stage that uses it last,
// so freeing memory is charged to the layer whose data it is.
void traced_finish(const pipeline::BatchJob& job,
                   core::CollectionOutput collected,
                   const coverage::CoverageTracker& tracker,
                   pipeline::DedupStore& store, JobTrace& trace) {
  core::CollectionFiles files;
  {
    Span span(trace, kEncode);
    files = core::encode_collection(collected);
    collected = {};
  }
  core::CollectionOutput decoded;
  {
    Span span(trace, kDecode);
    decoded = core::decode_collection(files);
    files = {};
  }
  core::ReassembleResult ra;
  {
    Span span(trace, kReassemble);
    ra = core::reassemble(decoded, job.reveal.reassemble);
  }
  {
    Span span(trace, kVerify);
    (void)bc::verify_dex(ra.file);
  }
  {
    Span span(trace, kSerialize);
    dex::Apk revealed = job.apk;
    dex::strip_real_classes(revealed);
    revealed.set_classes(dex::write_dex(ra.file));
    ra = {};
    trace.fingerprint = support::fnv1a(revealed.classes());
  }
  {
    Span span(trace, kIntern);
    pipeline::intern_collection(decoded, store);
    decoded = {};
  }
  try {
    dex::DexFile original;
    {
      Span span(trace, kParse);
      original = dex::load_classes(job.apk);
    }
    Span span(trace, kReport);
    (void)tracker.report(original);
    original = {};
  } catch (const std::exception&) {
  }
}

void traced_classic(const pipeline::BatchJob& job, pipeline::DedupStore& store,
                    JobTrace& trace) {
  std::optional<coverage::CoverageTracker> tracker(std::in_place);
  core::CollectionOutput collected = traced_collect(
      job, std::max(1, job.reveal.runs), *tracker, nullptr, trace);
  traced_finish(job, std::move(collected), *tracker, store, trace);
  {
    Span span(trace, kReport);
    tracker.reset();
  }
  // A classic job has no merge or plan step. Their spans still open and
  // close, so every job reports every stage and these read as the tracer's
  // own floor rather than a constant zero.
  Span merge(trace, kMerge);
  Span plan(trace, kPlan);
}

// run_job's force path: baseline unit, then ForceEngine waves run serially,
// each unit's collection merged and observed in plan order.
void traced_force(const pipeline::BatchJob& job, pipeline::DedupStore& store,
                  JobTrace& trace) {
  std::unique_ptr<coverage::ForceEngine> engine;
  core::CollectionOutput merged;
  std::vector<coverage::PlanUnit> wave{coverage::PlanUnit{}};
  while (!wave.empty()) {
    struct UnitOutput {
      core::CollectionOutput collection;
      coverage::CoverageTracker coverage;
    };
    std::vector<UnitOutput> outputs(wave.size());
    for (size_t s = 0; s < wave.size(); ++s) {
      const coverage::PlanUnit& unit = wave[s];
      coverage::ForceHooks force_hooks(unit.plan);
      int runs = unit.plan.empty() ? std::max(1, job.reveal.runs) : 1;
      outputs[s].collection =
          traced_collect(job, runs, outputs[s].coverage,
                         unit.plan.empty() ? nullptr : &force_hooks, trace);
    }
    if (engine == nullptr) {
      dex::DexFile original;
      {
        Span span(trace, kParse);
        original = dex::load_classes(job.apk);
      }
      Span span(trace, kPlan);
      engine = std::make_unique<coverage::ForceEngine>(original,
                                                       job.force_options);
    }
    for (size_t s = 0; s < wave.size(); ++s) {
      {
        Span span(trace, kMerge);
        core::merge_collection(merged, std::move(outputs[s].collection),
                               job.reveal.collector.max_variants);
      }
      Span span(trace, kPlan);
      engine->observe(wave[s], outputs[s].coverage);
      outputs[s] = UnitOutput{};
    }
    Span span(trace, kPlan);
    wave = engine->next_wave();
  }
  traced_finish(job, std::move(merged), engine->coverage(), store, trace);
  Span span(trace, kPlan);
  engine.reset();
}

// Calls fn(i) for every app index on `workers` threads, one whole app at a
// time, as run_batch's workers take classic apps.
template <typename Fn>
void per_app(size_t count, size_t workers, Fn&& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next++; i < count; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
}

// Traced jobs, all interning into one fresh store.
std::vector<JobTrace> traced_pass(
    const std::vector<const pipeline::BatchJob*>& jobs, size_t workers) {
  std::vector<JobTrace> traces(jobs.size());
  pipeline::DedupStore store;
  per_app(jobs.size(), workers, [&](size_t i) {
    const pipeline::BatchJob& job = *jobs[i];
    JobTrace& trace = traces[i];
    support::Stopwatch wall;
    double cpu_start = support::thread_cpu_ms();
    try {
      if (job.force) {
        traced_force(job, store, trace);
      } else {
        traced_classic(job, store, trace);
      }
      trace.ok = true;
    } catch (...) {
      trace.ok = false;
    }
    trace.wall_ms = wall.elapsed_ms();
    trace.cpu_ms = support::thread_cpu_ms() - cpu_start;
  });
  return traces;
}

// The untraced twin of traced_pass: the same apps on the same schedule into
// a fresh store, through pipeline::run_job. For force jobs this is the
// untraced side of trace.overhead. run_batch spreads an app's plan units over
// its workers, and that schedule has spent up to ~1.4x the job CPU of the
// serial one that run_job and the traced pass share.
std::vector<JobTrace> run_job_pass(
    const std::vector<const pipeline::BatchJob*>& jobs, size_t workers) {
  std::vector<JobTrace> results(jobs.size());
  pipeline::DedupStore store;
  per_app(jobs.size(), workers, [&](size_t i) {
    pipeline::JobResult result =
        pipeline::run_job(*jobs[i], store, /*keep_dex=*/false);
    JobTrace& out = results[i];
    out.wall_ms = result.wall_ms;
    out.cpu_ms = result.cpu_ms;
    out.fingerprint = result.dex_fingerprint;
    out.ok = result.ok;
  });
  return results;
}

// --- JSON output ----------------------------------------------------------------

class Json {
 public:
  void open(const char* key = nullptr) { begin(key); out_ += '{'; first_ = true; }
  void close() { out_ += '}'; first_ = false; }
  void open_list(const char* key) { begin(key); out_ += '['; first_ = true; }
  void close_list() { out_ += ']'; first_ = false; }
  void num(const char* key, double v) {
    begin(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void num(const char* key, uint64_t v) { begin(key); out_ += std::to_string(v); }
  template <typename T>
  void list(const char* key, const std::vector<T>& values) {
    open_list(key);
    for (const T& v : values) num(nullptr, v);
    close_list();
  }
  const std::string& text() const { return out_; }

 private:
  void begin(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) out_ += std::string("\"") + key + "\":";
  }
  std::string out_;
  bool first_ = true;
};

void write_pass(Json& json, const Pass& pass, const char* key = nullptr) {
  json.open(key);
  json.num("wall_ms", pass.wall_ms);
  json.num("cpu_ms", pass.cpu_ms);
  json.list("job_ms", pass.job_ms);
  json.list("job_cpu_ms", pass.job_cpu_ms);
  json.list("fingerprints", pass.fingerprints);
  json.num("verified", uint64_t{pass.verified});
  json.num("failed", uint64_t{pass.failed});
  json.num("useful", pass.useful);
  json.num("attempts", pass.attempts);
  json.num("queue_pops", pass.queue_pops);
  json.num("queue_tasks", pass.queue_tasks);
  json.num("open_ms", pass.open_ms);
  json.num("checkpoint_ms", pass.checkpoint_ms);
  json.num("bytes_appended", pass.bytes_appended);
  json.num("warm", uint64_t{pass.warm});
  json.list("queue_wait_ms", pass.queue_wait_ms);
  json.close();
}

void write_traced(Json& json, const std::vector<JobTrace>& pass) {
  json.open();
  std::array<double, kStageCount> stage_ms{};
  double job_wall_ms = 0.0;
  std::vector<double> job_cpu_ms;
  std::vector<uint64_t> fingerprints;
  uint64_t runs = 0, failed = 0;
  for (const JobTrace& job : pass) {
    for (size_t s = 0; s < kStageCount; ++s) stage_ms[s] += job.stage_ms[s];
    job_wall_ms += job.wall_ms;
    job_cpu_ms.push_back(job.cpu_ms);
    fingerprints.push_back(job.fingerprint);
    runs += job.runs;
    failed += job.ok ? 0 : 1;
  }
  json.num("jobs", uint64_t{pass.size()});
  json.num("job_wall_ms", job_wall_ms);
  json.num("runs", runs);
  json.num("failed", failed);
  json.list("job_cpu_ms", job_cpu_ms);
  json.list("fingerprints", fingerprints);
  json.open("stage_ms");
  for (size_t s = 0; s < kStageCount; ++s) json.num(kStageNames[s], stage_ms[s]);
  json.close();
  json.close();
}

void write_traced_list(Json& json, const char* key,
                       const std::vector<std::vector<JobTrace>>& passes) {
  json.open_list(key);
  for (const std::vector<JobTrace>& pass : passes) write_traced(json, pass);
  json.close_list();
}

// --- main ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "market_cold" && args.workload != "force_guarded" &&
      args.workload != "service_update") {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.scratch.empty()) throw std::invalid_argument("--scratch is required");
  return args;
}

// Runs `pass` until `budget_ms` of wall time is spent, at least `min_passes`
// times and until kMinJobs latency samples are pooled.
template <typename Fn>
std::vector<Pass> repeat_passes(double budget_ms, size_t min_passes, Fn&& pass) {
  std::vector<Pass> passes;
  size_t jobs = 0;
  support::Stopwatch wall;
  while (passes.size() < min_passes || jobs < kMinJobs ||
         wall.elapsed_ms() < budget_ms) {
    passes.push_back(pass());
    jobs += passes.back().job_ms.size();
  }
  return passes;
}

int run(const Args& args) {
  const bool service = args.workload == "service_update";
  // At most min(2, nproc) busy threads in a pass: on a shared VM the
  // hypervisor steals more time the more vCPUs are busy. A service's
  // submitting thread counts as one, since in a windowed pass it polls while
  // run_batch's caller only waits. (In a bulk pass it mostly sleeps.)
  const size_t busy = std::min<size_t>(
      2, std::max(1u, std::thread::hardware_concurrency()));
  const size_t service_workers = std::max<size_t>(1, busy - 1);
  const size_t workers = service ? service_workers : busy;
  const std::string base_dir = args.scratch + "/store-base";
  const std::string work_dir = args.scratch + "/store-work";
  fs::remove_all(args.scratch);
  fs::create_directories(args.scratch);

  // Set-up: the corpus (plus, for the service, a store seeded with the base
  // catalogue and reopened once). The last set-up's products are used.
  std::vector<double> setup_s;
  std::vector<pipeline::BatchJob> jobs;
  support::Stopwatch setup_wall;
  while (setup_s.size() < static_cast<size_t>(kMinSetups) ||
         (setup_s.size() < static_cast<size_t>(kMaxSetups) &&
          setup_wall.elapsed_ms() < kSetupBudgetMs)) {
    support::Stopwatch setup;
    if (args.workload == "market_cold") {
      jobs = market_jobs(args.seed);
    } else if (args.workload == "force_guarded") {
      jobs = force_jobs(args.seed);
    } else {
      fs::remove_all(base_dir);
      service_pass(base_dir, market_jobs(args.seed), workers, 0);
      jobs = market_update_jobs(args.seed);
      fs::remove_all(work_dir);
      fs::copy(base_dir, work_dir, fs::copy_options::recursive);
      service::ServiceOptions options;
      options.threads = workers;
      service::ExtractionService reopened(work_dir, options);
    }
    setup_s.push_back(setup.elapsed_ms() / 1e3);
  }

  // Warm-up, untimed: an in-memory run_batch of the corpus. Its fingerprints
  // are the reference every later pass must reproduce (for the service, the
  // cold full run ARCHITECTURE invariant 14 compares warm output against).
  Pass reference = batch_pass(jobs, workers);

  // The traced pass covers the jobs that do pipeline work: all of them, or
  // the service's cold (mutated) apps.
  std::vector<const pipeline::BatchJob*> traced_jobs;
  std::vector<uint64_t> traced_index;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (service && i % kMutateEvery != 0) continue;
    traced_jobs.push_back(&jobs[i]);
    traced_index.push_back(i);
  }
  // Force jobs also get an untraced run_job pass after each traced one,
  // since the timed run_batch passes schedule their plan units differently.
  const bool force = jobs.front().force;
  std::vector<std::vector<JobTrace>> traced, serial;
  // The service's timed pass is a bulk one (throughput and CPU); a windowed
  // pass on its own copy of the seeded store precedes it (latency).
  const size_t window = kWindowPerWorker * service_workers;
  std::vector<Pass> latency_passes;
  auto fresh_store = [&]() {
    fs::remove_all(work_dir);
    fs::copy(base_dir, work_dir, fs::copy_options::recursive);
  };
  auto timed = [&]() -> Pass {
    if (args.trace) {
      traced.push_back(traced_pass(traced_jobs, workers));
      if (force) serial.push_back(run_job_pass(traced_jobs, workers));
    }
    if (!service) return batch_pass(jobs, workers);
    fresh_store();
    latency_passes.push_back(service_pass(work_dir, jobs, workers, window));
    fresh_store();
    return service_pass(work_dir, jobs, workers, 0);
  };
  std::vector<Pass> passes = repeat_passes(args.seconds * 1e3, kMinPasses, timed);

  Json json;
  json.open();
  json.num("workers", uint64_t{workers});
  json.num("jobs", uint64_t{jobs.size()});
  json.list("setup_s", setup_s);
  write_pass(json, reference, "reference");
  json.open_list("passes");
  for (const Pass& pass : passes) write_pass(json, pass);
  json.close_list();
  json.open_list("latency_passes");
  for (const Pass& pass : latency_passes) write_pass(json, pass);
  json.close_list();

  if (args.trace) {
    // The service layer on this workload's inputs: the service_update
    // latency passes above, or windowed passes through a fresh empty store.
    std::vector<Pass> service_passes;
    if (!service) {
      service_passes = repeat_passes(0.0, 1, [&]() {
        fs::remove_all(work_dir);
        return service_pass(work_dir, jobs, service_workers, window);
      });
    }
    json.open_list("service_passes");
    for (const Pass& pass : service_passes) write_pass(json, pass);
    json.close_list();
    json.list("traced_index", traced_index);
    write_traced_list(json, "traced", traced);
    write_traced_list(json, "serial", serial);
  }
  json.num("peak_rss_mb", peak_rss_mb());
  json.close();
  std::printf("%s\n", json.text().c_str());
  fs::remove_all(args.scratch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

// The worker-count rule and the one pool for work known up front. The batch
// pipeline (src/pipeline/batch.h) runs its jobs through parallel_for and the
// fuzz campaign (src/fuzz/triage.h) its iterations; both, and the extraction
// service (src/service/service.h), turn a `threads = 0` option into a worker
// count with resolve_threads. The service keeps its own queue, because its
// submissions are open-ended and cancellable.
//
// A worker claims one index at a time from one atomic cursor, so a heavy
// item never holds back the items behind it. Claims are not batched: a claim
// is one uncontended atomic add, and the cheapest job a caller runs takes
// about half a millisecond.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace dexlego::support {

// The worker count a `threads` option asks for: `threads` itself, or one
// worker per hardware thread (at least one) when it is 0.
inline size_t resolve_threads(size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

// Calls fn(i) exactly once for every i in [0, count), on
// min(resolve_threads(threads), count) workers, and returns that worker
// count once every call has finished. The caller is one of the workers, so
// one worker runs everything inline and an empty range starts no thread.
// `fn` must not throw: an exception escaping a pool thread ends the process.
template <typename Fn>
size_t parallel_for(size_t count, size_t threads, Fn&& fn) {
  const size_t workers = std::min(resolve_threads(threads), count);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < count; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < workers; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  return workers;
}

}  // namespace dexlego::support

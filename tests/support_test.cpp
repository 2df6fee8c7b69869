#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/parallel.h"
#include "src/support/rng.h"

namespace dexlego::support {
namespace {

TEST(ByteWriter, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1);
  w.str("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u32(7);
  w.patch_u32(0, 99);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 99u);
  EXPECT_EQ(r.u32(), 7u);
}

TEST(ByteWriter, AlignPadsWithZeros) {
  ByteWriter w;
  w.u8(1);
  w.align(4);
  EXPECT_EQ(w.size(), 4u);
  w.align(4);
  EXPECT_EQ(w.size(), 4u);  // already aligned: no change
}

TEST(ByteReader, ThrowsOnTruncation) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(ByteReader, ThrowsOnBadStringLength) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), ParseError);
}

TEST(ByteReader, OverflowSizedReadsThrowInsteadOfWrapping) {
  // Sizes near SIZE_MAX would wrap a naive `pos + n > size` bounds check and
  // silently pass; the reader must reject them like any other truncation.
  ByteWriter w;
  w.u32(0xdeadbeef);
  ByteReader r(w.data());
  r.skip(2);  // pos > 0 so `pos + SIZE_MAX` wraps past size
  EXPECT_THROW(r.skip(SIZE_MAX), ParseError);
  EXPECT_THROW(r.bytes(SIZE_MAX - 1), ParseError);
  EXPECT_EQ(r.pos(), 2u);  // untouched by the failed reads
  EXPECT_EQ(r.u16(), 0xdead);
}

TEST(ByteReader, SeekAndSkip) {
  ByteWriter w;
  for (int i = 0; i < 8; ++i) w.u8(static_cast<uint8_t>(i));
  ByteReader r(w.data());
  r.skip(3);
  EXPECT_EQ(r.u8(), 3);
  r.seek(0);
  EXPECT_EQ(r.u8(), 0);
  EXPECT_THROW(r.seek(100), ParseError);
}

TEST(Hash, Adler32KnownVector) {
  // adler32("Wikipedia") == 0x11E60398, the canonical test vector.
  const char* s = "Wikipedia";
  std::span<const uint8_t> data(reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(adler32(data), 0x11E60398u);
}

TEST(Hash, Adler32Empty) {
  EXPECT_EQ(adler32({}), 1u);
}

TEST(Hash, FnvDistinguishesInputs) {
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
  EXPECT_EQ(fnv1a("same"), fnv1a("same"));
}

TEST(Hash, IncrementalMatchesOrderSensitivity) {
  Fnv1a h1, h2;
  h1.add(1);
  h1.add(2);
  h2.add(2);
  h2.add(1);
  EXPECT_NE(h1.digest(), h2.digest());
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(10), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIndependent) {
  Rng a(1);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Files, RoundTrip) {
  auto path = std::filesystem::temp_directory_path() / "dexlego_bytes_test.bin";
  std::vector<uint8_t> payload = {1, 2, 3, 250, 255, 0};
  write_file(path.string(), payload);
  EXPECT_EQ(read_file(path.string()), payload);
  std::filesystem::remove(path);
}

TEST(Files, ReadMissingThrows) {
  EXPECT_THROW(read_file("/nonexistent/dexlego/file"), std::runtime_error);
}

TEST(Parallel, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1u);
  for (size_t n : {1u, 2u, 3u, 8u, 64u}) EXPECT_EQ(resolve_threads(n), n);
}

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  for (size_t count : {0u, 1u, 3u, 100u}) {
    for (size_t threads : {0u, 1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("count=" + std::to_string(count) +
                   " threads=" + std::to_string(threads));
      std::vector<std::atomic<int>> runs(count);
      std::mutex mu;
      std::set<std::thread::id> ran_on;
      size_t workers = parallel_for(count, threads, [&](size_t i) {
        ++runs[i];
        std::lock_guard<std::mutex> lock(mu);
        ran_on.insert(std::this_thread::get_id());
      });
      // An empty range has no worker, so nothing runs on any thread.
      EXPECT_EQ(workers, std::min(resolve_threads(threads), count));
      EXPECT_LE(ran_on.size(), workers);
      for (size_t i = 0; i < count; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
    }
  }
}

TEST(Parallel, OneWorkerRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  // Asked for one worker, or more than there are indices to run.
  for (auto [count, threads] : {std::pair<size_t, size_t>{5, 1},
                                std::pair<size_t, size_t>{1, 8}}) {
    std::vector<size_t> order;
    size_t workers = parallel_for(count, threads, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(workers, 1u);
    ASSERT_EQ(order.size(), count);
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  }
}

}  // namespace
}  // namespace dexlego::support

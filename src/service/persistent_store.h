// Durable content-addressed store backing the extraction service
// (docs/SERVICE.md): a pipeline::DedupStore whose miss path writes through
// to an append-only log segment per shard before the entry becomes visible
// in memory (write-ahead ordering, via DedupStore::persist). Reopening a
// store directory replays the logs into memory, so method bodies persisted
// by one process incarnation dedup against everything a later incarnation
// interns — the substrate that makes incremental re-extraction of updated
// apps cheap.
//
// On-disk layout (<dir>/):
//   LOCK           empty file whose exclusive flock(2) the open store holds
//                  from before replay until after the final flush, so two
//                  stores (in one process or two) never share a directory.
//   shard-<i>.log  append-only segments: an 8-byte header, then records of
//                  [magic u32][payload_len u32][fnv1a(payload) u64][payload].
//                  Records are only ever appended; a torn tail (crash mid-
//                  append) is detected by checksum/bounds validation on
//                  reopen and truncated away.
//   index.bin      generation-stamped snapshot of per-segment sizes and
//                  entry counts, rewritten atomically (tmp + rename) on
//                  every flush(). On reopen a valid index lets replay trust
//                  the indexed prefix of each segment (skip checksum
//                  verification) and validate only the tail appended since
//                  the last flush; a missing/corrupt index — or a segment
//                  shorter than the index claims — falls back to validating
//                  that whole segment. Either way the in-memory index is
//                  rebuilt from the logs, never from index.bin alone.
//
// Crash contract: every entry visible in memory was appended to its log
// first, so losing the process loses at most buffered tail records — never
// an entry another component observed and then depended on *after a
// flush()*. The extraction service orders its own durable writes on top of
// this (revealed-DEX bytes intern before the app manifest records them).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/pipeline/dedup_store.h"

namespace dexlego::service {

class PersistentDedupStore : public pipeline::DedupStore {
 public:
  // Segment format constants, exposed so the crash-recovery tests can
  // compute record boundaries instead of guessing offsets.
  static constexpr size_t kSegmentHeaderBytes = 8;   // magic + version
  static constexpr size_t kRecordHeaderBytes = 16;   // magic + len + checksum
  static constexpr uint32_t kSegmentMagic = 0x474F4C44;  // "DLOG"
  static constexpr uint32_t kRecordMagic = 0x43455244;   // "DREC"
  static constexpr uint32_t kIndexMagic = 0x58444944;    // "DIDX"
  static constexpr uint32_t kFormatVersion = 1;
  // A single method tree beyond this is a corruption artifact, not data.
  static constexpr uint32_t kMaxRecordPayload = 1u << 30;

  struct Options {
    // Shard count for BOTH the in-memory store and the log segments (one
    // segment per memory shard, so persist() runs under the shard lock that
    // already serializes it). A directory written with a different shard
    // count reopens fine: replay reads every shard-*.log present.
    size_t shards = 16;
    pipeline::DedupStore::HashFn hash;
    // fsync(2) each appended record (and the index on flush). Default off:
    // the crash model is process death, which loses only libc buffers we
    // fflush eagerly anyway; power-loss durability costs an fsync per miss.
    bool fsync = false;
    // Write the generation-stamped index on destruction. Tests set this
    // false to simulate a crash (no clean shutdown, index left stale).
    bool flush_on_close = true;
  };

  // What reopen found. `restored_entries` counts unique contents replayed
  // into memory; `trusted_records` rode the index fast path,
  // `validated_records` had their checksums verified (tail appended after
  // the last flush, or everything when the index was missing/stale);
  // `truncated_bytes`/`truncated_records` measure the torn tail dropped.
  struct OpenStats {
    bool index_valid = false;
    uint64_t generation = 0;  // of the loaded index; 0 when none
    size_t segments = 0;
    size_t restored_entries = 0;
    uint64_t restored_bytes = 0;
    size_t trusted_records = 0;
    size_t validated_records = 0;
    size_t truncated_records = 0;
    uint64_t truncated_bytes = 0;
  };

  // Opens (creating if needed) the store at `dir`, locks it and replays its
  // logs. Throws std::runtime_error when the directory cannot be created,
  // another open store holds its LOCK, or a segment cannot be opened for
  // append.
  explicit PersistentDedupStore(std::string dir)
      : PersistentDedupStore(std::move(dir), Options{}) {}
  PersistentDedupStore(std::string dir, Options options);
  ~PersistentDedupStore() override;

  const OpenStats& open_stats() const { return open_stats_; }
  const std::string& dir() const { return dir_; }
  uint64_t generation() const { return generation_; }

  // Flushes every segment (fsync when configured) and atomically rewrites
  // the generation-stamped index. Safe to call while other threads intern:
  // records appended concurrently simply land past the indexed prefix and
  // get tail-validated on the next reopen.
  void flush();

 protected:
  // DedupStore write-ahead hook: append the record to the shard's segment
  // (fflush, optional fsync) before the in-memory insert. Runs under the
  // shard's exclusive lock; throws on I/O failure, which aborts the intern
  // and fails only the calling job.
  void persist(Id id, std::span<const uint8_t> content) override;

 private:
  std::string segment_path(size_t shard) const;
  void replay_segment(size_t file_index, uint64_t trusted_size);
  void load_index(std::array<uint64_t, 256>& trusted_sizes);
  void write_index();

  // Owns the LOCK file descriptor; closing it releases the flock. A member,
  // so a constructor that throws after locking still unlocks.
  struct LockFile {
    int fd = -1;
    LockFile() = default;
    LockFile(const LockFile&) = delete;
    LockFile& operator=(const LockFile&) = delete;
    ~LockFile();
  };

  std::string dir_;
  LockFile lock_;
  bool fsync_ = false;
  bool flush_on_close_ = true;
  bool replaying_ = true;  // suppress persist() during constructor replay
  uint64_t generation_ = 0;
  OpenStats open_stats_;

  // One append handle + mutex per CURRENT shard. The mutex is technically
  // redundant (persist runs under the memory shard's exclusive lock, and
  // segment i maps to memory shard i) but keeps the file handle's safety
  // independent of that invariant; it is never contended.
  std::vector<std::FILE*> segments_;
  std::unique_ptr<std::mutex[]> segment_mu_;
  // Sizes/counts per segment FILE INDEX (0..255 — legacy segments from a
  // different shard count keep their slots so the index can keep trusting
  // them). Atomics: flush() snapshots them while interns append.
  std::array<std::atomic<uint64_t>, 256> segment_sizes_{};
  std::array<std::atomic<uint64_t>, 256> segment_entries_{};
};

}  // namespace dexlego::service

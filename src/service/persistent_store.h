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
//                  from before replay until its logs are closed, so two
//                  stores (in one process or two) never share a directory.
//   shard-<i>.log  append-only record logs (record_log.h), header magic
//                  "DLOG" version 1, one per memory shard: shard-0.log ...
//                  shard-15.log (DedupStore::kShards). The logs are the
//                  whole store: every open validates every record, and a
//                  torn tail (crash mid-append) ends the valid prefix and
//                  is truncated away. A directory written by a build that
//                  let callers pick more shards (up to shard-255.log)
//                  reopens too: replay reads every shard-<i>.log present,
//                  and new entries go to the 16 current logs.
//
// Crash contract: every entry visible in memory was appended to its log
// first (fflush, plus fsync when configured; a failed sync fails the
// intern), so losing the process loses at most an append in flight, never
// an entry another component observed. A clean close writes nothing more,
// so it recovers what a crash at the same point would. The service orders
// its own writes on top (revealed-DEX bytes before the manifest record).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/pipeline/dedup_store.h"
#include "src/service/record_log.h"

namespace dexlego::service {

class PersistentDedupStore : public pipeline::DedupStore {
 public:
  // Segment framing, exposed so crash tests can compute record boundaries.
  static constexpr size_t kSegmentHeaderBytes = RecordLog::kHeaderBytes;
  static constexpr size_t kRecordHeaderBytes = RecordLog::kRecordHeaderBytes;
  static constexpr uint32_t kSegmentMagic = 0x474F4C44;  // "DLOG"
  static constexpr uint32_t kFormatVersion = 1;

  struct Options {
    // Null = the default salted FNV-1a; tests inject ids to pick the shard.
    pipeline::DedupStore::HashFn hash;
    // fsync(2) each appended record and each flush(). Default off: the
    // crash model is process death, which loses only libc buffers we fflush
    // eagerly anyway; power-loss durability costs an fsync per miss.
    bool fsync = false;
  };

  // What reopen found. `restored_entries` counts unique contents replayed
  // into memory, `validated_records` every record replay checked;
  // `truncated_records` counts torn tails cut (one per log at most).
  struct OpenStats {
    size_t segments = 0;
    size_t restored_entries = 0;
    uint64_t restored_bytes = 0;
    size_t validated_records = 0;
    size_t truncated_records = 0;
    uint64_t truncated_bytes = 0;
    void add(const RecordLog::Replay& replay) {  // counts one log's replay
      validated_records += replay.records;
      truncated_records += replay.truncated_bytes != 0 ? 1 : 0;
      truncated_bytes += replay.truncated_bytes;
    }
  };

  // Opens (creating if needed) the store at `dir`, locks it and replays its
  // logs. Throws std::runtime_error when the directory cannot be created,
  // another open store holds its LOCK, a segment's complete header is not
  // "DLOG" version 1 (the segment is left untouched), or a segment cannot
  // be opened for append.
  explicit PersistentDedupStore(std::string dir)
      : PersistentDedupStore(std::move(dir), Options{}) {}
  PersistentDedupStore(std::string dir, Options options);

  const OpenStats& open_stats() const { return open_stats_; }
  const std::string& dir() const { return dir_; }

  // Flushes every segment (fsync when configured); throws when that fails.
  // Safe to call while other threads intern.
  void flush();

 protected:
  // DedupStore write-ahead hook: append the record to the shard's segment
  // (fflush, optional fsync) before the in-memory insert. Runs under the
  // shard's lock; throws on I/O failure, which aborts the intern and fails
  // only the calling job.
  void persist(Id id, std::span<const uint8_t> content) override;

 private:
  std::string segment_path(size_t shard) const;

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
  LockFile lock_;  // declared before segments_: released after they close
  bool replaying_ = true;  // suppress persist() during constructor replay
  OpenStats open_stats_;
  // One append log per memory shard; persist() appends under that shard's
  // lock, which already orders the log's records.
  std::array<std::unique_ptr<RecordLog>, kShards> segments_;
};

}  // namespace dexlego::service

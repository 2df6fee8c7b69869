// The one durable log format of the extraction service (docs/SERVICE.md),
// used by the store's shard-<i>.log segments and the service's apps.log:
//
//   header : u32 file magic | u32 version                      (8 bytes)
//   record : u32 "DREC" | u32 payload_len | u64 fnv1a(payload) | payload
//
// Every open validates every record (replay), and appends are write-ahead:
// append() returns only once the record is flushed (and synced, when asked).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

namespace dexlego::service {

class RecordLog {
 public:
  static constexpr size_t kHeaderBytes = 8;
  static constexpr size_t kRecordHeaderBytes = 16;
  static constexpr uint32_t kRecordMagic = 0x43455244;  // "DREC"

  struct Replay {
    size_t records = 0;        // validated and handed to the callback
    uint64_t valid_bytes = 0;  // the file's size afterwards
    uint64_t truncated_bytes = 0;
  };

  // Hands each record's payload at `path` to `on_record`, in order. The
  // first record with a bad magic, length, bounds or checksum ends the
  // valid prefix, and the file is truncated there (a torn tail); a file
  // shorter than the header is cut to empty, and a missing one replays
  // empty. A complete header other than `magic` and `version` throws
  // std::runtime_error naming the file, before any record is replayed or
  // cut: a log this code does not understand is refused, never wiped.
  static Replay replay(
      const std::string& path, uint32_t magic, uint32_t version,
      const std::function<void(std::span<const uint8_t>)>& on_record);

  // Opens `path` for append after replay(), writing the header when the
  // file is empty. `fsync` makes every append() and flush() fsync(2) too.
  RecordLog(std::string path, uint32_t magic, uint32_t version, bool fsync);

  // fwrite, fflush, then fsync when configured; throws std::runtime_error
  // on any failure, so a caller that publishes only after append() returns
  // never shows a record that is not on disk. Thread-safe.
  void append(std::span<const uint8_t> payload);
  // Durability barrier: fflush, then fsync when configured. Throws likewise.
  void flush();

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  void write(std::span<const uint8_t> bytes);  // these two require mu_
  void sync();
  [[noreturn]] void fail(const char* step) const;  // names file and errno

  std::string path_;
  bool fsync_;
  std::mutex mu_;
  std::unique_ptr<std::FILE, Closer> file_;
};

}  // namespace dexlego::service

#include "src/service/persistent_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::service {

namespace fs = std::filesystem;

namespace {

pipeline::DedupStore::Options base_options(
    const PersistentDedupStore::Options& options) {
  pipeline::DedupStore::Options base;
  base.shards = options.shards;
  base.hash = options.hash;
  return base;
}

uint32_t read_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint64_t read_u64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

PersistentDedupStore::PersistentDedupStore(std::string dir, Options options)
    : DedupStore(base_options(options)),
      dir_(std::move(dir)),
      fsync_(options.fsync),
      flush_on_close_(options.flush_on_close) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    throw std::runtime_error("persistent store: cannot create directory " +
                             dir_ + ": " + ec.message());
  }

  // One open store per directory: a second would interleave its segment
  // appends and torn-tail truncation with ours. Taken before replay, so a
  // refused open reads and writes nothing.
  const std::string lock_path = dir_ + "/LOCK";
  lock_.fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_.fd < 0) {
    const std::error_code err(errno, std::generic_category());
    throw std::runtime_error("persistent store: cannot open " + lock_path +
                             ": " + err.message());
  }
  if (::flock(lock_.fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    throw std::runtime_error(
        "persistent store: cannot lock " + dir_ + ": " +
        (err == EWOULDBLOCK ? std::string("held by another open store")
                            : std::error_code(err, std::generic_category())
                                  .message()));
  }

  // Replay every segment present, whatever shard count wrote it: ids are
  // content hashes, so each replayed payload re-interns into whichever
  // memory shard the CURRENT layout maps it to.
  std::array<uint64_t, 256> trusted_sizes{};
  load_index(trusted_sizes);
  for (size_t i = 0; i < 256; ++i) {
    if (fs::exists(segment_path(i))) {
      ++open_stats_.segments;
      replay_segment(i, trusted_sizes[i]);
    }
  }
  // Replay drives the normal intern path, which counts every record as a
  // hit or miss; a reopened store should report only post-open activity.
  reset_intern_counters();

  // Append handles for the current layout's segments (replay — including
  // any torn-tail truncation — happened above, so "append" lands exactly
  // after the last valid record).
  segments_.resize(shard_count(), nullptr);
  segment_mu_ = std::make_unique<std::mutex[]>(shard_count());
  for (size_t s = 0; s < shard_count(); ++s) {
    const std::string path = segment_path(s);
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (!f) {
      throw std::runtime_error("persistent store: cannot open " + path);
    }
    segments_[s] = f;
    if (segment_sizes_[s].load(std::memory_order_relaxed) == 0) {
      support::ByteWriter header;
      header.u32(kSegmentMagic);
      header.u32(kFormatVersion);
      if (std::fwrite(header.data().data(), 1, header.size(), f) !=
              header.size() ||
          std::fflush(f) != 0) {
        throw std::runtime_error("persistent store: cannot write header of " +
                                 path);
      }
      segment_sizes_[s].store(kSegmentHeaderBytes, std::memory_order_relaxed);
    }
  }
  replaying_ = false;
}

// The LOCK is released after this body, when lock_ is destroyed: only once
// the final flush is on disk may another store open the directory.
PersistentDedupStore::~PersistentDedupStore() {
  if (flush_on_close_) {
    try {
      flush();
    } catch (const std::exception& e) {
      DL_WARN << "persistent store: flush on close failed: " << e.what();
    }
  }
  for (std::FILE* f : segments_) {
    if (f) std::fclose(f);
  }
}

PersistentDedupStore::LockFile::~LockFile() {
  if (fd >= 0) ::close(fd);
}

std::string PersistentDedupStore::segment_path(size_t shard) const {
  return dir_ + "/shard-" + std::to_string(shard) + ".log";
}

void PersistentDedupStore::replay_segment(size_t file_index,
                                          uint64_t trusted_size) {
  const std::string path = segment_path(file_index);
  std::vector<uint8_t> data = support::read_file(path);
  // An index claiming more bytes than the file holds means the file lost
  // data behind the index's back — distrust the index for this segment and
  // checksum-validate everything.
  if (trusted_size > data.size()) trusted_size = 0;

  size_t valid = 0;
  uint64_t entries = 0;
  if (data.size() >= kSegmentHeaderBytes &&
      read_u32(data.data()) == kSegmentMagic &&
      read_u32(data.data() + 4) == kFormatVersion) {
    valid = kSegmentHeaderBytes;
    while (valid + kRecordHeaderBytes <= data.size()) {
      const uint8_t* rec = data.data() + valid;
      const uint32_t magic = read_u32(rec);
      const uint32_t len = read_u32(rec + 4);
      if (magic != kRecordMagic || len > kMaxRecordPayload ||
          valid + kRecordHeaderBytes + len > data.size()) {
        break;  // torn or corrupt tail starts here
      }
      const uint64_t checksum = read_u64(rec + 8);
      std::span<const uint8_t> payload(rec + kRecordHeaderBytes, len);
      if (valid + kRecordHeaderBytes + len <= trusted_size) {
        ++open_stats_.trusted_records;
      } else {
        if (support::fnv1a(payload) != checksum) break;
        ++open_stats_.validated_records;
      }
      InternResult result =
          intern(std::vector<uint8_t>(payload.begin(), payload.end()));
      if (result.inserted) {
        ++open_stats_.restored_entries;
        open_stats_.restored_bytes += len;
      }
      ++entries;
      valid += kRecordHeaderBytes + len;
    }
  }
  if (valid < data.size()) {
    open_stats_.truncated_bytes += data.size() - valid;
    ++open_stats_.truncated_records;
    std::error_code ec;
    fs::resize_file(path, valid, ec);
    if (ec) {
      throw std::runtime_error("persistent store: cannot truncate torn tail of " +
                               path + ": " + ec.message());
    }
    DL_WARN << "persistent store: dropped " << (data.size() - valid)
            << " torn tail bytes from " << path;
  }
  segment_sizes_[file_index].store(valid, std::memory_order_relaxed);
  segment_entries_[file_index].store(entries, std::memory_order_relaxed);
}

void PersistentDedupStore::load_index(std::array<uint64_t, 256>& trusted_sizes) {
  trusted_sizes.fill(0);
  const std::string path = dir_ + "/index.bin";
  if (!fs::exists(path)) return;
  try {
    std::vector<uint8_t> data = support::read_file(path);
    if (data.size() < sizeof(uint64_t)) return;
    const size_t body = data.size() - sizeof(uint64_t);
    const uint64_t want =
        support::fnv1a(std::span<const uint8_t>(data.data(), body));
    if (read_u64(data.data() + body) != want) return;
    support::ByteReader r(std::span<const uint8_t>(data.data(), body));
    if (r.u32() != kIndexMagic || r.u32() != kFormatVersion) return;
    const uint64_t generation = r.u64();
    const uint32_t slots = r.u32();
    if (slots > 256) return;
    std::array<uint64_t, 256> sizes{};
    for (uint32_t i = 0; i < slots; ++i) {
      sizes[i] = r.u64();
      (void)r.u64();  // entry count: informational, not needed for trust
    }
    if (!r.at_end()) return;
    trusted_sizes = sizes;
    generation_ = generation;
    open_stats_.index_valid = true;
    open_stats_.generation = generation;
  } catch (const std::exception&) {
    // Unreadable or malformed index: fall back to full checksum validation.
  }
}

void PersistentDedupStore::write_index() {
  support::ByteWriter w;
  w.u32(kIndexMagic);
  w.u32(kFormatVersion);
  w.u64(generation_);
  w.u32(256);
  for (size_t i = 0; i < 256; ++i) {
    w.u64(segment_sizes_[i].load(std::memory_order_relaxed));
    w.u64(segment_entries_[i].load(std::memory_order_relaxed));
  }
  w.u64(support::fnv1a(std::span<const uint8_t>(w.data())));
  const std::string tmp = dir_ + "/index.tmp";
  const std::string path = dir_ + "/index.bin";
  support::write_file(tmp, w.data());
  if (fsync_) {
    if (std::FILE* f = std::fopen(tmp.c_str(), "rb")) {
      ::fsync(fileno(f));
      std::fclose(f);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("persistent store: cannot publish index: " +
                             ec.message());
  }
}

void PersistentDedupStore::flush() {
  for (size_t s = 0; s < segments_.size(); ++s) {
    std::lock_guard<std::mutex> lock(segment_mu_[s]);
    if (std::fflush(segments_[s]) != 0) {
      throw std::runtime_error("persistent store: flush failed for " +
                               segment_path(s));
    }
    if (fsync_) ::fsync(fileno(segments_[s]));
  }
  ++generation_;
  write_index();
}

void PersistentDedupStore::persist(Id id, std::span<const uint8_t> content) {
  if (replaying_) return;  // replay re-interns what the log already holds
  const size_t s = shard_index(id);
  uint8_t header[kRecordHeaderBytes];
  const uint32_t magic = kRecordMagic;
  const uint32_t len = static_cast<uint32_t>(content.size());
  const uint64_t checksum = support::fnv1a(content);
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &len, 4);
  std::memcpy(header + 8, &checksum, 8);

  std::lock_guard<std::mutex> lock(segment_mu_[s]);
  std::FILE* f = segments_[s];
  if (std::fwrite(header, 1, sizeof header, f) != sizeof header ||
      (len != 0 && std::fwrite(content.data(), 1, len, f) != len) ||
      std::fflush(f) != 0) {
    throw std::runtime_error(
        "persistent store: append failed for " + segment_path(s) +
        " (entry not inserted; log tail will be repaired on reopen)");
  }
  if (fsync_) ::fsync(fileno(f));
  segment_sizes_[s].fetch_add(kRecordHeaderBytes + content.size(),
                              std::memory_order_relaxed);
  segment_entries_[s].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dexlego::service

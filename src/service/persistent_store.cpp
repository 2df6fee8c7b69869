#include "src/service/persistent_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace dexlego::service {

namespace fs = std::filesystem;

PersistentDedupStore::PersistentDedupStore(std::string dir, Options options)
    : DedupStore({options.shards, options.hash}), dir_(std::move(dir)) {
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
  for (size_t i = 0; i < 256; ++i) {
    const std::string path = segment_path(i);
    if (!fs::exists(path)) continue;
    ++open_stats_.segments;
    open_stats_.add(RecordLog::replay(
        path, kSegmentMagic, kFormatVersion,
        [this](std::span<const uint8_t> payload) {
          if (intern(payload).inserted) {
            ++open_stats_.restored_entries;
            open_stats_.restored_bytes += payload.size();
          }
        }));
  }
  // Replay drives the normal intern path, which counts every record as a
  // hit or miss; a reopened store should report only post-open activity.
  reset_intern_counters();

  // Append logs for the current layout's segments, opened after replay cut
  // any torn tail, so appends land right after the last valid record.
  segments_.reserve(shard_count());
  for (size_t s = 0; s < shard_count(); ++s) {
    segments_.push_back(std::make_unique<RecordLog>(
        segment_path(s), kSegmentMagic, kFormatVersion, options.fsync));
  }
  replaying_ = false;
}

PersistentDedupStore::LockFile::~LockFile() {
  if (fd >= 0) ::close(fd);
}

std::string PersistentDedupStore::segment_path(size_t shard) const {
  return dir_ + "/shard-" + std::to_string(shard) + ".log";
}

void PersistentDedupStore::flush() {
  for (const std::unique_ptr<RecordLog>& segment : segments_) segment->flush();
}

void PersistentDedupStore::persist(Id id, std::span<const uint8_t> content) {
  if (replaying_) return;  // replay re-interns what the log already holds
  segments_[shard_index(id)]->append(content);
}

}  // namespace dexlego::service

#include "src/service/record_log.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::service {

namespace fs = std::filesystem;

RecordLog::Replay RecordLog::replay(
    const std::string& path, uint32_t magic, uint32_t version,
    const std::function<void(std::span<const uint8_t>)>& on_record) {
  Replay out;
  if (!fs::exists(path)) return out;
  const std::vector<uint8_t> data = support::read_file(path);
  support::ByteReader r(data);
  if (data.size() >= kHeaderBytes) {
    if (r.u32() != magic || r.u32() != version) {
      throw std::runtime_error("record log: refusing " + path +
                               ": foreign header (expected version " +
                               std::to_string(version) + ")");
    }
    out.valid_bytes = kHeaderBytes;
    while (r.remaining() >= kRecordHeaderBytes) {
      if (r.u32() != kRecordMagic) break;  // torn or corrupt tail from here
      const uint32_t len = r.u32();
      const uint64_t checksum = r.u64();
      if (len > r.remaining()) break;
      const std::span<const uint8_t> payload(data.data() + r.pos(), len);
      if (support::fnv1a(payload) != checksum) break;
      on_record(payload);
      r.skip(len);
      ++out.records;
      out.valid_bytes = r.pos();
    }
  }
  if (out.valid_bytes < data.size()) {
    out.truncated_bytes = data.size() - out.valid_bytes;
    std::error_code ec;
    fs::resize_file(path, out.valid_bytes, ec);
    if (ec) {
      throw std::runtime_error("record log: cannot truncate torn tail of " +
                               path + ": " + ec.message());
    }
    DL_WARN << "record log: dropped " << out.truncated_bytes
            << " torn tail bytes from " << path;
  }
  return out;
}

RecordLog::RecordLog(std::string path, uint32_t magic, uint32_t version,
                     bool fsync)
    : path_(std::move(path)), fsync_(fsync) {
  file_.reset(std::fopen(path_.c_str(), "ab"));
  if (!file_) fail("open");
  struct stat st;
  if (::fstat(fileno(file_.get()), &st) != 0) fail("stat");
  if (st.st_size == 0) {
    support::ByteWriter header;
    header.u32(magic);
    header.u32(version);
    write(header.data());
    // No fsync: the first synced append covers the header as well, and a
    // header torn before then replays as an empty log.
    if (std::fflush(file_.get()) != 0) fail("fflush");
  }
}

void RecordLog::append(std::span<const uint8_t> payload) {
  support::ByteWriter header;
  header.u32(kRecordMagic);
  header.u32(static_cast<uint32_t>(payload.size()));
  header.u64(support::fnv1a(payload));
  std::lock_guard<std::mutex> lock(mu_);
  write(header.data());
  write(payload);
  sync();
}

void RecordLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  sync();
}

void RecordLog::write(std::span<const uint8_t> bytes) {
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) != bytes.size()) {
    fail("write");
  }
}

void RecordLog::sync() {
  if (std::fflush(file_.get()) != 0) fail("fflush");
  if (fsync_ && ::fsync(fileno(file_.get())) != 0) fail("fsync");
}

void RecordLog::fail(const char* step) const {
  const std::error_code err(errno, std::generic_category());
  throw std::runtime_error("record log: " + std::string(step) +
                           " failed for " + path_ + ": " + err.message());
}

}  // namespace dexlego::service

// Byte-level serialization helpers shared by the LDEX writer/reader, the
// collection-file format and the .lapk archive. Little-endian throughout.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dexlego::support {

// Thrown by ByteReader on any out-of-bounds or malformed read. The LDEX
// reader converts this into a verification failure instead of crashing.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

// Append-only growable buffer with positional patching (used to backfill
// offsets in headers once section sizes are known).
class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

  // Length-prefixed UTF-8 string (u32 length + bytes, no terminator).
  void str(std::string_view s);
  void bytes(std::span<const uint8_t> data);
  void raw(const void* data, size_t n);

  // Pad with zero bytes until the buffer size is a multiple of `alignment`.
  void align(size_t alignment);

  size_t size() const { return buf_.size(); }
  void patch_u32(size_t offset, uint32_t v);

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked sequential reader over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str();
  std::vector<uint8_t> bytes(size_t n);

  void seek(size_t pos);
  void skip(size_t n);
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  // Hostile counts: a count field may not promise more elements than the
  // remaining bytes can encode at `min_elem_bytes` each (need()'s
  // subtraction pattern lifted to element counts). Throws
  // ParseError("implausible <what> count"). Call it before sizing a
  // container from `n`, so a count bomb is a clean ParseError instead of
  // bad_alloc or OOM.
  void check_count(uint64_t n, size_t min_elem_bytes, const char* what) const;

 private:
  void need(size_t n) const;
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Whole-file helpers (binary). Throw std::runtime_error on IO failure.
std::vector<uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const uint8_t> data);

}  // namespace dexlego::support

#include "src/support/bytes.h"

#include <fstream>

namespace dexlego::support {

void ByteWriter::u16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v & 0xff));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void ByteWriter::bytes(std::span<const uint8_t> data) { raw(data.data(), data.size()); }

void ByteWriter::raw(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::align(size_t alignment) {
  while (buf_.size() % alignment != 0) buf_.push_back(0);
}

void ByteWriter::patch_u32(size_t offset, uint32_t v) {
  if (offset + 4 > buf_.size()) throw std::logic_error("patch_u32 out of range");
  for (int i = 0; i < 4; ++i) buf_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
}

void ByteReader::need(size_t n) const {
  // Subtract rather than add: `pos_ + n` can wrap for hostile sizes (e.g. a
  // length field of SIZE_MAX), which would silently pass the check and read
  // out of bounds.
  if (n > data_.size() - pos_) throw ParseError("unexpected end of data");
}

void ByteReader::check_count(uint64_t n, size_t min_elem_bytes,
                             const char* what) const {
  if (n > remaining() / min_elem_bytes) {
    throw ParseError(std::string("implausible ") + what + " count");
  }
}

uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

uint16_t ByteReader::u16() {
  need(2);
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

uint32_t ByteReader::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::string ByteReader::str() {
  uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<uint8_t> ByteReader::bytes(size_t n) {
  need(n);
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void ByteReader::seek(size_t pos) {
  if (pos > data_.size()) throw ParseError("seek out of range");
  pos_ = pos;
}

void ByteReader::skip(size_t n) {
  need(n);
  pos_ += n;
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file for read: " + path);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace dexlego::support

// LEB128 codecs for the real Android DEX format (dex\n magic): uleb128,
// sleb128 and uleb128p1 exactly as the Dalvik Executable spec defines them.
// Readers are hardened against length bombs — the format caps every value at
// 32 bits, so a fifth continuation byte is hostile input and raises a clean
// support::ParseError instead of silently wrapping (the leb128 analog of
// support::ByteReader::check_count).
#pragma once

#include <cstdint>

#include "src/support/bytes.h"

namespace dexlego::dex::real {

// Reads an unsigned LEB128 (at most 5 bytes / 32 bits of payload).
inline uint32_t read_uleb128(support::ByteReader& r) {
  uint32_t value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    uint8_t byte = r.u8();
    // The fifth byte may only carry the top 4 bits of a 32-bit value.
    if (shift == 28 && (byte & 0xf0) != 0) {
      throw support::ParseError("uleb128 overflows 32 bits");
    }
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  throw support::ParseError("uleb128 longer than 5 bytes");
}

// Reads a signed LEB128 (at most 5 bytes / 32 bits of payload).
inline int32_t read_sleb128(support::ByteReader& r) {
  uint32_t value = 0;
  int shift = 0;
  for (; shift < 35; shift += 7) {
    uint8_t byte = r.u8();
    if (shift == 28 && (byte & 0xf0) != 0 && (byte & 0xf0) != 0x70) {
      throw support::ParseError("sleb128 overflows 32 bits");
    }
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      shift += 7;
      // Sign-extend from the last payload bit.
      if (shift < 32 && (byte & 0x40) != 0) {
        value |= ~0u << shift;
      }
      return static_cast<int32_t>(value);
    }
  }
  throw support::ParseError("sleb128 longer than 5 bytes");
}

// uleb128p1: value + 1 as uleb128, so -1 (NO_INDEX in debug info) encodes
// as 0.
inline int32_t read_uleb128p1(support::ByteReader& r) {
  return static_cast<int32_t>(read_uleb128(r)) - 1;
}

inline void write_uleb128(support::ByteWriter& w, uint32_t value) {
  while (value >= 0x80) {
    w.u8(static_cast<uint8_t>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  w.u8(static_cast<uint8_t>(value));
}

inline void write_sleb128(support::ByteWriter& w, int32_t value) {
  bool more = true;
  while (more) {
    uint8_t byte = static_cast<uint8_t>(value & 0x7f);
    value >>= 7;  // arithmetic shift: sign-fills from the top
    more = !((value == 0 && (byte & 0x40) == 0) ||
             (value == -1 && (byte & 0x40) != 0));
    if (more) byte |= 0x80;
    w.u8(byte);
  }
}

inline void write_uleb128p1(support::ByteWriter& w, int32_t value) {
  write_uleb128(w, static_cast<uint32_t>(value + 1));
}

// Encoded size in bytes of a value, for section-size precomputation.
inline size_t uleb128_size(uint32_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    ++n;
    value >>= 7;
  }
  return n;
}

}  // namespace dexlego::dex::real

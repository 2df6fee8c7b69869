// Serialization of the collection output into the five collection files of
// paper Fig. 2 (class data, field data, static values, method data,
// bytecode). The files are the interface between the online collection phase
// and the *offline* reassembling phase; their combined size is the
// "Dump File Size" column of Table VI.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/collection.h"

namespace dexlego::core {

struct CollectionFiles {
  std::vector<uint8_t> class_data;
  std::vector<uint8_t> field_data;
  std::vector<uint8_t> static_values;
  std::vector<uint8_t> method_data;
  std::vector<uint8_t> bytecode;

  size_t total_size() const {
    return class_data.size() + field_data.size() + static_values.size() +
           method_data.size() + bytecode.size();
  }

  // Writes the five files into `dir` with their canonical names; loads back.
  void save(const std::string& dir) const;
  static CollectionFiles load(const std::string& dir);
};

// Round-trippable encoding: decode(encode(x)) preserves every field the
// reassembler consumes (property-tested). decode_collection throws
// support::ParseError on truncated files, on counts their bytes cannot
// hold, before sizing any container from such a count, and on a tree
// nested deeper than kMaxTreeDepth levels. It runs in time linear in the
// files' size.
CollectionFiles encode_collection(const CollectionOutput& output);
CollectionOutput decode_collection(const CollectionFiles& files);

// The deepest collection tree decode_collection accepts, counting the root
// as level 1. Decoding recurses once per level, so the cap keeps a hostile
// bytecode file from exhausting the stack.
inline constexpr size_t kMaxTreeDepth = 1024;

// Canonical byte form of one collection tree — the same encoding the
// bytecode file uses per tree. This is the content the batch pipeline's
// DedupStore keys on: equal trees serialize to equal bytes.
std::vector<uint8_t> serialize_tree(const TreeNode& tree);

}  // namespace dexlego::core

// Serialization of the collection output into the five collection files of
// paper Fig. 2 (class data, field data, static values, method data,
// bytecode). The files are the interface between the online collection phase
// and the *offline* reassembling phase that DexLego::reveal, save/load and
// Table VI use; their combined size is the "Dump File Size" column of Table
// VI. The batch pipeline's jobs hold their collection in memory and never
// write the files: they take the size from encoded_size, which runs the
// same writers on a sink that only counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/collection.h"
#include "src/support/bytes.h"

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
// reassembler consumes (property-tested), including each static field's own
// value when a class has several statics of one name. decode_collection
// throws support::ParseError on truncated files, on counts their bytes
// cannot hold, before sizing any container from such a count, and on a
// tree nested deeper than kMaxTreeDepth levels. It runs in time linear in
// the files' size.
CollectionFiles encode_collection(const CollectionOutput& output);
CollectionOutput decode_collection(const CollectionFiles& files);

// encode_collection(output).total_size(), counted without writing a byte.
size_t encoded_size(const CollectionOutput& output);

// The deepest collection tree decode_collection accepts and a Collector
// builds, counting the root as level 1. Decoding, encoding, hashing,
// freeing and reassembling a tree each recurse once per level, so the cap
// keeps a hostile app or bytecode file from exhausting the stack. Every
// in-memory tree comes from one of the two, so nothing else checks depth.
inline constexpr size_t kMaxTreeDepth = 1024;

// The error both throw for a tree that would nest deeper than kMaxTreeDepth
// levels: "collection tree nested deeper than 1024 levels".
support::ParseError tree_too_deep();

// Canonical byte form of one collection tree — the same encoding the
// bytecode file uses per tree. This is the content the batch pipeline's
// DedupStore keys on: equal trees serialize to equal bytes.
std::vector<uint8_t> serialize_tree(const TreeNode& tree);

}  // namespace dexlego::core

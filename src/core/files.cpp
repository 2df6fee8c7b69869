#include "src/core/files.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/support/bytes.h"

namespace dexlego::core {

using support::ByteReader;
using support::ByteWriter;

namespace {

// A writer that stores nothing: it counts the bytes ByteWriter would hold
// after the same calls, so the encoder's own writers size the files.
class ByteCounter {
 public:
  void u8(uint8_t) { size_ += 1; }
  void u16(uint16_t) { size_ += 2; }
  void u32(uint32_t) { size_ += 4; }
  void u64(uint64_t) { size_ += 8; }
  void i32(int32_t) { size_ += 4; }
  void i64(int64_t) { size_ += 8; }
  void str(std::string_view s) { size_ += 4 + s.size(); }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

template <typename Writer>
void write_sym_ref(Writer& w, const SymRef& ref) {
  w.u8(static_cast<uint8_t>(ref.kind));
  w.u32(static_cast<uint32_t>(ref.parts.size()));
  for (const std::string& p : ref.parts) w.str(p);
}

SymRef read_sym_ref(ByteReader& r) {
  SymRef ref;
  ref.kind = static_cast<bc::RefKind>(r.u8());
  uint32_t n = r.u32();
  r.check_count(n, 4, "symbolic reference part");  // each part is a str
  ref.parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) ref.parts.push_back(r.str());
  return ref;
}

template <typename Writer>
void write_tree(Writer& w, const TreeNode& node) {
  w.u32(static_cast<uint32_t>(node.il.size()));
  for (const ILEntry& e : node.il) {
    w.u16(e.pc);
    w.u16(static_cast<uint16_t>(e.units.size()));
    for (uint16_t u : e.units) w.u16(u);
    w.u8(e.ref ? 1 : 0);
    if (e.ref) write_sym_ref(w, *e.ref);
    w.u8(e.switch_payload ? 1 : 0);
    if (e.switch_payload) {
      w.i32(e.switch_payload->first_key);
      w.u16(static_cast<uint16_t>(e.switch_payload->target_pcs.size()));
      for (uint16_t t : e.switch_payload->target_pcs) w.u16(t);
    }
  }
  w.u16(node.sm_start);
  w.u8(node.sm_end ? 1 : 0);
  if (node.sm_end) w.u16(*node.sm_end);
  w.u32(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) write_tree(w, *child);
}

std::unique_ptr<TreeNode> read_tree(ByteReader& r, TreeNode* parent,
                                    size_t depth) {
  if (depth > kMaxTreeDepth) throw tree_too_deep();
  auto node = std::make_unique<TreeNode>();
  node->parent = parent;
  uint32_t n_il = r.u32();
  // pc, unit count and the two presence flags: 6 bytes at least.
  r.check_count(n_il, 6, "IL entry");
  node->il.reserve(n_il);
  for (uint32_t i = 0; i < n_il; ++i) {
    ILEntry e;
    e.pc = r.u16();
    uint16_t n_units = r.u16();
    e.units.reserve(n_units);
    for (uint16_t j = 0; j < n_units; ++j) e.units.push_back(r.u16());
    if (r.u8()) e.ref = read_sym_ref(r);
    if (r.u8()) {
      SwitchSnapshot snap;
      snap.first_key = r.i32();
      uint16_t n_targets = r.u16();
      for (uint16_t k = 0; k < n_targets; ++k) snap.target_pcs.push_back(r.u16());
      e.switch_payload = std::move(snap);
    }
    node->iim.emplace(e.pc, node->il.size());
    node->il.push_back(std::move(e));
  }
  node->sm_start = r.u16();
  if (r.u8()) node->sm_end = r.u16();
  uint32_t n_children = r.u32();
  for (uint32_t i = 0; i < n_children; ++i) {
    node->children.push_back(read_tree(r, node.get(), depth + 1));
  }
  return node;
}

template <typename Writer>
void write_value(Writer& w, const CollectedValue& v) {
  w.u8(static_cast<uint8_t>(v.kind));
  w.i64(v.i);
  w.str(v.s);
}

CollectedValue read_value(ByteReader& r) {
  CollectedValue v;
  v.kind = static_cast<CollectedValue::Kind>(r.u8());
  v.i = r.i64();
  v.s = r.str();
  return v;
}

template <typename Writer>
void write_key(Writer& w, const MethodKey& key) {
  w.str(key.class_descriptor);
  w.str(key.name);
  w.str(key.shorty);
}

MethodKey read_key(ByteReader& r) {
  MethodKey key;
  key.class_descriptor = r.str();
  key.name = r.str();
  key.shorty = r.str();
  return key;
}

// The one writer of the five files, each into its own writer. Encoding
// passes five ByteWriters; counting passes one ByteCounter five times.
template <typename Writer>
void write_files(const CollectionOutput& output, Writer& class_data,
                 Writer& field_data, Writer& static_values,
                 Writer& method_data, Writer& bytecode) {
  {  // class data file: descriptor, super, flags
    Writer& w = class_data;
    w.u32(static_cast<uint32_t>(output.classes.size()));
    for (const CollectedClass& c : output.classes) {
      w.str(c.descriptor);
      w.str(c.super_descriptor);
      w.u32(c.access_flags);
    }
  }
  {  // field data file: per class, instance + static field declarations
    Writer& w = field_data;
    w.u32(static_cast<uint32_t>(output.classes.size()));
    for (const CollectedClass& c : output.classes) {
      w.str(c.descriptor);
      w.u32(static_cast<uint32_t>(c.instance_fields.size()));
      for (const CollectedField& f : c.instance_fields) {
        w.str(f.name);
        w.str(f.type_descriptor);
        w.u32(f.access_flags);
      }
      w.u32(static_cast<uint32_t>(c.static_fields.size()));
      for (const CollectedField& f : c.static_fields) {
        w.str(f.name);
        w.str(f.type_descriptor);
        w.u32(f.access_flags);
      }
    }
  }
  {  // static values file
    Writer& w = static_values;
    w.u32(static_cast<uint32_t>(output.classes.size()));
    for (const CollectedClass& c : output.classes) {
      w.str(c.descriptor);
      w.u32(static_cast<uint32_t>(c.static_fields.size()));
      for (const CollectedField& f : c.static_fields) {
        w.str(f.name);
        write_value(w, f.static_value);
      }
    }
  }
  {  // method data file: signatures, frames, tries, lines, reflection
    Writer& w = method_data;
    w.u32(static_cast<uint32_t>(output.methods.size()));
    for (const auto& [key, rec] : output.methods) {
      write_key(w, key);
      w.u32(rec.access_flags);
      w.u16(rec.registers_size);
      w.u16(rec.ins_size);
      w.str(rec.return_type);
      w.u32(static_cast<uint32_t>(rec.param_types.size()));
      for (const std::string& p : rec.param_types) w.str(p);
      w.u8(rec.is_native ? 1 : 0);
      w.u64(rec.executions);
      w.u64(rec.dropped_trees);
      w.u32(static_cast<uint32_t>(rec.tries.size()));
      for (const dex::TryItem& t : rec.tries) {
        w.u16(t.start_pc);
        w.u16(t.end_pc);
        w.u16(t.handler_pc);
      }
      w.u32(static_cast<uint32_t>(rec.lines.size()));
      for (const dex::LineEntry& e : rec.lines) {
        w.u16(e.pc);
        w.u32(e.line);
      }
      w.u32(static_cast<uint32_t>(rec.reflection_targets.size()));
      for (const auto& [pc, ref] : rec.reflection_targets) {
        w.u16(pc);
        write_sym_ref(w, ref);
      }
    }
  }
  {  // bytecode file: collection trees per method
    Writer& w = bytecode;
    w.u64(output.total_instructions_observed);
    w.u64(output.divergences_detected);
    w.u64(output.reflection_sites);
    w.u32(static_cast<uint32_t>(output.methods.size()));
    for (const auto& [key, rec] : output.methods) {
      write_key(w, key);
      w.u32(static_cast<uint32_t>(rec.trees.size()));
      for (const auto& tree : rec.trees) write_tree(w, *tree);
    }
  }
}

}  // namespace

std::vector<uint8_t> serialize_tree(const TreeNode& tree) {
  ByteWriter w;
  write_tree(w, tree);
  return w.take();
}

CollectionFiles encode_collection(const CollectionOutput& output) {
  ByteWriter class_data, field_data, static_values, method_data, bytecode;
  write_files(output, class_data, field_data, static_values, method_data,
              bytecode);
  CollectionFiles files;
  files.class_data = class_data.take();
  files.field_data = field_data.take();
  files.static_values = static_values.take();
  files.method_data = method_data.take();
  files.bytecode = bytecode.take();
  return files;
}

support::ParseError tree_too_deep() {
  return support::ParseError("collection tree nested deeper than " +
                             std::to_string(kMaxTreeDepth) + " levels");
}

size_t encoded_size(const CollectionOutput& output) {
  ByteCounter counter;
  write_files(output, counter, counter, counter, counter, counter);
  return counter.size();
}

CollectionOutput decode_collection(const CollectionFiles& files) {
  CollectionOutput out;

  {
    ByteReader r(files.class_data);
    uint32_t n = r.u32();
    r.check_count(n, 12, "class");  // two strs and the access flags
    out.classes.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      out.classes[i].descriptor = r.str();
      out.classes[i].super_descriptor = r.str();
      out.classes[i].access_flags = r.u32();
    }
  }
  // Field-data and static-value records name their class by descriptor.
  // With duplicate descriptors the last class wins.
  std::unordered_map<std::string_view, size_t> class_index;
  for (size_t i = 0; i < out.classes.size(); ++i) {
    class_index[out.classes[i].descriptor] = i;
  }
  auto find_class = [&](const std::string& descriptor) -> CollectedClass* {
    auto it = class_index.find(descriptor);
    return it == class_index.end() ? nullptr : &out.classes[it->second];
  };
  {
    ByteReader r(files.field_data);
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      CollectedClass* cls = find_class(r.str());
      uint32_t n_inst = r.u32();
      for (uint32_t j = 0; j < n_inst; ++j) {
        CollectedField f;
        f.name = r.str();
        f.type_descriptor = r.str();
        f.access_flags = r.u32();
        if (cls != nullptr) cls->instance_fields.push_back(std::move(f));
      }
      uint32_t n_stat = r.u32();
      for (uint32_t j = 0; j < n_stat; ++j) {
        CollectedField f;
        f.name = r.str();
        f.type_descriptor = r.str();
        f.access_flags = r.u32();
        if (cls != nullptr) cls->static_fields.push_back(std::move(f));
      }
    }
  }
  {
    // Each class's static fields by name, in declaration order, indexed on
    // the class's first record. Within one record, the k-th value of a name
    // goes to the k-th static field of that name, the field the encoder
    // took it from, or to the last one when the class has fewer.
    struct SameName {
      std::vector<CollectedField*> fields;
      uint32_t record = UINT32_MAX;  // the record `next` counts in
      size_t next = 0;
    };
    std::vector<std::unordered_map<std::string_view, SameName>> statics(
        out.classes.size());
    ByteReader r(files.static_values);
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      CollectedClass* cls = find_class(r.str());
      uint32_t n_vals = r.u32();
      for (uint32_t j = 0; j < n_vals; ++j) {
        std::string name = r.str();
        CollectedValue v = read_value(r);
        if (cls == nullptr) continue;
        auto& by_name = statics[cls - out.classes.data()];
        if (by_name.empty()) {
          for (CollectedField& f : cls->static_fields) {
            by_name[f.name].fields.push_back(&f);
          }
        }
        auto it = by_name.find(name);
        if (it == by_name.end()) continue;
        SameName& same = it->second;
        if (same.record != i) {
          same.record = i;
          same.next = 0;
        }
        size_t k = std::min(same.next++, same.fields.size() - 1);
        same.fields[k]->static_value = std::move(v);
      }
    }
  }
  {
    ByteReader r(files.method_data);
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      MethodKey key = read_key(r);
      MethodRecord rec;
      rec.key = key;
      rec.access_flags = r.u32();
      rec.registers_size = r.u16();
      rec.ins_size = r.u16();
      rec.return_type = r.str();
      uint32_t n_params = r.u32();
      for (uint32_t j = 0; j < n_params; ++j) rec.param_types.push_back(r.str());
      rec.is_native = r.u8() != 0;
      rec.executions = r.u64();
      rec.dropped_trees = r.u64();
      uint32_t n_tries = r.u32();
      for (uint32_t j = 0; j < n_tries; ++j) {
        dex::TryItem t;
        t.start_pc = r.u16();
        t.end_pc = r.u16();
        t.handler_pc = r.u16();
        rec.tries.push_back(t);
      }
      uint32_t n_lines = r.u32();
      for (uint32_t j = 0; j < n_lines; ++j) {
        dex::LineEntry e;
        e.pc = r.u16();
        e.line = r.u32();
        rec.lines.push_back(e);
      }
      uint32_t n_refl = r.u32();
      for (uint32_t j = 0; j < n_refl; ++j) {
        uint16_t pc = r.u16();
        rec.reflection_targets.emplace(pc, read_sym_ref(r));
      }
      out.methods.emplace(std::move(key), std::move(rec));
    }
  }
  {
    ByteReader r(files.bytecode);
    out.total_instructions_observed = r.u64();
    out.divergences_detected = r.u64();
    out.reflection_sites = r.u64();
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      MethodKey key = read_key(r);
      uint32_t n_trees = r.u32();
      auto it = out.methods.find(key);
      for (uint32_t j = 0; j < n_trees; ++j) {
        auto tree = read_tree(r, nullptr, 1);
        if (it != out.methods.end()) it->second.trees.push_back(std::move(tree));
      }
    }
  }
  return out;
}

void CollectionFiles::save(const std::string& dir) const {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  support::write_file(dir + "/class_data.bin", class_data);
  support::write_file(dir + "/field_data.bin", field_data);
  support::write_file(dir + "/static_values.bin", static_values);
  support::write_file(dir + "/method_data.bin", method_data);
  support::write_file(dir + "/bytecode.bin", bytecode);
}

CollectionFiles CollectionFiles::load(const std::string& dir) {
  CollectionFiles files;
  files.class_data = support::read_file(dir + "/class_data.bin");
  files.field_data = support::read_file(dir + "/field_data.bin");
  files.static_values = support::read_file(dir + "/static_values.bin");
  files.method_data = support::read_file(dir + "/method_data.bin");
  files.bytecode = support::read_file(dir + "/bytecode.bin");
  return files;
}

}  // namespace dexlego::core

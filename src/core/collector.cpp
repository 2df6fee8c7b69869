#include "src/core/collector.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "src/bytecode/insn.h"
#include "src/runtime/object.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::core {

uint64_t TreeNode::fingerprint() const {
  support::Fnv1a h;
  h.add(il.size());
  for (const ILEntry& e : il) {
    h.add(e.pc);
    for (uint16_t u : e.units) h.add(u);
    if (e.ref) {
      h.add(static_cast<uint64_t>(e.ref->kind));
      for (const std::string& p : e.ref->parts) h.add(support::fnv1a(p));
    }
  }
  h.add(sm_start);
  h.add(sm_end ? *sm_end + 1 : 0);
  for (const auto& child : children) h.add(child->fingerprint());
  return h.digest();
}

MethodKey Collector::key_of(const rt::RtMethod& method) {
  return MethodKey{
      method.declaring != nullptr ? method.declaring->descriptor : "?",
      method.name, method.shorty};
}

namespace {

// The symbolic form of a decoded instruction's pool operand, resolved
// against the method's defining image; nullopt when it has none. A pure
// function of the image and the instruction's units.
std::optional<SymRef> symbolic_ref(const rt::RtMethod& method,
                                   const bc::Insn& insn) {
  bc::RefKind kind = bc::op_info(insn.op).ref;
  if (kind == bc::RefKind::kNone) return std::nullopt;
  const dex::DexFile& file = method.image->file;
  SymRef ref;
  ref.kind = kind;
  switch (kind) {
    case bc::RefKind::kString:
      ref.parts = {file.string_at(insn.idx)};
      break;
    case bc::RefKind::kType:
      ref.parts = {file.type_descriptor(insn.idx)};
      break;
    case bc::RefKind::kField: {
      const dex::FieldRef& f = file.fields.at(insn.idx);
      ref.parts = {file.type_descriptor(f.class_type), file.type_descriptor(f.type),
                   file.string_at(f.name)};
      break;
    }
    case bc::RefKind::kMethod: {
      const dex::MethodRef& m = file.methods.at(insn.idx);
      const dex::Proto& proto = file.protos.at(m.proto);
      ref.parts = {file.type_descriptor(m.class_type), file.string_at(m.name),
                   file.type_descriptor(proto.return_type)};
      for (uint32_t p : proto.param_types) {
        ref.parts.push_back(file.type_descriptor(p));
      }
      break;
    }
    case bc::RefKind::kNone:
      break;
  }
  return ref;
}

std::vector<CollectedField> snapshot_statics(const rt::RtClass& cls) {
  std::vector<CollectedField> fields;
  for (const rt::RtField& f : cls.static_fields) {
    CollectedField cf;
    cf.name = f.name;
    cf.type_descriptor = f.type_descriptor;
    cf.access_flags = f.access_flags;
    const rt::Value& v = cls.static_values.at(f.slot);
    if (!v.is_ref()) {
      cf.static_value.kind = CollectedValue::Kind::kInt;
      cf.static_value.i = v.i;
    } else if (v.ref != nullptr && v.ref->kind == rt::Object::Kind::kString) {
      cf.static_value.kind = CollectedValue::Kind::kString;
      cf.static_value.s = v.ref->str;
    } else {
      cf.static_value.kind = CollectedValue::Kind::kNull;
    }
    fields.push_back(std::move(cf));
  }
  return fields;
}

}  // namespace

void Collector::on_dex_loaded(const rt::DexImage& image) {
  if (image.id != 0) return;  // not the first image of a new runtime
  for (Activation& act : stack_) act.method = nullptr;
}

void Collector::on_class_loaded(rt::RtClass& cls) {
  if (cls.is_framework) return;
  if (class_index_.contains(cls.descriptor)) return;

  CollectedClass out;
  out.descriptor = cls.descriptor;
  out.super_descriptor = cls.super_descriptor;
  out.access_flags = cls.access_flags;
  for (const rt::RtField& f : cls.instance_fields) {
    CollectedField cf;
    cf.name = f.name;
    cf.type_descriptor = f.type_descriptor;
    cf.access_flags = f.access_flags;
    out.instance_fields.push_back(std::move(cf));
  }
  out.static_fields = snapshot_statics(cls);
  class_index_.emplace(cls.descriptor, output_.classes.size());
  output_.classes.push_back(std::move(out));
}

void Collector::on_class_initialized(rt::RtClass& cls) {
  if (cls.is_framework) return;
  // Load always precedes initialization, but be defensive about hooks
  // attached mid-run (force execution re-runs apps on a shared collector).
  auto it = class_index_.find(cls.descriptor);
  if (it == class_index_.end()) {
    on_class_loaded(cls);
    it = class_index_.find(cls.descriptor);
    if (it == class_index_.end()) return;
  }
  output_.classes[it->second].static_fields = snapshot_statics(cls);
}

MethodRecord& Collector::record_for(rt::RtMethod& method) {
  MethodKey key = key_of(method);
  auto it = output_.methods.find(key);
  if (it != output_.methods.end()) return it->second;

  MethodRecord rec;
  rec.key = key;
  rec.access_flags = method.access_flags;
  rec.is_native = method.is_native();
  if (method.code) {
    rec.registers_size = method.code->registers_size;
    rec.ins_size = method.code->ins_size;
    rec.tries = method.code->tries;
    rec.lines = method.code->lines;
  }
  // Proto descriptors straight from the defining image.
  if (method.image != nullptr) {
    const dex::DexFile& file = method.image->file;
    const dex::MethodRef& mref = file.methods.at(method.dex_method_idx);
    const dex::Proto& proto = file.protos.at(mref.proto);
    rec.return_type = file.type_descriptor(proto.return_type);
    for (uint32_t p : proto.param_types) {
      rec.param_types.push_back(file.type_descriptor(p));
    }
  }
  return output_.methods.emplace(std::move(key), std::move(rec)).first->second;
}

void Collector::on_method_entry(rt::RtMethod& method) {
  Activation act;
  act.key = key_of(method);
  act.method = &method;
  act.bytecode = method.code != nullptr;
  MethodRecord& rec = record_for(method);
  ++rec.executions;
  if (act.bytecode) {
    act.root = std::make_unique<TreeNode>();
    act.current = act.root.get();
  }
  stack_.push_back(std::move(act));
}

void Collector::on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                               std::span<const uint16_t> code) {
  ++output_.total_instructions_observed;
  if (stack_.empty() || !stack_.back().bytecode) return;
  Activation& act = stack_.back();
  if (&method != act.method) {
    if (act.key.name != method.name) return;  // defensive: mismatched frame
    act.method = nullptr;  // the tree now mixes methods: no early return
  }

  // The one decode of this instruction. It also bounds the units to `code`:
  // a truncated trailing instruction is undecodable (the runtime raises
  // VerifyError) and leaves nothing to collect.
  bc::Insn insn;
  try {
    insn = bc::decode_at(code, dex_pc);
  } catch (const support::ParseError&) {
    return;
  }
  std::span<const uint16_t> units =
      code.subspan(dex_pc, bc::consumed_units(insn));
  const uint16_t pc = static_cast<uint16_t>(dex_pc);

  TreeNode* current = act.current;
  auto it = current->iim.find(pc);
  // Already recorded: the same units at the same pc, from the same method.
  // Its SymRef is a function of the image and the units, so building the
  // entry would only find it equal (Algorithm 1's "same instruction").
  if (it != current->iim.end() && act.method != nullptr &&
      std::ranges::equal(current->il[it->second].units, units)) {
    return;
  }

  // Snapshot the instruction's units *now* — the array may change later.
  ILEntry entry;
  entry.pc = pc;
  entry.units.assign(units.begin(), units.end());
  try {
    entry.ref = symbolic_ref(method, insn);
    if (insn.op == bc::Op::kPackedSwitch) {
      // Payload units are data the interpreter never "executes"; snapshot
      // them as metadata so the reassembler can rebuild the switch.
      bc::SwitchPayload payload = bc::read_switch_payload(code, dex_pc, insn);
      SwitchSnapshot snap;
      snap.first_key = payload.first_key;
      for (int32_t rel : payload.rel_targets) {
        snap.target_pcs.push_back(
            static_cast<uint16_t>(static_cast<int32_t>(dex_pc) + rel));
      }
      entry.switch_payload = std::move(snap);
    }
  } catch (const support::ParseError&) {
    return;  // undecodable payload; nothing to collect
  } catch (const std::out_of_range&) {
    return;
  }

  if (it != current->iim.end()) {
    const ILEntry& old = current->il[it->second];
    if (old.same_instruction(entry)) {
      return;  // same instruction at same index: already recorded
    }
    // Divergence: the instruction at this dex_pc changed since we recorded
    // it — a new layer of self-modifying code (Algorithm 1 lines 9-13).
    auto child = std::make_unique<TreeNode>();
    child->parent = current;
    child->sm_start = entry.pc;
    current->children.push_back(std::move(child));
    act.current = current->children.back().get();
    current = act.current;
    ++output_.divergences_detected;
  } else if (current->parent != nullptr) {
    auto pit = current->parent->iim.find(entry.pc);
    if (pit != current->parent->iim.end()) {
      const ILEntry& old = current->parent->il[pit->second];
      if (old.same_instruction(entry)) {
        // Convergence: this divergence layer ended (Algorithm 1 lines 17-27).
        current->sm_end = entry.pc;
        act.current = current->parent;
        return;
      }
    }
  }

  current->iim.emplace(entry.pc, current->il.size());
  current->il.push_back(std::move(entry));
}

void Collector::finish_activation(Activation& act) {
  if (!act.bytecode || act.root == nullptr || act.root->il.empty()) return;
  auto it = output_.methods.find(act.key);
  if (it == output_.methods.end()) return;
  MethodRecord& rec = it->second;
  uint64_t fp = act.root->fingerprint();
  if (std::ranges::find(rec.tree_fingerprints, fp) !=
      rec.tree_fingerprints.end()) {
    return;  // keep unique trees only
  }
  if (rec.trees.size() >= options_.max_variants) {
    ++rec.dropped_trees;
    DL_DEBUG << "variant cap reached for " << rec.key.pretty();
    return;
  }
  rec.trees.push_back(std::move(act.root));
  rec.tree_fingerprints.push_back(fp);
}

void Collector::on_method_exit(rt::RtMethod& method) {
  (void)method;
  if (stack_.empty()) return;
  finish_activation(stack_.back());
  stack_.pop_back();
}

void Collector::on_reflective_invoke(rt::RtMethod& caller, uint32_t dex_pc,
                                     rt::RtMethod& target) {
  MethodRecord& rec = record_for(caller);
  SymRef ref;
  ref.kind = bc::RefKind::kMethod;
  const dex::DexFile& file = target.image->file;
  const dex::MethodRef& mref = file.methods.at(target.dex_method_idx);
  const dex::Proto& proto = file.protos.at(mref.proto);
  ref.parts = {target.declaring->descriptor, target.name,
               file.type_descriptor(proto.return_type)};
  for (uint32_t p : proto.param_types) ref.parts.push_back(file.type_descriptor(p));
  // Record whether the target is static so the reassembler can pick the
  // invoke opcode; encoded as an extra trailing marker part.
  ref.parts.push_back(target.is_static() ? "#static" : "#virtual");
  auto [it, inserted] =
      rec.reflection_targets.emplace(static_cast<uint16_t>(dex_pc), ref);
  if (inserted) ++output_.reflection_sites;
  else if (!(it->second == ref)) {
    DL_DEBUG << "multiple reflective targets at " << rec.key.pretty() << "@"
             << dex_pc << " — keeping first";
  }
}

namespace {

// `rec.tree_fingerprints`, hashing the trees first if the record did not
// come from a Collector (decode_collection does not hash).
const std::vector<uint64_t>& tree_fingerprints(MethodRecord& rec) {
  if (rec.tree_fingerprints.size() != rec.trees.size()) {
    rec.tree_fingerprints.clear();
    for (const auto& tree : rec.trees) {
      rec.tree_fingerprints.push_back(tree->fingerprint());
    }
  }
  return rec.tree_fingerprints;
}

}  // namespace

void merge_collection(CollectionOutput& into, CollectionOutput&& from,
                      size_t max_variants) {
  std::set<std::string> have_classes;
  for (const CollectedClass& c : into.classes) have_classes.insert(c.descriptor);
  for (CollectedClass& c : from.classes) {
    if (have_classes.insert(c.descriptor).second) {
      into.classes.push_back(std::move(c));
    }
  }

  for (auto& [key, rec] : from.methods) {
    auto it = into.methods.find(key);
    if (it == into.methods.end()) {
      into.methods.emplace(key, std::move(rec));
      continue;
    }
    MethodRecord& mine = it->second;
    mine.executions += rec.executions;
    mine.dropped_trees += rec.dropped_trees;
    // Kept trees plus the trees seen in this call: a capped-out tree is not
    // kept, so a later fold that brings it again counts it again.
    std::vector<uint64_t> seen = tree_fingerprints(mine);
    const std::vector<uint64_t>& incoming = tree_fingerprints(rec);
    for (size_t t = 0; t < rec.trees.size(); ++t) {
      uint64_t fp = incoming[t];
      if (std::ranges::find(seen, fp) != seen.end()) continue;
      seen.push_back(fp);
      if (mine.trees.size() >= max_variants) {
        ++mine.dropped_trees;
        continue;
      }
      mine.trees.push_back(std::move(rec.trees[t]));
      mine.tree_fingerprints.push_back(fp);
    }
    for (auto& [pc, ref] : rec.reflection_targets) {
      mine.reflection_targets.emplace(pc, std::move(ref));  // first one wins
    }
  }

  into.total_instructions_observed += from.total_instructions_observed;
  into.divergences_detected += from.divergences_detected;
  // The site counter mirrors the per-method maps exactly (the collector
  // increments it only on insert), so recompute rather than guess overlap.
  into.reflection_sites = 0;
  for (const auto& [key, rec] : into.methods) {
    into.reflection_sites += rec.reflection_targets.size();
  }
}

CollectionOutput Collector::take_output() {
  while (!stack_.empty()) {
    finish_activation(stack_.back());
    stack_.pop_back();
  }
  return std::move(output_);
}

}  // namespace dexlego::core
